"""UniFabric: a reproduction of *Fabric-Centric Computing* (HOTOS '23).

A discrete-event-simulated CXL memory fabric and composable
infrastructure, plus the FCC runtime the paper proposes: elastic
transactions and managed data movement (DP#1), the node-type-conscious
unified heap (DP#2), idempotent tasks and cooperative scalable
functions (DP#3), and the fabric central arbitrator (DP#4).

Quickstart::

    from repro import Environment, ClusterSpec, build_cluster, UniFabric

    env = Environment()
    cluster = build_cluster(env, ClusterSpec(hosts=2))
    uni = UniFabric(env, cluster)
    heap = uni.heap("host0")
    obj = heap.allocate(4096)              # lands in the fastest tier

Every name exported here loads its subpackage on first use, so
``import repro`` itself runs no model code (see ``repro._lazy``).

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".": ("params",),
    "core": ("ArbiterClient", "ETrans", "FabricArbiter", "FailureInjector",
             "FunctionChassis", "HandlerResult", "IdempotentTask",
             "Message", "MovementOrchestrator", "ScalableFunction",
             "SmartPointer", "Task", "TaskRuntime", "UniFabric",
             "UnifiedHeap"),
    "infra": ("Cluster", "ClusterSpec", "CpuCore", "FaaSpec", "FamSpec",
              "HostServer", "build_cluster"),
    "mem": ("NodeKind",),
    "sim": ("Environment", "SimRng", "StatSeries"),
    "telemetry": ("MetricRegistry", "Telemetry", "TimelineSampler",
                  "span"),
})
__all__ += ["__version__"]
