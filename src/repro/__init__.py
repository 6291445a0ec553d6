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

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from . import params
from .core import (
    ArbiterClient,
    ETrans,
    FabricArbiter,
    FailureInjector,
    FunctionChassis,
    HandlerResult,
    IdempotentTask,
    Message,
    MovementOrchestrator,
    ScalableFunction,
    SmartPointer,
    Task,
    TaskRuntime,
    UniFabric,
    UnifiedHeap,
)
from .infra import (
    Cluster,
    ClusterSpec,
    CpuCore,
    FaaSpec,
    FamSpec,
    HostServer,
    build_cluster,
)
from .mem import NodeKind
from .sim import Environment, SimRng, StatSeries
from .telemetry import MetricRegistry, Telemetry, TimelineSampler, span

__version__ = "1.0.0"

__all__ = [
    "params",
    "ArbiterClient",
    "ETrans",
    "FabricArbiter",
    "FailureInjector",
    "FunctionChassis",
    "HandlerResult",
    "IdempotentTask",
    "Message",
    "MovementOrchestrator",
    "ScalableFunction",
    "SmartPointer",
    "Task",
    "TaskRuntime",
    "UniFabric",
    "UnifiedHeap",
    "Cluster",
    "ClusterSpec",
    "CpuCore",
    "FaaSpec",
    "FamSpec",
    "HostServer",
    "build_cluster",
    "NodeKind",
    "Environment",
    "SimRng",
    "StatSeries",
    "MetricRegistry",
    "Telemetry",
    "TimelineSampler",
    "span",
    "__version__",
]
