"""The FCC core: the paper's four design principles plus UniFabric.

* DP#1 — :mod:`repro.core.etrans` / :mod:`repro.core.movement`: data
  movement as a managed service (elastic transactions, migration
  agents, the central orchestrator, software prefetching);
* DP#2 — :mod:`repro.core.heap`: the host-assisted node-type-conscious
  unified heap with smart pointers and temperature-driven migration;
* DP#3 — :mod:`repro.core.taskir` / :mod:`repro.core.idempotent` /
  :mod:`repro.core.runtime` / :mod:`repro.core.functions`: idempotent
  tasks and hardware cooperative scalable functions;
* DP#4 — :mod:`repro.core.arbiter`: the fabric central arbitrator over
  dedicated lanes;
* :mod:`repro.core.unifabric` ties them together.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "arbiter": ("ArbiterClient", "ArbiterError", "FabricArbiter"),
    "futures": ("DistributedFuture", "FutureExecutor", "gather"),
    "memkind": ("MEMKIND_DEFAULT", "MEMKIND_FABRIC",
                "MEMKIND_FABRIC_COHERENT", "MEMKIND_FABRIC_NONCOHERENT",
                "MEMKIND_LOCAL", "MemkindAllocator", "MemoryKind"),
    "replication": ("NodeReplicatedObject", "ReplicaHandle"),
    "reliability": ("CentralMemoryManager", "ProtectedRegion",
                    "ReliabilityError", "Shard", "ShardState"),
    "etrans": ("ElasticTransactionEngine", "ETrans", "ETransHandle",
               "OWNERSHIP_MODES"),
    "functions": ("FunctionChassis", "FunctionContext", "migrate_function",
                  "HandlerResult", "Message", "ScalableFunction"),
    "heap": ("AccessProfiler", "FreeList", "HeapError", "HeapObject",
             "HeapRuntime", "MemoryBin", "SmartPointer", "UnifiedHeap"),
    "idempotent": ("IdempotentRegion", "IdempotentTask", "find_regions",
                   "is_idempotent"),
    "movement": ("MigrationAgent", "MovementOrchestrator",
                 "SequentialPrefetcher"),
    "runtime": ("FailureInjector", "InjectedFailure", "TaskResult",
                "TaskRuntime"),
    "taskir": ("Op", "OpKind", "Task"),
    "unifabric": ("UniFabric",),
})
