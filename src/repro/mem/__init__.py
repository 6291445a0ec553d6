"""Memory devices and hierarchy: caches, DRAM, the four node types.

Implements section 3's difference #2 — the "eclectic memory nodes" a
memory fabric brings back: the CPU-less NUMA expander, the CC-NUMA node
with directory coherence, the non-CC NUMA node, and the COMA attraction
memory — plus the host-side cache hierarchy that transparently
accelerates them (difference #1).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": ("AccessResult", "CacheConfig", "SetAssociativeCache",
              "VictimBuffer"),
    "coherence": ("CoherenceError", "Directory", "DirectoryEntry",
                  "LineState", "SnoopAction"),
    "coma": ("ComaCluster", "ComaError", "ComaStats"),
    "dram": ("DramDevice",),
    "hierarchy": ("AddressMap", "HostMemorySystem", "Region",
                  "default_cache_configs"),
    "nodes": ("AccessFault", "CcNumaNode", "CpulessExpander", "MemoryNode",
              "NodeKind", "NonCcNumaNode"),
})
