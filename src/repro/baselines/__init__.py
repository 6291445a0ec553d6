"""Baselines the paper's proposals are measured against.

* :mod:`repro.baselines.commfabric` — the communication-fabric
  (Ethernet/RDMA) submission-completion world of section 3;
* :class:`StaticPlacementHeap` — far-memory object placement without
  node-type awareness or migration (vs. DP#2);
* vanilla CFC (exponential ramp-up credits + credit-agnostic FIFO
  scheduling) is expressed through configuration:
  ``scheduler="fifo"`` switches plus
  :class:`repro.pcie.credits.RampUpPolicy` credit domains;
* full-restart recovery (vs. DP#3) is
  ``TaskRuntime(recovery="restart")``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "commfabric": ("CommFabricChannel",),
    "static_heap": ("StaticPlacementHeap",),
})
