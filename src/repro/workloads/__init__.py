"""Workloads: trace generators and the applications driving evaluation.

* :mod:`repro.workloads.traces` — synthetic access patterns;
* :mod:`repro.workloads.kvstore` — a key-value store over the unified
  heap;
* :mod:`repro.workloads.graph` — CSR graph traversal over fabric
  memory;
* :mod:`repro.workloads.mimo` — the section 5 case study: software
  massive-MIMO baseband processing (Agora-style).

Every name below loads its submodule on first access (PEP 562), so
importing this package loads numpy only when a caller asks for the
case study.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".": ("traces",),
    "graph": ("CsrGraph", "random_graph"),
    "kvstore": ("KvStats", "KvStore"),
    "mimo": ("KERNEL_ORDER", "DOWNLINK_KERNEL_ORDER", "DownlinkPipeline",
             "downlink_received_bits", "MimoChannel", "MimoConfig",
             "UplinkPipeline", "flops_to_ns", "qpsk_demodulate",
             "qpsk_modulate", "repetition_decode", "repetition_encode"),
})
