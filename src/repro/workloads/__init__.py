"""Workloads: trace generators and the applications driving evaluation.

* :mod:`repro.workloads.traces` — synthetic access patterns;
* :mod:`repro.workloads.kvstore` — a key-value store over the unified
  heap;
* :mod:`repro.workloads.graph` — CSR graph traversal over fabric
  memory;
* :mod:`repro.workloads.mimo` — the section 5 case study: software
  massive-MIMO baseband processing (Agora-style).

The MIMO names below resolve on first access (PEP 562), so importing
this package loads numpy only when a caller asks for the case study.
"""

from . import traces
from .graph import CsrGraph, random_graph
from .kvstore import KvStats, KvStore

_MIMO_EXPORTS = frozenset({
    "DOWNLINK_KERNEL_ORDER",
    "DownlinkPipeline",
    "downlink_received_bits",
    "KERNEL_ORDER",
    "MimoChannel",
    "MimoConfig",
    "UplinkPipeline",
    "flops_to_ns",
    "qpsk_demodulate",
    "qpsk_modulate",
    "repetition_decode",
    "repetition_encode",
})


def __getattr__(name: str):
    if name not in _MIMO_EXPORTS:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    from . import mimo
    value = getattr(mimo, name)
    globals()[name] = value
    return value


__all__ = [
    "traces",
    "CsrGraph",
    "random_graph",
    "KvStats",
    "KvStore",
    "KERNEL_ORDER",
    "DOWNLINK_KERNEL_ORDER",
    "DownlinkPipeline",
    "downlink_received_bits",
    "MimoChannel",
    "MimoConfig",
    "UplinkPipeline",
    "flops_to_ns",
    "qpsk_demodulate",
    "qpsk_modulate",
    "repetition_decode",
    "repetition_encode",
]
