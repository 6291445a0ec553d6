"""Physical-layer model of one Flex Bus link direction.

Models what section 2.1 describes: framing/(de-)serialization of flits
at the configured lane width and transfer rate, 68 B / 256 B flit modes,
and x4/x8/x16 bifurcation.  The physical layer is a pure timing model:
it owns the wire (a unit resource: one flit serializes at a time), counts
what was serialized onto it and knows the serialization time of a flit.
The link layer's transmit loop (``LinkLayer.transmit_loop``) holds the
wire for that time; propagation then overlaps with the next flit.
"""

from __future__ import annotations

from .. import params
from ..sim import Environment, Resource
from .flit import Flit

__all__ = ["PhysicalLayer", "bifurcate"]


class PhysicalLayer:
    """Timing model for one unidirectional physical link.

    A sender holds :attr:`wire` for :meth:`serialization_ns` per flit
    and then bumps :attr:`flits_sent` and :attr:`bytes_sent`; the wire
    frees before the flit lands, so back-to-back flits pipeline.
    """

    def __init__(self, env: Environment, link_params: params.LinkParams,
                 name: str = "phys") -> None:
        if link_params.lanes not in params.LANE_WIDTHS:
            raise ValueError(
                f"unsupported bifurcation x{link_params.lanes}; "
                f"must be one of {params.LANE_WIDTHS}")
        if link_params.flit_bytes not in (params.FLIT_BYTES_SMALL,
                                          params.FLIT_BYTES_LARGE):
            raise ValueError(f"unsupported flit size {link_params.flit_bytes}")
        self.env = env
        self.params = link_params
        self.name = name
        self.wire = Resource(env, capacity=1)
        self.flits_sent = 0
        self.bytes_sent = 0

    @property
    def bandwidth_bytes_per_ns(self) -> float:
        return self.params.bytes_per_ns

    def serialization_ns(self, flit: Flit) -> float:
        return self.params.serialization_ns(flit.size_bytes)

    def utilization(self, elapsed_ns: float) -> float:
        """Fraction of the elapsed window the wire spent serializing."""
        if elapsed_ns <= 0:
            return 0.0
        busy = self.bytes_sent / self.bandwidth_bytes_per_ns
        return min(1.0, busy / elapsed_ns)


def bifurcate(link_params: params.LinkParams, ways: int) -> list:
    """Split an x16 link into ``ways`` equal narrower links.

    Models Flex Bus bifurcation: an x16 port can be configured as
    2 x8 or 4 x4.  Credits are split evenly too.
    """
    if ways not in (2, 4):
        raise ValueError(f"can only bifurcate 2 or 4 ways, got {ways}")
    if link_params.lanes % ways != 0:
        raise ValueError(
            f"x{link_params.lanes} does not split {ways} ways")
    lanes = link_params.lanes // ways
    if lanes not in params.LANE_WIDTHS:
        raise ValueError(f"resulting width x{lanes} unsupported")
    credits = max(1, link_params.credits // ways)
    return [
        params.LinkParams(lanes=lanes, gt_per_s=link_params.gt_per_s,
                          flit_bytes=link_params.flit_bytes,
                          propagation_ns=link_params.propagation_ns,
                          credits=credits)
        for _ in range(ways)
    ]
