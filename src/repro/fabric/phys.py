"""Physical-layer model of one Flex Bus link direction.

Models what section 2.1 describes: framing/(de-)serialization of flits
at the configured lane width and transfer rate, 68 B / 256 B flit modes,
and x4/x8/x16 bifurcation.  The physical layer is a pure timing model —
it owns the wire (a unit resource: one flit serializes at a time) and
charges serialization plus propagation delay per flit.
"""

from __future__ import annotations

from typing import Generator

from .. import params
from ..sim import Environment, Event, Resource
from .flit import Flit

__all__ = ["PhysicalLayer", "bifurcate"]


class PhysicalLayer:
    """Timing model for one unidirectional physical link.

    ``transmit`` is a process-style generator: it acquires the wire,
    waits the serialization time of the flit, releases the wire, then
    waits the propagation delay.  Back-to-back flits therefore pipeline
    correctly (the wire frees before the previous flit lands).
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
        self._wire = Resource(env, capacity=1)
        self.flits_sent = 0
        self.bytes_sent = 0

    @property
    def bandwidth_bytes_per_ns(self) -> float:
        return self.params.bytes_per_ns

    def serialization_ns(self, flit: Flit) -> float:
        return self.params.serialization_ns(flit.size_bytes)

    def serialize(self, flit: Flit) -> Generator[Event, None, None]:
        """Acquire the wire and push one flit's bits onto it."""
        with self._wire.request() as grant:
            yield grant
            yield self.env.timeout(self.serialization_ns(flit))
        self.flits_sent += 1
        self.bytes_sent += flit.size_bytes

    def transmit(self, flit: Flit) -> Generator[Event, None, None]:
        """Serialize one flit onto the wire and propagate it."""
        yield from self.serialize(flit)
        yield self.env.timeout(self.params.propagation_ns)

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
