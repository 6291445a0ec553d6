"""Flit and packet definitions for the simulated memory fabric.

A *packet* is a transaction-layer message (a memory read request, a
completion with data, a snoop...).  The link layer fragments packets
into *flits* — the fixed-size units that credits, serialization, and
switching operate on (section 2.1 of the paper: 68 B and 256 B flit
modes).
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from typing import Any, Dict, List, Optional

from .. import params

__all__ = ["Channel", "PacketKind", "Packet", "Flit", "TagAllocator",
           "fragment", "Reassembler"]


class Channel(enum.Enum):
    """CXL transaction-layer channels plus the DP#4 control lane."""

    CXL_IO = "cxl.io"
    CXL_MEM = "cxl.mem"
    CXL_CACHE = "cxl.cache"
    CONTROL = "control"      # dedicated in-band arbiter lane (DP#4)


class PacketKind(enum.Enum):
    """Transaction-layer opcodes (a practical subset of CXL's)."""

    MEM_RD = "MemRd"            # read request (no payload)
    MEM_WR = "MemWr"            # write request (carries payload)
    MEM_RD_DATA = "MemData"     # read completion (carries payload)
    MEM_WR_ACK = "Cmp"          # write completion (no payload)
    SNP_INV = "SnpInv"          # snoop-invalidate (CXL.cache)
    SNP_RSP = "RspI"            # snoop response
    IO_RD = "IoRd"              # non-coherent PCIe-style read
    IO_WR = "IoWr"              # non-coherent PCIe-style write
    IO_CPL = "IoCpl"            # PCIe-style completion
    CTRL_REQ = "CtrlReq"        # arbiter control-plane request
    CTRL_RSP = "CtrlRsp"        # arbiter control-plane response


#: Kinds that carry a data payload of ``nbytes`` on the wire.
PAYLOAD_KINDS = frozenset({
    PacketKind.MEM_WR, PacketKind.MEM_RD_DATA, PacketKind.IO_WR,
    PacketKind.IO_CPL,
})

#: Request kinds, for which a response with the same tag is expected.
REQUEST_KINDS = frozenset({
    PacketKind.MEM_RD, PacketKind.MEM_WR, PacketKind.SNP_INV,
    PacketKind.IO_RD, PacketKind.IO_WR, PacketKind.CTRL_REQ,
})

#: request kind -> matching response kind
RESPONSE_FOR = {
    PacketKind.MEM_RD: PacketKind.MEM_RD_DATA,
    PacketKind.MEM_WR: PacketKind.MEM_WR_ACK,
    PacketKind.SNP_INV: PacketKind.SNP_RSP,
    PacketKind.IO_RD: PacketKind.IO_CPL,
    PacketKind.IO_WR: PacketKind.IO_CPL,
    PacketKind.CTRL_REQ: PacketKind.CTRL_RSP,
}

_packet_counter = itertools.count()


@dataclasses.dataclass
class Packet:
    """A transaction-layer message routed through the fabric.

    ``src`` and ``dst`` are fabric port identifiers (PBR IDs assigned by
    the fabric manager).  ``tag`` pairs a response with its request.
    ``meta`` carries model-level annotations (ownership, QoS class...)
    that a real fabric would encode in header bits.  ``trace`` is the
    causal :class:`~repro.telemetry.causal.TraceContext` riding with a
    sampled transaction (None for untraced packets — the common case),
    and responses inherit it so end-to-end latency attributes to one
    trace id.
    """

    kind: PacketKind
    channel: Channel
    src: int
    dst: int
    addr: int = 0
    nbytes: int = params.CACHELINE_BYTES
    tag: int = 0
    birth_ns: float = 0.0
    meta: Dict[str, Any] = dataclasses.field(default_factory=dict)
    trace: Optional[Any] = None
    uid: int = dataclasses.field(default_factory=lambda: next(_packet_counter))

    @property
    def wire_bytes(self) -> int:
        """Bytes this packet occupies on the wire (header + payload)."""
        header = 16
        payload = self.nbytes if self.kind in PAYLOAD_KINDS else 0
        return header + payload

    def make_response(self, kind: Optional[PacketKind] = None,
                      nbytes: Optional[int] = None) -> "Packet":
        """Build the response packet for this request (src/dst swapped)."""
        if self.kind not in RESPONSE_FOR:
            raise ValueError(f"{self.kind} is not a request kind")
        response_kind = kind or RESPONSE_FOR[self.kind]
        if nbytes is None:
            nbytes = self.nbytes if response_kind in PAYLOAD_KINDS else 0
        return Packet(kind=response_kind, channel=self.channel,
                      src=self.dst, dst=self.src, addr=self.addr,
                      nbytes=nbytes, tag=self.tag, birth_ns=self.birth_ns,
                      meta=dict(self.meta), trace=self.trace)

    def __repr__(self) -> str:
        return (f"<Packet {self.kind.value} {self.channel.value} "
                f"{self.src}->{self.dst} addr={self.addr:#x} "
                f"tag={self.tag} {self.nbytes}B>")


@dataclasses.dataclass(eq=False)
class Flit:
    """A fixed-size link-layer unit.

    ``index``/``total`` locate the flit within its parent packet;
    reassembly completes when all ``total`` flits arrived.  ``flow`` is
    stamped by switches with the ingress-port flow name for per-flow
    credit accounting.  ``cspan`` holds the open causal span id while
    the flit sits in a queue whose enqueue and dequeue sides are
    different code paths (tx queue, egress scheduler); stages are
    sequential per flit so one slot suffices.
    """

    packet: Packet
    index: int
    total: int
    size_bytes: int
    vc: int = 0
    flow: Optional[str] = None
    cspan: Optional[int] = None

    @property
    def is_tail(self) -> bool:
        return self.index == self.total - 1

    def __repr__(self) -> str:
        return (f"<Flit {self.index + 1}/{self.total} of pkt {self.packet.uid} "
                f"vc={self.vc} {self.size_bytes}B>")


class TagAllocator:
    """Allocates transaction tags from a bounded namespace.

    Real adapters have a finite tag space (outstanding-request limit);
    exhausting it is a modelled back-pressure condition, so ``allocate``
    raises when empty and callers gate on :meth:`available`.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._free = list(range(capacity - 1, -1, -1))
        self._inflight: set = set()

    @property
    def available(self) -> int:
        return len(self._free)

    @property
    def in_use(self) -> int:
        return len(self._inflight)

    def allocate(self) -> int:
        if not self._free:
            raise RuntimeError("tag space exhausted")
        tag = self._free.pop()
        self._inflight.add(tag)
        return tag

    def free(self, tag: int) -> None:
        if tag not in self._inflight:
            raise ValueError(f"tag {tag} not in flight")
        self._inflight.remove(tag)
        self._free.append(tag)


def fragment(packet: Packet,
             flit_bytes: int = params.FLIT_BYTES_SMALL,
             vc: int = 0) -> List[Flit]:
    """Fragment a packet into link-layer flits."""
    total = params.flit_count(packet.wire_bytes, flit_bytes)
    return [Flit(packet=packet, index=i, total=total,
                 size_bytes=flit_bytes, vc=vc)
            for i in range(total)]


class Reassembler:
    """Rebuilds packets from (possibly interleaved) flit streams."""

    def __init__(self) -> None:
        self._partial: Dict[int, int] = {}
        self._completed: set = set()

    def push(self, flit: Flit) -> Optional[Packet]:
        """Account one flit; return the packet once it is complete."""
        uid = flit.packet.uid
        if uid in self._completed:
            raise ValueError(f"duplicate flit for packet {uid}")
        seen = self._partial.get(uid, 0) + 1
        if seen > flit.total:
            raise ValueError(f"duplicate flit for packet {uid}")
        if seen == flit.total:
            self._partial.pop(uid, None)
            self._completed.add(uid)
            if len(self._completed) > 100_000:
                self._completed.clear()  # bound memory on long runs
            return flit.packet
        self._partial[uid] = seen
        return None

    @property
    def pending_packets(self) -> int:
        return len(self._partial)
