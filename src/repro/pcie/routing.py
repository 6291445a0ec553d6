"""PBR / HBR routing structures (CXL 2.0+, section 2.1 of the paper).

A CXL fabric is organized into *domains*.  Inside a domain, switches are
Port-Based-Routing (PBR) capable: every edge port carries a 12-bit PBR
ID (up to 4096 per domain) and switches forward on exact-match tables.
Domains are glued together with Hierarchy-Based-Routing (HBR) links:
a destination in a foreign domain is matched by its domain prefix and
forwarded toward the inter-domain gateway.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional

__all__ = ["PbrId", "RoutingTable", "PBR_ID_BITS", "MAX_PBR_IDS"]

PBR_ID_BITS = 12
MAX_PBR_IDS = 1 << PBR_ID_BITS          # 4096 edge ports per domain
DOMAIN_SHIFT = PBR_ID_BITS              # global id = (domain << 12) | pbr


@dataclasses.dataclass(frozen=True, order=True)
class PbrId:
    """A fabric-global endpoint address: (domain, 12-bit PBR id)."""

    domain: int
    local: int

    def __post_init__(self) -> None:
        if not 0 <= self.local < MAX_PBR_IDS:
            raise ValueError(
                f"PBR id {self.local} outside 12-bit range [0, {MAX_PBR_IDS})")
        if self.domain < 0:
            raise ValueError(f"negative domain {self.domain}")

    @property
    def global_id(self) -> int:
        return (self.domain << DOMAIN_SHIFT) | self.local

    @classmethod
    def from_global(cls, global_id: int) -> "PbrId":
        return cls(domain=global_id >> DOMAIN_SHIFT,
                   local=global_id & (MAX_PBR_IDS - 1))

    def __repr__(self) -> str:
        return f"PbrId({self.domain}:{self.local})"


class RoutingTable:
    """Per-switch forwarding table filled by the fabric manager.

    Two match stages, mirroring PBR-within-domain + HBR-across-domain:

    1. exact match on the destination's global id (intra-domain PBR);
    2. prefix match on the destination's domain (HBR toward a gateway).

    A destination may have several equal-cost egress ports (multipath);
    :meth:`lookup` returns the primary, :meth:`candidates` returns all
    of them so adaptive switches can pick the least-loaded (the
    "adaptive routing techniques" of section 2.1).
    """

    def __init__(self, switch_domain: int) -> None:
        self.switch_domain = switch_domain
        # global id -> list of equal-cost egress ports (primary first)
        self._exact: Dict[int, List[int]] = {}
        self._domains: Dict[int, List[int]] = {}
        self._default: Optional[int] = None
        # global id -> candidates, filled by `route`; every route change
        # clears it.
        self._memo: Dict[int, List[int]] = {}

    def add_endpoint(self, dst: PbrId, egress_port: int) -> None:
        """Install an exact (PBR) route (appends an ECMP candidate)."""
        ports = self._exact.setdefault(dst.global_id, [])
        if egress_port not in ports:
            ports.append(egress_port)
        self._memo.clear()

    def add_domain(self, domain: int, egress_port: int) -> None:
        """Install an HBR route toward a foreign domain."""
        if domain == self.switch_domain:
            raise ValueError("HBR route to own domain is invalid")
        ports = self._domains.setdefault(domain, [])
        if egress_port not in ports:
            ports.append(egress_port)
        self._memo.clear()

    def set_default(self, egress_port: int) -> None:
        self._default = egress_port
        self._memo.clear()

    def candidates(self, dst: PbrId) -> List[int]:
        """All equal-cost egress ports for ``dst`` (primary first)."""
        ports = self._exact.get(dst.global_id)
        if ports:
            return list(ports)
        if dst.domain != self.switch_domain:
            ports = self._domains.get(dst.domain)
            if ports:
                return list(ports)
        if self._default is not None:
            return [self._default]
        raise KeyError(f"no route to {dst!r} in domain {self.switch_domain}")

    def route(self, global_id: int) -> List[int]:
        """:meth:`candidates` for a global id, memoized per id.

        The per-flit lookup of a switch: the list is shared between
        calls, so the caller must not change it.
        """
        ports = self._memo.get(global_id)
        if ports is None:
            ports = self._memo[global_id] = self.candidates(
                PbrId.from_global(global_id))
        return ports

    def lookup(self, dst: PbrId) -> int:
        """Return the primary egress port for ``dst``."""
        return self.candidates(dst)[0]

    def __contains__(self, dst: PbrId) -> bool:
        try:
            self.lookup(dst)
            return True
        except KeyError:
            return False

    def __len__(self) -> int:
        return len(self._exact) + len(self._domains)

    def entries(self) -> Iterator[tuple]:
        """Yield (kind, key, egress_port) rows, for inspection/printing."""
        for gid, ports in sorted(self._exact.items()):
            yield ("pbr", PbrId.from_global(gid), ports[0])
        for domain, ports in sorted(self._domains.items()):
            yield ("hbr", domain, ports[0])
        if self._default is not None:
            yield ("default", None, self._default)
