"""Data movement as a managed service (design principle #1).

Three cooperating pieces:

* :class:`MovementOrchestrator` — the central control-plane module: it
  owns per-host remote-bandwidth budgets (closed-form token buckets:
  a wait costs one timeout and an idle budget no event), records the
  rack-scale traffic matrix the paper says memory fabrics create, and
  hosts one migration agent per memory domain;
* :class:`MigrationAgent` — the executor for delegated transactions in
  one memory domain, draining a priority queue so urgent moves pass
  bulk ones;
* :class:`SequentialPrefetcher` — the SW-assisted sync-path
  optimization: detects strided access and preloads the working set
  into the host hierarchy so synchronous loads hit caches.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, Optional, Tuple

from .. import params
from ..sim import Environment, Event, PriorityStore
from ..telemetry import span
from ..telemetry.core import QUEUEING
from .etrans import ETrans, ETransHandle, ElasticTransactionEngine, _finish

__all__ = ["MovementOrchestrator", "MigrationAgent", "SequentialPrefetcher"]


class MigrationAgent:
    """Executes delegated elastic transactions for one memory domain."""

    def __init__(self, env: Environment, engine: ElasticTransactionEngine,
                 name: str = "agent") -> None:
        self.env = env
        self.engine = engine
        self.name = name
        self._queue = PriorityStore(env)
        self._seq = itertools.count()
        self.executed = 0
        self._tel = tel = env.telemetry
        if tel is not None:
            self._site_queue = f"movement.{name}.queue"
        env.process(self._worker(), name=f"{name}.worker", daemon=True)

    def enqueue(self, trans: ETrans,
                handle: Optional[ETransHandle]) -> None:
        if self._tel is not None:
            trace = trans.attributes.get("trace")
            if trace is not None:
                # Residency in the agent's priority queue; closed by
                # the worker when the transaction enters service.
                trans.attributes["_cspan"] = self._tel.begin(
                    self._site_queue, trace, QUEUEING)
        self._queue.put_forget(
            (trans.priority, next(self._seq), trans, handle))

    def backlog(self) -> int:
        return len(self._queue)

    def _worker(self) -> Generator[Event, None, None]:
        while True:
            _, _, trans, handle = yield self._queue.get()
            if self._tel is not None:
                open_span = trans.attributes.pop("_cspan", None)
                if open_span is not None:
                    self._tel.end(open_span, trans.attributes["trace"])
            with span(self.env, "movement.execute", track=self.name,
                      prio=trans.priority, nbytes=trans.total_src_bytes):
                yield from self.engine.execute(trans)
            self.executed += 1
            _finish(trans, handle)


class MovementOrchestrator:
    """The central movement service over one cluster."""

    def __init__(self, env: Environment,
                 remote_bw_bytes_per_us: Optional[float] = None,
                 burst_bytes: int = 64 * 1024) -> None:
        self.env = env
        self.remote_bw_bytes_per_us = remote_bw_bytes_per_us
        self.burst_bytes = burst_bytes
        self._agents: Dict[str, MigrationAgent] = {}
        self._engines: Dict[str, ElasticTransactionEngine] = {}
        # host name -> sim time at which its bucket is full again (a
        # host with no entry has a full bucket)
        self._full_at: Dict[str, float] = {}
        # (src region name, dst region name) -> bytes moved
        self.traffic_matrix: Dict[Tuple[str, str], int] = {}
        self.bytes_moved = 0
        self._tel = tel = env.telemetry
        if tel is not None:
            self._m_bytes_moved = tel.registry.counter("movement.bytes_moved")

    # -- registration ------------------------------------------------------

    def attach_host(self, host,
                    chunk_bytes: int = 4096) -> ElasticTransactionEngine:
        """Create the engine + agent for one host's memory domain."""
        if host.name in self._agents:
            raise ValueError(f"host {host.name!r} already attached")
        engine = ElasticTransactionEngine(self.env, host, self,
                                          chunk_bytes=chunk_bytes)
        self._engines[host.name] = engine
        agent = MigrationAgent(
            self.env, engine, name=f"{host.name}.agent")
        self._agents[host.name] = agent
        if self._tel is not None:
            self._tel.add_probe(f"movement.{host.name}.agent_backlog",
                                agent.backlog, track="movement")
        return engine

    def engine(self, host_name: str) -> ElasticTransactionEngine:
        return self._engines[host_name]

    def agent(self, host_name: str) -> MigrationAgent:
        return self._agents[host_name]

    # -- the control plane ----------------------------------------------------

    def enqueue(self, host, trans: ETrans,
                handle: Optional[ETransHandle]) -> None:
        self._agents[host.name].enqueue(trans, handle)

    def admit(self, host, nbytes: int) -> Generator[Event, None, None]:
        """Throttle: spend bandwidth tokens before a chunk may move.

        The host's bucket holds ``burst_bytes``, starts full and
        refills continuously at ``remote_bw_bytes_per_us``; a chunk
        spends ``min(nbytes, burst_bytes)``.  Its admit time is closed
        form: the first instant the level covers the spend, and never
        before a chunk admitted earlier (a waiting chunk empties the
        bucket, so admission is FIFO in call order).
        """
        if self.remote_bw_bytes_per_us is None:
            return
            yield  # pragma: no cover - keeps this a generator
        rate = self.remote_bw_bytes_per_us / 1000.0   # bytes per ns
        spend = min(nbytes, self.burst_bytes)
        now = self.env.now
        full_at = self._full_at.get(host.name, now)
        admit_at = max(now, full_at - (self.burst_bytes - spend) / rate)
        self._full_at[host.name] = max(full_at, admit_at) + spend / rate
        if admit_at > now:
            yield self.env.timeout(admit_at - now)

    def account(self, host, src_addr: int, dst_addr: int,
                nbytes: int) -> None:
        """Record one chunk in the rack traffic matrix."""
        src_region = self._region_name(host, src_addr)
        dst_region = self._region_name(host, dst_addr)
        key = (src_region, dst_region)
        self.traffic_matrix[key] = self.traffic_matrix.get(key, 0) + nbytes
        self.bytes_moved += nbytes
        if self._tel is not None:
            self._m_bytes_moved.inc(nbytes, time=self.env.now)

    def _region_name(self, host, addr: int) -> str:
        try:
            return host.address_map.resolve(addr).name
        except KeyError:
            return "unmapped"

    def format_traffic_matrix(self) -> str:
        lines = ["traffic matrix (src region -> dst region, bytes):"]
        for (src, dst), nbytes in sorted(self.traffic_matrix.items()):
            lines.append(f"  {src:>16} -> {dst:<16} {nbytes:>12}")
        return "\n".join(lines)


class SequentialPrefetcher:
    """Stride-detecting software prefetcher over a host hierarchy.

    Call :meth:`observe` on the demand-access stream; once ``trigger``
    consecutive accesses with one stride are seen, the next ``depth``
    lines are fetched asynchronously so the synchronous path hits in
    cache (the paper's "preloading the application working set").
    """

    def __init__(self, env: Environment, host, depth: int = 8,
                 trigger: int = 3) -> None:
        if depth < 1 or trigger < 2:
            raise ValueError("depth must be >= 1 and trigger >= 2")
        self.env = env
        self.host = host
        self.depth = depth
        self.trigger = trigger
        self._last_addr: Optional[int] = None
        self._stride: Optional[int] = None
        self._run = 0
        self._issued_until: int = -1
        self.prefetches_issued = 0

    def observe(self, addr: int) -> None:
        if self._last_addr is not None:
            stride = addr - self._last_addr
            if stride != 0 and stride == self._stride:
                self._run += 1
            else:
                self._stride = stride if stride != 0 else None
                self._run = 1
        self._last_addr = addr
        if (self._stride is not None and self._run >= self.trigger
                and addr > self._issued_until - self.depth
                * abs(self._stride) // 2):
            self._launch(addr)

    def _launch(self, addr: int) -> None:
        for i in range(1, self.depth + 1):
            target = addr + i * self._stride
            if target < 0:
                break
            try:
                self.host.address_map.resolve(target)
            except KeyError:
                break
            self.prefetches_issued += 1
            self.env.process(self._prefetch(target),
                             name="prefetch")
        self._issued_until = addr + self.depth * self._stride

    def _prefetch(self, addr: int) -> Generator[Event, None, None]:
        yield from self.host.mem.access(addr, False)
