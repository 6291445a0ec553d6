"""The traced run: per-layer self time and call counts, no source edits.

Layers are the ``src/repro`` subpackages, with ``sim`` split into
``sim.engine`` (everything in ``sim/`` but ``resources.py``) and
``sim.resources``.  ``workloads/`` folds into ``experiments`` (it only
generates experiment inputs), ``baselines/`` into ``core`` (alternative
runtimes), and everything else — numpy, builtins, the standard library,
``analysis/``, package top-level modules and this benchmark — into
``other``.

A :class:`Tracer` times one call at a time.  Inside it:

* ``cProfile`` measures self time and call counts per function (a
  generator resume counts as a call, as cProfile counts it), rolled up
  per layer;
* counting wrappers on a few public entry points record exact call
  counts (a generator method counts once per invocation, not per resume);
* wrappers on ``Environment.__init__`` / ``Environment.run`` read
  ``Environment.stats`` before and after every run, so kernel counters
  are exact deltas even when one environment runs many times.

Everything is installed on enter and removed on exit.
"""

from __future__ import annotations

import cProfile
import functools
import gc
import os
from time import perf_counter   # fcc: allow[wall-clock]
from typing import Any, Callable, Dict, List, Tuple

import repro
from repro.fabric import LinkLayer, TransactionPort
from repro.mem import HostMemorySystem, SetAssociativeCache
from repro.sim import AllOf, AnyOf, Environment

LAYERS = ("sim.engine", "sim.resources", "fabric", "pcie", "core", "mem",
          "infra", "topo", "telemetry", "control", "experiments", "other")

_FOLDED = {"workloads": "experiments", "baselines": "core"}

#: counter name -> the (class, method) pairs whose invocations it counts
ENTRY_POINTS: Dict[str, Tuple[Tuple[type, str], ...]] = {
    "fabric.txn.request.calls": ((TransactionPort, "request"),),
    "fabric.txn.post.calls": ((TransactionPort, "post"),),
    "fabric.link.send.calls": ((LinkLayer, "send"),),
    "mem.hierarchy.access.calls": ((HostMemorySystem, "access"),),
    "mem.cache.access.calls": ((SetAssociativeCache, "access"),),
    "sim.condition.calls": ((AllOf, "__init__"), (AnyOf, "__init__")),
}

#: A simulated transaction is one call into one of these.
TRANSACTION_COUNTERS = ("fabric.txn.request.calls", "fabric.txn.post.calls",
                        "mem.hierarchy.access.calls")

#: Environment.stats deltas summed over every run
_SUMMED_STATS = {"events_processed": "sim.events",
                 "events_elided": "sim.events_elided",
                 "pool_hits": "sim.pool_hits",
                 "pool_misses": "sim.pool_misses",
                 "busy_seconds": "sim.run_s"}

SIM_COUNTERS = ("sim.events", "sim.events_elided", "sim.pool_hits",
                "sim.pool_misses", "sim.peak_queue_depth", "sim.envs",
                "sim.run_s", "sim.outside_run_s")

_SRC = os.path.dirname(os.path.realpath(repro.__file__)) + os.sep


@functools.lru_cache(maxsize=None)
def layer_of(filename: str) -> str:
    """The layer a code object's file belongs to."""
    path = os.path.realpath(filename)
    if not path.startswith(_SRC):
        return "other"
    parts = path[len(_SRC):].split(os.sep)
    if len(parts) == 1:
        return "other"
    package = _FOLDED.get(parts[0], parts[0])
    if package == "sim":
        return "sim.resources" if parts[1] == "resources.py" else "sim.engine"
    return package if package in LAYERS else "other"


def transactions(counts: Dict[str, int]) -> int:
    return sum(counts[name] for name in TRANSACTION_COUNTERS)


def empty_record() -> Dict[str, Any]:
    """A traced record: every counter this module reports, zeroed."""
    record: Dict[str, Any] = {"wall_s": 0.0}
    for layer in LAYERS:
        record[f"{layer}.self_s"] = 0.0
        record[f"{layer}.calls"] = 0
    for name in ENTRY_POINTS:
        record[name] = 0
    for name in SIM_COUNTERS:
        record[name] = 0
    return record


def merge(total: Dict[str, Any], part: Dict[str, Any]) -> None:
    """Fold one traced record into a running total."""
    for name, value in part.items():
        if name == "sim.peak_queue_depth":
            total[name] = max(total[name], value)
        else:
            total[name] += value


class Tracer:
    """Trace calls one at a time; ``trace(fn)`` returns (result, record)."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._sim: Dict[str, Any] = {}
        self._patched: List[Tuple[type, str, Any]] = []

    # -- patching --------------------------------------------------------

    def _patch(self, cls: type, name: str,
               make: Callable[[Callable], Callable]) -> None:
        own = cls.__dict__.get(name)
        self._patched.append((cls, name, own))
        setattr(cls, name, make(getattr(cls, name)))

    def _counting(self, counter: str) -> Callable[[Callable], Callable]:
        counts = self._counts

        def make(original: Callable) -> Callable:
            def counted(*args, **kwargs):
                counts[counter] += 1
                return original(*args, **kwargs)
            return counted
        return make

    def _env_init(self, original: Callable) -> Callable:
        sim = self._sim

        def init(env, *args, **kwargs):
            sim["sim.envs"] += 1
            original(env, *args, **kwargs)
        return init

    def _env_run(self, original: Callable) -> Callable:
        sim = self._sim

        def run(env, *args, **kwargs):
            before = env.stats
            try:
                return original(env, *args, **kwargs)
            finally:
                after = env.stats
                for key, name in _SUMMED_STATS.items():
                    sim[name] += after[key] - before[key]
                sim["sim.peak_queue_depth"] = max(
                    sim["sim.peak_queue_depth"], after["peak_queue_depth"])
        return run

    def __enter__(self) -> "Tracer":
        for counter, sites in ENTRY_POINTS.items():
            for cls, name in sites:
                self._patch(cls, name, self._counting(counter))
        self._patch(Environment, "__init__", self._env_init)
        self._patch(Environment, "run", self._env_run)
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, own in reversed(self._patched):
            if own is None:
                delattr(cls, name)
            else:
                setattr(cls, name, own)
        self._patched.clear()

    # -- tracing ---------------------------------------------------------

    def trace(self, fn: Callable[[], Any]) -> Tuple[Any, Dict[str, Any]]:
        """Run ``fn`` under the profiler; returns (result, record)."""
        record = empty_record()
        self._counts.update((name, 0) for name in ENTRY_POINTS)
        self._sim.update((name, 0) for name in SIM_COUNTERS)
        # Collect the previous call's garbage first: a suspended
        # generator finalized by the collector counts as a call into its
        # layer, and would land in whichever call happened to be running.
        gc.collect()
        profile = cProfile.Profile()
        t0 = perf_counter()
        profile.enable()
        try:
            result = fn()
        finally:
            profile.disable()
            record["wall_s"] = perf_counter() - t0
        for entry in profile.getstats():
            code = entry.code
            layer = (layer_of(code.co_filename)
                     if hasattr(code, "co_filename") else "other")
            record[f"{layer}.self_s"] += entry.inlinetime
            record[f"{layer}.calls"] += entry.callcount
        record.update(self._counts)
        record.update(self._sim)
        record["sim.outside_run_s"] = record["wall_s"] - record["sim.run_s"]
        return result, record


def shares(record: Dict[str, Any]) -> Dict[str, float]:
    """Each layer's share of the summed self time."""
    total = sum(record[f"{layer}.self_s"] for layer in LAYERS)
    return {layer: record[f"{layer}.self_s"] / total if total > 0 else 0.0
            for layer in LAYERS}
