"""A fixed pure-Python job that gauges how fast the host runs right now.

On a shared host the same pass can take 2.5 s or 4.9 s minutes apart:
the CPU the process gets changes speed, and the change is not steal
time (process CPU time equals wall time).  The runner times this job
right before every step of a pass, and each set-up probe times it
right after set-up; host times are reported in units of it.  Both
slow down together, so the ratio keeps what the simulator's code
costs and drops most of what the host's state costs.

The job is shaped like the simulator's kernel loop: a binary heap of
small event objects ordered by (time, sequence), each event resuming a
generator that updates a shared dict.  It touches nothing in ``src``,
so no change to the simulator moves it.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter   # fcc: allow[wall-clock]
from typing import Dict, Generator

#: generator processes and resumes per process in one job
PROCESSES = 800
STEPS = 50


class _Event:
    __slots__ = ("time", "seq", "proc")

    def __init__(self, time: float, seq: int, proc: Generator) -> None:
        self.time = time
        self.seq = seq
        self.proc = proc

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def _process(state: Dict[str, int], steps: int) -> Generator:
    for i in range(steps):
        state["x"] = state.get("x", 0) + i
        yield i * 1.5


def reference_job() -> int:
    """Run the job once; returns the shared counter (always the same)."""
    state: Dict[str, int] = {}
    queue = [_Event(0.0, seq, _process(state, STEPS))
             for seq in range(PROCESSES)]
    heapq.heapify(queue)
    seq = PROCESSES
    while queue:
        event = heapq.heappop(queue)
        try:
            delay = next(event.proc)
        except StopIteration:
            continue
        heapq.heappush(queue, _Event(event.time + delay, seq, event.proc))
        seq += 1
    return state["x"]


#: what ``reference_job`` returns
EXPECTED = PROCESSES * STEPS * (STEPS - 1) // 2


def job_seconds() -> float:
    """Host seconds of one ``reference_job`` run, with the collector off.

    A full collection would walk whatever heap the caller holds, and the
    time would then grow with the caller's memory, not the host's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        result = reference_job()
        seconds = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError(f"reference job returned {result}, not "
                           f"{EXPECTED}")
    return seconds
