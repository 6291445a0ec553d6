"""Kernel fast-path smoke tests: the pooled path must not allocate.

The perf claim itself (events/sec) is recorded by
``benchmarks/run_all.py`` — wall-clock assertions are too machine-
dependent for CI.  What CI *can* assert is the mechanism: once the
free lists are warm, steady-state stepping recycles every Timeout and
wakeup hook, so the live-object count across a long run stays flat.
"""

import gc
import sys
from pathlib import Path

import pytest

from repro.sim import Environment

#: Tracing (coverage, debuggers) attributes frame objects to the hot
#: path and defeats the refcount-based recycling guard.
_TRACED = sys.gettrace() is not None


def _tick_run(procs: int, steps: int) -> Environment:
    env = Environment()

    def looper():
        timeout = env.timeout
        for _ in range(steps):
            yield timeout(1.0)

    for _ in range(procs):
        env.process(looper())
    env.run()
    return env


@pytest.mark.skipif(_TRACED, reason="tracing defeats refcount recycling")
def test_steady_state_allocates_no_per_step_garbage():
    # Warm-up fills the pools and settles interpreter-level caches.
    _tick_run(8, 50)
    gc.collect()
    env = Environment()

    def looper(steps):
        timeout = env.timeout
        for _ in range(steps):
            yield timeout(1.0)

    for _ in range(8):
        env.process(looper(20))
    env.run()          # fill this environment's pools
    gc.collect()
    baseline = len(gc.get_objects())

    for _ in range(8):
        env.process(looper(500))
    env.run()          # 4000 steps through the warm pools
    gc.collect()
    grown = len(gc.get_objects()) - baseline

    # 4000 steps must not leave thousands of objects behind; allow a
    # small constant slack for interpreter-internal caches.
    assert grown < 64, f"steady state leaked {grown} objects"


def test_pools_recycle_and_are_bounded():
    env = _tick_run(16, 100)
    stats = env.stats
    assert 1 <= stats["pooled_timeouts"] <= 512
    assert stats["pooled_hooks"] <= 512
    assert stats["events_processed"] == 16 * 102


@pytest.mark.skipif(_TRACED, reason="timing under tracing is meaningless")
def test_microbench_runs_and_reports_rate():
    env = _tick_run(50, 200)
    stats = env.stats
    assert stats["events_per_sec"] > 0
    assert stats["busy_seconds"] > 0
    assert stats["peak_queue_depth"] >= 50


# -- benchmark harness: BENCH numbering tolerates gaps -------------------


def test_next_bench_path_walks_numbering_gaps(tmp_path):
    repo = Path(__file__).resolve().parent.parent
    if str(repo / "benchmarks") not in sys.path:
        sys.path.insert(0, str(repo / "benchmarks"))
    from run_all import next_bench_path

    assert next_bench_path(tmp_path).name == "BENCH_1.json"
    (tmp_path / "BENCH_1.json").write_text("{}")
    (tmp_path / "BENCH_3.json").write_text("{}")      # gap at 2
    assert next_bench_path(tmp_path).name == "BENCH_4.json"
    (tmp_path / "BENCH_4.json").write_text("{}")
    (tmp_path / "BENCH_5b.json").write_text("{}")     # non-numeric squatter
    assert next_bench_path(tmp_path).name == "BENCH_5.json"
    (tmp_path / "BENCH_5.json").write_text("{}")
    assert next_bench_path(tmp_path).name == "BENCH_6.json"
