"""Determinism regression tests for the kernel fast path.

Runs the two headline experiments (C2 PCIe interference and A1 movement
ablation) twice each and asserts the simulated results — latencies AND
the number of kernel events dispatched — are bit-identical.  This is
the guard that event pooling, the calendar queue, and the vectorized
trace draws did not change scheduling semantics: any divergence in
``(time, priority, seq)`` order shows up as a different float or a
different event count here.
"""

import pytest

from repro.experiments import RunContext, run_summary
from repro.experiments.defs.fabric import one_way_latency
from repro.sim import total_events_processed


def _counted(fn, *args):
    before = total_events_processed()
    result = fn(RunContext({}), *args)
    return result, total_events_processed() - before


@pytest.mark.parametrize("hosts", [1, 8])
def test_c2_interference_bit_identical(hosts):
    first, events_first = _counted(one_way_latency, hosts)
    second, events_second = _counted(one_way_latency, hosts)
    assert first == second
    assert events_first == events_second
    assert events_first > 0


@pytest.mark.parametrize("mode", ["naive-sync", "prefetch", "managed"])
def test_a1_movement_bit_identical(mode):
    from repro.experiments.defs.movement import run_movement_case

    first, events_first = _counted(run_movement_case, mode)
    second, events_second = _counted(run_movement_case, mode)
    assert first == second
    assert events_first == events_second
    assert events_first > 0


def test_c2_sweep_matches_recorded_shape():
    """The full sweep is self-consistent run to run (MOPS-row guard)."""
    rows_first = run_summary("pcie_interference")["rows"]
    rows_second = run_summary("pcie_interference")["rows"]
    assert rows_first == rows_second
