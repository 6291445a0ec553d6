"""Golden tables and paper-shape invariants, through ``repro bench``.

``tests/golden/<experiment>.txt`` is the table ``repro bench
<experiment>`` prints at default parameters, byte for byte, for every
registered experiment with a renderer; a registry or renderer change
that alters any published number fails loudly.  The same default run
(one per experiment, shared by all three tests) must hold every
invariant the experiment registers, and observing a run must not
change its summary or verdicts.

Regenerate a golden after an *intentional* change with::

    PYTHONPATH=src python -m repro bench <experiment> \\
        > tests/golden/<experiment>.txt
"""

from __future__ import annotations

import functools
from pathlib import Path

import pytest

from repro import experiments
from repro.cli import main
from repro.experiments import ExperimentSpec, get, names, run_experiment

_GOLDEN = Path(__file__).resolve().parent / "golden"
_RENDERED = [name for name in names() if get(name).render is not None]
_INVARIANTS = [(name, invariant) for name in names()
               for invariant, _predicate in get(name).invariants]


@functools.lru_cache(maxsize=None)
def _default_run(name):
    return run_experiment(ExperimentSpec(experiment=name))


def _cached_run(spec, slo=None):
    assert spec.params == {} and spec.seed == 0 and slo is None
    return _default_run(spec.experiment)


def test_every_bench_has_a_golden():
    assert sorted(p.stem for p in _GOLDEN.glob("*.txt")) == _RENDERED


@pytest.mark.parametrize("name", _RENDERED)
def test_repro_bench_matches_golden(name, monkeypatch, capsys):
    # `repro bench` resolves run_experiment at call time; hand it the
    # run the invariant tests share.
    monkeypatch.setattr(experiments, "run_experiment", _cached_run)
    assert main(["bench", name]) == 0
    assert capsys.readouterr().out == (_GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name,invariant", _INVARIANTS,
                         ids=[f"{name}.{invariant}"
                              for name, invariant in _INVARIANTS])
def test_invariant_holds(name, invariant):
    assert _default_run(name)["invariants"][invariant]


#: Experiments whose default run takes under 1 s, plus the §3
#: cross-switch story; CI's observe-identity job covers every one.
_OBSERVED = ["control_loop", "dp1_movement", "dp3_idempotent",
             "fabric_health", "fig1_composition", "flit_rtt",
             "graph_far_memory", "overcommit", "starvation",
             "sync_vs_async", "t2", "table1_catalog",
             "xswitch_starvation"]


@pytest.mark.parametrize("name", _OBSERVED)
def test_observing_never_changes_a_result(name):
    plain = _default_run(name)
    observed = run_experiment(ExperimentSpec(
        experiment=name, outputs=("summary", "metrics", "why", "health")))
    assert observed["outputs"]["summary"] == plain["outputs"]["summary"]
    assert observed["invariants"] == plain["invariants"]
