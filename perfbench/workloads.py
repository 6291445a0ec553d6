"""The benchmark's workloads: named passes over public entry points.

A workload is a fixed list of *steps*.  Each step is one call into the
simulator through a public entry point (``run_experiment``,
``run_scenario``, ``run_health`` or ``ScenarioResult.attribution_report``)
and returns a JSON-able output.  One pass runs every step in order, each
after the previous one returns: a closed loop with one client.

Timed passes run every experiment at its registered default
parameters, so the work a pass does never depends on the seed.  The
workload seed reaches the simulator two ways: as ``ExperimentSpec.seed``
on every registry call — which no experiment definition reads, so it
changes no output — and as the value of each seed-valued parameter
(today only ``dp3_idempotent.failure_seed``) in one *seeded* call per
run, outside the timed passes, whose inputs really do change.

Each step carries the paper-shape invariants its output must satisfy;
a call fails if it raises, breaks one of them, or returns a summary
whose digest differs from the one pinned in ``ledger.json`` (seeded
calls are pinned only at the ledger's seed).
"""

from __future__ import annotations

import hashlib
import json
from statistics import fmean
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.control import FeedbackPolicy, default_feedback_policy
from repro.experiments import ExperimentSpec, run_experiment, run_scenario
from repro.telemetry.health import run_health

#: The seed the ledger was recorded at: ``dp3_idempotent``'s default
#: ``failure_seed``, so the seeded call matches the timed one here.
COMMITTED_SEED = 5

#: (name, predicate(output, pass context) -> holds)
Invariant = Tuple[str, Callable[[Any, Dict[str, Any]], bool]]


def digest(output: Any) -> str:
    """sha256 of the sorted-key JSON of a step's output."""
    blob = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Step:
    """One public-entry-point call of a workload pass."""

    def __init__(self, name: str, call: Callable[[Dict[str, Any]], Any],
                 invariants: Tuple[Invariant, ...] = (),
                 seeded: bool = False) -> None:
        self.name = name
        self.call = call
        self.invariants = invariants
        self.seeded = seeded


def _bench(name: str, seed_param: Optional[str] = None
           ) -> Callable[[Dict[str, Any]], Any]:
    """A registry experiment at default params with ``ExperimentSpec.seed``
    set to the workload seed — and ``seed_param`` too, if given."""
    def call(ctx: Dict[str, Any]) -> Any:
        params = {seed_param: ctx["seed"]} if seed_param else {}
        spec = ExperimentSpec(experiment=name, params=params,
                              seed=ctx["seed"])
        return run_experiment(spec)["outputs"]["summary"]
    return call


# -- paper-shape invariants ---------------------------------------------

def _t2(summary, level: str, op: str, key: str) -> float:
    return next(r[key] for r in summary["rows"]
                if r["level"] == level and r["op"] == op)


def t2_error_pct(summary: Dict[str, Any]) -> Tuple[float, float]:
    """Mean |sim - paper| / paper over the Table 2 rows, in percent:
    (MOPS error, latency error)."""
    rows = summary["rows"]
    mops = fmean(abs(r["mops"] - r["paper_mops"]) / r["paper_mops"]
                 for r in rows)
    lat = fmean(abs(r["latency_ns"] - r["paper_latency_ns"])
                / r["paper_latency_ns"] for r in rows)
    return 100.0 * mops, 100.0 * lat


def _t2_mops_within_10pct(summary, _ctx) -> bool:
    # The MOPS column, as EXPERIMENTS.md scores Table 2: remote-write
    # latency sits a documented 10.3% above the paper (dirty-eviction
    # write-backs share the fabric) and is tracked by t2_lat_err_pct.
    return all(abs(r["mops"] - r["paper_mops"]) <= 0.10 * r["paper_mops"]
               for r in summary["rows"])


def _remote_local_ratio(summary) -> float:
    return (_t2(summary, "remote", "read", "latency_ns")
            / _t2(summary, "local", "read", "latency_ns"))


T2_INVARIANTS: Tuple[Invariant, ...] = (
    ("t2_remote_local_ratio_5_to_30",
     lambda s, _ctx: 5.0 <= _remote_local_ratio(s) <= 30.0),
    ("t2_mops_rows_within_10pct_of_paper", _t2_mops_within_10pct),
)


def _added_by_hosts(summary) -> Dict[int, float]:
    return {r["hosts"]: r["added_ns"] for r in summary["rows"]}


def _c2_monotone(summary, _ctx) -> bool:
    added = _added_by_hosts(summary)
    hosts = sorted(added)
    return all(added[a] <= added[b] for a, b in zip(hosts, hosts[1:]))


C2_INVARIANTS: Tuple[Invariant, ...] = (
    ("c2_zero_for_single_host",
     lambda s, _ctx: _added_by_hosts(s)[1] == 0.0),
    ("c2_contention_monotone", _c2_monotone),
)

def _a3_idempotent_wins(summary, _ctx) -> bool:
    return all(by_mode["idempotent"]["completion_us"]
               <= by_mode["restart"]["completion_us"]
               for rate, by_mode in summary["rates"].items()
               if float(rate) > 0.0)


A3_INVARIANTS: Tuple[Invariant, ...] = (
    ("a3_idempotent_replay_beats_restart_under_failures",
     _a3_idempotent_wins),
)


def _a3_failing_rates(summary) -> List[Dict[str, Any]]:
    return [by_mode for rate, by_mode in summary["rates"].items()
            if float(rate) > 0.0]


def _a3_wins_at_top_rate(summary, _ctx) -> bool:
    top = summary["rates"][max(summary["rates"], key=float)]
    return (top["idempotent"]["completion_us"]
            < top["restart"]["completion_us"])


def _a3_replays_less(summary, _ctx) -> bool:
    failing = _a3_failing_rates(summary)
    return (sum(m["idempotent"]["replayed_ops"] for m in failing)
            <= sum(m["restart"]["replayed_ops"] for m in failing))


#: The A3 shape for any failure seed.  At a low rate a lucky seed can
#: give restart one early failure, and then restart finishes first: it
#: pays none of idempotent replay's per-region overhead (0.72 us at
#: rate 0).  So "wins at every rate" holds at the default seed only.
A3_SEEDED_INVARIANTS: Tuple[Invariant, ...] = (
    ("a3_idempotent_beats_restart_at_top_rate", _a3_wins_at_top_rate),
    ("a3_idempotent_replays_fewer_ops", _a3_replays_less),
)

A1_INVARIANTS: Tuple[Invariant, ...] = (
    ("a1_managed_beats_naive_sync",
     lambda s, _ctx: s["modes"]["managed"] < s["modes"]["naive-sync"]),
    ("a1_prefetch_beats_naive_sync",
     lambda s, _ctx: s["modes"]["prefetch"] < s["modes"]["naive-sync"]),
)


# -- observed steps -------------------------------------------------------

def _interleave_unobserved(ctx: Dict[str, Any]) -> Any:
    result = run_scenario("interleave", telemetry=False)
    ctx["interleave_unobserved"] = result.summary
    return result.summary


def _interleave_health(ctx: Dict[str, Any]) -> Any:
    result, report = run_health("interleave")
    ctx["interleave_health"] = result
    return report


def _interleave_why(ctx: Dict[str, Any]) -> Any:
    return ctx["interleave_health"].attribution_report()


def _starvation_feedback(ctx: Dict[str, Any]) -> Any:
    policy = FeedbackPolicy(default_feedback_policy("starvation"),
                            source="default")
    _, report = run_health("starvation", feedback=policy)
    return report


def _t2_causal(ctx: Dict[str, Any]) -> Any:
    return run_scenario("t2", causal=True).attribution_report()


def _observing_keeps_summary(report, ctx: Dict[str, Any]) -> bool:
    return report["summary"] == ctx.get("interleave_unobserved")


class Workload:
    """The steps of one pass, the seeded calls, and why it was chosen."""

    def __init__(self, name: str, why: str, steps: List[Step],
                 seeded: Tuple[Step, ...] = ()) -> None:
        self.name = name
        self.why = why
        self.steps = steps
        self.seeded = seeded

    def step(self, name: str) -> Optional[Step]:
        return next((s for s in self.steps if s.name == name), None)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "fabric_contention",
        "C2/C3/xswitch fabric traffic, unobserved: sim kernel plus "
        "fabric/pcie fast paths carry nearly all host time",
        [Step("pcie_interleave", _bench("pcie_interleave")),
         Step("pcie_interference", _bench("pcie_interference"),
              C2_INVARIANTS),
         Step("xswitch_starvation", _bench("xswitch_starvation"))]),
    Workload(
        "memory_hierarchy",
        "Table 2, movement, idempotent replay, far-memory graph, "
        "sync/async: mem/core models and wide conditions, light fabric",
        [Step("table2_hierarchy", _bench("table2_hierarchy"),
              T2_INVARIANTS),
         Step("dp1_movement", _bench("dp1_movement"), A1_INVARIANTS),
         Step("dp3_idempotent", _bench("dp3_idempotent"), A3_INVARIANTS),
         Step("graph_far_memory", _bench("graph_far_memory")),
         Step("sync_vs_async", _bench("sync_vs_async"))],
        seeded=(Step("dp3_idempotent.failure_seed",
                     _bench("dp3_idempotent", "failure_seed"),
                     A3_SEEDED_INVARIANTS, seeded=True),)),
    Workload(
        "observed_fabric",
        "C3 interleave unobserved then fully observed, health with "
        "feedback, causal t2: telemetry/control and scalar fabric paths",
        [Step("interleave_unobserved", _interleave_unobserved),
         Step("interleave_health", _interleave_health,
              (("observing_keeps_interleave_summary",
                _observing_keeps_summary),)),
         Step("interleave_why", _interleave_why),
         Step("starvation_feedback", _starvation_feedback,
              (("feedback_rescue_fires",
                lambda r, _ctx: len(r["control"]["actions"]) >= 1),)),
         Step("t2_causal", _t2_causal)]),
)}


def check_invariants(step: Step, output: Any,
                     ctx: Dict[str, Any]) -> List[str]:
    """Names of the step's invariants the output breaks."""
    broken = []
    for name, predicate in step.invariants:
        try:
            ok = bool(predicate(output, ctx))
        except (KeyError, TypeError, ValueError, StopIteration):
            ok = False
        if not ok:
            broken.append(name)
    return broken
