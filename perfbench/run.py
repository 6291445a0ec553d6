#!/usr/bin/env python3
"""The repo's performance ledger: one workload, every metric, a verdict.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] \\
        [--trace 0|1]
    python3 perfbench/run.py --census [--out census.json]
    python3 perfbench/run.py --record        # rewrite perfbench/ledger.json

``--trace 0`` repeats whole passes of the workload for ``--seconds``
and reports the end-to-end metrics (host time with tracing off, in
units of the reference job of ``reference.py``).
``--trace 1`` runs one untraced pass and one traced pass and reports
the per-layer roll-up.  Every step's output is checked against the
paper-shape invariants and the digests pinned in ``ledger.json``;
exact counters are diffed by name against the same ledger and any
change is printed as a changed count.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
from statistics import median, quantiles
from time import perf_counter   # fcc: allow[wall-clock]
from typing import Any, Dict, List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_SRC = os.path.join(_ROOT, "src")
LEDGER = os.path.join(_HERE, "ledger.json")

#: fresh set-up processes per run (plus one discarded warm-up that
#: leaves the bytecode cache filled)
SETUP_PROBES = 7
#: host seconds one reference job takes on the nominal host that
#: ``setup_s`` is scaled to
NOMINAL_REF_S = 0.1
#: interleave unobserved/observed pairs a side probe times (plus one
#: discarded warm-up pair that does the lazy imports)
OBSERVE_PAIRS = 5
#: workloads whose runs must not call into telemetry or control
UNOBSERVED = ("fabric_contention", "memory_hierarchy")
#: experiments that build an inventory but run no simulated workload
NO_SIMULATION = ("table1_catalog", "fig1_composition")


def _import_repro():
    """Import the package from this checkout's ``src`` or exit 2."""
    if not os.path.isfile(os.path.join(_SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {_SRC}",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [_SRC, _HERE]
    import repro
    if not os.path.realpath(repro.__file__).startswith(
            os.path.realpath(_SRC) + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"from {_SRC}", file=sys.stderr)
        sys.exit(2)


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def load_ledger() -> Dict[str, Any]:
    with open(LEDGER) as handle:
        return json.load(handle)


class Checker:
    """Counts attempted/failed calls and collects ledger differences."""

    def __init__(self, ledger: Dict[str, Any], seed: int) -> None:
        from workloads import COMMITTED_SEED
        self.ledger = ledger
        self.seed = seed
        self.committed = seed == COMMITTED_SEED
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.changes: Dict[str, Tuple[Any, Any]] = {}

    def pinned(self, workload: str, step) -> Optional[Dict[str, Any]]:
        """The step's ledger entry, if its inputs match the ledger's."""
        if step.seeded and not self.committed:
            return None
        return self.ledger["workloads"][workload]["steps"][step.name]

    def call(self, workload: str, step, output: Any, error: Optional[str],
             ctx: Dict[str, Any], counters: Dict[str, Any]) -> None:
        """Judge one call: raised, broke an invariant, or digest moved.

        ``counters`` are this call's exact counts; each one the ledger
        pins is diffed and a difference recorded as a changed count.
        """
        from workloads import check_invariants, digest
        self.attempted += 1
        where = f"{workload}/{step.name}"
        if error is not None:
            reasons = [f"raised {error}"]
        else:
            reasons = check_invariants(step, output, ctx)
            pinned = self.pinned(workload, step)
            if pinned is not None:
                if digest(output) != pinned["digest"]:
                    reasons.append("digest differs from ledger")
                for name, value in counters.items():
                    if name in pinned and pinned[name] != value:
                        self.changes[f"{where}:{name}"] = (pinned[name],
                                                           value)
        if reasons:
            self.failed += 1
            self.failures.append(f"{where}: {', '.join(reasons)}")

    def require(self, what: str, ok: bool) -> None:
        """A benchmark-level check outside any one call."""
        if not ok:
            self.failures.append(what)


def run_pass(workload, seed: int, checker: Checker,
             tracer=None) -> Dict[str, Any]:
    """One closed-loop pass: every step, in order, timed.

    Returns per-step wall times, events, outputs and (when traced) the
    per-step traced records.  The reference job runs, untraced and
    timed on its own, right before each step; ``wall_s`` is the steps'
    time alone and ``ref_s`` the mean time of one reference job.
    """
    from reference import job_seconds
    from repro.sim import total_events_processed
    ctx: Dict[str, Any] = {"seed": seed}
    out: Dict[str, Any] = {"walls": {}, "events": {}, "outputs": {},
                           "records": {}}
    refs = []
    gc.collect()    # no pass pays for the previous pass's garbage
    for step in workload.steps:
        refs.append(job_seconds())
        events0 = total_events_processed()
        t0 = perf_counter()
        error = output = None
        try:
            if tracer is None:
                output = step.call(ctx)
            else:
                output, record = tracer.trace(lambda: step.call(ctx))
                out["records"][step.name] = record
        except Exception as exc:   # a failed call is data, not a crash
            error = f"{type(exc).__name__}: {exc}"
        out["walls"][step.name] = perf_counter() - t0
        events = total_events_processed() - events0
        out["events"][step.name] = events
        out["outputs"][step.name] = output
        counters = {"sim.events": events}
        if step.name in out["records"]:
            counters.update(
                (name, value)
                for name, value in out["records"][step.name].items()
                if name.endswith(".calls") or name == "sim.events_elided")
        checker.call(workload.name, step, output, error, ctx, counters)
    out["wall_s"] = sum(out["walls"].values())
    out["ref_s"] = sum(refs) / len(refs)
    return out


def setup_seconds(workload: str, seed: int) -> List[Tuple[float, float]]:
    """(set-up, reference job) host seconds from fresh processes
    (warm-up discarded)."""
    probe = os.path.join(_HERE, "setup_probe.py")
    values = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, probe, workload, str(seed)],
                              cwd=_ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            setup, ref = done.stdout.split()[-2:]
            values.append((float(setup), float(ref)))
    return values


def run_seeded(workload, seed: int, checker: Checker) -> None:
    """The workload's seeded calls: once per run, untimed, checked."""
    for step in workload.seeded:
        ctx: Dict[str, Any] = {"seed": seed}
        error = output = None
        try:
            output = step.call(ctx)
        except Exception as exc:   # a failed call is data, not a crash
            error = f"{type(exc).__name__}: {exc}"
        checker.call(workload.name, step, output, error, ctx, {})


def _observe_probe(checker: Checker) -> List[float]:
    """observed/unobserved interleave wall ratio, side-probe pairs."""
    from workloads import WORKLOADS
    probe = WORKLOADS["observed_fabric"]
    ratios = []
    for i in range(OBSERVE_PAIRS + 1):
        ctx: Dict[str, Any] = {"seed": checker.seed}
        walls = {}
        for name in ("interleave_unobserved", "interleave_health"):
            step = probe.step(name)
            t0 = perf_counter()
            output = step.call(ctx)
            walls[name] = perf_counter() - t0
            checker.call(probe.name, step, output, None, ctx, {})
        if i:
            ratios.append(walls["interleave_health"]
                          / walls["interleave_unobserved"])
    return ratios


def measure(name: str, seed: int, seconds: float,
            checker: Checker) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics, medians over passes."""
    from workloads import WORKLOADS, digest, t2_error_pct
    workload = WORKLOADS[name]
    probes = setup_seconds(name, seed)
    setups = [setup / ref * NOMINAL_REF_S for setup, ref in probes]
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, seed, checker))
        elapsed = perf_counter() - start
        # Start another pass only if it should end by `seconds` plus
        # half a pass: whole passes, and the run stays near its budget.
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            break
    # The first pass does the lazy imports: checked, but not timed.
    timed = passes[1:] or passes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for step in workload.steps:
        digests = {digest(p["outputs"][step.name]) for p in passes}
        checker.require(f"{name}/{step.name}: output differs between "
                        "passes", len(digests) == 1)

    if workload.step("table2_hierarchy") is not None:
        table2 = passes[0]["outputs"]["table2_hierarchy"]
    else:   # side probe, outside the timed passes
        probe = WORKLOADS["memory_hierarchy"]
        step = probe.step("table2_hierarchy")
        table2 = step.call({"seed": seed})
        checker.call(probe.name, step, table2, None, {}, {})
    mops_err, lat_err = t2_error_pct(table2)

    if workload.step("interleave_health") is not None:
        ratios = [p["walls"]["interleave_health"]
                  / p["walls"]["interleave_unobserved"] for p in timed]
        observe_source = "timed passes"
    else:
        ratios = _observe_probe(checker)
        observe_source = f"side probe, {OBSERVE_PAIRS} pairs"

    run_seeded(workload, seed, checker)
    # Transactions per pass are exact and seed-independent: the traced
    # run counts them and the ledger pins that count.
    txn = sum(checker.ledger["workloads"][name]["steps"][step.name]["txn"]
              for step in workload.steps)
    walls = [p["wall_s"] for p in timed]
    wall_refs = [p["wall_s"] / p["ref_s"] for p in timed]
    wall_ref = median(wall_refs)
    return {
        "walls": walls,
        "wall_refs": wall_refs,
        "refs": [p["ref_s"] for p in timed],
        "setups": setups,
        "ratios": ratios,
        "observe_source": observe_source,
        "txn": txn,
        "raw": {"wall_s": (median(walls), "s"),
                "txn_per_s": (txn / median(walls), "1/s"),
                "setup_raw_s": (median(setup for setup, _ in probes), "s")},
        "metrics": {
            "wall_ref": (wall_ref, "ref"),
            "txn_per_ref": (txn / wall_ref, "1/ref"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_frac": (0.0, "frac"),   # filled in once all calls ran
            "t2_mops_err_pct": (mops_err, "%"),
            "t2_lat_err_pct": (lat_err, "%"),
            "observe_overhead": (median(ratios), "x"),
        },
    }


def traced(name: str, seed: int, checker: Checker) -> Dict[str, Any]:
    """The traced run: per-layer roll-up plus exact counters."""
    from layers import (ENTRY_POINTS, LAYERS, SIM_COUNTERS, Tracer,
                        empty_record, merge, shares)
    from workloads import WORKLOADS, digest
    workload = WORKLOADS[name]
    plain = run_pass(workload, seed, checker)
    with Tracer() as tracer:
        tracing = run_pass(workload, seed, checker, tracer=tracer)
    run_seeded(workload, seed, checker)
    total = empty_record()
    for record in tracing["records"].values():
        merge(total, record)
    for step in workload.steps:
        checker.require(
            f"{name}/{step.name}: traced output differs from untraced",
            digest(plain["outputs"][step.name])
            == digest(tracing["outputs"][step.name]))
        checker.require(
            f"{name}/{step.name}: traced events differ from untraced",
            plain["events"][step.name]
            == tracing["records"][step.name]["sim.events"])
    if name in UNOBSERVED:
        pinned_steps = checker.ledger["workloads"][name]["steps"]
        for layer in ("telemetry", "control"):
            calls = total[f"{layer}.calls"]
            pinned = sum(pinned_steps[step.name][f"{layer}.calls"]
                         for step in workload.steps)
            checker.require(
                f"{name}: {layer}.calls = {calls} on an unobserved "
                f"workload (ledger: {pinned})", calls <= pinned)
    layer_share = shares(total)
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (total[f"{layer}.self_s"], "s")
        metrics[f"{layer}.share"] = (layer_share[layer], "frac")
        metrics[f"{layer}.calls"] = (total[f"{layer}.calls"], "count")
    for counter in SIM_COUNTERS:
        metrics[counter] = (total[counter],
                            "s" if counter.endswith("_s") else "count")
    for counter in ENTRY_POINTS:
        metrics[counter] = (total[counter], "count")
    metrics["trace_overhead"] = (tracing["wall_s"] / plain["wall_s"], "x")
    return {"metrics": metrics, "plain_wall": plain["wall_s"],
            "traced_wall": tracing["wall_s"]}


# -- reporting -------------------------------------------------------------

def _print_seed_report(name: str, seed: int) -> None:
    from workloads import COMMITTED_SEED, WORKLOADS
    seeded = [f"{step.name}={seed}" for step in WORKLOADS[name].seeded]
    print(f"seed {seed}: ExperimentSpec.seed of every registry call; no "
          "experiment definition reads it, so timed passes do not change")
    if seeded:
        print(f"  inputs the seed changes: {', '.join(seeded)} (one "
              f"untimed call per run; ledger seed {COMMITTED_SEED})")
    else:
        print("  no input of this workload changes with the seed")


def _print_metric(name: str, value: float, unit: str,
                  detail: str = "") -> None:
    print(f"  {name:28s} {value:14.6g} {unit:6s} {detail}".rstrip())


def _print_verdict(checker: Checker) -> None:
    for key, (old, new) in sorted(checker.changes.items()):
        print(f"  changed count {key}: {old} -> {new} ({new - old:+d})")
    if not checker.changes:
        print("  exact counters: identical to ledger")
    for failure in checker.failures:
        print(f"  FAIL {failure}")
    verdict = "ok" if not checker.failures else "FAILED"
    print(f"verdict: {verdict} ({checker.failed} of {checker.attempted} "
          "calls failed)")


def _result_line(checker: Checker,
                 metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def workload_main(args) -> int:
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    checker = Checker(load_ledger(), args.seed)
    print(f"workload {args.workload}: {WORKLOADS[args.workload].why}")
    _print_seed_report(args.workload, args.seed)
    if args.trace:
        result = traced(args.workload, args.seed, checker)
        metrics = result["metrics"]
        print(f"traced run: untraced pass {result['plain_wall']:.3f} s, "
              f"traced pass {result['traced_wall']:.3f} s")
        for name, (value, unit) in metrics.items():
            _print_metric(name, value, unit)
    else:
        result = measure(args.workload, args.seed, args.seconds, checker)
        metrics = result["metrics"]
        metrics["pass_frac"] = (1.0 - checker.failed / checker.attempted,
                                "frac")
        spreads = {"wall_ref": result["wall_refs"], "wall_s": result["walls"],
                   "ref_s": result["refs"], "setup_s": result["setups"],
                   "observe_overhead": result["ratios"]}
        print(f"untraced run: passes={len(result['walls'])}, "
              f"{result['txn']} simulated transactions per pass")
        raw = dict(result["raw"], ref_s=(median(result["refs"]), "s"))
        for name, (value, unit) in list(metrics.items()) + list(raw.items()):
            detail = ""
            if name in spreads:
                q1, _, q3 = _quartiles(spreads[name])
                detail = (f"median; q1 {q1:.6g} q3 {q3:.6g} "
                          f"n={len(spreads[name])}")
            if name == "observe_overhead":
                detail += f" ({result['observe_source']})"
            _print_metric(name, value, unit, detail)
        print("  fail_frac                    "
              f"{checker.failed / checker.attempted:14.6g} frac")
    _print_verdict(checker)
    print(_result_line(checker, metrics))
    return 0


# -- census and ledger recording ---------------------------------------

def census(ledger: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Every registered experiment once: wall, counts, shares, digest."""
    from layers import Tracer, shares, transactions
    from repro.experiments import ExperimentSpec, names, run_experiment
    from repro.sim import total_events_processed
    from workloads import COMMITTED_SEED, digest

    def summary(name: str, seed: int):
        spec = ExperimentSpec(experiment=name, seed=seed)
        return run_experiment(spec)["outputs"]["summary"]

    rows: Dict[str, Any] = {}
    print(f"{'experiment':20s} {'wall_s':>8s} {'events':>9s} {'txn':>7s} "
          f"{'sim':>5s} {'fab+pcie':>8s} {'mem+core':>8s} {'tel':>5s} "
          "digest       seed-sensitive")
    for name in names():
        events0 = total_events_processed()
        t0 = perf_counter()
        out = summary(name, COMMITTED_SEED)
        wall = perf_counter() - t0
        events = total_events_processed() - events0
        other_seed = digest(summary(name, COMMITTED_SEED + 1))
        with Tracer() as tracer:
            _, record = tracer.trace(lambda: summary(name, COMMITTED_SEED))
        share = shares(record)
        row = {"wall_s": wall, "sim.events": events,
               "txn": transactions(record), "digest": digest(out),
               "seed_sensitive": other_seed != digest(out),
               "shares": share,
               "simulates": name not in NO_SIMULATION}
        rows[name] = row
        note = "" if row["simulates"] else "  (inventory only, no " \
                                           "simulated workload)"
        print(f"{name:20s} {wall:8.3f} {events:9d} {row['txn']:7d} "
              f"{share['sim.engine'] + share['sim.resources']:5.2f} "
              f"{share['fabric'] + share['pcie']:8.2f} "
              f"{share['mem'] + share['core']:8.2f} "
              f"{share['telemetry']:5.2f} {row['digest'][:12]} "
              f"{'yes' if row['seed_sensitive'] else 'no'}{note}")
        if ledger is not None and name in ledger.get("census", {}):
            pinned = ledger["census"][name]
            for key in ("sim.events", "txn", "digest"):
                if pinned[key] != row[key]:
                    print(f"  changed {name}:{key}: {pinned[key]} -> "
                          f"{row[key]}")
    sensitive = [n for n, r in rows.items() if r["seed_sensitive"]]
    print(f"ExperimentSpec.seed changes the result of: "
          f"{', '.join(sensitive) if sensitive else 'no experiment'}")
    return rows


def record_ledger() -> Dict[str, Any]:
    """Traced counters and digests of every workload at the ledger seed,
    plus the census counts."""
    from layers import Tracer, transactions
    from workloads import COMMITTED_SEED, WORKLOADS, digest
    ledger: Dict[str, Any] = {"seed": COMMITTED_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        steps = {}
        ctx: Dict[str, Any] = {"seed": COMMITTED_SEED}
        for step in workload.steps:     # warm: lazy imports happen here
            step.call(ctx)
        with Tracer() as tracer:
            for step in workload.steps + list(workload.seeded):
                output, record = tracer.trace(lambda: step.call(ctx))
                # other.calls is left out: the standard library's path
                # handling makes it depend on the checkout's directory
                # depth (loading committed topology shapes).
                entry = {key: value for key, value in record.items()
                         if (key.endswith(".calls") and key != "other.calls")
                         or key in ("sim.events", "sim.events_elided")}
                entry["txn"] = transactions(record)
                entry["digest"] = digest(output)
                steps[step.name] = entry
        ledger["workloads"][name] = {"steps": steps}
        print(f"recorded {name}")
    ledger["census"] = {
        name: {key: row[key] for key in ("sim.events", "txn", "digest")}
        for name, row in census(None).items()}
    return ledger


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="workload to run")
    parser.add_argument("--seed", type=int, default=5,
                        help="workload seed (default: the ledger's, 5)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the untraced run repeats passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer traced run instead")
    parser.add_argument("--census", action="store_true",
                        help="run all registered experiments once")
    parser.add_argument("--out", help="census: also write JSON here")
    parser.add_argument("--record", action="store_true",
                        help="rewrite ledger.json from this tree")
    args = parser.parse_args(argv)
    _import_repro()
    if args.record:
        ledger = record_ledger()
        with open(LEDGER, "w") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {LEDGER}")
        return 0
    if args.census:
        rows = census(load_ledger())
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(rows, handle, indent=1, sort_keys=True)
        return 0
    if not args.workload:
        parser.error("--workload is required (or --census / --record)")
    return workload_main(args)


if __name__ == "__main__":
    sys.exit(main())
