"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``check``   — fcc-check correctness tooling: ``--lint`` runs the
  static determinism/lifecycle lint over the package (or given paths),
  ``--program`` the whole-program analysis; ``--json`` for
  machine-readable output.  Exits non-zero on any violation;
* ``compare`` — diff two recorded JSON payloads (``BENCH_<n>.json`` or
  a ``why`` document) and exit non-zero on regressions;
* ``list``    — every registered experiment with a one-line
  description;
* ``bench``   — run one registered experiment (``repro list`` names)
  and print its paper-format table; ``--set name=value`` overrides a
  typed parameter, ``--json`` emits the schema-stable result document,
  ``--observe trace,metrics,why,health,sanitize`` attaches observers
  to every environment of the run (one document per environment in
  the result: Chrome trace events loadable at https://ui.perfetto.dev,
  the metric registry, critical-path latency attribution, windowed
  SLO health, sanitizer findings; ``--out DIR`` also writes each to
  ``DIR/<label>.<observer>.json``); exits 1 when the run breaks a
  registered paper-shape invariant or a sanitizer reports a finding;
* ``sweep``   — run a declarative parameter sweep (JSON spec: one
  experiment, axes of parameter values) across worker processes into a
  resumable output directory with a merged, byte-stable report;
* ``topo``    — the declarative topology layer: ``list`` committed
  shapes and generators, ``show`` (resolve + compile + reachability
  check) one topology spec, ``validate`` descriptor JSON files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .sim import Environment

__all__ = ["main"]


def cmd_compare(args: argparse.Namespace) -> int:
    """Diff two recorded payloads; exit 1 on regressions, 2 on bad input."""
    from .telemetry.compare import (ComparisonError, compare_payloads,
                                    load_payload)
    try:
        baseline = load_payload(Path(args.baseline))
        candidate = load_payload(Path(args.candidate))
        regressions, notes = compare_payloads(baseline, candidate,
                                              threshold=args.threshold)
    except ComparisonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print(f"note: {note}")
    for regression in regressions:
        print(f"REGRESSION: {regression}")
    if regressions:
        print(f"compare: {len(regressions)} regression(s) "
              f"(threshold {args.threshold:.0%})")
        return 1
    print(f"compare: no regressions (threshold {args.threshold:.0%})")
    return 0


def _cmd_check_explain(code: str) -> int:
    """Print one rule's rationale and example fix (--explain)."""
    from .analysis.lint import all_checks
    from .analysis.program.checks import all_program_checks
    registry = {check.code: check
                for check in list(all_checks()) + all_program_checks()}
    check = registry.get(code.upper())
    if check is None:
        print(f"error: unknown rule {code!r}; registered: "
              f"{', '.join(sorted(registry))}", file=sys.stderr)
        return 2
    print(f"{check.code} [{check.slug}]")
    print(f"  {check.summary}")
    print()
    print("why:")
    print(f"  {check.rationale}")
    print()
    print("example fix:")
    for line in check.example_fix.splitlines():
        print(f"  {line}")
    return 0


def _cmd_check_program(args: argparse.Namespace) -> int:
    """The whole-program head of `repro check` (--program)."""
    from .analysis.program import run_program, violations_to_sarif
    from .analysis.program.baseline import (BaselineError,
                                            load_baseline,
                                            split_by_baseline)
    root = Path(args.paths[0]) if args.paths else None
    violations = run_program(root)
    baselined = []
    stale = []
    if args.baseline:
        try:
            baseline = load_baseline(Path(args.baseline))
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        violations, baselined = split_by_baseline(violations, baseline)
        stale = baseline.stale_entries(violations + baselined)
    if args.sarif:
        print(json.dumps(violations_to_sarif(violations, baselined),
                         indent=2))
    elif args.json:
        payload = {
            "schema": 1,
            "tool": "fcc-check-program",
            "count": len(violations),
            "violations": [v.to_dict() for v in violations],
            "baselined": [v.to_dict() for v in baselined],
            "stale_baseline": stale,
        }
        print(json.dumps(payload, indent=2))
    else:
        for violation in violations:
            print(violation.format())
        for violation in baselined:
            print(f"warn (baselined): {violation.format()}")
        for entry in stale:
            print(f"note: stale baseline entry {entry['code']} "
                  f"{entry['path']} (no longer reported; remove it)")
        if violations:
            print(f"program: {len(violations)} new violation(s)"
                  + (f", {len(baselined)} baselined" if baselined
                     else ""))
        else:
            print("program: clean"
                  + (f" ({len(baselined)} baselined warning(s))"
                     if baselined else ""))
    return 1 if violations else 0


def cmd_check(args: argparse.Namespace) -> int:
    """fcc-check: the static lint, the whole-program analysis, or a
    rule's explanation."""
    # Deferred import: the analysis package is tooling, not something
    # an experiment run should pay to load.
    from . import analysis

    if args.explain:
        return _cmd_check_explain(args.explain)
    if args.program:
        return _cmd_check_program(args)
    if args.sarif:
        print("error: --sarif requires --program", file=sys.stderr)
        return 2
    paths = [Path(p) for p in args.paths] or None
    violations = analysis.run_lint(paths)
    if args.json:
        print(json.dumps(analysis.violations_to_json(violations),
                         indent=2))
    elif violations:
        for violation in violations:
            print(violation.format())
        print(f"lint: {len(violations)} violation(s)")
    else:
        print("lint: clean")
    return 1 if violations else 0


def cmd_topo(args: argparse.Namespace) -> int:
    """Inspect the declarative topology layer: list/show/validate."""
    from .topo import (DescriptorError, GENERATORS, SHAPES_DIR,
                       compile_topology, load_descriptor, load_shape,
                       resolve_topology, shape_names,
                       verify_reachability)
    if args.action == "list":
        shapes = []
        for name in shape_names():
            descriptor = load_shape(name)
            shapes.append({"name": name,
                           "description": descriptor.description,
                           **descriptor.stats()})
        generators = [{"name": name,
                       "description": generator.description,
                       "params": {key: param.default
                                  for key, param in
                                  sorted(generator.params.items())}}
                      for name, generator in sorted(GENERATORS.items())]
        if args.json:
            print(json.dumps({"shapes": shapes,
                              "generators": generators}, indent=2))
            return 0
        print("committed shapes (src/repro/topo/shapes/):")
        for shape in shapes:
            print(f"  {shape['name']:<24} {shape['pods']} pod(s), "
                  f"{shape['switches']} sw, {shape['endpoints']} ep — "
                  f"{shape['description']}")
        print("generators (call as 'name:key=val,...'):")
        for generator in generators:
            defaults = ", ".join(f"{key}={value}" for key, value
                                 in generator["params"].items())
            print(f"  {generator['name']:<24} {generator['description']}")
            print(f"  {'':<24} defaults: {defaults}")
        return 0
    if args.action == "show":
        try:
            descriptor = resolve_topology(args.topology)
            env = Environment()
            fabric = compile_topology(descriptor, env)
            checks = verify_reachability(fabric.topology)
        except DescriptorError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            payload = descriptor.to_dict()
            payload["compiled"] = {
                "routes_installed": fabric.routes_installed, **checks}
            print(json.dumps(payload, indent=2))
            return 0
        print(fabric.describe())
        print(f"  reachability: {checks['pairs']} endpoint pair(s), "
              f"max {checks['max_hops']} switch hop(s)")
        return 0
    # validate: committed shapes by default, explicit files otherwise.
    paths = [Path(p) for p in args.paths] \
        or sorted(SHAPES_DIR.glob("*.json"))
    status = 0
    for path in paths:
        try:
            descriptor = load_descriptor(path)
            env = Environment()
            fabric = compile_topology(descriptor, env)
            checks = verify_reachability(fabric.topology)
        except (DescriptorError, ValueError) as exc:
            print(f"FAIL {path}: {exc}")
            status = 1
            continue
        print(f"ok   {path}: {descriptor.name} "
              f"({fabric.routes_installed} routes, "
              f"{checks['pairs']} pairs reachable)")
    return status


def cmd_list(args: argparse.Namespace) -> int:
    """Print every registered experiment with a description."""
    from .experiments import registry
    rows = registry.describe()
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    width = max(len(row["name"]) for row in rows)
    print(f"{'name':<{width}}  description")
    print("-" * (width + 60))
    for row in rows:
        print(f"{row['name']:<{width}}  {row['description']}")
    print(f"\n{len(rows)} registered; run one with `repro bench <name>` "
          f"(add --observe trace,metrics,why,health,sanitize)")
    return 0


def _observed_lines(observer: str, label: str, doc) -> List[str]:
    """One human-readable line (plus findings) per observer document."""
    head = f"{observer}[{label}]: "
    if observer == "trace":
        return [head + f"{len(doc['traceEvents'])} trace events"]
    if observer == "metrics":
        return [head + f"{doc['count']} series"]
    if observer == "why":
        trace = doc["trace"]
        dominant = []
        for route, entry in sorted(doc["routes"].items()):
            category, part = max(entry["attribution"].items(),
                                 key=lambda kv: kv[1]["ns"])
            dominant.append(f"{route}: {category} ({part['share']:.1%})")
        return [head + f"{trace['analyzed']} of {trace['finished']} "
                f"transactions analyzed; " + ", ".join(dominant)]
    if observer == "health":
        fired = [f"{slo['name']}/{alert['rule']} FIRED at "
                 f"{episode['fired_at']:,.1f} ns"
                 for slo in doc["slos"] for alert in slo["alerts"]
                 for episode in alert["episodes"]]
        lines = [head + f"{len(doc['windows'])} windows of "
                 f"{doc['window_ns']:,.0f} ns, "
                 + ("; ".join(fired) if fired else "no alerts")]
        lines += [f"  anomaly {rule['name']}: {len(rule['points'])} "
                  f"point(s)" for rule in doc["anomalies"]
                  if rule["points"]]
        if "control" in doc:
            actions = doc["control"]["actions"]
            lines.append(f"  control: {len(actions)} action(s)")
            lines += [f"  {a['t']:,.1f} ns rule {a['rule']}: "
                      f"{a['actuator']} <- "
                      f"{json.dumps(a['set'], sort_keys=True)}"
                      for a in actions]
        return lines
    return ([head + f"{doc['count']} finding(s)"]
            + ["  " + f"[{f['kind']}] t={f['time']:.1f}: {f['message']}"
               for f in doc["findings"]])


def _write_documents(out: Path, outputs, observe: List[str]) -> None:
    """``<label>.<observer>.json`` per document (health also renders
    ``<label>.health.html``, a self-contained dashboard)."""
    out.mkdir(parents=True, exist_ok=True)
    for observer in observe:
        for label, doc in outputs[observer].items():
            (out / f"{label}.{observer}.json").write_text(json.dumps(doc))
            if observer == "health":
                from .telemetry.dashboard import render_dashboard
                (out / f"{label}.health.html").write_text(
                    render_dashboard(doc))


def _run_errors() -> Tuple[type, ...]:
    """The errors ``bench`` and ``sweep`` report and exit 2 on.

    ``HealthError`` and ``ControlError`` count once their modules are
    loaded: only the health observer, an SLO spec or a feedback policy
    loads them, and a run that did not cannot raise them.  An
    ``except`` clause evaluates this when an exception reaches it, so
    an unobserved run imports neither module."""
    from .experiments import ExperimentError
    errors: List[type] = [ExperimentError]
    for module, name in (("repro.telemetry.health", "HealthError"),
                         ("repro.control.actuator", "ControlError")):
        if module in sys.modules:
            errors.append(getattr(sys.modules[module], name))
    return tuple(errors)


def cmd_bench(args: argparse.Namespace) -> int:
    """Run one registered experiment; print its table (or --json).

    Exits 1, naming each on stderr, when the run breaks one of the
    experiment's registered paper-shape invariants or a sanitizer
    reports a finding."""
    from .experiments import (ExperimentError, ExperimentSpec, get,
                              render, run_experiment)
    from .experiments.registry import OBSERVERS
    observe = [name for name in args.observe.split(",") if name]
    try:
        defn = get(args.experiment)
        unknown = [name for name in observe if name not in OBSERVERS]
        if unknown or len(set(observe)) != len(observe):
            raise ExperimentError(
                f"--observe takes distinct observers from "
                f"{', '.join(OBSERVERS)}; got {args.observe!r}")
        slo = None
        if args.slo:
            if "health" not in observe:
                raise ExperimentError("--slo needs --observe health")
            from .telemetry.health import SloSpec
            slo = SloSpec.load(args.slo)
        overrides = {}
        for item in args.set:
            key, eq, text = item.partition("=")
            if not eq:
                raise ExperimentError(
                    f"--set expects name=value, got {item!r}")
            if key not in defn.params:
                known = ", ".join(sorted(defn.params)) or "(none)"
                raise ExperimentError(
                    f"experiment {defn.name!r} has no parameter "
                    f"{key!r}; known: {known}")
            overrides[key] = defn.params[key].parse(key, text)
        spec = ExperimentSpec(experiment=args.experiment,
                              params=overrides, seed=args.seed,
                              outputs=("summary", *observe))
        if args.profile:
            import cProfile
            profiler = cProfile.Profile()
            profiler.enable()
            try:
                result = run_experiment(spec, slo)
            finally:
                profiler.disable()
                profiler.dump_stats(args.profile)
        else:
            result = run_experiment(spec, slo)
    except _run_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outputs = result["outputs"]
    if args.out:
        _write_documents(Path(args.out), outputs, observe)
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        render(args.experiment, summary=outputs["summary"], **overrides)
        for observer in observe:
            for label, doc in outputs[observer].items():
                print("\n".join(_observed_lines(observer, label, doc)))
    broken = [f"invariant broken: {defn.name}.{name}"
              for name, holds in result["invariants"].items()
              if not holds]
    broken += [f"sanitizer: {defn.name}[{label}]: {doc['count']} "
               f"finding(s)"
               for label, doc in outputs.get("sanitize", {}).items()
               if doc["count"]]
    for line in broken:
        print(line, file=sys.stderr)
    return 1 if broken else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run (or resume) a declarative sweep into ``--out``."""
    from .experiments import load_sweep_spec, run_sweep
    try:
        sweep = load_sweep_spec(args.spec)
        run_sweep(sweep, args.out, workers=args.workers, progress=print)
    except _run_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UniFabric: Fabric-Centric Computing reproduction")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser(
        "check", help="fcc-check: static lint + whole-program analysis "
                      "(runtime sanitizers: repro bench --observe "
                      "sanitize)")
    check.add_argument("--lint", action="store_true",
                       help="run the static lint (the default)")
    check.add_argument("--json", action="store_true",
                       help="machine-readable output (schema-stable)")
    check.add_argument("--program", action="store_true",
                       help="run the whole-program analysis engine "
                            "(FCC101-102) instead of the per-file lint")
    check.add_argument("--sarif", action="store_true",
                       help="with --program: emit SARIF 2.1.0 on stdout")
    check.add_argument("--baseline", metavar="FILE",
                       help="with --program: suppression file "
                            "(fcc-baseline.json); new findings fail, "
                            "baselined ones warn")
    check.add_argument("--explain", metavar="FCCnnn",
                       help="print a rule's rationale and example fix, "
                            "then exit")
    check.add_argument("paths", nargs="*",
                       help="files/directories to lint (default: the "
                            "repro package + tests/ + benchmarks/); "
                            "with --program: the package root")
    compare = sub.add_parser(
        "compare", help="diff two recorded payloads (BENCH or why "
                        "JSON); non-zero exit on regression",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="exit codes:\n"
               "  0  no metric regressed beyond the threshold\n"
               "  1  at least one regression (each printed as "
               "REGRESSION: ...)\n"
               "  2  bad input (unreadable file, schema mismatch, "
               "incomparable payloads)")
    compare.add_argument("baseline", help="baseline JSON payload")
    compare.add_argument("candidate", help="candidate JSON payload")
    compare.add_argument("--threshold", type=float, default=0.10,
                         help="relative regression threshold "
                              "(default 0.10)")
    topo = sub.add_parser(
        "topo", help="declarative topology layer: list shapes and "
                     "generators, show/compile one, validate files")
    topo_sub = topo.add_subparsers(dest="action", required=True)
    topo_list = topo_sub.add_parser(
        "list", help="committed shapes + generators")
    topo_list.add_argument("--json", action="store_true",
                           help="machine-readable inventory")
    topo_show = topo_sub.add_parser(
        "show", help="resolve, compile and print one topology")
    topo_show.add_argument("topology",
                           help="committed shape, generator name, or "
                                "generator call like "
                                "'fat_tree:pods=2,leaves=3'")
    topo_show.add_argument("--json", action="store_true",
                           help="print the descriptor document plus "
                                "compile stats")
    topo_validate = topo_sub.add_parser(
        "validate", help="validate descriptor JSON files (default: "
                         "every committed shape); compiles each and "
                         "checks full reachability")
    topo_validate.add_argument("paths", nargs="*",
                               help="descriptor files (default: "
                                    "src/repro/topo/shapes/*.json)")
    list_parser = sub.add_parser(
        "list", help="registered experiments")
    list_parser.add_argument("--json", action="store_true",
                             help="machine-readable catalog "
                                  "(schema-stable)")
    bench = sub.add_parser(
        "bench", help="run a registered experiment, print its table",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="exit codes:\n"
               "  0  ran; every invariant holds, no sanitizer finding\n"
               "  1  an invariant broke or a sanitizer reported a "
               "finding (named on stderr)\n"
               "  2  bad input (unknown experiment, parameter or "
               "observer; malformed value;\n"
               "     window_ns/interval_ns mismatch; bad feedback "
               "policy or SLO spec)")
    bench.add_argument("experiment",
                       help="experiment name (see `repro list`)")
    bench.add_argument("--set", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="override a typed parameter; repeatable "
                            "(list values are JSON, e.g. "
                            "--set sizes='[64, 4096]')")
    bench.add_argument("--seed", type=int, default=0,
                       help="experiment seed (default 0)")
    bench.add_argument("--json", action="store_true",
                       help="print the schema-stable result document "
                            "instead of the table")
    bench.add_argument("--observe", default="", metavar="LIST",
                       help="comma-separated observers to attach to "
                            "every environment: trace, metrics, why, "
                            "health, sanitize (one document per "
                            "environment in the result)")
    bench.add_argument("--slo", metavar="SPEC.json", default=None,
                       help="with --observe health: a custom SLO spec "
                            "for every health monitor (default: the "
                            "experiment's built-in objectives)")
    bench.add_argument("--out", metavar="DIR", default=None,
                       help="also write each observer document to "
                            "DIR/<label>.<observer>.json (Chrome traces "
                            "load at https://ui.perfetto.dev; health "
                            "adds a <label>.health.html dashboard)")
    bench.add_argument("--profile", metavar="OUT.prof", default=None,
                       help="run under cProfile and write pstats data "
                            "to OUT.prof (inspect with python -m "
                            "pstats)")
    sweep = sub.add_parser(
        "sweep", help="run a parameter sweep from a JSON spec into a "
                      "resumable output directory")
    sweep.add_argument("spec", help="sweep spec JSON: {experiment, "
                                    "sweep: {param: [values...]}, "
                                    "params?, seed?, outputs?}")
    sweep.add_argument("--out", required=True,
                       help="output directory; re-running resumes, a "
                            "different sweep's directory is refused")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (default 1; any count "
                            "yields a byte-identical merged report)")
    args = parser.parse_args(argv)
    handler = {"check": cmd_check, "compare": cmd_compare, "list": cmd_list,
               "bench": cmd_bench, "sweep": cmd_sweep,
               "topo": cmd_topo}[args.command]
    return handler(args)


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
