"""``repro compare``: regression detection over recorded payloads.

Compares two JSON payloads produced by this repo's tooling and reports
regressions:

* **bench payloads** (``benchmarks/run_all.py`` → ``BENCH_<n>.json``):
  an experiment whose ``events_per_sec`` dropped by the threshold (10%
  by default) is a perf regression; newly failing invariants always
  are;
* **attribution payloads** (the ``<label>.why.json`` document that
  ``repro bench <exp> --observe why --out DIR`` writes): a category's
  share of total critical-path time drifting by more than the
  threshold (absolute), or a route's p95 latency growing by more than
  the threshold (relative), flags a latency-composition regression —
  the "it got slower *and here is which stage*" signal.

Both payload types self-identify (``experiments`` vs.
``tool == "repro-why"``); mixing types is an error, not a diff.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from .core import CATEGORIES

__all__ = ["ComparisonError", "load_payload", "payload_kind",
           "compare_payloads"]

DEFAULT_THRESHOLD = 0.10


class ComparisonError(ValueError):
    """Inputs that cannot be compared (bad file, mismatched kinds)."""


def load_payload(path: Path) -> Dict[str, Any]:
    try:
        with Path(path).open() as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ComparisonError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ComparisonError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ComparisonError(f"{path}: expected a JSON object")
    return payload


def payload_kind(payload: Dict[str, Any]) -> str:
    if payload.get("tool") == "repro-why":
        return "attribution"
    if isinstance(payload.get("experiments"), list):
        return "bench"
    raise ComparisonError(
        "unrecognized payload: neither a BENCH file (experiments list) "
        "nor a repro-why attribution document")


def compare_payloads(baseline: Dict[str, Any],
                     candidate: Dict[str, Any],
                     threshold: float = DEFAULT_THRESHOLD
                     ) -> Tuple[List[str], List[str]]:
    """Diff two same-kind payloads; returns (regressions, notes)."""
    if not 0.0 < threshold < 1.0:
        raise ComparisonError(
            f"threshold must be in (0, 1), got {threshold}")
    kind = payload_kind(baseline)
    if payload_kind(candidate) != kind:
        raise ComparisonError(
            f"payload kinds differ: baseline is {kind}, candidate is "
            f"{payload_kind(candidate)}")
    if kind == "bench":
        return _compare_bench(baseline, candidate, threshold)
    return _compare_attribution(baseline, candidate, threshold)


def _compare_bench(baseline: Dict[str, Any], candidate: Dict[str, Any],
                   threshold: float) -> Tuple[List[str], List[str]]:
    regressions: List[str] = []
    notes: List[str] = []
    base_rates = {exp["name"]: exp.get("events_per_sec", 0.0)
                  for exp in baseline["experiments"]}
    cand_rates = {exp["name"]: exp.get("events_per_sec", 0.0)
                  for exp in candidate["experiments"]}
    for name in sorted(base_rates):
        if name not in cand_rates:
            notes.append(f"experiment {name!r} missing from candidate")
            continue
        base, cand = base_rates[name], cand_rates[name]
        if base <= 0:
            continue
        change = (cand - base) / base
        if change <= -threshold:
            regressions.append(
                f"{name}: events/sec fell {-change:.1%} "
                f"({base:,.0f} -> {cand:,.0f})")
        elif change >= threshold:
            notes.append(
                f"{name}: events/sec improved {change:.1%} "
                f"({base:,.0f} -> {cand:,.0f})")
    for name in sorted(set(cand_rates) - set(base_rates)):
        notes.append(f"experiment {name!r} new in candidate")
    base_failures = set(baseline.get("invariant_failures", []))
    for failure in candidate.get("invariant_failures", []):
        if failure not in base_failures:
            regressions.append(f"invariant newly failing: {failure}")
    return regressions, notes


def _compare_attribution(baseline: Dict[str, Any],
                         candidate: Dict[str, Any],
                         threshold: float) -> Tuple[List[str], List[str]]:
    regressions: List[str] = []
    notes: List[str] = []
    if baseline.get("scenario") != candidate.get("scenario"):
        notes.append(
            f"scenarios differ: {baseline.get('scenario')!r} vs "
            f"{candidate.get('scenario')!r}")
    base_table = baseline.get("attribution", {})
    cand_table = candidate.get("attribution", {})
    for category in CATEGORIES:
        base_share = base_table.get(category, {}).get("share", 0.0)
        cand_share = cand_table.get(category, {}).get("share", 0.0)
        drift = cand_share - base_share
        if abs(drift) > threshold:
            line = (f"{category}: share moved "
                    f"{base_share:.1%} -> {cand_share:.1%}")
            # Waiting categories growing is a regression; processing
            # growing just means overheads shrank.
            if drift > 0 and category != "processing":
                regressions.append(line)
            else:
                notes.append(line)
    base_routes = baseline.get("routes", {})
    for name, cand_route in sorted(candidate.get("routes", {}).items()):
        base_route = base_routes.get(name)
        if base_route is None:
            notes.append(f"route {name!r} new in candidate")
            continue
        base_p95 = (base_route.get("latency_ns") or {}).get("p95")
        cand_p95 = (cand_route.get("latency_ns") or {}).get("p95")
        if base_p95 and cand_p95 and base_p95 > 0:
            change = (cand_p95 - base_p95) / base_p95
            if change > threshold:
                regressions.append(
                    f"route {name!r}: p95 latency grew {change:.1%} "
                    f"({base_p95:,.1f} ns -> {cand_p95:,.1f} ns)")
    return regressions, notes
