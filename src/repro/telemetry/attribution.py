"""Offline analysis of the causal flight recorder: where latency went.

Consumes a :class:`~repro.telemetry.causal.CausalRecorder` and
produces, per traced transaction, a *critical path* — the transaction's
[begin, end) interval cut into contiguous segments, each attributed to
exactly one category — and, across transactions, aggregate attribution
tables with t-digest percentile summaries per category and per route.

Attribution rule: at every instant of a transaction's lifetime the
highest-precedence *open* typed interval claims the time (precedence
is the :data:`~repro.telemetry.causal.CATEGORIES` order — a flit
blocked on a credit is charged to ``credit_stall`` even while it also
sits in a staging queue).  Instants covered by no interval are the
model doing modelled work: ``processing``.  The segments therefore
partition the transaction exactly — per-category nanoseconds always
sum to end − begin, with nothing double-counted.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from .causal import CATEGORIES, CausalRecorder, PROCESSING

__all__ = ["AttributionError", "TDigest", "SpanRecord",
           "TransactionTrace", "collect_transactions", "build_report",
           "validate_attribution"]

#: category -> precedence rank (lower wins)
_PRECEDENCE = {category: rank for rank, category in enumerate(CATEGORIES)}

#: timestamps closer than this are one instant (float-noise guard)
_EPS = 1e-9


class AttributionError(ValueError):
    """An attribution payload violated the schema contract."""


# --------------------------------------------------------------------------
# t-digest-style percentile sketch
# --------------------------------------------------------------------------

class TDigest:
    """A small deterministic merging-digest percentile sketch.

    The classic t-digest idea sized for this repo: centroids are kept
    sorted and merged greedily under the ``q(1-q)`` scale function, so
    resolution concentrates at the tails (p95/p99 — the numbers the
    paper's pathologies live in).  Everything is insertion-order
    independent only up to centroid granularity, so callers feed values
    in deterministic (simulation) order and results are replayable.
    """

    def __init__(self, max_centroids: int = 64) -> None:
        if max_centroids < 4:
            raise ValueError(
                f"max_centroids must be >= 4, got {max_centroids}")
        self.max_centroids = max_centroids
        self._centroids: List[Tuple[float, float]] = []  # (mean, weight)
        self._buffer: List[Tuple[float, float]] = []
        self.count = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def add(self, value: float, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        self._buffer.append((float(value), float(weight)))
        self.count += weight
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if len(self._buffer) >= 4 * self.max_centroids:
            self._compress()

    def _compress(self) -> None:
        points = sorted(self._centroids + self._buffer)
        self._buffer = []
        if not points:
            return
        total = sum(weight for _, weight in points)
        limit_scale = 4.0 * total / self.max_centroids
        merged: List[Tuple[float, float]] = []
        cum = 0.0
        current_mean, current_weight = points[0]
        for mean, weight in points[1:]:
            q = (cum + (current_weight + weight) / 2.0) / total
            limit = limit_scale * q * (1.0 - q) + 1.0
            if current_weight + weight <= limit:
                new_weight = current_weight + weight
                current_mean += (mean - current_mean) * weight / new_weight
                current_weight = new_weight
            else:
                merged.append((current_mean, current_weight))
                cum += current_weight
                current_mean, current_weight = mean, weight
        merged.append((current_mean, current_weight))
        self._centroids = merged

    def quantile(self, q: float) -> Optional[float]:
        """Interpolated quantile, or ``None`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        self._compress()
        centroids = self._centroids
        if not centroids:
            return None
        if len(centroids) == 1:
            return centroids[0][0]
        target = q * self.count
        cum = 0.0
        previous_mean, previous_cum = self.minimum, 0.0
        for mean, weight in centroids:
            center = cum + weight / 2.0
            if center >= target:
                span = center - previous_cum
                if span <= _EPS:
                    return mean
                fraction = (target - previous_cum) / span
                fraction = min(1.0, max(0.0, fraction))
                return previous_mean + (mean - previous_mean) * fraction
            previous_mean, previous_cum = mean, center
            cum += weight
        return self.maximum

    def to_dict(self) -> Dict[str, Any]:
        def _round(value: Optional[float]) -> Optional[float]:
            return None if value is None else round(value, 3)
        return {"count": int(self.count),
                "min": _round(self.minimum),
                "max": _round(self.maximum),
                "p50": _round(self.quantile(0.50)),
                "p95": _round(self.quantile(0.95)),
                "p99": _round(self.quantile(0.99))}


# --------------------------------------------------------------------------
# transaction reconstruction
# --------------------------------------------------------------------------

@dataclasses.dataclass
class SpanRecord:
    """One typed interval inside a transaction."""

    sid: int
    parent: int
    category: str
    site: str
    t0: float
    t1: float


@dataclasses.dataclass
class TransactionTrace:
    """One reconstructed transaction: its window, intervals, marks."""

    trace_id: int
    kind: str
    route: str
    begin: float
    end: float
    spans: List[SpanRecord]
    marks: List[Tuple[float, str, str]]

    @property
    def duration(self) -> float:
        return self.end - self.begin

    def critical_path(self) -> List[Dict[str, Any]]:
        """Contiguous attributed segments covering [begin, end)."""
        if self.end - self.begin <= _EPS:
            return []
        bounds = {self.begin, self.end}
        clamped: List[SpanRecord] = []
        for span in self.spans:
            t0 = min(max(span.t0, self.begin), self.end)
            t1 = min(max(span.t1, self.begin), self.end)
            if t1 - t0 > _EPS:
                clamped.append(dataclasses.replace(span, t0=t0, t1=t1))
                bounds.add(t0)
                bounds.add(t1)
        points = sorted(bounds)
        segments: List[Dict[str, Any]] = []
        for left, right in zip(points, points[1:]):
            if right - left <= _EPS:
                continue
            active = [span for span in clamped
                      if span.t0 <= left + _EPS and span.t1 >= right - _EPS]
            if active:
                winner = min(active, key=lambda span:
                             (_PRECEDENCE[span.category], span.t0, span.sid))
                category, site = winner.category, winner.site
            else:
                category, site = PROCESSING, "model"
            if segments and segments[-1]["category"] == category \
                    and segments[-1]["site"] == site:
                segments[-1]["t1"] = right
                segments[-1]["ns"] = segments[-1]["t1"] - segments[-1]["t0"]
            else:
                segments.append({"t0": left, "t1": right,
                                 "ns": right - left,
                                 "category": category, "site": site})
        return segments

    def attribution(self) -> Dict[str, float]:
        """Per-category nanoseconds; sums exactly to :attr:`duration`."""
        totals = {category: 0.0 for category in CATEGORIES}
        for segment in self.critical_path():
            totals[segment["category"]] += segment["ns"]
        return totals

    def dag(self) -> Dict[str, Any]:
        """The transaction's event DAG (spans nested under parents)."""
        children: Dict[int, List[SpanRecord]] = {}
        for span in sorted(self.spans, key=lambda s: (s.t0, s.sid)):
            children.setdefault(span.parent, []).append(span)

        def _node(span: SpanRecord) -> Dict[str, Any]:
            return {"sid": span.sid, "category": span.category,
                    "site": span.site, "t0": span.t0, "t1": span.t1,
                    "children": [_node(child)
                                 for child in children.get(span.sid, [])]}

        return {"trace_id": self.trace_id, "kind": self.kind,
                "route": self.route, "t0": self.begin, "t1": self.end,
                "spans": [_node(span) for span in children.get(0, [])],
                "marks": [{"ts": ts, "name": name, "site": site}
                          for ts, name, site in self.marks]}


def collect_transactions(recorder: CausalRecorder
                         ) -> List[TransactionTrace]:
    """Rebuild completed transactions from the flight recorder.

    Transactions whose begin fell off the ring, or which never
    finished, are skipped; intervals missing their end (a wait still
    blocked at run end) clamp to the transaction end.
    """
    txns: Dict[int, Dict[str, Any]] = {}
    open_spans: Dict[int, SpanRecord] = {}
    for record in recorder.events:
        tag = record[0]
        if tag == "T":
            _, ts, tid, kind, route = record
            txns[tid] = {"begin": ts, "end": None, "kind": kind,
                         "route": route, "spans": [], "marks": []}
        elif tag == "F":
            _, ts, tid = record
            txn = txns.get(tid)
            if txn is not None:
                txn["end"] = ts
        elif tag == "B":
            _, ts, tid, sid, parent, category, site = record
            txn = txns.get(tid)
            if txn is not None:
                span = SpanRecord(sid=sid, parent=parent,
                                  category=category, site=site,
                                  t0=ts, t1=ts)
                open_spans[sid] = span
                txn["spans"].append(span)
        elif tag == "E":
            _, ts, tid, sid = record
            span = open_spans.pop(sid, None)
            if span is not None:
                span.t1 = ts
        elif tag == "M":
            _, ts, tid, name, site = record
            txn = txns.get(tid)
            if txn is not None:
                txn["marks"].append((ts, name, site))
    results: List[TransactionTrace] = []
    for tid in sorted(txns):
        txn = txns[tid]
        if txn["end"] is None:
            continue
        for span in txn["spans"]:
            if span.t1 < span.t0:
                span.t1 = span.t0
            if span.sid in open_spans:      # never closed: the wait was
                span.t1 = max(span.t0, txn["end"])   # still blocked at
                del open_spans[span.sid]             # transaction end
        results.append(TransactionTrace(
            trace_id=tid, kind=txn["kind"], route=txn["route"],
            begin=txn["begin"], end=txn["end"],
            spans=txn["spans"], marks=txn["marks"]))
    return results


# --------------------------------------------------------------------------
# the aggregate report (the `repro bench <exp> --observe why` payload)
# --------------------------------------------------------------------------

def build_report(scenario: str, recorder: CausalRecorder,
                 summary: Optional[Dict[str, Any]] = None,
                 max_transactions: int = 32) -> Dict[str, Any]:
    """Aggregate attribution + per-transaction waterfalls as JSON."""
    transactions = collect_transactions(recorder)
    total_ns = {category: 0.0 for category in CATEGORIES}
    digests = {category: TDigest() for category in CATEGORIES}
    routes: Dict[str, Dict[str, Any]] = {}
    for txn in transactions:
        shares = txn.attribution()
        route = routes.setdefault(
            txn.route, {"transactions": 0, "latency": TDigest(),
                        "ns": {category: 0.0 for category in CATEGORIES}})
        route["transactions"] += 1
        route["latency"].add(txn.duration)
        for category, ns in shares.items():
            total_ns[category] += ns
            route["ns"][category] += ns
            if ns > 0.0:
                digests[category].add(ns)
    grand_total = sum(total_ns.values())

    def _table(ns_by_category: Dict[str, float],
               include_percentiles: bool) -> Dict[str, Any]:
        table_total = sum(ns_by_category.values())
        table: Dict[str, Any] = {}
        for category in CATEGORIES:
            ns = ns_by_category[category]
            entry: Dict[str, Any] = {
                "ns": round(ns, 3),
                "share": round(ns / table_total, 6) if table_total else 0.0,
            }
            if include_percentiles:
                entry["per_txn"] = digests[category].to_dict()
            table[category] = entry
        return table

    payload: Dict[str, Any] = {
        "schema": 1,
        "tool": "repro-why",
        "scenario": scenario,
        "trace": {
            "sample": recorder.sample,
            "roots_seen": recorder.roots_seen,
            "started": recorder.started,
            "finished": recorder.finished,
            "analyzed": len(transactions),
            "saturated": recorder.saturated,
        },
        "total_ns": round(grand_total, 3),
        "attribution": _table(total_ns, include_percentiles=True),
        "routes": {
            name: {
                "transactions": data["transactions"],
                "latency_ns": data["latency"].to_dict(),
                "attribution": {
                    category: {
                        "ns": round(data["ns"][category], 3),
                        "share": round(
                            data["ns"][category]
                            / max(sum(data["ns"].values()), _EPS), 6),
                    }
                    for category in CATEGORIES
                },
            }
            for name, data in sorted(routes.items())
        },
        "transactions": [
            {
                "trace_id": txn.trace_id,
                "kind": txn.kind,
                "route": txn.route,
                "begin_ns": round(txn.begin, 3),
                "end_ns": round(txn.end, 3),
                "duration_ns": round(txn.duration, 3),
                "critical_path": [
                    {"t0": round(seg["t0"], 3), "t1": round(seg["t1"], 3),
                     "ns": round(seg["ns"], 3),
                     "category": seg["category"], "site": seg["site"]}
                    for seg in txn.critical_path()
                ],
            }
            for txn in transactions[:max_transactions]
        ],
    }
    if summary is not None:
        payload["summary"] = summary
    return payload


# --------------------------------------------------------------------------
# schema validation (the CI gate)
# --------------------------------------------------------------------------

def validate_attribution(payload: Dict[str, Any]) -> int:
    """Validate one ``repro bench <exp> --observe why`` document.

    Returns the transaction count.  Raises :class:`AttributionError`
    on any schema or accounting violation: unknown categories, shares
    not summing to one, or a waterfall that does not contiguously tile
    its transaction window.
    """
    def fail(message: str) -> None:
        raise AttributionError(message)

    if not isinstance(payload, dict):
        fail("payload must be a JSON object")
    if payload.get("schema") != 1 or payload.get("tool") != "repro-why":
        fail("payload is not a repro-why schema-1 document")
    for key in ("scenario", "trace", "attribution", "routes",
                "transactions"):
        if key not in payload:
            fail(f"missing top-level key {key!r}")
    trace = payload["trace"]
    for key in ("sample", "started", "finished", "analyzed"):
        if not isinstance(trace.get(key), int):
            fail(f"trace.{key} must be an integer")
    known = set(CATEGORIES)

    def check_table(table: Dict[str, Any], where: str) -> None:
        if set(table) != known:
            fail(f"{where}: categories {sorted(table)} != "
                 f"{sorted(known)}")
        shares = 0.0
        for category, entry in table.items():
            if entry["ns"] < 0:
                fail(f"{where}.{category}: negative ns")
            shares += entry["share"]
        total = sum(entry["ns"] for entry in table.values())
        if total > 0 and abs(shares - 1.0) > 1e-3:
            fail(f"{where}: shares sum to {shares}, expected 1.0")

    check_table(payload["attribution"], "attribution")
    for name, route in payload["routes"].items():
        if route["transactions"] < 1:
            fail(f"routes[{name!r}]: empty route reported")
        check_table(route["attribution"], f"routes[{name!r}]")
    count = 0
    for txn in payload["transactions"]:
        segments = txn["critical_path"]
        duration = txn["duration_ns"]
        if duration < 0:
            fail(f"transaction {txn['trace_id']}: negative duration")
        if not segments:
            if duration > 1e-3:
                fail(f"transaction {txn['trace_id']}: nonzero duration "
                     "with empty critical path")
            count += 1
            continue
        cursor = txn["begin_ns"]
        covered = 0.0
        for segment in segments:
            if segment["category"] not in known:
                fail(f"transaction {txn['trace_id']}: unknown category "
                     f"{segment['category']!r}")
            if abs(segment["t0"] - cursor) > 1e-3:
                fail(f"transaction {txn['trace_id']}: critical path has "
                     f"a gap at {segment['t0']}")
            if segment["ns"] < 0:
                fail(f"transaction {txn['trace_id']}: negative segment")
            cursor = segment["t1"]
            covered += segment["ns"]
        if abs(cursor - txn["end_ns"]) > 1e-3:
            fail(f"transaction {txn['trace_id']}: critical path ends at "
                 f"{cursor}, transaction at {txn['end_ns']}")
        if abs(covered - duration) > 1e-2:
            fail(f"transaction {txn['trace_id']}: segments cover "
                 f"{covered} ns of a {duration} ns transaction")
        count += 1
    if payload["trace"]["analyzed"] and not payload["routes"]:
        fail("transactions analyzed but no routes reported")
    return count
