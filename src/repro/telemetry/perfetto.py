"""Chrome trace-event export (the JSON Perfetto and about:tracing load).

The format is the *JSON Array/Object Format* documented by the Chrome
tracing project: a top-level object with a ``traceEvents`` list whose
entries carry ``ph`` (phase), ``ts`` (microseconds), ``pid``/``tid``,
``name``, ``cat`` and ``args``.  We emit:

* ``M`` metadata events naming the process and one thread per
  telemetry *track* (per-component track assignment);
* ``B``/``E`` duration events for spans;
* ``i`` instant events (thread scope);
* ``C`` counter events for sampled probe timelines, one counter track
  per probe name;
* one thread per sampled transaction (``txn 7 reader:MemRd``) holding
  an ``X`` slice per segment of its critical path, named for the
  category that claimed the time, plus its marks as instants.

Stage intervals are drawn through the critical path, not as B/E pairs:
intervals of different flits overlap at one site, and intervals
recorded after the fact (an arbitration wait) are out of time order in
the stream.  Critical-path segments tile their transaction without
overlap, so each transaction track nests trivially.

Sim time is nanoseconds; Chrome ``ts`` is microseconds, so exported
timestamps are ``ns / 1000`` (floats are allowed by the format and
render fine in Perfetto).

:func:`validate_chrome_trace` is the schema check CI runs against the
exported file — deliberately strict about the invariants a viewer
relies on (phase-specific required keys, per-track B/E nesting,
non-negative timestamps).
"""

from __future__ import annotations

from typing import Any, Dict, List

from .attribution import collect_transactions

__all__ = ["to_chrome_trace", "validate_chrome_trace",
           "ChromeTraceError", "PID"]

#: The whole simulation exports as one Perfetto "process".
PID = 1

_NS_PER_US = 1000.0


class ChromeTraceError(ValueError):
    """The payload is not a valid Chrome trace-event file."""


def to_chrome_trace(telemetry) -> Dict[str, Any]:
    """Build the Chrome trace-event payload from a Telemetry's records."""
    trace_events: List[Dict[str, Any]] = [{
        "ph": "M", "pid": PID, "name": "process_name",
        "args": {"name": "repro simulation"},
    }]
    tracks = sorted(telemetry.track_names().items(),
                    key=lambda item: item[1])
    transactions = collect_transactions(telemetry)
    first_txn_tid = len(tracks) + 1
    tracks += [(f"txn {txn.trace_id} {txn.route}", first_txn_tid + index)
               for index, txn in enumerate(transactions)]
    for track_name, tid in tracks:
        trace_events.append({
            "ph": "M", "pid": PID, "tid": tid, "name": "thread_name",
            "args": {"name": track_name},
        })

    for event in telemetry.events:
        phase = event[0]
        if phase == "B":
            _, ts, tid, name, args = event
            record = {"ph": "B", "ts": ts / _NS_PER_US, "pid": PID,
                      "tid": tid, "name": name, "cat": "sim"}
            if args:
                record["args"] = args
        elif phase == "E":
            _, ts, tid = event
            record = {"ph": "E", "ts": ts / _NS_PER_US, "pid": PID,
                      "tid": tid}
        elif phase == "i":
            _, ts, tid, name, args = event
            record = {"ph": "i", "ts": ts / _NS_PER_US, "pid": PID,
                      "tid": tid, "name": name, "cat": "sim", "s": "t"}
            if args:
                record["args"] = args
        elif phase == "C":
            _, ts, name, value = event
            record = {"ph": "C", "ts": ts / _NS_PER_US, "pid": PID,
                      "name": name, "cat": "sim",
                      "args": {"value": value}}
        else:       # transaction records: drawn per transaction below
            continue
        trace_events.append(record)

    for index, txn in enumerate(transactions):
        tid = first_txn_tid + index
        records = [(segment["t0"], 1, {
            "ph": "X", "ts": segment["t0"] / _NS_PER_US,
            "dur": segment["ns"] / _NS_PER_US, "pid": PID, "tid": tid,
            "name": segment["category"], "cat": "txn",
            "args": {"site": segment["site"]}})
            for segment in txn.critical_path()]
        records += [(ts, 0, {
            "ph": "i", "ts": ts / _NS_PER_US, "pid": PID, "tid": tid,
            "name": name, "cat": "txn", "s": "t", "args": {"site": site}})
            for ts, name, site in txn.marks]
        records.sort(key=lambda item: item[:2])
        trace_events.extend(record for _ts, _order, record in records)

    return {
        "displayTimeUnit": "ns",
        "otherData": {"tool": "repro-telemetry", "schema": 1},
        "traceEvents": trace_events,
    }


def validate_chrome_trace(payload: Any) -> int:
    """Assert ``payload`` is a loadable trace; returns the event count.

    Raises :class:`ChromeTraceError` describing the first problem.
    This is the check the CI telemetry smoke runs on the exported
    file, and what the schema tests call.
    """
    if not isinstance(payload, dict):
        raise ChromeTraceError("top level must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ChromeTraceError("traceEvents must be a non-empty list")

    open_spans: Dict[Any, List[str]] = {}
    slice_ends: Dict[Any, List[float]] = {}
    last_ts: Dict[Any, float] = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ChromeTraceError(f"{where}: not an object")
        phase = event.get("ph")
        if phase not in ("M", "B", "E", "i", "C", "X"):
            raise ChromeTraceError(f"{where}: unknown phase {phase!r}")
        if "pid" not in event:
            raise ChromeTraceError(f"{where}: missing pid")
        if phase == "M":
            if event.get("name") not in ("process_name", "thread_name"):
                raise ChromeTraceError(
                    f"{where}: metadata name must be process_name or "
                    f"thread_name, got {event.get('name')!r}")
            if "name" not in event.get("args", {}):
                raise ChromeTraceError(f"{where}: metadata missing "
                                       "args.name")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ChromeTraceError(f"{where}: bad ts {ts!r}")
        if phase in ("B", "i", "C", "X") and not event.get("name"):
            raise ChromeTraceError(f"{where}: missing name")
        if phase in ("B", "E", "i", "X") and "tid" not in event:
            raise ChromeTraceError(f"{where}: missing tid")
        if phase == "C" and "args" not in event:
            raise ChromeTraceError(f"{where}: counter missing args")
        key = (event.get("pid"), event.get("tid"))
        if ts < last_ts.get(key, 0.0) - 1e-9:
            raise ChromeTraceError(
                f"{where}: ts went backwards on track {key}")
        last_ts[key] = ts
        if phase == "B":
            open_spans.setdefault(key, []).append(event["name"])
        elif phase == "E":
            stack = open_spans.get(key)
            if not stack:
                raise ChromeTraceError(
                    f"{where}: E without a matching B on track {key}")
            stack.pop()
        elif phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ChromeTraceError(f"{where}: bad dur {dur!r}")
            # Slices on one track must nest: each ends before any
            # enclosing slice it starts inside of.
            ends = slice_ends.setdefault(key, [])
            while ends and ends[-1] <= ts + 1e-6:
                ends.pop()
            if ends and ts + dur > ends[-1] + 1e-6:
                raise ChromeTraceError(
                    f"{where}: X slice overlaps an enclosing slice on "
                    f"track {key}")
            ends.append(ts + dur)

    unclosed = {key: stack for key, stack in open_spans.items() if stack}
    if unclosed:
        raise ChromeTraceError(f"unclosed spans at end of trace: "
                               f"{unclosed}")
    return len(events)
