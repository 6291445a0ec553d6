"""Self-contained HTML dashboard for ``repro health`` reports.

:func:`render_dashboard` turns one ``repro-health`` payload into a
single static HTML file: stat tiles, SVG line charts of burn rates and
per-route attribution shares, shaded alert episodes, anomaly markers,
and a windows table — with **no external assets** (no CDN, no fonts,
no JS framework), so the file is archivable as a CI artifact and
opens anywhere.

Rendering choices follow the repo's chart conventions: one y-axis per
chart, 2 px lines, a legend whenever two or more series share a plot,
text always in ink tokens (series color only on marks), status colors
reserved for alert state and always paired with an icon + label, and a
light/dark palette via CSS custom properties keyed off
``prefers-color-scheme``.  Output is deterministic: same report, same
bytes.
"""

from __future__ import annotations

import html
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["render_dashboard"]

# Chart geometry (SVG user units).
_W, _H = 640, 200
_ML, _MR, _MT, _MB = 58, 14, 12, 26

# Series slots 1-3 (blue / orange / aqua), light and dark steps.
_SERIES_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a")
_SERIES_DARK = ("#3987e5", "#d95926", "#199e70")

_CSS = """
:root {
  --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e;
  --ink-muted: #898781; --grid: #e1e0d9; --baseline: #c3c2b7;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a;
  --critical: #d03b3b; --warning: #fab219; --good: #0ca30c;
  --tile: #f4f4f2; --border: #e1e0d9;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7;
    --ink-muted: #898781; --grid: #2c2c2a; --baseline: #383835;
    --s1: #3987e5; --s2: #d95926; --s3: #199e70;
    --tile: #232322; --border: #2c2c2a;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0 auto; padding: 24px; max-width: 960px;
  background: var(--surface); color: var(--ink);
  font: 14px/1.45 system-ui, sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 18px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; }
.tile {
  background: var(--tile); border: 1px solid var(--border);
  border-radius: 6px; padding: 10px 14px; min-width: 128px;
}
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { color: var(--ink-2); font-size: 12px; }
.tile .v .icon { font-size: 16px; vertical-align: 2px; }
.chart { margin: 6px 0 2px; }
svg { display: block; max-width: 100%; }
.legend {
  display: flex; flex-wrap: wrap; gap: 14px; margin: 2px 0 0;
  color: var(--ink-2); font-size: 12px;
}
.legend .swatch {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 5px; vertical-align: -1px;
}
.alerts { margin: 8px 0 0; padding: 0; list-style: none; }
.alerts li { margin: 3px 0; color: var(--ink-2); }
.alerts .icon { margin-right: 6px; }
.fired .icon { color: var(--critical); }
.cleared .icon { color: var(--good); }
table { border-collapse: collapse; font-size: 13px; margin-top: 8px; }
th, td {
  text-align: right; padding: 4px 10px;
  border-bottom: 1px solid var(--border);
}
th { color: var(--ink-2); font-weight: 600; }
details summary { cursor: pointer; color: var(--ink-2); }
#tip {
  position: fixed; display: none; pointer-events: none;
  background: var(--tile); border: 1px solid var(--border);
  border-radius: 4px; padding: 5px 8px; font-size: 12px;
  color: var(--ink); white-space: pre; z-index: 10;
}
.grid-line { stroke: var(--grid); stroke-width: 1; }
.axis-line { stroke: var(--baseline); stroke-width: 1; }
.axis-text { fill: var(--ink-muted); font-size: 10px; }
.thresh { stroke: var(--ink-muted); stroke-width: 1;
          stroke-dasharray: 4 3; }
.episode { fill: var(--critical); fill-opacity: 0.12; }
.anom { fill: none; stroke: var(--critical); stroke-width: 2; }
.action-mark { stroke: var(--good); stroke-width: 2;
               stroke-dasharray: 2 3; }
.actions .icon { color: var(--good); }
.line { fill: none; stroke-width: 2; }
.s1 { stroke: var(--s1); } .s2 { stroke: var(--s2); }
.s3 { stroke: var(--s3); }
.sw1 { background: var(--s1); } .sw2 { background: var(--s2); }
.sw3 { background: var(--s3); }
"""

_JS = """
(function () {
  var tip = document.getElementById('tip');
  document.querySelectorAll('svg[data-points]').forEach(function (svg) {
    var pts = JSON.parse(svg.getAttribute('data-points'));
    svg.addEventListener('mousemove', function (ev) {
      var rect = svg.getBoundingClientRect();
      var sx = svg.viewBox.baseVal.width / rect.width;
      var x = (ev.clientX - rect.left) * sx;
      var best = null, bd = 1e9;
      pts.forEach(function (p) {
        var d = Math.abs(p.x - x);
        if (d < bd) { bd = d; best = p; }
      });
      if (!best || bd > 30) { tip.style.display = 'none'; return; }
      tip.textContent = best.label;
      tip.style.display = 'block';
      tip.style.left = (ev.clientX + 12) + 'px';
      tip.style.top = (ev.clientY + 12) + 'px';
    });
    svg.addEventListener('mouseleave', function () {
      tip.style.display = 'none';
    });
  });
})();
"""


def _fmt(value: float) -> str:
    """Compact deterministic number formatting for labels."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def _scale(lo: float, hi: float, span: Tuple[float, float]):
    if hi - lo <= 0:
        hi = lo + 1.0
    s0, s1 = span
    k = (s1 - s0) / (hi - lo)
    return lambda v: s0 + (v - lo) * k


def _nice_ticks(lo: float, hi: float, n: int = 4) -> List[float]:
    if hi - lo <= 0:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** int(f"{raw:e}".split("e")[1])
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * mag >= raw:
            step = mult * mag
            break
    first = step * (int(lo / step) if lo >= 0 else int(lo / step) - 1)
    ticks = []
    t = first
    while t <= hi + step * 1e-6:
        if t >= lo - step * 1e-6:
            ticks.append(round(t, 9))
        t += step
    return ticks


def _line_chart(times: Sequence[float],
                series: Sequence[Tuple[str, Sequence[Optional[float]]]],
                unit: str,
                y_max: Optional[float] = None,
                threshold: Optional[float] = None,
                threshold_label: str = "",
                episodes: Sequence[Tuple[float, Optional[float]]] = (),
                anomalies: Sequence[Tuple[float, float]] = (),
                actions: Sequence[Tuple[float, str]] = ()) -> str:
    """One SVG line chart (single y-axis, 2px lines, hover points).

    ``actions`` are (sim time, rule name) actuation markers — dashed
    vertical lines at the window edges where a feedback rule fired.
    """
    x0, x1 = (times[0], times[-1]) if times else (0.0, 1.0)
    values = [v for _name, col in series for v in col if v is not None]
    if threshold is not None:
        values.append(threshold)
    values.extend(v for _t, v in anomalies)
    lo = min(0.0, min(values)) if values else 0.0
    hi = y_max if y_max is not None else (max(values) if values else 1.0)
    if hi <= lo:
        hi = lo + 1.0
    hi *= 1.05
    sx = _scale(x0, x1, (_ML, _W - _MR))
    sy = _scale(lo, hi, (_H - _MB, _MT))
    parts: List[str] = []
    for end0, end1 in episodes:
        rx0 = sx(end0)
        rx1 = sx(end1 if end1 is not None else x1)
        parts.append(f'<rect class="episode" x="{rx0:.1f}" '
                     f'y="{_MT}" width="{max(rx1 - rx0, 2.0):.1f}" '
                     f'height="{_H - _MB - _MT}"/>')
    for tick in _nice_ticks(lo, hi):
        y = sy(tick)
        parts.append(f'<line class="grid-line" x1="{_ML}" '
                     f'y1="{y:.1f}" x2="{_W - _MR}" y2="{y:.1f}"/>')
        parts.append(f'<text class="axis-text" x="{_ML - 6}" '
                     f'y="{y + 3:.1f}" text-anchor="end">'
                     f'{_fmt(tick)}</text>')
    parts.append(f'<line class="axis-line" x1="{_ML}" '
                 f'y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}"/>')
    for tick in _nice_ticks(x0, x1, 6):
        x = sx(tick)
        parts.append(f'<text class="axis-text" x="{x:.1f}" '
                     f'y="{_H - _MB + 14}" text-anchor="middle">'
                     f'{_fmt(tick)}</text>')
    parts.append(f'<text class="axis-text" x="{_W - _MR}" '
                 f'y="{_H - 4}" text-anchor="end">sim time (ns)</text>')
    if threshold is not None:
        y = sy(threshold)
        parts.append(f'<line class="thresh" x1="{_ML}" y1="{y:.1f}" '
                     f'x2="{_W - _MR}" y2="{y:.1f}"/>')
        if threshold_label:
            parts.append(f'<text class="axis-text" x="{_W - _MR}" '
                         f'y="{y - 4:.1f}" text-anchor="end">'
                         f'{html.escape(threshold_label)}</text>')
    hover: List[Dict[str, Any]] = []
    for slot, (name, col) in enumerate(series):
        cls = f"s{(slot % 3) + 1}"
        run: List[str] = []
        segments: List[List[str]] = []
        for t, v in zip(times, col):
            if v is None:
                if run:
                    segments.append(run)
                    run = []
                continue
            run.append(f"{sx(t):.1f},{sy(v):.1f}")
            hover.append({"x": round(sx(t), 1),
                          "label": f"{name}\nt={_fmt(t)} ns  "
                                   f"value={_fmt(v)}{unit}"})
        if run:
            segments.append(run)
        for seg in segments:
            if len(seg) == 1:
                x, y = seg[0].split(",")
                parts.append(f'<circle class="line {cls}" cx="{x}" '
                             f'cy="{y}" r="2" fill="currentColor"/>')
            else:
                parts.append(f'<polyline class="line {cls}" '
                             f'points="{" ".join(seg)}"/>')
    for t, v in anomalies:
        parts.append(f'<circle class="anom" cx="{sx(t):.1f}" '
                     f'cy="{sy(v):.1f}" r="4"/>')
    for t, rule in actions:
        x = sx(t)
        parts.append(f'<line class="action-mark" x1="{x:.1f}" '
                     f'y1="{_MT}" x2="{x:.1f}" y2="{_H - _MB}"/>')
        hover.append({"x": round(x, 1),
                      "label": f"action {rule}\nt={_fmt(t)} ns"})
    data = html.escape(json.dumps(hover, sort_keys=True), quote=True)
    return (f'<svg viewBox="0 0 {_W} {_H}" role="img" '
            f'data-points="{data}">{"".join(parts)}</svg>')


def _legend(names: Sequence[str]) -> str:
    if len(names) < 2:
        return ""
    rows = "".join(
        f'<span><span class="swatch sw{(i % 3) + 1}"></span>'
        f'{html.escape(name)}</span>'
        for i, name in enumerate(names))
    return f'<div class="legend">{rows}</div>'


def _tile(value: str, key: str) -> str:
    return (f'<div class="tile"><div class="v">{value}</div>'
            f'<div class="k">{html.escape(key)}</div></div>')


def render_dashboard(report: Dict[str, Any]) -> str:
    """The full static HTML document for one health report."""
    windows = report["windows"]
    times = [w["t1"] for w in windows]
    episodes_total = sum(len(alert["episodes"])
                         for slo in report["slos"]
                         for alert in slo["alerts"])
    active = sum(1 for slo in report["slos"]
                 for alert in slo["alerts"] if alert["active"])
    anomaly_points = sum(len(rule["points"])
                         for rule in report["anomalies"])
    control = report.get("control")
    action_marks = [(a["t"], a["rule"])
                    for a in control["actions"]] if control else []
    if active:
        alert_tile = ('<span class="icon" style="color:var(--critical)">'
                      f'&#9650;</span> {episodes_total} '
                      '<span class="k">(active)</span>')
    elif episodes_total:
        alert_tile = ('<span class="icon" style="color:var(--warning)">'
                      f'&#9650;</span> {episodes_total}')
    else:
        alert_tile = ('<span class="icon" style="color:var(--good)">'
                      '&#10003;</span> 0')
    body: List[str] = []
    body.append(f'<h1>repro health &mdash; '
                f'{html.escape(report["scenario"])}</h1>')
    policy = report["policy"]
    body.append('<p class="sub">'
                + (f'policy {html.escape(policy)} &middot; '
                   if policy is not None else '')
                + f'window {_fmt(report["window_ns"])} ns'
                f' &middot; sampler {_fmt(report["interval_ns"])} ns'
                f' &middot; trace sample 1/{report["trace"]["sample"]}'
                '</p>')
    tiles = (_tile(str(len(windows)), "windows")
             + _tile(alert_tile, "alert episodes")
             + _tile(str(anomaly_points), "anomaly points")
             + _tile(str(report["trace"]["analyzed"]),
                     "transactions attributed"))
    if control is not None:
        tiles += _tile(str(len(control["actions"])), "control actions")
    body.append('<div class="tiles">' + tiles + '</div>')

    # One burn-rate chart per SLO, shaded with its alert episodes.
    for slo in report["slos"]:
        body.append(f'<h2>SLO {html.escape(slo["name"])} &mdash; '
                    'error-budget burn rate</h2>')
        episodes = [(e["fired_at"], e["cleared_at"])
                    for alert in slo["alerts"]
                    for e in alert["episodes"]]
        threshold = slo["alerts"][0]["burn_rate"] if slo["alerts"] \
            else None
        body.append('<div class="chart">' + _line_chart(
            times, [("burn", slo["burn"])], "x",
            threshold=threshold,
            threshold_label=f"burn {_fmt(threshold)}x"
            if threshold is not None else "",
            episodes=episodes, actions=action_marks) + '</div>')
        items = []
        for alert in slo["alerts"]:
            for episode in alert["episodes"]:
                items.append(
                    '<li class="fired"><span class="icon">&#9650;'
                    f'</span>{html.escape(alert["rule"])} fired at '
                    f'{_fmt(episode["fired_at"])} ns</li>')
                if episode["cleared_at"] is not None:
                    items.append(
                        '<li class="cleared"><span class="icon">'
                        f'&#10003;</span>{html.escape(alert["rule"])} '
                        f'cleared at {_fmt(episode["cleared_at"])} ns'
                        '</li>')
        if not items:
            items.append('<li class="cleared"><span class="icon">'
                         '&#10003;</span>no alerts fired</li>')
        body.append('<ul class="alerts">' + "".join(items) + '</ul>')

    # Per-route stall share (the paper's §3 starvation signal).
    routes = report["attribution"]["routes"]
    if routes:
        names = sorted(routes)[:3]
        dropped = len(routes) - len(names)
        body.append('<h2>credit_stall share of route latency</h2>')
        body.append('<div class="chart">' + _line_chart(
            times,
            [(name, routes[name]["share"]["credit_stall"])
             for name in names],
            "", actions=action_marks) + '</div>')
        body.append(_legend(names))
        if dropped:
            body.append(f'<p class="sub">({dropped} more route(s) in '
                        'the JSON report)</p>')

    # Anomaly-rule source series with flagged points.
    for rule in report["anomalies"]:
        series = rule["series"]
        if series["kind"] == "counter_delta":
            name = series["metric"]
            column = report["series"]["counters"].get(name)
            if column is None:
                continue
        else:
            route = routes.get(series.get("route", ""))
            if route is None:
                continue
            name = (f'{series["route"]}.'
                    f'{series["category"]} share')
            column = route["share"][series["category"]]
        points = [(p["t"], p["value"]) for p in rule["points"]]
        body.append(f'<h2>anomaly {html.escape(rule["name"])} &mdash; '
                    f'{html.escape(name)} per window</h2>')
        body.append('<div class="chart">' + _line_chart(
            times, [(name, column)], "", anomalies=points) + '</div>')
        label = (f'{len(points)} point(s) beyond '
                 f'{_fmt(rule["factor"])}x EWMA'
                 if points else 'no anomalies')
        icon = '&#9650;' if points else '&#10003;'
        cls = 'fired' if points else 'cleared'
        body.append(f'<ul class="alerts"><li class="{cls}">'
                    f'<span class="icon">{icon}</span>{label}</li></ul>')

    # Closed-loop action log (when a feedback policy ran).
    if control is not None:
        body.append('<h2>control actions</h2>')
        items = []
        for action in control["actions"]:
            settings = html.escape(
                json.dumps(action["set"], sort_keys=True))
            items.append(
                '<li><span class="icon">&#9881;</span>'
                f'{_fmt(action["t"])} ns &middot; rule '
                f'{html.escape(str(action["rule"]))} &rarr; '
                f'{html.escape(action["actuator"])} '
                f'<code>{settings}</code></li>')
        if not items:
            items.append('<li><span class="icon">&#10003;</span>'
                         'no rules fired</li>')
        body.append('<ul class="alerts actions">' + "".join(items)
                    + '</ul>')

    # Table view: every window, plus each SLO's burn column.
    head = "".join(f'<th>{h}</th>' for h in
                   ["window", "t0 (ns)", "t1 (ns)"]
                   + [f'{html.escape(s["name"])} burn'
                      for s in report["slos"]])
    rows = []
    for i, window in enumerate(windows):
        cells = [str(window["index"]), _fmt(window["t0"]),
                 _fmt(window["t1"])]
        for slo in report["slos"]:
            burn = slo["burn"][i]
            cells.append("&mdash;" if burn is None else _fmt(burn))
        rows.append("<tr>" + "".join(f"<td>{c}</td>" for c in cells)
                    + "</tr>")
    body.append('<details><summary>windows table</summary>'
                f'<table><thead><tr>{head}</tr></thead>'
                f'<tbody>{"".join(rows)}</tbody></table></details>')

    return ("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
            "<meta charset=\"utf-8\">\n"
            "<meta name=\"viewport\" "
            "content=\"width=device-width, initial-scale=1\">\n"
            f"<title>repro health &mdash; "
            f"{html.escape(report['scenario'])}</title>\n"
            f"<style>{_CSS}</style>\n</head>\n<body>\n"
            + "\n".join(body)
            + '\n<div id="tip"></div>\n'
            f"<script>{_JS}</script>\n</body>\n</html>\n")
