"""The streaming-health experiment: golden-pinned alert timelines.

``fabric_health`` runs a timeline experiment (``t2``, ``starvation``
or ``interleave``) nested under the
:class:`~repro.telemetry.health.HealthMonitor` and summarizes what the
SLO layer concluded: how many windows closed, which burn-rate alerts
fired and exactly *when* (sim time), and where the anomaly detector
flagged points.  For the starvation scenario it runs both credit
policies — the pathological ``rampup`` default and the ``fair``
control — so the registry pins the §3 C5 contrast end to end: the
quiet-route SLO alert fires at a fixed sim time under RampUpPolicy and
never fires under StaticEqualPolicy.  Tests and the registry invariants
pin this summary; a model change that moves an alert edge shows up as
a golden diff, not a silent drift.
"""

from __future__ import annotations

from typing import Any, Dict

from ...params import HEALTH_WINDOW_NS, SAMPLER_INTERVAL_NS
from ..format import print_table
from ..registry import Param, experiment


def _case(ctx, **params: Any) -> Dict[str, Any]:
    result = ctx.nested(ctx.scenario, window_ns=ctx.window_ns,
                        interval_ns=ctx.interval_ns,
                        **params).observations[0]
    report = result.health_report()
    alerts = []
    peak = 0.0
    for slo in report["slos"]:
        peak = max(peak, *(b for b in slo["burn"] if b is not None),
                   0.0)
        for alert in slo["alerts"]:
            for episode in alert["episodes"]:
                alerts.append({"slo": slo["name"],
                               "rule": alert["rule"],
                               "fired_at": episode["fired_at"],
                               "cleared_at": episode["cleared_at"]})
    anomalies = [point["t"] for rule in report["anomalies"]
                 for point in rule["points"]]
    return {"windows": len(report["windows"]),
            "alerts": alerts,
            "anomaly_ns": anomalies,
            "peak_burn": round(peak, 4),
            "txns_attributed": report["trace"]["analyzed"],
            "events_processed": result.env.stats["events_processed"]}


#: The golden-pinned alert edge: the quiet burst starts at 12,000 ns
#: (after six rebalance periods of decay) and the first whole window
#: containing its stall closes at 14,000 ns.
ALERT_FIRES_AT_NS = 14_000.0


def alert_fires_at_pinned_edge(summary: Dict[str, Any],
                               _params: Dict[str, Any]) -> bool:
    """Starvation under RampUpPolicy fires one quiet-route alert, on
    the pinned edge (other scenarios make no such claim)."""
    if summary["scenario"] != "starvation":
        return True
    alerts = summary["cases"]["rampup"]["alerts"]
    return ([a["fired_at"] for a in alerts] == [ALERT_FIRES_AT_NS]
            and alerts[0]["slo"] == "quiet_route_stall")


def fair_policy_stays_quiet(summary: Dict[str, Any],
                            _params: Dict[str, Any]) -> bool:
    fair = summary["cases"].get("fair")
    return fair is None or (fair["alerts"] == []
                            and fair["anomaly_ns"] == [])


def render_fabric_health(summary: Dict[str, Any],
                         _params: Dict[str, Any]) -> None:
    rows = []
    for case, data in summary["cases"].items():
        first = data["alerts"][0]["fired_at"] if data["alerts"] \
            else "-"
        rows.append([case, data["windows"], len(data["alerts"]),
                     first, data["peak_burn"],
                     len(data["anomaly_ns"])])
    print_table(
        f"fabric health: {summary['scenario']} in "
        f"{summary['window_ns']:,.0f} ns windows",
        ["case", "windows", "alerts", "first fired ns", "peak burn",
         "anomalies"], rows)


@experiment(
    "fabric_health",
    "streaming SLO burn-rate alerts on a canonical scenario",
    params={"scenario": Param(str, "starvation",
                              "t2, starvation or interleave; "
                              "starvation runs both credit policies"),
            "window_ns": Param(float, HEALTH_WINDOW_NS,
                               "tumbling window width (sim ns)"),
            "interval_ns": Param(float, SAMPLER_INTERVAL_NS,
                                 "sampler cadence (sim ns)")},
    render=render_fabric_health,
    invariants=(
        ("health_alert_fires_at_the_pinned_edge", alert_fires_at_pinned_edge),
        ("health_fair_policy_stays_quiet", fair_policy_stays_quiet),
    ))
def run_fabric_health(ctx) -> Dict[str, Any]:
    if ctx.scenario == "starvation":
        cases = {policy: _case(ctx, policy=policy)
                 for policy in ("rampup", "fair")}
    else:
        cases = {"rampup": _case(ctx)}
    return {"scenario": ctx.scenario, "window_ns": ctx.window_ns,
            "cases": cases}
