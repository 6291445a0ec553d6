"""The closed-loop A/B experiment: static credits vs feedback rescue.

``control_loop`` runs the starvation experiment twice under the health
monitor: once with the static pathological ``RampUpPolicy`` (the §3 C5
baseline the ``fabric_health`` experiment pins), and once with the
same policy *plus* the default feedback policy — the control plane
watches windowed ``credit_stall`` attribution and, the moment the
quiet route's share breaches the rule threshold (the same window whose
close fires the fast-burn alert at 14,000 ns), installs equal
hot/quiet credit weights on the egress domain.

The golden-pinned recovery timeline is the contrast the ROADMAP's
closed-loop item asks for: the action lands exactly at the alert edge,
the quiet route's post-alert stall share drops versus the static run,
the burst finishes faster, and the hot route still never stalls (the
rescue does not starve it in turn).  Both runs are deterministic, so
the whole summary — action log included — is reproducible bytes.
"""

from __future__ import annotations

from typing import Any, Dict

from ...telemetry.health import DEFAULT_WINDOW_NS
from ...telemetry.sampler import DEFAULT_INTERVAL_NS
from ..format import print_table
from ..registry import Param, experiment


def _case(ctx, feedback: str) -> Dict[str, Any]:
    result = ctx.nested("starvation", window_ns=ctx.window_ns,
                        interval_ns=ctx.interval_ns,
                        feedback=feedback).observations[0]
    report = result.health_report()
    fired = [episode["fired_at"] for slo in report["slos"]
             for alert in slo["alerts"]
             for episode in alert["episodes"]]
    quiet = report["attribution"]["routes"]["quiet"]
    shares = quiet["share"]["credit_stall"]
    post_alert = [share for t1, share
                  in zip((w["t1"] for w in report["windows"]), shares)
                  if fired and t1 > fired[0]]
    actions = [{"t": action["t"], "rule": action["rule"],
                "actuator": action["actuator"],
                "granted_after": action["after"]["granted"]}
               for action in report["control"]["actions"]] \
        if "control" in report else []
    return {"fired_at": fired,
            "actions": actions,
            "quiet_stall_share": shares,
            "post_alert_share": post_alert,
            "quiet_stall_ns": result.summary["quiet_stall_ns"],
            "quiet_burst_ns": result.summary["quiet_burst_ns"],
            "hot_stall_ns": result.summary["hot_stall_ns"],
            "final_grants": result.summary["final_grants"],
            "events_processed": result.env.stats["events_processed"]}


#: The golden-pinned actuation edge: the window whose close fires the
#: fast-burn alert is the window whose close applies the rescue.
ACTION_LANDS_AT_NS = 14_000.0


def rescue_lands_on_alert_edge(summary: Dict[str, Any],
                               _params: Dict[str, Any]) -> bool:
    closed = summary["cases"]["closed-loop"]
    return (closed["fired_at"] == [ACTION_LANDS_AT_NS]
            and [a["t"] for a in closed["actions"]]
            == [ACTION_LANDS_AT_NS]
            and closed["actions"][0]["granted_after"]
            == {"hot": 16, "quiet": 16})


def feedback_beats_static(summary: Dict[str, Any],
                          _params: Dict[str, Any]) -> bool:
    static = summary["cases"]["static"]
    closed = summary["cases"]["closed-loop"]
    return (static["actions"] == []
            and max(closed["post_alert_share"])
            < max(static["post_alert_share"])
            and closed["quiet_burst_ns"] < static["quiet_burst_ns"]
            and closed["hot_stall_ns"] == 0.0)


def render_control_loop(summary: Dict[str, Any],
                        _params: Dict[str, Any]) -> None:
    rows = []
    for case, data in summary["cases"].items():
        fired = data["fired_at"][0] if data["fired_at"] else "-"
        post = max(data["post_alert_share"], default=0.0)
        rows.append([case, fired, len(data["actions"]),
                     round(post, 4), data["quiet_burst_ns"],
                     data["hot_stall_ns"],
                     "/".join(str(v) for v in
                              data["final_grants"].values())])
    print_table(
        f"closed loop vs static credits: starvation in "
        f"{summary['window_ns']:,.0f} ns windows",
        ["case", "alert ns", "actions", "post-alert stall share",
         "burst ns", "hot stall ns", "grants hot/quiet"], rows)


@experiment(
    "control_loop",
    "A/B: health-driven credit feedback vs static RampUpPolicy",
    params={"window_ns": Param(float, DEFAULT_WINDOW_NS,
                               "tumbling window width (sim ns)"),
            "interval_ns": Param(float, DEFAULT_INTERVAL_NS,
                                 "sampler cadence (sim ns)")},
    render=render_control_loop,
    invariants=(
        ("rescue_lands_on_the_alert_edge", rescue_lands_on_alert_edge),
        ("feedback_beats_static_without_starving_hot", feedback_beats_static),
    ))
def run_control_loop(ctx) -> Dict[str, Any]:
    cases = {"static": _case(ctx, feedback="off"),
             "closed-loop": _case(ctx, feedback="default")}
    return {"scenario": "starvation", "window_ns": ctx.window_ns,
            "cases": cases}
