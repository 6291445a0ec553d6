"""Closed-loop control plane: actuators, policies, determinism.

The contract under test (ISSUE 10 / ROADMAP "closed-loop control
plane"): every actuation surface sits behind the uniform Actuator
protocol with validated bounds and a sim-time-stamped action log; the
ControlPlane applies declarative FeedbackPolicy rules at window-close
edges only; closed-loop runs are bit-identical across reruns; and
with no feedback policy attached the plane is a true no-op —
``events_processed`` equals the plain health run exactly.
"""

import json

import pytest

from repro.control import (
    Actuator,
    ControlError,
    ControlPlane,
    CreditActuator,
    FeedbackPolicy,
    Knob,
    LinkActuator,
    default_feedback_policy,
)
from repro.pcie.credits import (CreditDomain, RampUpPolicy,
                                StaticEqualPolicy, WeightedSharePolicy)
from repro.sim import Environment
from repro.telemetry.health import run_health

ALERT_NS = 14_000.0


# --------------------------------------------------------------------------
# the actuator protocol
# --------------------------------------------------------------------------

class _Toy(Actuator):
    """Minimal concrete actuator for protocol-level tests."""

    def __init__(self):
        super().__init__()
        self.name = "toy"
        self.level = 1.0

    def knobs(self):
        return {"level": Knob("level", "float", "the level",
                              positive=True, maximum=10.0)}

    def current(self):
        return {"level": self.level}

    def _apply(self, settings):
        self.level = settings["level"]


class TestActuatorProtocol:
    def test_apply_validates_and_logs(self):
        toy = _Toy()
        entry = toy.apply({"level": 4.0}, time=2_000.0, rule="r")
        assert toy.level == 4.0
        assert entry["t"] == 2_000.0 and entry["rule"] == "r"
        assert entry["before"] == {"level": 1.0}
        assert entry["after"] == {"level": 4.0}
        assert toy.history == [entry]

    def test_unknown_knob_lists_the_knobs(self):
        with pytest.raises(ControlError, match="unknown knob 'vibe'"):
            _Toy().apply({"vibe": 1.0}, time=0.0)

    def test_bounds_enforced_with_path(self):
        with pytest.raises(ControlError, match="toy.level"):
            _Toy().apply({"level": 99.0}, time=0.0)
        with pytest.raises(ControlError, match="toy.level"):
            _Toy().apply({"level": -1.0}, time=0.0)

    def test_empty_settings_rejected(self):
        with pytest.raises(ControlError, match="non-empty"):
            _Toy().apply({}, time=0.0)

    def test_describe_is_json_able(self):
        desc = _Toy().describe()
        assert desc["actuator"] == "toy"
        assert desc["knobs"]["level"]["max"] == 10.0
        assert desc["current"] == {"level": 1.0}
        json.dumps(desc)   # schema-stable payload


class TestCreditActuator:
    def _domain(self):
        env = Environment()
        domain = CreditDomain(env, budget=32, policy=RampUpPolicy(),
                              rebalance_ns=2_000.0, name="egress0")
        domain.register("hot")
        domain.register("quiet")
        return env, domain

    def test_weights_install_weighted_share_policy(self):
        env, domain = self._domain()
        actuator = CreditActuator(domain)
        assert actuator.name == "credits.egress0"
        actuator.apply({"weights": {"hot": 3.0, "quiet": 1.0}},
                       time=0.0)
        assert isinstance(domain.policy, WeightedSharePolicy)
        assert domain.granted("hot") == 24
        assert domain.granted("quiet") == 8

    def test_unknown_flow_rejected_with_registered_list(self):
        env, domain = self._domain()
        with pytest.raises(ControlError,
                           match=r"weights\.cold: unknown flow"):
            CreditActuator(domain).apply(
                {"weights": {"cold": 1.0}}, time=0.0)

    def test_rebalance_cadence_knob(self):
        env, domain = self._domain()
        CreditActuator(domain).apply({"rebalance_ns": 500.0}, time=0.0)
        assert domain.rebalance_ns == 500.0


class TestWeightedSharePolicy:
    def test_largest_remainder_apportionment(self):
        env = Environment()
        domain = CreditDomain(env, budget=10, name="d")
        for flow in ("a", "b", "c"):
            domain.register(flow)
        targets = WeightedSharePolicy(
            {"a": 1.0, "b": 1.0, "c": 1.0}).targets(domain)
        assert sum(targets.values()) == 10
        assert sorted(targets.values()) == [3, 3, 4]

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="at least one flow"):
            WeightedSharePolicy({})
        with pytest.raises(ValueError, match="must be a number > 0"):
            WeightedSharePolicy({"a": 0.0})
        with pytest.raises(ValueError, match="must be a number > 0"):
            WeightedSharePolicy({"a": True})

    def test_unweighted_flows_fall_back_to_equal_split(self):
        env = Environment()
        domain = CreditDomain(env, budget=32, name="d")
        domain.register("x")
        domain.register("y")
        targets = WeightedSharePolicy({"other": 2.0}).targets(domain)
        assert targets == StaticEqualPolicy().targets(domain)


class TestLinkActuator:
    def _link(self):
        from repro import params
        from repro.fabric.link import LinkLayer
        env = Environment()
        return LinkLayer(env, params.LinkParams(credits=8), vcs=2,
                         name="l0")

    def test_grant_and_revoke_to_target(self):
        link = self._link()
        actuator = LinkActuator(link, vc=1, name="link.l0")
        actuator.apply({"granted": 12}, time=0.0)
        assert link.credits_granted(1) == 12
        entry = actuator.apply({"granted": 2}, time=100.0)
        assert link.credits_granted(1) == 2
        assert entry["before"]["granted"] == 12

    def test_vc_out_of_range_rejected(self):
        with pytest.raises(ControlError, match="vc 7 out of range"):
            LinkActuator(self._link(), vc=7)

    def test_granted_floor_is_one(self):
        with pytest.raises(ControlError, match="granted"):
            LinkActuator(self._link()).apply({"granted": 0}, time=0.0)


# --------------------------------------------------------------------------
# feedback policies
# --------------------------------------------------------------------------

class TestFeedbackPolicyParsing:
    def test_default_starvation_policy_parses(self):
        policy = FeedbackPolicy(default_feedback_policy("starvation"))
        assert [rule.name for rule in policy.rules] == ["rescue-quiet"]
        assert policy.rules[0].max_firings == 1

    def test_no_default_for_other_scenarios(self):
        with pytest.raises(ControlError, match="no default feedback"):
            default_feedback_policy("t2")

    def test_unknown_condition_kind_path(self):
        with pytest.raises(ControlError,
                           match=r"rules\[0\]\.when\.kind"):
            FeedbackPolicy({"rules": [{
                "name": "r", "when": {"kind": "vibes", "above": 1.0},
                "then": {"actuator": "a", "set": {"x": 1}}}]})

    def test_unknown_category_path(self):
        with pytest.raises(ControlError,
                           match=r"rules\[0\]\.when\.category"):
            FeedbackPolicy({"rules": [{
                "name": "r",
                "when": {"kind": "attribution_share", "route": "q",
                         "category": "luck", "above": 0.5},
                "then": {"actuator": "a", "set": {"x": 1}}}]})

    def test_exactly_one_comparator_required(self):
        when = {"kind": "counter_delta", "counter": "c"}
        rule = {"name": "r", "when": dict(when),
                "then": {"actuator": "a", "set": {"x": 1}}}
        with pytest.raises(ControlError, match="exactly one"):
            FeedbackPolicy({"rules": [rule]})
        rule["when"] = {**when, "above": 1.0, "below": 2.0}
        with pytest.raises(ControlError, match="exactly one"):
            FeedbackPolicy({"rules": [rule]})

    def test_below_comparator_fires_on_undershoot(self):
        policy = FeedbackPolicy({"rules": [{
            "name": "r",
            "when": {"kind": "gauge_level", "gauge": "g",
                     "below": 0.5},
            "then": {"actuator": "a", "set": {"x": 1}}}]})
        when = policy.rules[0].when
        assert when.fires(0.0) and not when.fires(0.5)
        assert when.to_dict()["below"] == 0.5

    def test_duplicate_rule_names_rejected(self):
        rule = {"name": "r",
                "when": {"kind": "counter_delta", "counter": "c",
                         "above": 1.0},
                "then": {"actuator": "a", "set": {"x": 1}}}
        with pytest.raises(ControlError, match="duplicate"):
            FeedbackPolicy({"rules": [rule, dict(rule)]})

    def test_unknown_rule_keys_rejected_with_path(self):
        with pytest.raises(ControlError,
                           match=r"rules\[0\]: unknown key"):
            FeedbackPolicy({"rules": [{
                "name": "r", "frequency": 2,
                "when": {"kind": "counter_delta", "counter": "c",
                         "above": 1.0},
                "then": {"actuator": "a", "set": {"x": 1}}}]})

    def test_load_errors(self, tmp_path):
        with pytest.raises(ControlError, match="cannot read"):
            FeedbackPolicy.load(tmp_path / "missing.json")
        (tmp_path / "bad.json").write_text("{nope")
        with pytest.raises(ControlError, match="not JSON"):
            FeedbackPolicy.load(tmp_path / "bad.json")

    def test_cooldown_gates_refiring(self):
        policy = FeedbackPolicy({"rules": [{
            "name": "r",
            "when": {"kind": "counter_delta", "counter": "c",
                     "above": 1.0},
            "then": {"actuator": "a", "set": {"x": 1}},
            "cooldown_windows": 2}]})
        rule = policy.rules[0]
        assert rule.ready(0)
        rule.firings, rule.last_window = 1, 0
        assert not rule.ready(1) and not rule.ready(2)
        assert rule.ready(3)


class TestControlPlane:
    def test_duplicate_actuator_rejected(self):
        plane = ControlPlane()
        plane.add_actuator(_Toy())
        with pytest.raises(ControlError, match="already registered"):
            plane.add_actuator(_Toy())

    def test_unknown_actuator_lists_registered(self):
        plane = ControlPlane()
        plane.add_actuator(_Toy())
        with pytest.raises(ControlError, match="registered: toy"):
            plane.actuator("nope")

    def test_final_windows_are_never_acted_on(self):
        policy = FeedbackPolicy({"rules": [{
            "name": "r",
            "when": {"kind": "counter_delta", "counter": "c",
                     "above": 0.0},
            "then": {"actuator": "toy", "set": {"level": 2.0}}}]})
        plane = ControlPlane(policy)
        plane.add_actuator(_Toy())
        window = {"index": 0, "t0": 0.0, "t1": 100.0, "final": True,
                  "counters": {"c": 5.0}, "gauges": {},
                  "histograms": {}, "attribution": {}}
        plane.on_window(window)
        assert plane.actions == []
        plane.on_window({**window, "final": False})
        assert len(plane.actions) == 1


# --------------------------------------------------------------------------
# end to end: the golden-pinned starvation rescue
# --------------------------------------------------------------------------

def _closed_loop_run():
    policy = FeedbackPolicy(default_feedback_policy("starvation"),
                            source="default")
    return run_health("starvation", feedback=policy)


class TestClosedLoopStarvation:
    def test_rescue_fires_at_the_alert_edge(self):
        result, report = _closed_loop_run()
        actions = report["control"]["actions"]
        assert [a["t"] for a in actions] == [ALERT_NS]
        assert actions[0]["rule"] == "rescue-quiet"
        assert actions[0]["after"]["granted"] == {"hot": 16,
                                                  "quiet": 16}

    def test_feedback_beats_static_without_starving_hot(self):
        static, _ = run_health("starvation")
        closed, _ = _closed_loop_run()
        assert closed.summary["quiet_stall_ns"] \
            < static.summary["quiet_stall_ns"]
        assert closed.summary["quiet_burst_ns"] \
            < static.summary["quiet_burst_ns"]
        assert closed.summary["hot_stall_ns"] == 0.0

    def test_reruns_are_bit_identical(self):
        result_a, report_a = _closed_loop_run()
        result_b, report_b = _closed_loop_run()
        assert result_a.summary == result_b.summary
        assert report_a["control"] == report_b["control"]
        assert result_a.env.stats["events_processed"] \
            == result_b.env.stats["events_processed"]

    def test_attached_plane_without_policy_is_zero_overhead(self):
        plain, _ = run_health("starvation")
        nofeed, report = run_health("starvation", feedback=None)
        assert "control" not in report
        assert nofeed.env.stats["events_processed"] \
            == plain.env.stats["events_processed"]
        assert nofeed.summary == plain.summary

    def test_feedback_wired_for_starvation_only(self):
        # t2 registers no actuator; the starvation policy's names one,
        # so the first window refuses the policy.
        policy = FeedbackPolicy(default_feedback_policy("starvation"))
        with pytest.raises(ControlError, match="credits.egress0"):
            run_health("t2", feedback=policy)


class TestClosedLoopXswitch:
    def test_rescue_case_contains_the_starvation(self):
        from repro.experiments import run_summary
        summary = run_summary("xswitch_starvation",
                              feedback="default")
        cases = summary["cases"]
        assert cases["fifo rescue"]["mean_ns"] \
            < 0.5 * cases["fifo congested"]["mean_ns"]
        actions = summary["feedback"]["actions"]
        assert [a["rule"] for a in actions] == ["quench-flood"]
        assert actions[0]["actuator"] == "link.injection"
        assert actions[0]["t"] == 1_000.0

    def test_off_by_default_keeps_the_golden_table(self):
        from repro.experiments import run_summary
        summary = run_summary("xswitch_starvation")
        assert "feedback" not in summary
        assert sorted(summary["cases"]) == [
            "fair congested", "fifo congested", "fifo quiet"]


# --------------------------------------------------------------------------
# any experiment: actuators registered on the run context
# --------------------------------------------------------------------------

@pytest.fixture
def pool_experiment():
    """A throwaway experiment that registers one credit actuator."""
    from repro.experiments import ExperimentDef, register, registry
    from repro.sim import run_proc

    def run(ctx):
        env = ctx.env("pool")
        domain = CreditDomain(env, budget=8, policy=RampUpPolicy(),
                              rebalance_ns=1_000.0, name="pool")
        domain.register("a")
        domain.register("b")
        domain.start()
        ctx.add_actuator(env, CreditActuator(domain))

        def traffic():
            for _ in range(200):
                yield domain.acquire("a")
                yield env.timeout(40.0)
                domain.release("a")

        run_proc(env, traffic())
        return {"rebalance_ns": domain.rebalance_ns}

    name = "test_only_pool"
    register(ExperimentDef(name=name, description="test only",
                           params={}, run=run))
    yield name
    del registry._REGISTRY[name]


class TestAnyExperimentTakesFeedback:
    POLICY = {"rules": [
        {"name": "slow-rebalance",
         "when": {"kind": "gauge_level", "gauge": "credits.pool.a.granted",
                  "above": 0.0},
         "then": {"actuator": "credits.pool",
                  "set": {"rebalance_ns": 4_000.0}},
         "max_firings": 1}]}

    def test_policy_acts_through_actuators_registered_on_ctx(
            self, pool_experiment):
        result, report = run_health(pool_experiment,
                                    feedback=FeedbackPolicy(self.POLICY))
        actions = report["control"]["actions"]
        assert [a["actuator"] for a in actions] == ["credits.pool"]
        assert actions[0]["t"] == 2_000.0
        assert result.summary == {"rebalance_ns": 4_000.0}

    def test_unobserved_run_ignores_the_actuator(self, pool_experiment):
        from repro.experiments import run_summary
        assert run_summary(pool_experiment) == {"rebalance_ns": 1_000.0}
