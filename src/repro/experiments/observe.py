"""The one run path: a run's environments and what observes them.

Every registered experiment gets its environments from
:meth:`RunContext.env`; no definition constructs an ``Environment``
itself.  This module is the one place that attaches what a run asks
for:

* ``trace`` and ``metrics`` — telemetry plus the timeline sampler;
* ``why`` — the same plus a causal recorder;
* ``health`` — the same plus a
  :class:`~repro.telemetry.health.HealthMonitor` with its SLO spec;
* ``sanitize`` — the runtime sanitizers;
* a feedback policy — a :class:`~repro.control.ControlPlane` riding
  the health monitor and acting through the actuators the experiment
  registers with :meth:`RunContext.add_actuator`.

Observer settings are the ones an experiment passes to
:meth:`RunContext.env`, else its own parameters when it declares them
(``interval_ns``, ``window_ns``, ``causal_sample``), else the
telemetry defaults (``repro.params``).  Every observer is a pure
observer, so observing never changes a summary; only a feedback policy
acts on the model.  An unobserved environment is a bare
``Environment()`` the context does not keep.  No observer module
(``telemetry.health``, ``sampler``, ``attribution``, ``dashboard``,
``perfetto``) is imported until something observes:
``tests/test_import_footprint.py::test_unobserved_fabric_run_loads_no_observer``
pins this.

After the run, :meth:`RunContext.documents` builds one document per
requested observer and environment, keyed by the environment's label
(``label#2`` for the second environment with that label).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..params import HEALTH_WINDOW_NS, SAMPLER_INTERVAL_NS
from ..sim import Environment
from .registry import OBSERVERS, ExperimentError, get

__all__ = ["Observation", "RunContext", "run_health", "run_scenario"]

_TELEMETRY = frozenset(("trace", "metrics", "why", "health"))
_CAUSAL = frozenset(("why", "health"))


class Observation:
    """One environment of a run and the observers attached to it."""

    def __init__(self, name: str, env: Environment,
                 policy: Optional[str] = None,
                 interval_ns: Optional[float] = None, monitor: Any = None,
                 plane: Any = None) -> None:
        self.name = name
        self.env = env
        self.policy = policy
        self.interval_ns = interval_ns
        self.monitor = monitor
        self.plane = plane
        #: The run's summary, once :meth:`finish` closed the observers.
        self.summary: Optional[Dict[str, Any]] = None

    @property
    def telemetry(self):
        return self.env.telemetry

    @property
    def causal(self):
        telemetry = self.env.telemetry
        return telemetry.causal if telemetry is not None else None

    def finish(self, summary: Dict[str, Any]) -> None:
        """The run is over: flush the last window, audit the drain."""
        self.summary = summary
        if self.monitor is not None:
            self.monitor.finalize(self.env.now)
        if self.env.sanitizer is not None:
            self.env.sanitizer.on_drain()

    # -- documents -----------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        if self.telemetry is None:
            raise ValueError(f"scenario {self.name!r} ran without telemetry")
        return self.telemetry.to_chrome_trace()

    def metrics_snapshot(self) -> Dict[str, Any]:
        if self.telemetry is None:
            raise ValueError(f"scenario {self.name!r} ran without telemetry")
        snapshot = self.telemetry.registry.snapshot()
        snapshot["scenario"] = self.name
        snapshot["summary"] = self.summary
        return snapshot

    def attribution_report(self,
                           max_transactions: int = 32) -> Dict[str, Any]:
        """Critical paths + latency buckets (the ``why`` document)."""
        if self.causal is None:
            raise ValueError(
                f"scenario {self.name!r} ran without causal tracing; "
                f"re-run with causal=True")
        from ..telemetry.attribution import build_report
        return build_report(self.name, self.causal, summary=self.summary,
                            max_transactions=max_transactions)

    def health_report(self) -> Dict[str, Any]:
        if self.monitor is None:
            raise ValueError(
                f"scenario {self.name!r} ran without the health monitor")
        control = self.plane.report() if self.plane is not None else None
        return self.monitor.build_report(
            policy=self.policy, interval_ns=self.interval_ns,
            summary=self.summary, control=control)

    def sanitizer_report(self) -> Dict[str, Any]:
        return self.env.sanitizer.to_json()

    def document(self, observer: str) -> Dict[str, Any]:
        return {"trace": self.chrome_trace,
                "metrics": self.metrics_snapshot,
                "why": self.attribution_report,
                "health": self.health_report,
                "sanitize": self.sanitizer_report}[observer]()


class RunContext:
    """What a run function sees: params, seed, and its environments.

    Parameters read as attributes (``ctx.hosts``) or items
    (``ctx["hosts"]``).  ``observe`` names the observers attached to
    every environment the run opens; ``feedback`` (a
    :class:`~repro.control.FeedbackPolicy`) and ``slo`` (a
    :class:`~repro.telemetry.health.SloSpec`, ``repro bench --slo``)
    apply to every health monitor, nested runs included.  ``retain``
    keeps unobserved environments too, for callers that read them
    back.
    """

    __slots__ = ("params", "seed", "observe", "slo", "retain",
                 "observations", "_feedback", "_by_env")

    def __init__(self, params: Dict[str, Any], seed: int = 0,
                 observe=(), feedback: Any = None, slo: Any = None,
                 retain: bool = False) -> None:
        unknown = sorted(set(observe) - set(OBSERVERS))
        if unknown:
            raise ExperimentError(
                f"unknown observer(s) {', '.join(unknown)}; choose from "
                f"{', '.join(OBSERVERS)}")
        self.params = params
        self.seed = seed
        self.observe = frozenset(observe)
        self.slo = slo
        self._feedback = feedback
        self.retain = retain
        self.observations: List[Observation] = []
        self._by_env: Dict[int, Observation] = {}

    def __getitem__(self, name: str) -> Any:
        return self.params[name]

    def __getattr__(self, name: str) -> Any:
        try:
            return self.params[name]
        except KeyError:
            raise AttributeError(name) from None

    # -- environments --------------------------------------------------------

    def env(self, label: str, *, feedback: Any = None,
            policy: Optional[str] = None,
            window_ns: Optional[float] = None,
            interval_ns: Optional[float] = None) -> Environment:
        """A fresh environment with this run's observers attached.

        ``feedback`` (default: the context's) puts the environment
        under the health monitor and a control plane running that
        policy.  ``policy`` is the credit policy its health report
        names.  ``window_ns``/``interval_ns`` fix the health window and
        sampler cadence for this environment, over the experiment's
        parameters of those names.
        """
        if feedback is None:
            feedback = self._feedback
        observe = self.observe
        if feedback is not None:
            observe = observe | {"health"}
        if not observe:
            env = Environment()
            if self.retain:
                self._keep(Observation(label, env, policy))
            return env
        monitor = plane = telemetry = None
        if observe & _TELEMETRY:
            from ..telemetry.causal import CausalRecorder
            from ..telemetry.core import Telemetry
            from ..telemetry.health import HealthMonitor, check_cadence
            from ..telemetry.sampler import TimelineSampler
            if interval_ns is None:
                interval_ns = self.params.get("interval_ns",
                                              SAMPLER_INTERVAL_NS)
            if window_ns is None:
                window_ns = self.params.get("window_ns", HEALTH_WINDOW_NS)
            check_cadence(interval_ns,
                          window_ns if "health" in observe else None)
            causal = None
            if observe & _CAUSAL:
                sample = self.params.get("causal_sample", 1)
                if sample < 1:
                    raise ExperimentError(
                        f"causal_sample must be >= 1, got {sample}")
                causal = CausalRecorder(sample=sample)
            telemetry = Telemetry(causal=causal)
            if "health" in observe:
                monitor = HealthMonitor(telemetry, scenario=label,
                                        window_ns=window_ns,
                                        spec=self.slo)
                if feedback is not None:
                    from ..control import ControlPlane
                    plane = ControlPlane(feedback).attach(monitor)
        env = Environment(sanitize="sanitize" in observe,
                          telemetry=telemetry)
        if telemetry is not None:
            TimelineSampler(env, interval_ns=interval_ns).start()
        self._keep(Observation(label, env, policy,
                               interval_ns if telemetry is not None else None,
                               monitor, plane))
        return env

    def add_actuator(self, env: Environment, actuator: Any) -> None:
        """Let ``env``'s feedback policy act through ``actuator``
        (a no-op when ``env`` runs without one)."""
        observation = self._by_env.get(id(env))
        if observation is not None and observation.plane is not None:
            observation.plane.add_actuator(actuator)

    def observation(self, env: Environment) -> Observation:
        """What observes ``env`` (an environment this run observes)."""
        return self._by_env[id(env)]

    def feedback_policy(self, default: Callable[[], Any]) -> Any:
        """The policy the ``feedback`` parameter names: None for
        ``off``, ``default()`` for ``default``, else the policy JSON
        file it points at."""
        value = self.params["feedback"]
        if value == "off":
            return None
        if value == "default":
            return default()
        from ..control import FeedbackPolicy
        return FeedbackPolicy.load(value)

    def nested(self, name: str, **params: Any) -> "RunContext":
        """Run experiment ``name`` inside this run, every environment
        under the health monitor (with this run's feedback policy and
        SLO spec); returns its finished context."""
        defn = get(name)
        child = RunContext(defn.resolve_params(params), self.seed,
                           observe=self.observe | {"health"},
                           feedback=self._feedback, slo=self.slo)
        child.finish(defn.run(child))
        for observation in child.observations:
            self._keep(observation)
        return child

    def _keep(self, observation: Observation) -> None:
        self.observations.append(observation)
        self._by_env[id(observation.env)] = observation

    # -- after the run -------------------------------------------------------

    def finish(self, summary: Dict[str, Any]) -> List[Observation]:
        """Close every observer on the run's summary."""
        for observation in self.observations:
            if observation.summary is None:     # nested runs finish
                observation.finish(summary)     # their own
        return self.observations

    def documents(self) -> Dict[str, Dict[str, Any]]:
        """``{observer: {label: document}}`` for each requested one."""
        docs: Dict[str, Dict[str, Any]] = {
            observer: {} for observer in OBSERVERS
            if observer in self.observe}
        seen: Dict[str, int] = {}
        for observation in self.observations:
            count = seen[observation.name] = \
                seen.get(observation.name, 0) + 1
            key = observation.name if count == 1 \
                else f"{observation.name}#{count}"
            for observer, by_label in docs.items():
                by_label[key] = observation.document(observer)
        return docs


def _run_one(name: str, params: Dict[str, Any], observe,
             feedback: Any = None, slo: Any = None) -> Observation:
    defn = get(name)
    ctx = RunContext(defn.resolve_params(params), observe=observe,
                     feedback=feedback, slo=slo, retain=True)
    return ctx.finish(defn.run(ctx))[0]


def run_scenario(name: str, interval_ns: Optional[float] = None,
                 telemetry: bool = True, causal: bool = False,
                 causal_sample: int = 1) -> Observation:
    """Run one experiment with telemetry (``causal``: and a causal
    recorder); returns its first environment's :class:`Observation`.
    ``telemetry=False`` runs the identical model bare."""
    if causal and not telemetry:
        raise ValueError("causal tracing needs telemetry=True")
    params: Dict[str, Any] = {"causal_sample": causal_sample}
    if interval_ns is not None:
        params["interval_ns"] = interval_ns
    observe = ("why",) if causal else ("metrics",) if telemetry else ()
    return _run_one(name, params, observe)


def run_health(scenario: str, feedback: Any = None, spec: Any = None,
               **params: Any) -> Tuple[Observation, Dict[str, Any]]:
    """Run one experiment under the health monitor.

    ``params`` are the experiment's own (``policy``, ``window_ns``,
    ``interval_ns`` ...); ``feedback`` is a
    :class:`~repro.control.FeedbackPolicy` acting through the
    actuators the experiment registers; ``spec`` replaces the default
    SLO spec.  Returns ``(observation, health report)``.
    """
    result = _run_one(scenario, params, ("health",), feedback, spec)
    return result, result.health_report()
