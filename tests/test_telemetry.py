"""Tests for repro.telemetry: metrics, spans, Perfetto export, sampler,
and the telemetry-on/off bit-identity guarantee."""

import json

import pytest

from repro.experiments import (ExperimentSpec, names, run_experiment,
                               run_scenario)
from repro.sim import Environment, Store
from repro.telemetry import (ChromeTraceError, Counter, Gauge, Histogram,
                             MetricRegistry, Telemetry, TimelineSampler,
                             span, to_chrome_trace, validate_chrome_trace)


class TestMetricRegistry:
    def test_counter_get_or_create_is_stable(self):
        registry = MetricRegistry()
        a = registry.counter("pcie.sw0.flits")
        b = registry.counter("pcie.sw0.flits")
        assert a is b
        a.inc(3, time=10.0)
        assert b.value == 3
        assert b.last_time == 10.0

    def test_kind_mismatch_rejected(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_gauge_tracks_min_max(self):
        gauge = MetricRegistry().gauge("depth")
        for value in (4, 9, 2):
            gauge.set(value)
        assert (gauge.value, gauge.minimum, gauge.maximum) == (2, 2, 9)

    def test_hierarchical_names_prefix_filter(self):
        registry = MetricRegistry()
        for name in ("pcie.sw0.port0.queue_depth", "pcie.sw0.drops",
                     "pcie.sw1.drops", "link.l0.flits"):
            registry.counter(name)
        assert registry.names("pcie.sw0") == [
            "pcie.sw0.drops", "pcie.sw0.port0.queue_depth"]
        assert len(registry.names()) == 4
        assert registry.names("pcie.sw") == []   # dotted, not substring

    def test_snapshot_schema_and_json_round_trip(self):
        registry = MetricRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7, time=5.0)
        registry.histogram("h").observe(100)
        snapshot = registry.snapshot()
        assert snapshot["schema"] == 1
        assert snapshot["tool"] == "repro-telemetry"
        assert snapshot["count"] == 3
        assert set(snapshot["metrics"]) == {"c", "g", "h"}
        assert snapshot["metrics"]["c"]["kind"] == "counter"
        json.dumps(snapshot)


class TestHistogram:
    def test_log_buckets(self):
        hist = Histogram("lat")
        for value in (0, 0.5, 1, 3, 1000):
            hist.observe(value)
        rows = hist.buckets()
        assert rows[0] == (0.0, 1.0, 2)        # 0 and 0.5
        assert (1.0, 2.0, 1) in rows           # 1
        assert (2.0, 4.0, 1) in rows           # 3
        assert (512.0, 1024.0, 1) in rows      # 1000
        assert hist.count == 5
        assert hist.mean == pytest.approx(1004.5 / 5)

    def test_quantile_upper_bound(self):
        hist = Histogram("lat")
        for _ in range(99):
            hist.observe(1)
        hist.observe(1000)
        assert hist.quantile(0.5) == 2.0
        assert hist.quantile(1.0) == 1024.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat").observe(-1)

    def test_empty_mean_raises(self):
        hist = Histogram("lat")
        with pytest.raises(ValueError):
            hist.mean

    def test_empty_quantiles_are_none(self):
        # Percentile snapshots of an idle histogram are absent values,
        # not errors: dashboards snapshot idle series all the time.
        hist = Histogram("lat")
        assert hist.quantile(0.5) is None
        snapshot = hist.to_dict()
        assert snapshot["count"] == 0
        assert snapshot["p50"] is None
        assert snapshot["p95"] is None
        assert snapshot["p99"] is None
        # Out-of-range q still raises, populated or not.
        with pytest.raises(ValueError):
            hist.quantile(1.5)


class TestStrictRegistration:
    def test_register_rejects_duplicates_with_listing(self):
        registry = MetricRegistry()
        registry.register("link.l0.flits", "counter")
        registry.counter("pcie.sw0.drops")
        with pytest.raises(ValueError) as exc:
            registry.register("link.l0.flits", "gauge")
        # The error carries the full inventory, like topology errors.
        assert "link.l0.flits" in str(exc.value)
        assert "pcie.sw0.drops" in str(exc.value)

    def test_register_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown metric kind"):
            MetricRegistry().register("x", "timer")

    def test_register_returns_the_metric(self):
        registry = MetricRegistry()
        counter = registry.register("c", "counter")
        assert counter is registry.counter("c")
        assert isinstance(registry.register("h", "histogram"),
                          Histogram)
        assert isinstance(registry.register("g", "gauge"), Gauge)

    def test_lookup_unknown_name_lists_registry(self):
        registry = MetricRegistry()
        registry.counter("a.one")
        registry.gauge("b.two")
        with pytest.raises(KeyError) as exc:
            registry.lookup("a.oen")
        message = str(exc.value)
        assert "a.one" in message and "b.two" in message
        assert registry.lookup("a.one") is registry.counter("a.one")

    def test_lookup_empty_registry_says_none(self):
        with pytest.raises(KeyError, match=r"\(none\)"):
            MetricRegistry().lookup("anything")

    def test_duplicate_probe_rejected_with_listing(self):
        telemetry = Telemetry()
        telemetry.add_probe("credits.d0.available", lambda: 1.0)
        telemetry.add_probe("credits.d0.granted", lambda: 2.0)
        with pytest.raises(ValueError) as exc:
            telemetry.add_probe("credits.d0.available", lambda: 3.0)
        assert "credits.d0.granted" in str(exc.value)


class TestHistogramSnapshotDelta:
    def test_none_prev_is_full_cumulative_state(self):
        hist = Histogram("lat")
        for value in (1, 3, 1000):
            hist.observe(value)
        delta = hist.snapshot_delta(None)
        assert delta["count"] == 3
        assert delta["sum"] == 1004.0
        assert delta["buckets"] == hist.to_dict()["buckets"]

    def test_empty_window_reports_absent_values(self):
        hist = Histogram("lat")
        hist.observe(5)
        prev = hist.to_dict()
        delta = hist.snapshot_delta(prev)   # nothing new since prev
        assert delta["count"] == 0
        assert delta["sum"] == 0.0
        assert delta["mean"] is None
        assert delta["p50"] is None and delta["p99"] is None
        assert delta["buckets"] == []

    def test_partial_window_quantiles_are_of_the_window(self):
        hist = Histogram("lat")
        for _ in range(100):
            hist.observe(1)            # cumulative p50 lives at 2.0
        prev = hist.to_dict()
        for _ in range(10):
            hist.observe(1000)         # the window is all-slow
        delta = hist.snapshot_delta(prev)
        assert delta["count"] == 10
        assert delta["p50"] == 1024.0   # window quantile, not cumulative
        assert hist.quantile(0.50) == 2.0
        assert delta["buckets"] == [
            {"low": 512.0, "high": 1024.0, "count": 10}]
        assert delta["mean"] == pytest.approx(1000.0)

    def test_newer_snapshot_rejected(self):
        hist = Histogram("lat")
        hist.observe(1)
        hist.observe(2)
        newer = hist.to_dict()
        fresh = Histogram("lat")
        fresh.observe(1)
        with pytest.raises(ValueError, match="newer"):
            fresh.snapshot_delta(newer)

    def test_window_extrema_are_exact_not_bucket_bounds(self):
        hist = Histogram("lat")
        hist.observe(5)
        hist.observe(900)
        hist.snapshot_delta(None)      # close window 0: {5, 900}
        prev = hist.to_dict()
        hist.observe(37)               # window 1: {37, 310}
        hist.observe(310)
        delta = hist.snapshot_delta(prev)
        assert delta["min"] == 37.0    # exact values, not 32.0/512.0
        assert delta["max"] == 310.0
        assert hist.minimum == 5.0 and hist.maximum == 900.0

    def test_window_extrema_reset_between_windows(self):
        hist = Histogram("lat")
        hist.observe(1000)
        hist.snapshot_delta(None)      # closes the first window
        prev = hist.to_dict()
        hist.observe(7)
        delta = hist.snapshot_delta(prev)
        assert delta["min"] == 7.0     # the 1000 belongs to window 1
        assert delta["max"] == 7.0

    def test_empty_window_extrema_are_absent(self):
        hist = Histogram("lat")
        hist.observe(5)
        hist.snapshot_delta(None)
        prev = hist.to_dict()
        delta = hist.snapshot_delta(prev)
        assert delta["count"] == 0
        assert delta["min"] is None and delta["max"] is None

    def test_error_path_leaves_the_extrema_window_open(self):
        hist = Histogram("lat")
        hist.observe(1)
        hist.observe(2)
        newer = hist.to_dict()
        fresh = Histogram("lat")
        fresh.observe(42)
        with pytest.raises(ValueError, match="newer"):
            fresh.snapshot_delta(newer)
        delta = fresh.snapshot_delta(None)   # the 42 is still windowed
        assert delta["min"] == 42.0 and delta["max"] == 42.0


class TestEnvironmentHook:
    def test_off_by_default(self):
        assert Environment().telemetry is None

    def test_true_builds_default_instance(self):
        env = Environment(telemetry=True)
        assert isinstance(env.telemetry, Telemetry)
        assert env.telemetry.env is env

    def test_explicit_instance_is_bound(self):
        telemetry = Telemetry()
        env = Environment(telemetry=telemetry)
        assert env.telemetry is telemetry

    def test_rebinding_to_second_env_rejected(self):
        telemetry = Telemetry()
        Environment(telemetry=telemetry)
        with pytest.raises(ValueError, match="already bound"):
            Environment(telemetry=telemetry)


class TestSpans:
    def test_span_records_duration_at_sim_time(self):
        env = Environment(telemetry=True)

        def work():
            with span(env, "cfc.rebalance", grants=3):
                yield env.timeout(25.0)

        env.process(work())
        env.run(until=100.0)
        events = env.telemetry.events
        begins = [e for e in events if e[0] == "B"]
        ends = [e for e in events if e[0] == "E"]
        assert len(begins) == len(ends) == 1
        assert begins[0][1] == 0.0 and ends[0][1] == 25.0
        assert begins[0][3] == "cfc.rebalance"
        assert begins[0][4] == {"grants": 3}

    def test_track_defaults_to_dotted_prefix(self):
        env = Environment(telemetry=True)
        with span(env, "pcie.sw0.forward"):
            pass
        with span(env, "flat"):
            pass
        tracks = env.telemetry.track_names()
        assert "pcie.sw0" in tracks
        assert "main" in tracks

    def test_off_path_is_shared_noop(self):
        env = Environment()
        first = span(env, "anything", key="value")
        second = span(env, "other")   # fcc: allow[span-context]  (off-path singleton)
        assert first is second            # the shared singleton
        with first:
            pass                          # and it is a context manager


class TestPerfettoExport:
    def _traced_env(self):
        env = Environment(telemetry=True)

        def work():
            with span(env, "app.step", n=1):
                yield env.timeout(10.0)
            env.telemetry.instant("app.mark", level=2)

        env.process(work())
        env.run(until=50.0)
        return env

    def test_export_validates_and_is_json(self):
        env = self._traced_env()
        payload = to_chrome_trace(env.telemetry)
        count = validate_chrome_trace(payload)
        assert count == len(payload["traceEvents"])
        json.dumps(payload)

    def test_thread_metadata_per_track(self):
        env = self._traced_env()
        payload = to_chrome_trace(env.telemetry)
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "repro simulation" in names
        assert "app" in names

    def test_ts_converted_to_microseconds(self):
        env = self._traced_env()
        payload = to_chrome_trace(env.telemetry)
        end = next(e for e in payload["traceEvents"] if e["ph"] == "E")
        assert end["ts"] == pytest.approx(10.0 / 1000.0)

    def test_validator_rejects_garbage(self):
        with pytest.raises(ChromeTraceError):
            validate_chrome_trace([])
        with pytest.raises(ChromeTraceError):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ChromeTraceError):
            validate_chrome_trace({"traceEvents": [{"ph": "Z", "pid": 1}]})

    def test_validator_rejects_unbalanced_spans(self):
        events = [{"ph": "B", "ts": 1.0, "pid": 1, "tid": 1, "name": "x"}]
        with pytest.raises(ChromeTraceError, match="unclosed"):
            validate_chrome_trace({"traceEvents": events})
        events = [{"ph": "E", "ts": 1.0, "pid": 1, "tid": 1}]
        with pytest.raises(ChromeTraceError, match="without a matching"):
            validate_chrome_trace({"traceEvents": events})

    def test_validator_rejects_backwards_time(self):
        events = [
            {"ph": "i", "ts": 5.0, "pid": 1, "tid": 1, "name": "a"},
            {"ph": "i", "ts": 1.0, "pid": 1, "tid": 1, "name": "b"},
        ]
        with pytest.raises(ChromeTraceError, match="backwards"):
            validate_chrome_trace({"traceEvents": events})

    def test_validator_checks_x_slices(self):
        def x(ts, dur):
            return {"ph": "X", "ts": ts, "dur": dur, "pid": 1, "tid": 1,
                    "name": "s"}
        nested = [x(0.0, 10.0), x(2.0, 3.0), x(5.0, 5.0), x(10.0, 1.0)]
        assert validate_chrome_trace({"traceEvents": nested}) == 4
        with pytest.raises(ChromeTraceError, match="overlaps"):
            validate_chrome_trace({"traceEvents": [x(0.0, 5.0),
                                                   x(3.0, 5.0)]})
        with pytest.raises(ChromeTraceError, match="bad dur"):
            validate_chrome_trace({"traceEvents": [x(0.0, -1.0)]})


class TestTransactionTracks:
    """The ``trace`` document draws each sampled transaction's
    critical path on its own track."""

    @pytest.fixture(scope="class")
    def interleave(self):
        result = run_scenario("interleave", causal=True)
        return result, result.chrome_trace()

    def test_one_track_per_transaction_of_x_slices(self, interleave):
        result, payload = interleave
        validate_chrome_trace(payload)
        events = payload["traceEvents"]
        tracks = {e["tid"]: e["args"]["name"] for e in events
                  if e["ph"] == "M" and e["args"]["name"].startswith("txn ")}
        assert len(tracks) == result.telemetry.finished > 0
        assert all(name.endswith("reader:MemRd")
                   for name in tracks.values())
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["tid"] for e in slices} == set(tracks)

    def test_slices_are_the_why_critical_paths(self, interleave):
        result, payload = interleave
        report = result.attribution_report()
        first = report["transactions"][0]
        tid = next(e["tid"] for e in payload["traceEvents"]
                   if e["ph"] == "M" and e["args"]["name"]
                   == f"txn {first['trace_id']} {first['route']}")
        slices = [e for e in payload["traceEvents"]
                  if e["ph"] == "X" and e["tid"] == tid]
        assert [(e["name"], e["args"]["site"]) for e in slices] == [
            (seg["category"], seg["site"])
            for seg in first["critical_path"]]
        assert sum(e["dur"] for e in slices) * 1000.0 == pytest.approx(
            first["duration_ns"], abs=1e-3)

    def test_trace_observer_samples_transactions(self):
        result = run_experiment(ExperimentSpec(
            "interleave", outputs=("summary", "trace")))
        payload = result["outputs"]["trace"]["interleave"]
        validate_chrome_trace(payload)
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_untraced_run_has_no_transaction_tracks(self):
        payload = run_scenario("interleave").chrome_trace()
        assert not [e for e in payload["traceEvents"] if e["ph"] == "X"]


class TestTimelineSampler:
    def test_probes_sampled_into_gauges_and_counters(self):
        env = Environment(telemetry=True)
        state = {"depth": 0}
        env.telemetry.add_probe("sw.q", lambda: state["depth"],
                                track="sw")

        def mutate():
            for depth in (3, 7, 2):
                state["depth"] = depth
                yield env.timeout(100.0)

        sampler = TimelineSampler(env, interval_ns=100.0).start()
        env.process(mutate())
        env.run(until=301.0)
        assert sampler.samples_taken == 3
        gauge = env.telemetry.registry.get("sw.q")
        assert gauge.maximum == 7
        # The sampler started first, so at each coincident timestamp
        # it observes the value set in the *previous* interval.
        counters = [e for e in env.telemetry.events if e[0] == "C"]
        assert [value for _, _, _, value in counters] == [3, 7, 2]

    def test_needs_telemetry(self):
        with pytest.raises(ValueError, match="needs telemetry"):
            TimelineSampler(Environment())

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            TimelineSampler(Environment(telemetry=True), interval_ns=0)

    def test_start_is_idempotent(self):
        env = Environment(telemetry=True)
        sampler = TimelineSampler(env, interval_ns=10.0)
        assert sampler.start() is sampler
        sampler.start()
        env.run(until=25.0)
        assert sampler.samples_taken == 2   # one loop, not two


class TestScenarios:
    def test_scenario_names(self):
        assert {"interleave", "starvation", "t2"} <= set(names())

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_scenario("nope")

    def test_t2_walk_shows_the_hierarchy(self):
        result = run_scenario("t2")
        mean = result.summary["mean_ns"]
        assert mean["l1"] < mean["l2"] < mean["local"] < mean["remote"]
        assert result.summary["remote_vs_local"] > 10.0

    def test_starvation_quiet_flow_stalls(self):
        result = run_scenario("starvation")
        summary = result.summary
        # The C5 signature: the quiet burst runs far slower than an
        # unstarved window, while the hot flow never stalls.
        assert summary["burst_vs_ideal"] > 3.0
        assert summary["quiet_stall_ns"] > summary["hot_stall_ns"]
        assert summary["final_grants"]["quiet"] < \
            summary["final_grants"]["hot"]
        stalls = result.telemetry.registry.get("credits.egress0.stalls")
        assert stalls is not None and stalls.value > 0

    def test_scenarios_export_valid_traces(self):
        for name in ("interleave", "starvation", "t2"):
            result = run_scenario(name)
            count = validate_chrome_trace(result.chrome_trace())
            assert count > 0
            snapshot = result.metrics_snapshot()
            assert snapshot["scenario"] == name
            json.dumps(snapshot)


class TestBitIdentity:
    """Telemetry must never change what the simulation computes."""

    def _trace(self, telemetry):
        env = Environment(telemetry=telemetry)
        store = Store(env)
        log = []

        def producer():
            for i in range(50):
                with span(env, "prod.put", i=i):
                    yield env.timeout(3.0)
                    yield store.put(i)

        def consumer():
            while True:
                item = yield store.get()
                log.append((env.now, item))
                yield env.timeout(1.0)

        env.process(producer(), name="prod")
        env.process(consumer(), name="cons", daemon=True)
        env.run(until=500.0)
        return log, env.stats["events_processed"]

    def test_telemetry_does_not_change_scheduling(self):
        plain, plain_events = self._trace(False)
        observed, observed_events = self._trace(True)
        assert plain == observed
        # Spans/instants/counters add zero simulation events.
        assert plain_events == observed_events

    @pytest.mark.parametrize("name", ["t2", "starvation", "interleave"])
    def test_scenario_results_identical_on_off(self, name):
        on = run_scenario(name, telemetry=True)
        off = run_scenario(name, telemetry=False)
        assert on.summary == off.summary
