"""Tests for causal transaction tracing: the flight recorder, the
critical-path analyzer, percentile digests, the `repro bench --observe
why` / `repro compare` CLI, and the tracing-on/off bit-identity guarantee."""

import json

import pytest

from repro.cli import main
from repro.pcie.credits import CreditDomain
from repro.pcie.switch import FabricSwitch
from repro.sim import Container, Environment, run_proc
from repro.telemetry import (AttributionError, CausalRecorder, TDigest,
                             TimelineSampler, TraceContext, build_report,
                             validate_attribution)
from repro.telemetry.attribution import (SpanRecord, TransactionTrace,
                                         collect_transactions)
from repro.telemetry.causal import (ARBITRATION, CATEGORIES, CREDIT_STALL,
                                    PROCESSING, QUEUEING, SERIALIZATION)
from repro.telemetry.compare import ComparisonError, compare_payloads
from repro.experiments import run_scenario


# --------------------------------------------------------------------------
# recorder
# --------------------------------------------------------------------------

class TestCausalRecorder:
    def test_sample_every_root_by_default(self):
        recorder = CausalRecorder()
        contexts = [recorder.sample_root() for _ in range(5)]
        assert all(ctx is not None for ctx in contexts)
        assert [ctx.trace_id for ctx in contexts] == [1, 2, 3, 4, 5]

    def test_sampling_keeps_one_in_n(self):
        recorder = CausalRecorder(sample=4)
        contexts = [recorder.sample_root() for _ in range(12)]
        kept = [ctx for ctx in contexts if ctx is not None]
        assert len(kept) == 3
        assert contexts[0] is not None          # the first root is kept
        assert recorder.roots_seen == 12

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="sample"):
            CausalRecorder(sample=0)
        with pytest.raises(ValueError, match="capacity"):
            CausalRecorder(capacity=0)

    def test_interval_records_both_edges(self):
        recorder = CausalRecorder()
        ctx = recorder.sample_root()
        recorder.txn_begin(ctx, 0.0, "read", "routeA")
        recorder.interval(ctx, 10.0, 30.0, QUEUEING, "site")
        recorder.txn_end(ctx, 50.0)
        [txn] = collect_transactions(recorder)
        assert (txn.begin, txn.end) == (0.0, 50.0)
        [span] = txn.spans
        assert (span.t0, span.t1, span.category) == (10.0, 30.0, QUEUEING)

    def test_wait_on_satisfied_event_records_nothing(self):
        env = Environment()
        recorder = CausalRecorder()
        ctx = recorder.sample_root()
        pool = Container(env, capacity=4, init=4)
        recorder.wait(ctx, pool.get(1), CREDIT_STALL, "site")
        assert len(recorder) == 0

    def test_wait_on_blocked_event_closes_at_grant_instant(self):
        env = Environment()
        recorder = CausalRecorder()
        ctx = recorder.sample_root()
        pool = Container(env, capacity=4, init=0)

        def taker():
            get = pool.get(1)
            recorder.wait(ctx, get, CREDIT_STALL, "site")
            yield get

        def giver():
            yield env.timeout(25.0)
            yield pool.put(1)

        env.process(taker())
        env.process(giver())
        env.run()
        begin = next(e for e in recorder.events if e[0] == "B")
        end = next(e for e in recorder.events if e[0] == "E")
        assert begin[1] == 0.0
        assert end[1] == 25.0

    def test_bounded_capacity_evicts_oldest(self):
        recorder = CausalRecorder(capacity=8)
        ctx = recorder.sample_root()
        assert not recorder.saturated
        for i in range(20):
            recorder.mark(ctx, float(i), "tick", "site")
        assert len(recorder) == 8
        assert recorder.saturated
        assert recorder.events[0][1] == 12.0    # oldest 12 dropped


# --------------------------------------------------------------------------
# t-digest
# --------------------------------------------------------------------------

class TestTDigest:
    def test_empty_quantile_is_none(self):
        digest = TDigest()
        assert digest.quantile(0.5) is None
        assert digest.to_dict()["p95"] is None
        assert digest.to_dict()["count"] == 0

    def test_single_value(self):
        digest = TDigest()
        digest.add(42.0)
        assert digest.quantile(0.0) == 42.0
        assert digest.quantile(1.0) == 42.0

    def test_quantiles_monotone_and_bounded(self):
        digest = TDigest(max_centroids=32)
        for i in range(1, 1001):
            digest.add(float(i))
        p50, p95, p99 = (digest.quantile(q) for q in (0.5, 0.95, 0.99))
        assert 1.0 <= p50 <= p95 <= p99 <= 1000.0
        assert abs(p50 - 500.0) < 50.0
        assert p95 > 850.0

    def test_deterministic_for_same_stream(self):
        streams = [TDigest(), TDigest()]
        for digest in streams:
            for i in range(500):
                digest.add(float((i * 37) % 101))
        assert streams[0].to_dict() == streams[1].to_dict()

    def test_rejects_bad_input(self):
        digest = TDigest()
        with pytest.raises(ValueError, match="weight"):
            digest.add(1.0, weight=0.0)
        with pytest.raises(ValueError, match="quantile"):
            digest.quantile(1.5)
        with pytest.raises(ValueError, match="max_centroids"):
            TDigest(max_centroids=2)


# --------------------------------------------------------------------------
# critical-path extraction (synthetic transactions)
# --------------------------------------------------------------------------

def _txn(spans, begin=0.0, end=100.0):
    return TransactionTrace(trace_id=1, kind="read", route="r",
                            begin=begin, end=end, spans=spans, marks=[])


class TestCriticalPath:
    def test_uncovered_time_is_processing(self):
        txn = _txn([])
        [segment] = txn.critical_path()
        assert segment["category"] == PROCESSING
        assert segment["site"] == "model"
        assert segment["ns"] == 100.0

    def test_precedence_credit_beats_queueing(self):
        txn = _txn([
            SpanRecord(1, 0, QUEUEING, "q", 0.0, 50.0),
            SpanRecord(2, 0, CREDIT_STALL, "c", 20.0, 40.0),
        ])
        path = txn.critical_path()
        assert [(s["category"], s["t0"], s["t1"]) for s in path] == [
            (QUEUEING, 0.0, 20.0),
            (CREDIT_STALL, 20.0, 40.0),
            (QUEUEING, 40.0, 50.0),
            (PROCESSING, 50.0, 100.0),
        ]

    def test_adjacent_same_category_segments_merge(self):
        txn = _txn([
            SpanRecord(1, 0, QUEUEING, "q", 0.0, 10.0),
            SpanRecord(2, 0, QUEUEING, "q", 10.0, 30.0),
        ])
        path = txn.critical_path()
        assert (path[0]["t0"], path[0]["t1"]) == (0.0, 30.0)
        assert len(path) == 2                   # merged + trailing model

    def test_spans_clamped_to_transaction_window(self):
        txn = _txn([SpanRecord(1, 0, SERIALIZATION, "s", -10.0, 250.0)])
        [segment] = txn.critical_path()
        assert (segment["t0"], segment["t1"]) == (0.0, 100.0)

    def test_attribution_sums_exactly_to_duration(self):
        txn = _txn([
            SpanRecord(1, 0, QUEUEING, "q", 0.0, 60.0),
            SpanRecord(2, 0, ARBITRATION, "a", 30.0, 45.0),
            SpanRecord(3, 0, SERIALIZATION, "s", 60.0, 80.0),
        ])
        totals = txn.attribution()
        assert sum(totals.values()) == pytest.approx(txn.duration)
        assert totals[ARBITRATION] == pytest.approx(15.0)
        assert totals[QUEUEING] == pytest.approx(45.0)

    def test_zero_duration_transaction_has_empty_path(self):
        assert _txn([], begin=5.0, end=5.0).critical_path() == []

    def test_dag_nests_children_under_parents(self):
        txn = _txn([
            SpanRecord(1, 0, QUEUEING, "q", 0.0, 50.0),
            SpanRecord(2, 1, CREDIT_STALL, "c", 10.0, 20.0),
        ])
        dag = txn.dag()
        [root] = dag["spans"]
        assert root["sid"] == 1
        assert [child["sid"] for child in root["children"]] == [2]


class TestCollectTransactions:
    def test_unfinished_transactions_skipped(self):
        recorder = CausalRecorder()
        done, pending = recorder.sample_root(), recorder.sample_root()
        recorder.txn_begin(done, 0.0, "read", "r")
        recorder.txn_end(done, 10.0)
        recorder.txn_begin(pending, 5.0, "read", "r")
        txns = collect_transactions(recorder)
        assert [txn.trace_id for txn in txns] == [done.trace_id]

    def test_never_closed_span_clamps_to_transaction_end(self):
        recorder = CausalRecorder()
        ctx = recorder.sample_root()
        recorder.txn_begin(ctx, 0.0, "read", "r")
        recorder.begin(ctx, 2.0, QUEUEING, "q")    # never ended
        recorder.txn_end(ctx, 10.0)
        [txn] = collect_transactions(recorder)
        [span] = txn.spans
        assert span.t1 == 10.0


# --------------------------------------------------------------------------
# bit-identity: tracing must not perturb the model
# --------------------------------------------------------------------------

class TestBitIdentity:
    @pytest.mark.parametrize("name", ["t2", "starvation", "interleave"])
    def test_causal_on_off_and_sampled_identical(self, name):
        plain = run_scenario(name, telemetry=True)
        full = run_scenario(name, causal=True)
        sampled = run_scenario(name, causal=True, causal_sample=7)
        assert plain.summary == full.summary == sampled.summary
        events = lambda r: r.env.stats["events_processed"]   # noqa: E731
        assert events(plain) == events(full) == events(sampled)
        assert 0 < sampled.causal.started < full.causal.started

    def test_untraced_run_has_no_recorder(self):
        result = run_scenario("t2", telemetry=True)
        assert result.causal is None
        with pytest.raises(ValueError, match="causal"):
            result.attribution_report()

    def test_causal_requires_telemetry(self):
        with pytest.raises(ValueError, match="telemetry"):
            run_scenario("t2", telemetry=False, causal=True)


# --------------------------------------------------------------------------
# scenario attribution: the paper's pathologies, located
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def starvation_report():
    return run_scenario("starvation", causal=True).attribution_report()


@pytest.fixture(scope="module")
def interleave_report():
    return run_scenario("interleave", causal=True).attribution_report()


class TestScenarioAttribution:
    def test_starvation_victim_is_mostly_credit_stalled(
            self, starvation_report):
        validate_attribution(starvation_report)
        quiet = starvation_report["routes"]["quiet"]
        stall_share = quiet["attribution"][CREDIT_STALL]["share"]
        assert stall_share > 0.5, (
            "the starved quiet flow must spend the majority of its "
            f"critical path blocked on credits, got {stall_share:.1%}")
        hot = starvation_report["routes"]["hot"]
        assert hot["attribution"][CREDIT_STALL]["share"] < stall_share

    def test_interleave_reads_dominated_by_queueing(
            self, interleave_report):
        validate_attribution(interleave_report)
        [(route, data)] = interleave_report["routes"].items()
        assert route.endswith("MemRd")
        table = data["attribution"]
        dominant = max(table, key=lambda cat: table[cat]["ns"])
        assert dominant == QUEUEING, (
            "64B reads behind 16KB writes through a FIFO egress must "
            f"be queueing-bound, got {dominant}")
        combined = table[QUEUEING]["share"] + table[SERIALIZATION]["share"]
        assert combined > 0.5

    def test_report_schema_and_waterfalls(self, interleave_report):
        count = validate_attribution(interleave_report)
        assert count == len(interleave_report["transactions"]) > 0
        assert interleave_report["trace"]["sample"] == 1
        for txn in interleave_report["transactions"]:
            assert txn["critical_path"], "every txn carries a waterfall"
        json.dumps(interleave_report)           # round-trippable
        digest = interleave_report["attribution"][QUEUEING]["per_txn"]
        assert digest["count"] > 0
        assert digest["p50"] <= digest["p95"] <= digest["p99"]

    def test_validator_rejects_tampering(self, interleave_report):
        broken = json.loads(json.dumps(interleave_report))
        broken["attribution"][QUEUEING]["share"] += 0.5
        with pytest.raises(AttributionError, match="shares sum"):
            validate_attribution(broken)
        broken = json.loads(json.dumps(interleave_report))
        del broken["attribution"][CREDIT_STALL]
        with pytest.raises(AttributionError, match="categories"):
            validate_attribution(broken)
        broken = json.loads(json.dumps(interleave_report))
        broken["transactions"][0]["critical_path"][0]["t1"] += 50.0
        with pytest.raises(AttributionError):
            validate_attribution(broken)
        with pytest.raises(AttributionError, match="schema-1"):
            validate_attribution({"tool": "other"})


# --------------------------------------------------------------------------
# degenerate topologies: samplers and probes must not care
# --------------------------------------------------------------------------

class TestDegenerateTopologies:
    def test_sampler_over_portless_switch(self):
        env = Environment(telemetry=True)
        switch = FabricSwitch(env, "lonely")
        sampler = TimelineSampler(env, interval_ns=100.0).start()

        def tick():
            yield env.timeout(1_000.0)

        run_proc(env, tick())
        assert switch.port_count() == 0
        # The horizon event at t=1000 fires before the sampler's own
        # t=1000 tick is drained, so exactly nine samples land.
        assert sampler.samples_taken == 9
        snapshot = env.telemetry.registry.snapshot()
        assert "pcie.lonely.flits_forwarded" in snapshot["metrics"]

    def test_credit_domain_with_zero_flows(self):
        env = Environment(telemetry=True)
        domain = CreditDomain(env, budget=16, name="empty")
        domain.start()
        TimelineSampler(env, interval_ns=500.0).start()

        def tick():
            yield env.timeout(10_000.0)         # several rebalances

        run_proc(env, tick())
        assert env.now == 10_000.0
        assert domain.flow_names() == []

    def test_sampler_attached_after_env_drained(self):
        env = Environment(telemetry=True)

        def tick():
            yield env.timeout(50.0)

        env.process(tick())
        env.run()                               # drains completely
        sampler = TimelineSampler(env, interval_ns=10.0).start()
        sampler.sample_once()
        assert sampler.samples_taken == 1
        env.run(until=env.now + 25.0)           # the loop resumes
        assert sampler.samples_taken >= 3

    def test_causal_scenario_with_sampling_faster_than_traffic(self):
        # One root in 1000 candidates: usually zero transactions traced.
        result = run_scenario("t2", causal=True, causal_sample=1000)
        report = result.attribution_report()
        validate_attribution(report)
        assert report["trace"]["analyzed"] <= 1


# --------------------------------------------------------------------------
# compare: regression detection
# --------------------------------------------------------------------------

def _bench(rate, failures=()):
    return {"experiments": [{"name": "des_kernel",
                             "events_per_sec": rate}],
            "invariant_failures": list(failures)}


class TestCompare:
    def test_events_per_sec_regression_detected(self):
        regressions, _ = compare_payloads(_bench(1_000_000.0),
                                          _bench(880_000.0))
        assert len(regressions) == 1
        assert "12.0%" in regressions[0]

    def test_small_drift_and_improvement_pass(self):
        regressions, _ = compare_payloads(_bench(1_000_000.0),
                                          _bench(950_000.0))
        assert regressions == []
        regressions, notes = compare_payloads(_bench(1_000_000.0),
                                              _bench(1_500_000.0))
        assert regressions == []
        assert any("improved" in note for note in notes)

    def test_newly_failing_invariant_is_regression(self):
        regressions, _ = compare_payloads(
            _bench(1_000_000.0), _bench(1_000_000.0, ["t2_ratio"]))
        assert any("invariant" in r for r in regressions)

    def test_mismatched_kinds_rejected(self):
        with pytest.raises(ComparisonError, match="kinds differ"):
            compare_payloads(_bench(1.0), {"tool": "repro-why",
                                           "attribution": {}})

    def test_attribution_stall_growth_is_regression(self):
        def doc(stall, processing):
            total = stall + processing
            table = {cat: {"ns": 0.0, "share": 0.0} for cat in CATEGORIES}
            table[CREDIT_STALL] = {"ns": stall, "share": stall / total}
            table[PROCESSING] = {"ns": processing,
                                 "share": processing / total}
            return {"tool": "repro-why", "scenario": "s",
                    "attribution": table, "routes": {}}
        regressions, _ = compare_payloads(doc(10.0, 90.0), doc(40.0, 60.0))
        assert any(CREDIT_STALL in r for r in regressions)
        # The reverse direction (stall shrank) is a note, not a failure.
        regressions, notes = compare_payloads(doc(40.0, 60.0),
                                              doc(10.0, 90.0))
        assert regressions == []
        assert notes


class TestCompareCli:
    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        base = tmp_path / "a.json"
        cand = tmp_path / "b.json"
        base.write_text(json.dumps(_bench(1_000_000.0)))
        cand.write_text(json.dumps(_bench(880_000.0)))
        assert main(["compare", str(base), str(cand)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        # identical payloads pass
        assert main(["compare", str(base), str(base)]) == 0

    def test_recorded_why_document_matches_itself(self, tmp_path, capsys):
        assert main(["bench", "interleave", "--observe", "why",
                     "--out", str(tmp_path)]) == 0
        doc = tmp_path / "interleave.why.json"
        assert json.loads(doc.read_text())["tool"] == "repro-why"
        assert main(["compare", str(doc), str(doc)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_bad_input_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["compare", str(bad), str(bad)]) == 2
        assert "error" in capsys.readouterr().err


# --------------------------------------------------------------------------
# the why observer on the CLI
# --------------------------------------------------------------------------

def _why(capsys, name, *extra):
    assert main(["bench", name, "--observe", "why", "--json",
                 *extra]) == 0
    return json.loads(capsys.readouterr().out)["outputs"]["why"][name]


class TestWhyCli:
    def test_json_output_validates(self, capsys):
        payload = _why(capsys, "starvation")
        assert validate_attribution(payload) > 0
        assert payload["scenario"] == "starvation"
        assert payload["summary"]["quiet_stall_ns"] > 0

    def test_human_output_and_waterfall(self, capsys):
        assert main(["bench", "starvation", "--observe", "why"]) == 0
        out = capsys.readouterr().out
        assert "why[starvation]:" in out
        assert "quiet: credit_stall" in out
        waterfall = _why(capsys, "starvation")["transactions"][0]
        assert "egress0.serialize" in [segment["site"] for segment
                                       in waterfall["critical_path"]]

    def test_unknown_scenario_exits_two(self, capsys):
        assert main(["bench", "nope", "--observe", "why"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_txn_out_of_range_exits_two(self, capsys):
        # An out-of-range why setting is bad input, named on stderr.
        assert main(["bench", "t2", "--observe", "why",
                     "--set", "causal_sample=0"]) == 2
        assert "causal_sample" in capsys.readouterr().err

    def test_sampled_run_traces_fewer(self, capsys):
        payload = _why(capsys, "starvation", "--set", "causal_sample=16")
        assert payload["trace"]["sample"] == 16
        assert payload["trace"]["started"] < payload["trace"]["roots_seen"]


# --------------------------------------------------------------------------
# metrics percentiles (histogram p50/p95/p99 in snapshots)
# --------------------------------------------------------------------------

class TestHistogramPercentiles:
    def test_snapshot_carries_percentiles(self):
        from repro.telemetry import MetricRegistry
        histogram = MetricRegistry().histogram("lat")
        for value in (1.0, 2.0, 5.0, 10.0, 100.0):
            histogram.observe(value)
        snapshot = histogram.to_dict()
        assert {"p50", "p95", "p99"} <= set(snapshot)
        assert snapshot["p50"] <= snapshot["p95"] <= snapshot["p99"]

    def test_empty_histogram_percentiles_none(self):
        from repro.telemetry import MetricRegistry
        snapshot = MetricRegistry().histogram("lat").to_dict()
        assert snapshot["p50"] is None
        assert snapshot["p99"] is None

    def test_metrics_cli_json_includes_percentiles(self, capsys):
        assert main(["bench", "t2", "--observe", "metrics", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["outputs"][
            "metrics"]["t2"]
        histograms = [entry for entry in payload["metrics"].values()
                      if entry["kind"] == "histogram"]
        assert histograms
        assert all("p95" in entry for entry in histograms)
