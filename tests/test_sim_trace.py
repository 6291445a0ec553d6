"""Tests for tracing, statistics, and the seeded RNG helpers."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import SimRng, StatSeries, Tracer


class TestTracer:
    def test_record_and_filter(self):
        tracer = Tracer()
        tracer.record(1.0, "link.rx", link="a")
        tracer.record(2.0, "switch.fwd", port=3)
        tracer.record(3.0, "link.rx", link="b")
        assert tracer.count("link.rx") == 2
        records = list(tracer.filter("link.rx"))
        assert [r.link for r in records] == ["a", "b"]

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record(1.0, "x")
        assert tracer.records == []

    def test_field_attribute_access(self):
        tracer = Tracer()
        tracer.record(5.0, "evt", value=42)
        record = tracer.records[0]
        assert record.time == 5.0
        assert record.value == 42
        with pytest.raises(AttributeError):
            _ = record.missing

    def test_clear(self):
        tracer = Tracer()
        tracer.record(1.0, "x")
        tracer.clear()
        assert tracer.count("x") == 0


class TestStatSeries:
    def test_mean_min_max(self):
        series = StatSeries("s")
        for value in (1.0, 2.0, 3.0):
            series.add(value)
        assert series.mean == 2.0
        assert series.minimum == 1.0
        assert series.maximum == 3.0
        assert len(series) == 3

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            _ = StatSeries("s").mean

    def test_percentiles(self):
        series = StatSeries("s")
        for value in range(1, 101):
            series.add(float(value))
        assert series.p50 == 50.0
        assert series.p99 == 99.0
        assert series.percentile(100) == 100.0
        assert series.percentile(0) == 1.0

    def test_percentile_validation(self):
        series = StatSeries("s")
        series.add(1.0)
        with pytest.raises(ValueError):
            series.percentile(101)

    def test_stddev(self):
        series = StatSeries("s")
        for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            series.add(value)
        assert series.stddev == pytest.approx(math.sqrt(32 / 7))

    def test_single_sample_stddev_zero(self):
        series = StatSeries("s")
        series.add(5.0)
        assert series.stddev == 0.0

    def test_rate_and_mops(self):
        series = StatSeries("s")
        for i in range(11):
            series.add(1.0, time=i * 100.0)   # 10 intervals over 1000ns
        assert series.rate_per_ns() == pytest.approx(0.01)
        assert series.mops() == pytest.approx(10.0)

    def test_rate_without_timestamps_raises(self):
        series = StatSeries("s")
        series.add(1.0)
        with pytest.raises(ValueError):
            series.rate_per_ns()

    def test_rate_of_one_timestamped_sample_names_the_series(self):
        series = StatSeries("host0.core0.lat")
        series.add(5.0, time=100.0)
        with pytest.raises(ValueError, match="'host0.core0.lat'"):
            series.rate_per_ns()
        with pytest.raises(ValueError, match="'host0.core0.lat'"):
            series.mops()

    def test_rate_of_samples_at_one_instant_raises(self):
        series = StatSeries("burst")
        series.add(5.0, time=100.0)
        series.add(6.0, time=100.0)
        with pytest.raises(ValueError, match="'burst'"):
            series.rate_per_ns()

    @pytest.mark.parametrize("stat", ["minimum", "maximum"])
    def test_empty_min_max_name_the_series(self, stat):
        with pytest.raises(ValueError,
                           match="no samples in series 'lat'"):
            getattr(StatSeries("lat"), stat)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_property_percentile_bounds(self, values):
        series = StatSeries("p")
        for value in values:
            series.add(value)
        assert series.minimum <= series.p50 <= series.maximum
        slack = 1e-9 * max(1.0, abs(series.minimum), abs(series.maximum))
        assert series.minimum - slack <= series.mean \
            <= series.maximum + slack


class TestSimRng:
    def test_same_seed_same_stream(self):
        a, b = SimRng(42), SimRng(42)
        assert [a.random() for _ in range(5)] == \
            [b.random() for _ in range(5)]

    def test_fork_is_deterministic_and_independent(self):
        parent = SimRng(1)
        child1 = parent.fork("traffic")
        child2 = SimRng(1).fork("traffic")
        other = SimRng(1).fork("failures")
        assert child1.random() == child2.random()
        assert SimRng(1).fork("traffic").random() != other.random()

    def test_zipf_skew(self):
        rng = SimRng(3)
        draws = [rng.zipf_index(1000, alpha=0.9) for _ in range(5000)]
        assert all(0 <= d < 1000 for d in draws)
        top_decile = sum(1 for d in draws if d < 100)
        assert top_decile > len(draws) * 0.5

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            SimRng(0).zipf_index(0)
        assert SimRng(0).zipf_index(1) == 0

    def test_bernoulli_bounds(self):
        rng = SimRng(0)
        assert not rng.bernoulli(0.0)
        with pytest.raises(ValueError):
            rng.bernoulli(1.5)

    def test_expovariate_positive(self):
        rng = SimRng(5)
        assert all(rng.expovariate(0.1) > 0 for _ in range(100))
        with pytest.raises(ValueError):
            rng.expovariate(0)

    def test_pareto_bounded_range(self):
        rng = SimRng(7)
        for _ in range(200):
            value = rng.pareto_bounded(64, 16384)
            assert 64 <= value <= 16384
        with pytest.raises(ValueError):
            rng.pareto_bounded(10, 5)
