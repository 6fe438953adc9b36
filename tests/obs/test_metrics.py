"""Tests for the typed metrics instruments and registry."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import wiring
from repro.obs.metrics import (
    CATALOG,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_defaults_to_one(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_inc_rejected(self):
        counter = Counter("c")
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_set_total_adopts_external_count(self):
        counter = Counter("c")
        counter.set_total(100)
        counter.set_total(100)  # repeated collect() must not double count
        assert counter.value == 100

    def test_sample_shape(self):
        counter = Counter("c", labels=(("kind", "tx"),))
        counter.inc()
        assert counter.sample() == {
            "name": "c",
            "type": "counter",
            "labels": {"kind": "tx"},
            "value": 1,
        }


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.inc(-5)
        assert gauge.value == 7

    def test_can_go_negative(self):
        gauge = Gauge("g")
        gauge.inc(-3)
        assert gauge.value == -3


class TestHistogram:
    def test_exact_aggregates(self):
        hist = Histogram("h")
        for value in (3.0, 1.0, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == 6.0
        assert hist.min == 1.0
        assert hist.max == 3.0

    def test_empty_quantile_is_none(self):
        assert Histogram("h").quantile(0.5) is None

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("h").quantile(1.5)

    def test_quantile_interpolates(self):
        hist = Histogram("h")
        for value in (0.0, 10.0):
            hist.observe(value)
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(1.0) == 10.0
        assert hist.quantile(0.5) == 5.0

    def test_reservoir_is_bounded(self):
        hist = Histogram("h", max_samples=8)
        for i in range(10_000):
            hist.observe(float(i))
        assert hist.count == 10_000
        assert hist.reservoir_size <= 8
        # Exact aggregates survive the thinning.
        assert hist.min == 0.0
        assert hist.max == 9999.0

    def test_compaction_is_deterministic(self):
        a = Histogram("h", max_samples=16)
        b = Histogram("h", max_samples=16)
        for i in range(5_000):
            a.observe(float(i))
            b.observe(float(i))
        assert a._reservoir == b._reservoir
        assert a.quantile(0.9) == b.quantile(0.9)

    def test_too_small_reservoir_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", max_samples=1)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert len(registry) == 1

    def test_labels_make_distinct_series(self):
        registry = MetricsRegistry()
        a = registry.counter("c", labels={"kind": "tx"})
        b = registry.counter("c", labels={"kind": "block"})
        assert a is not b
        a.inc()
        assert b.value == 0
        assert len(registry) == 2

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("c", labels={"x": "1", "y": "2"})
        b = registry.counter("c", labels={"y": "2", "x": "1"})
        assert a is b

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ObservabilityError):
            registry.gauge("m")

    def test_type_conflict_rejected_across_labels(self):
        registry = MetricsRegistry()
        registry.counter("m", labels={"kind": "tx"})
        with pytest.raises(ObservabilityError):
            registry.histogram("m", labels={"kind": "block"})

    def test_help_sticks_to_first_registration(self):
        registry = MetricsRegistry()
        registry.counter("m", "messages sent")
        registry.counter("m", "something else", labels={"kind": "tx"})
        assert registry.help_for("m") == "messages sent"

    def test_contains_by_name(self):
        registry = MetricsRegistry()
        registry.gauge("g")
        assert "g" in registry
        assert "missing" not in registry

    def test_collect_runs_collectors_and_sorts(self):
        registry = MetricsRegistry()
        registry.gauge("zzz")
        gauge = registry.gauge("aaa")
        source = {"value": 0}
        registry.add_collector(lambda: gauge.set(source["value"]))
        source["value"] = 42
        instruments = registry.collect()
        assert [i.name for i in instruments] == ["aaa", "zzz"]
        assert instruments[0].value == 42

    def test_snapshot_is_json_friendly(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c", labels={"kind": "tx"}).inc()
        registry.histogram("h").observe(1.0)
        payload = registry.snapshot()
        assert json.dumps(payload)  # serializable
        assert {sample["name"] for sample in payload} == {"c", "h"}


class TestDeclaredMetrics:
    """A declared name brings its own type, help and label keys."""

    def test_declaration_is_a_plain_str_to_consumers(self):
        assert wiring.FAULTS_FIRED == "toposhot_faults_total"
        assert type(str(wiring.FAULTS_FIRED)) is str
        assert CATALOG["toposhot_faults_total"] is wiring.FAULTS_FIRED
        assert (wiring.FAULTS_FIRED.kind, wiring.FAULTS_FIRED.labels) == (
            "counter", ("kind",),
        )

    def test_registry_reads_help_and_type_from_the_declaration(self):
        registry = MetricsRegistry()
        # By constant or by bare name, with or without a call-site help.
        registry.counter(wiring.FAULTS_FIRED, labels={"kind": "loss"}).inc()
        registry.counter("toposhot_faults_total", "ignored", labels={"kind": "crash"})
        assert registry.help_for("toposhot_faults_total") == wiring.FAULTS_FIRED.help
        sample = registry.snapshot()[0]
        assert type(sample["name"]) is str  # samples never carry the subclass
        with pytest.raises(ObservabilityError, match="is a counter, not a gauge"):
            registry.gauge(wiring.FAULTS_FIRED)
        with pytest.raises(ObservabilityError, match="declares labels"):
            registry.counter(wiring.FAULTS_FIRED, labels={"node": "n1"})

    def test_put_adopts_totals_and_levels(self):
        registry = MetricsRegistry()
        registry.put(wiring.MESSAGES_SENT, 7)
        registry.put(wiring.MESSAGES_SENT, 5)  # a running total, not an increment
        registry.put(wiring.MESSAGES_BY_KIND, 3, kind="Transactions")
        registry.put(wiring.NODES, 12)
        values = {
            (s["name"], tuple(s["labels"].items())): s["value"]
            for s in registry.snapshot()
        }
        assert values == {
            ("toposhot_messages_sent_total", ()): 5,
            ("toposhot_messages_total", (("kind", "Transactions"),)): 3,
            ("toposhot_nodes", ()): 12,
        }

    def test_a_name_is_declared_once_with_a_known_kind(self):
        with pytest.raises(ObservabilityError, match="declared twice"):
            Metric("toposhot_nodes", "again", kind="gauge")
        with pytest.raises(ObservabilityError, match="unknown kind"):
            Metric("tests_obs_never_declared", "help", kind="timer")
        assert "tests_obs_never_declared" not in CATALOG
