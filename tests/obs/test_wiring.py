"""Tests for the observability wiring across the stack.

Covers the acceptance criterion for PR 3: a campaign run with
observability enabled produces a valid JSON-lines and Prometheus export,
while a disabled bundle leaves the measurement untouched.
"""

import json

import pytest

from repro.core.campaign import TopoShot
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import prefill_mempools
from repro.obs import NULL, Observability
from repro.obs import wiring
from repro.obs.export import (
    events_to_jsonl,
    metrics_to_jsonl,
    metrics_to_prometheus,
    write_events,
    write_metrics,
)
from repro.obs.wiring import instrument_network, instrument_simulator
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan


class TestNullBundle:
    def test_null_is_disabled_and_noop(self):
        assert NULL.enabled is False
        NULL.emit(0.0, "anything", 1, 2)  # must not record
        assert len(NULL.events) == 0
        assert len(NULL.metrics) == 0

    def test_disabled_wiring_registers_nothing(self):
        obs = Observability.disabled()
        network = quick_network(n_nodes=6, seed=11)
        instrument_simulator(obs, network.sim)
        instrument_network(obs, network)
        assert len(obs.metrics) == 0
        assert obs.metrics.collect() == []


class TestSimulatorWiring:
    def test_collect_mirrors_engine_counters(self):
        sim = Simulator()
        obs = Observability()
        instrument_simulator(obs, sim)
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        samples = {s["name"]: s for s in obs.metrics.snapshot()}
        assert samples[wiring.SIM_EVENTS_EXECUTED]["value"] == sim.executed_events
        assert samples[wiring.SIM_TIME]["value"] == sim.now == 2.0

    def test_attach_observability_feeds_event_log(self):
        sim = Simulator()
        obs = sim.attach_observability(log_events=True)
        sim.schedule(1.0, lambda: None, label="probe")
        sim.run()
        kinds = {record[1] for record in obs.events}
        assert "event" in kinds
        assert sim.event_log is obs.events

    def test_attach_disabled_bundle_keeps_log_off(self):
        sim = Simulator()
        sim.attach_observability(Observability.disabled(), log_events=True)
        assert sim.event_log is None


class TestNetworkWiring:
    def test_install_is_idempotent(self):
        network = quick_network(n_nodes=6, seed=12)
        obs = Observability()
        network.install_observability(obs)
        network.install_observability(obs)  # same bundle: no-op
        before = len(obs.metrics.collect())
        assert len(obs.metrics.collect()) == before
        samples = {s["name"]: s for s in obs.metrics.snapshot()}
        assert samples[wiring.NODES]["value"] == len(network.nodes)
        assert samples[wiring.LINKS]["value"] == network.link_count

    def test_per_node_series(self):
        network = quick_network(n_nodes=5, seed=13)
        obs = Observability()
        network.install_observability(obs, per_node=True)
        obs.metrics.collect()
        node_series = [
            instrument
            for instrument in obs.metrics.collect()
            if instrument.name == wiring.MEMPOOL_TRANSACTIONS
            and dict(instrument.labels).get("node")
        ]
        assert len(node_series) == len(network.nodes)


class TestCampaignExports:
    @pytest.fixture(scope="class")
    def measured(self):
        network = quick_network(n_nodes=10, seed=41)
        prefill_mempools(network)
        network.install_faults(FaultPlan(loss_rate=0.02))
        obs = Observability()
        shot = TopoShot.attach(network, obs=obs)
        measurement = shot.measure_network()
        return network, obs, measurement

    def test_campaign_metrics_populated(self, measured):
        _, obs, measurement = measured
        samples = {s["name"]: s for s in obs.metrics.snapshot()}
        assert samples[wiring.CAMPAIGN_ITERATIONS]["value"] > 0
        assert samples[wiring.CAMPAIGN_EDGES]["value"] == len(measurement.edges)
        assert samples[wiring.CAMPAIGN_TXS]["value"] > 0
        assert samples[wiring.MESSAGES_SENT]["value"] > 0
        assert (
            samples[wiring.CAMPAIGN_ITER_WALL_SECONDS]["count"]
            == samples[wiring.CAMPAIGN_ITERATIONS]["value"]
        )

    def test_jsonl_export_is_valid(self, measured, tmp_path):
        _, obs, _ = measured
        target = write_metrics(obs.metrics, tmp_path / "campaign.jsonl")
        samples = [json.loads(line) for line in target.read_text().splitlines()]
        assert samples
        names = {sample["name"] for sample in samples}
        assert wiring.CAMPAIGN_ITERATIONS in names
        assert all(sample["name"].startswith("toposhot_") for sample in samples)

    def test_prometheus_export_is_valid(self, measured):
        _, obs, _ = measured
        text = metrics_to_prometheus(obs.metrics)
        assert f"# TYPE {wiring.CAMPAIGN_ITERATIONS} counter" in text
        assert f"# TYPE {wiring.CAMPAIGN_ITER_SIM_SECONDS} summary" in text
        # Every non-comment line is "name{labels} value".
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name
            float(value)  # parses as a number

    def test_event_log_captures_campaign_story(self, measured, tmp_path):
        _, obs, _ = measured
        kinds = {record[1] for record in obs.events}
        assert "campaign.iteration" in kinds
        target = write_events(obs.events, tmp_path / "trace.jsonl")
        for line in target.read_text().splitlines():
            record = json.loads(line)
            assert {"time", "kind", "fields"} <= set(record)

    def test_fault_counters_mirrored(self, measured):
        network, obs, _ = measured
        samples = {s["name"]: s for s in obs.metrics.snapshot()}
        assert (
            samples[wiring.FAULT_MESSAGES_DROPPED]["value"]
            == network.faults.messages_dropped
        )


class TestObservabilityNeutrality:
    def test_enabled_observability_does_not_change_edges(self):
        def run(obs):
            network = quick_network(n_nodes=8, seed=77)
            prefill_mempools(network)
            shot = TopoShot.attach(network, obs=obs)
            return shot.measure_network().edges

        bare = run(None)
        observed = run(Observability())
        assert bare == observed

    def test_empty_exports_render_empty(self):
        obs = Observability()
        assert metrics_to_jsonl(obs.metrics) == ""
        assert events_to_jsonl(obs.events) == ""


class TestMetricCatalog:
    def test_catalog_matches_the_names_wiring_defines(self):
        """Every row of the ``docs/observability.md`` catalog tables is a
        metric ``wiring.py`` declares — same name, same *Type* column, same
        ``{label}`` keys — every declaration has a row, and the prose names
        no ``toposhot_*`` metric that is not declared."""
        import re
        from pathlib import Path

        from repro.obs.metrics import CATALOG, Metric

        declared = {
            value: (value.kind, value.labels)
            for name, value in vars(wiring).items()
            if name.isupper() and isinstance(value, Metric)
        }
        assert set(declared) == set(CATALOG)
        assert all(name.startswith("toposhot_") for name in declared)
        assert all(metric.help for metric in CATALOG.values())

        doc = Path(__file__).parents[2] / "docs" / "observability.md"
        text = doc.read_text("utf-8")
        # A row is "| `name{a,b}` | type | ..."; a cell may hold several
        # names ("`x` / `y`") and mark optional labels as "`x` (+`{a}`)".
        documented = {}
        for cell, kind in re.findall(r"^\| (`toposhot_.*?) \| (\w+) \|", text, re.M):
            optional = re.search(r"\+`\{([a-z_,]+)\}`", cell)
            for name, labels in re.findall(
                r"`(toposhot_[a-z0-9_]+)(?:\{([a-z_,]+)\})?`", cell
            ):
                labels = labels or (optional.group(1) if optional else "")
                documented[name] = (kind, tuple(filter(None, labels.split(","))))
        assert documented == declared
        mentioned = set(re.findall(r"toposhot_[a-z0-9_]+", text))
        assert mentioned - set(declared) == set(), "docs name an undeclared metric"
