"""Tests for the incremental (delta) monitor mode: O(churn) re-probing.

The contract under test: a static network costs *zero* probes per round,
churn signals (peer-count polling, explicit hints) pin re-probing to the
affected pairs, the incremental view converges to what a full re-snapshot
would measure, and each round streams one deterministic JSON line.
"""

import io
import json

import pytest

from repro.core.campaign import TopoShot
from repro.core.monitor import TopologyMonitor, rewire_random_links
from repro.core.results import edge
from repro.errors import MeasurementError
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import prefill_mempools


def build_monitor(seed=57, n_nodes=14, **monitor_kwargs):
    network = quick_network(n_nodes=n_nodes, seed=seed)
    prefill_mempools(network)
    shot = TopoShot.attach(network)
    shot.config = shot.config.with_repeats(2)
    monitor = TopologyMonitor(shot, **monitor_kwargs)
    return network, shot, monitor


class TestDeltaBasics:
    def test_requires_base_snapshot(self):
        _, _, monitor = build_monitor()
        with pytest.raises(MeasurementError):
            monitor.delta_round()

    def test_static_network_probes_nothing(self):
        _, _, monitor = build_monitor()
        base = monitor.take_snapshot()
        report = monitor.delta_round()
        assert monitor.probe_savings["probed_pairs"] == 0
        assert monitor.probe_savings["delta_rounds"] == 1
        assert report.added == set() and report.removed == set()
        assert monitor.current_edges == base.edges

    def test_stale_edges_reprobed_and_reconfirmed(self):
        # TTL comfortably above the base campaign's own sim duration (the
        # per-edge confirmation times are the in-campaign observed_at).
        network, _, monitor = build_monitor(staleness_ttl=500.0)
        base = monitor.take_snapshot()
        assert monitor.stale_edges(network.sim.now) == set()
        later = network.sim.now + 600.0
        assert monitor.stale_edges(later) == base.edges
        network.sim.run(until=later)
        report = monitor.delta_round()
        # Everything was stale, so everything was re-probed — and on a
        # static network reconfirmed rather than churned.
        assert monitor.probe_savings["probed_pairs"] == len(base.edges)
        assert report.removed == set()
        assert monitor.current_edges == base.edges
        # Confirmation times were refreshed: nothing is stale anymore.
        assert monitor.stale_edges(network.sim.now) == set()


class TestChurnSignals:
    def test_hinted_churn_detected(self):
        network, _, monitor = build_monitor()
        monitor.take_snapshot()
        removed, added = rewire_random_links(network, fraction=0.2)
        for e in removed | added:
            for node_id in e:
                monitor.note_churn_hint(node_id)
        report = monitor.delta_round()
        # Probe cost is O(churn), not O(network).
        universe = len(monitor.targets) * (len(monitor.targets) - 1) // 2
        assert 0 < monitor.probe_savings["probed_pairs"] < universe
        # Removed links between targets are detected exactly (precision
        # is exact); added ones are bounded by recall.
        target_set = set(monitor.targets)
        removed_in_scope = {e for e in removed if set(e) <= target_set}
        assert removed_in_scope <= report.removed
        added_in_scope = {e for e in added if set(e) <= target_set}
        assert len(report.added & added_in_scope) >= int(
            0.7 * len(added_in_scope)
        )

    def test_peer_count_polling_flags_rewired_nodes(self):
        network, _, monitor = build_monitor()
        monitor.take_snapshot()
        assert monitor.poll_peer_counts() == set()
        removed, added = rewire_random_links(network, fraction=0.2)
        touched = {n for e in removed | added for n in e}
        flagged = monitor.poll_peer_counts()
        assert flagged
        assert flagged <= touched
        report = monitor.delta_round()
        assert monitor.probe_savings["probed_pairs"] > 0
        assert len(report.added) + len(report.removed) > 0

    def test_rpc_less_target_is_absent_from_the_poll(self):
        """No fault plan installed: the poll goes through the RPC client's
        direct path — no draw, no simulated time, no health bookkeeping —
        and a target that serves no RPC is simply absent (its last-known
        count stands, so its rewiring raises no signal)."""
        from dataclasses import replace

        network, _, monitor = build_monitor()
        monitor.take_snapshot()
        quiet = network.node(monitor.targets[0])
        quiet.config = replace(quiet.config, responds_to_rpc=False)
        before = (network.sim.now, network.sim.executed_events)
        rewire_random_links(network, fraction=0.5)
        flagged = monitor.poll_peer_counts()
        assert flagged and quiet.id not in flagged
        assert quiet.id not in monitor._poll_counts()
        assert (network.sim.now, network.sim.executed_events) == before
        assert network.rpc_client().health_report() == {}
        assert network.rpc_client().counters()["calls"] == 0

    def test_delta_view_matches_full_resnapshot(self):
        network, shot, monitor = build_monitor()
        monitor.take_snapshot()
        removed, added = rewire_random_links(network, fraction=0.15)
        for e in removed | added:
            for node_id in e:
                monitor.note_churn_hint(node_id)
        monitor.delta_round()
        incremental_view = set(monitor.current_edges)
        full = shot.measure_network(
            targets=list(monitor.targets), preprocess=False
        )
        assert incremental_view == set(full.edges)

    def test_max_pairs_truncates(self):
        network, _, monitor = build_monitor(staleness_ttl=500.0)
        monitor.take_snapshot()
        network.sim.run(until=network.sim.now + 600.0)
        monitor.delta_round(max_pairs=3)
        assert monitor.probe_savings["probed_pairs"] == 3


class TestStreamingAndAccounting:
    def test_json_lines_stream(self):
        network, _, monitor = build_monitor(stream=io.StringIO())
        monitor.take_snapshot()
        monitor.delta_round()
        removed, added = rewire_random_links(network, fraction=0.2)
        for e in removed | added:
            for node_id in e:
                monitor.note_churn_hint(node_id)
        monitor.delta_round()
        lines = monitor.stream.getvalue().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0]["probed_pairs"] == 0
        for record in records:
            assert set(record) >= {
                "added",
                "removed",
                "stable_count",
                "probed_pairs",
                "edge_count",
                "from_time",
                "to_time",
            }
            for pair in record["added"] + record["removed"]:
                assert pair == sorted(pair)

    def test_probe_savings_accounting(self):
        network, _, monitor = build_monitor()
        monitor.take_snapshot()
        monitor.delta_round()
        monitor.delta_round()
        savings = monitor.probe_savings
        universe = len(monitor.targets) * (len(monitor.targets) - 1) // 2
        assert savings["delta_rounds"] == 2
        assert savings["universe_pairs"] == 2 * universe
        assert savings["probed_pairs"] == 0

    def test_run_continuous(self):
        network = quick_network(n_nodes=12, seed=33)
        prefill_mempools(network)
        shot = TopoShot.attach(network)
        shot.config = shot.config.with_repeats(2)
        monitor = TopologyMonitor(
            shot,
            between_rounds=lambda: [
                monitor.note_churn_hint(node_id)
                for e in (
                    lambda pair: pair[0] | pair[1]
                )(rewire_random_links(network, 0.1))
                for node_id in e
            ],
        )
        reports = monitor.run_continuous(rounds=2)
        assert len(reports) == 2
        # Base snapshot + two delta snapshots.
        assert len(monitor.snapshots) == 3
        assert monitor.probe_savings["delta_rounds"] == 2

    def test_delta_rounds_append_lightweight_snapshots(self):
        network, _, monitor = build_monitor()
        base = monitor.take_snapshot()
        monitor.delta_round()
        assert len(monitor.snapshots) == 2
        assert monitor.snapshots[-1].edges == base.edges
        series = monitor.churn_series()
        assert len(series) == 1
        assert series[0].churn_rate == 0.0
