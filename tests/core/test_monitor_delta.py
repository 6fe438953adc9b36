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
        # The round's snapshot is its real measurement, not a bare edge set.
        record = monitor.snapshots[-1].measurement
        assert record.transactions_sent > 0 and record.failures == []
        assert record.edges == monitor.current_edges
        assert set(record.evidence) >= report.added

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

    def test_max_pairs_overflow_stays_flagged(self):
        """Regression: the round used to clear every flag after truncating,
        so without a staleness TTL the cut pairs were never probed."""
        network, _, monitor = build_monitor()
        monitor.take_snapshot()
        removed, added = rewire_random_links(network, fraction=0.2)
        for e in removed | added:
            for node_id in e:
                monitor.note_churn_hint(node_id)
        candidates = {edge(*p) for p in monitor._candidate_pairs(network.sim.now)}
        assert len(candidates) > 3
        monitor.delta_round(max_pairs=3, poll=False)
        assert monitor.probe_savings["probed_pairs"] == 3
        # Every pair the budget cut is a candidate again ...
        leftover = {edge(*p) for p in monitor._candidate_pairs(network.sim.now)}
        assert len(leftover & candidates) >= len(candidates) - 3
        # ... and a round without a budget probes them and drains the flags.
        monitor.delta_round(poll=False)
        assert monitor.probe_savings["probed_pairs"] == 3 + len(leftover)
        assert monitor._candidate_pairs(network.sim.now) == []


class TestDeltaRoundsAreCampaigns:
    """A delta round walks the same open -> run -> close pipeline as a
    snapshot: it is hardened, and a round that fails says so."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_byzantine_round_does_not_readmit_quarantined_edges(self, seed):
        """Regression: pair lists skipped the hardening pass, so one round
        over a snapshot's quarantined edges took the tracked view from 0
        false positives to 24 / 25 / 25 here (and from 1 / 1 / 0 to
        56 / 58 / 67 over 16 targets, the scenario docs/adversarial.md
        quotes)."""
        from repro.eth.behaviors import BehaviorMix
        from repro.netgen.ethereum import NetworkSpec, generate_network

        network = generate_network(
            NetworkSpec(n_nodes=24, seed=seed, outbound_dials=4)
        )
        prefill_mempools(network)
        network.install_behaviors(
            BehaviorMix(spoof_relay=0.15, nonconforming_replacer=0.1)
        )
        shot = TopoShot.attach(network)
        shot.config = shot.config.with_cross_validation(3)
        targets = list(network.measurable_node_ids())[:10]
        truth = network.ground_truth_edges(among=targets)
        monitor = TopologyMonitor(shot)
        base = monitor.take_snapshot(targets=targets, preprocess=False)
        assert base.measurement.quarantined
        for e in base.measurement.quarantined:
            for node_id in e:
                monitor.note_churn_hint(node_id)
        monitor.delta_round(poll=False)
        record = monitor.snapshots[-1].measurement
        assert record.quarantined
        assert not record.quarantined & monitor.current_edges
        assert len(monitor.current_edges - truth) <= len(base.edges - truth)

    def test_failed_round_is_visible(self, monkeypatch):
        """A round whose ``measurePar`` raises is an ``iteration_error`` in
        the round's record and in its stream line, not a silent mass
        removal. (The schedule no longer builds a round over the slot
        budget, so the failure is injected.)"""
        from repro.errors import MeasurementError

        network, shot, monitor = build_monitor(stream=io.StringIO())
        monitor.take_snapshot()

        def broken_round(*args, **kwargs):
            raise MeasurementError("injected: this round cannot run")

        monkeypatch.setattr("repro.core.parallel.measure_par", broken_round)
        for node_id in monitor.targets[:4]:
            monitor.note_churn_hint(node_id)
        monitor.delta_round(poll=False)
        failures = monitor.snapshots[-1].measurement.failures
        assert failures and {f.kind for f in failures} == {"iteration_error"}
        assert "injected" in failures[0].detail
        line = json.loads(monitor.stream.getvalue().splitlines()[-1])
        assert line["failures"] == len(failures)


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
        assert records[0]["transactions_sent"] == 0
        assert records[1]["transactions_sent"] > 0
        for record in records:
            assert record["failures"] == 0
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

    def test_delta_rounds_append_lightweight_snapshots(self):
        network, _, monitor = build_monitor()
        base = monitor.take_snapshot()
        monitor.delta_round()
        assert len(monitor.snapshots) == 2
        assert monitor.snapshots[-1].edges == base.edges
        series = monitor.churn_series()
        assert len(series) == 1
        assert series[0].churn_rate == 0.0
