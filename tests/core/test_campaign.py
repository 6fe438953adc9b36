"""Tests for the TopoShot campaign orchestrator."""

import pytest

from repro.core.campaign import TopoShot
from repro.core.results import EdgeEvidence, edge
from repro.errors import MeasurementError
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import NETHERMIND
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import prefill_mempools
from tests.conftest import pairs_of


@pytest.fixture
def campaign_network():
    network = quick_network(n_nodes=16, seed=13)
    prefill_mempools(network)
    return network


class TestAttach:
    def test_attach_joins_supernode(self, campaign_network):
        shot = TopoShot.attach(campaign_network)
        assert shot.supernode.degree == 16
        assert shot.supernode.id in campaign_network.supernode_ids

    def test_default_config_derived_from_dominant_client(self, campaign_network):
        shot = TopoShot.attach(campaign_network)
        geth_scaled = campaign_network.node(
            campaign_network.measurable_node_ids()[0]
        ).config.policy
        assert shot.config.replace_bump == geth_scaled.replace_bump
        assert shot.config.future_count == geth_scaled.capacity

    def test_unmeasurable_network_rejected(self):
        network = Network(seed=1)
        config = NodeConfig(policy=NETHERMIND.scaled(64))
        network.create_node("a", config)
        network.create_node("b", config)
        network.connect("a", "b")
        with pytest.raises(MeasurementError):
            TopoShot.attach(network)


class TestMeasureLink:
    def test_link_result_matches_truth(self, campaign_network):
        truth = campaign_network.ground_truth_graph()
        shot = TopoShot.attach(campaign_network)
        (a, b), = pairs_of(truth, connected=True, limit=1)
        (x, y), = pairs_of(truth, connected=False, limit=1)
        assert shot.measure_link(a, b)[-1].detected
        assert not any(record.detected for record in shot.measure_link(x, y))

    def test_link_result_counts_attempts(self, campaign_network):
        truth = campaign_network.ground_truth_graph()
        shot = TopoShot.attach(campaign_network)
        shot.config = shot.config.with_repeats(2)
        (x, y), = pairs_of(truth, connected=False, limit=1)
        records = shot.measure_link(x, y)
        assert len(records) == 2
        assert not any(record.detected for record in records)

    def test_measurement_senders_are_the_accounts_serial_probes_mint(
        self, campaign_network, monkeypatch
    ):
        """``measure_link`` and cross-validation record as senders exactly
        the seed and flood accounts their probes minted, in mint order."""
        import repro.core.campaign as campaign
        import repro.core.primitive as primitive

        serial, wallets = primitive.measure_one_link, []

        def counted(network, supernode, a, b, config, wallet):
            wallets.append(wallet)
            return serial(network, supernode, a, b, config, wallet)

        def minted():
            distinct = list({id(w): w for w in wallets}.values())
            return [account.address for w in distinct for account in w]

        monkeypatch.setattr(primitive, "measure_one_link", counted)
        monkeypatch.setattr(campaign, "measure_one_link", counted)
        truth = campaign_network.ground_truth_graph()
        shot = TopoShot.attach(campaign_network)
        shot.config = shot.config.with_repeats(2).with_cross_validation(2)
        (x, y), = pairs_of(truth, connected=False, limit=1)
        shot.measure_link(x, y)
        assert len(wallets) == 2
        assert shot.measurement_senders == minted()

        # A cross-validation pass: a suspect claim on a non-edge is
        # re-probed twice and quarantined.
        measurement, _ = shot.open([x, y], preprocess=False)
        claimed = EdgeEvidence(source=x, sink=y, tx_hash="0xa", extra_observers=("z",))
        measurement.edges.add(claimed.edge)
        measurement.evidence[claimed.edge] = claimed
        shot.close(measurement, validate=False)
        assert measurement.quarantined == {claimed.edge}
        assert len(wallets) == 4
        assert shot.measurement_senders == minted()
        per_probe = 1 + shot.config.flood_accounts  # a seed and its flood
        assert len(set(shot.measurement_senders)) == 4 * per_probe


class TestMeasureNetwork:
    def test_perfect_precision_and_high_recall(self, campaign_network):
        shot = TopoShot.attach(campaign_network)
        measurement = shot.measure_network()
        assert measurement.score is not None
        assert measurement.score.precision == 1.0
        assert measurement.score.recall >= 0.8

    def test_measured_graph_subset_of_truth(self, campaign_network):
        truth = campaign_network.ground_truth_graph()
        shot = TopoShot.attach(campaign_network)
        measurement = shot.measure_network()
        for e in measurement.edges:
            a, b = tuple(e)
            assert truth.has_edge(a, b)

    def test_progress_callback_invoked_per_iteration(self, campaign_network):
        shot = TopoShot.attach(campaign_network)
        calls = []
        measurement = shot.measure_network(
            progress=lambda i, n, it, rep: calls.append((i, n))
        )
        assert len(calls) == measurement.iterations
        assert calls[0][1] == measurement.iterations

    def test_requires_two_targets(self, campaign_network):
        shot = TopoShot.attach(campaign_network)
        with pytest.raises(MeasurementError):
            shot.measure_network(targets=[campaign_network.measurable_node_ids()[0]])

    def test_explicit_group_size(self, campaign_network):
        shot = TopoShot.attach(campaign_network)
        measurement = shot.measure_network(group_size=4)
        from repro.core.schedule import build_schedule

        expected = len(build_schedule(measurement.node_ids, 4))
        assert measurement.iterations == expected

    def test_duration_and_tx_accounting(self, campaign_network):
        shot = TopoShot.attach(campaign_network)
        measurement = shot.measure_network()
        assert measurement.duration > 0
        assert measurement.transactions_sent > 0
        assert len(shot.measurement_senders) > 0


class TestPreprocessIntegration:
    def test_misbehaving_nodes_skipped(self):
        network = quick_network(
            n_nodes=16,
            seed=17,
            fraction_future_forwarders=0.25,
        )
        prefill_mempools(network)
        shot = TopoShot.attach(network)
        measurement = shot.measure_network()
        assert len(measurement.skipped_nodes) > 0
        assert set(measurement.node_ids).isdisjoint(measurement.skipped_nodes)

    def test_preprocess_can_be_disabled(self, campaign_network):
        shot = TopoShot.attach(campaign_network)
        measurement = shot.measure_network(preprocess=False)
        assert measurement.skipped_nodes == []
        assert len(measurement.node_ids) == 16


def twin_world(n_nodes, seed, n_targets):
    """One of any number of identical worlds: same spec, same bits."""
    network = quick_network(n_nodes=n_nodes, seed=seed)
    prefill_mempools(network)
    shot = TopoShot.attach(network)
    return network, shot, list(network.measurable_node_ids())[:n_targets]


def outcome(network, measurement):
    """Everything a campaign leaves behind: the whole record (edges,
    evidence, confidence, failures, transactions) and the world's counters."""
    from repro.io import measurement_to_dict

    return (
        measurement_to_dict(measurement),
        network.sim.executed_events,
        network.messages_sent,
    )


class TestMeasurePairs:
    def test_explicit_pairs_only(self, campaign_network):
        truth = campaign_network.ground_truth_graph()
        shot = TopoShot.attach(campaign_network)
        true_pairs = pairs_of(truth, connected=True, limit=3)
        false_pairs = pairs_of(truth, connected=False, limit=3)
        detected = shot.measure_pairs(true_pairs + false_pairs).edges
        assert detected == {edge(a, b) for a, b in true_pairs}


class TestPipelineLaws:
    """Metamorphic laws of the one open -> run -> close pipeline: how a
    campaign is *spelled* (whole network vs the list of all its pairs, one
    ordering of a pair list vs another) cannot change what it measures."""

    @pytest.mark.parametrize(
        "n_nodes, seed, n_targets, group_size",
        [
            (24, 3, 14, 4),  # fits the slot budget at the pair-list K of 4
            (24, 7, 14, 4),
            # 4 * 16 = 64 > 50 slots on both spellings: the one schedule
            # cuts the same iterations into the same rounds.
            (32, 3, 20, 4),
            # Every node of a network where even K = 2 overflows the budget.
            (40, 7, None, 4),
        ],
    )
    def test_whole_network_equals_all_of_its_pairs(
        self, n_nodes, seed, n_targets, group_size
    ):
        from itertools import combinations

        network, shot, targets = twin_world(n_nodes, seed, n_targets)
        whole = shot.measure_network(
            targets, group_size=group_size, preprocess=False, validate=False
        )
        twin, twin_shot, _ = twin_world(n_nodes, seed, n_targets)
        listed = twin_shot.measure_pairs(list(combinations(targets, 2)))
        assert outcome(twin, listed) == outcome(network, whole)
        assert whole.edges and whole.transactions_sent > 0
        assert not whole.failures and not listed.failures

    def test_empty_pair_list_is_an_empty_campaign(self):
        """Zero pairs: zero work items, no error — a monitor delta round
        with no candidates is exactly this."""
        network, shot, _ = twin_world(16, 13, 6)
        measurement, items = shot.open(pairs=[])
        assert items == [] and measurement.iterations == 0
        events = network.sim.executed_events
        listed = shot.measure_pairs([])
        assert not listed.edges and not listed.failures
        assert listed.transactions_sent == 0
        assert network.sim.executed_events == events

    def test_pair_list_order_and_orientation_do_not_matter(self):
        """Only the first-appearance order of the endpoints shapes the
        schedule; within that, a pair list is a set of undirected pairs."""
        network, shot, (a, b, c, d, e, f) = twin_world(16, 13, 6)
        pairs = [(a, b), (c, d), (e, f), (a, c), (b, d), (a, e), (c, f), (b, f)]
        permuted = [(a, b), (c, d), (e, f), (f, b), (a, e), (d, b), (f, c), (a, c)]
        first = shot.measure_pairs(pairs)
        twin, twin_shot, _ = twin_world(16, 13, 6)
        second = twin_shot.measure_pairs(permuted)
        assert outcome(twin, second) == outcome(network, first)
        assert first.node_ids == [a, b, c, d, e, f]
        assert first.edges <= {edge(*pair) for pair in pairs}
        assert first.edges <= network.ground_truth_edges(among=first.node_ids)


class TestCheckpointRoundTrip:
    """Regression: ``from_dict(to_dict(cp))`` must reproduce the campaign's
    one checkpoint record exactly — the header, every shard's whole
    embedded partial measurement (evidence and suspects included) and what
    the shard's observers recorded — refuse the removed serial executor's
    format by name, and reject malformed edge entries instead of silently
    collapsing them."""

    def _measurement(self):
        from repro.core.results import (
            EdgeEvidence,
            MeasurementFailure,
            NetworkMeasurement,
        )

        return NetworkMeasurement(
            node_ids=["node-0", "node-1", "node-2", "node-3"],
            edges={edge("node-0", "node-1"), edge("node-2", "node-3")},
            iterations=5,
            sim_time_start=1.5,
            sim_time_end=9.25,
            transactions_sent=1234,
            setup_failures=2,
            send_timeouts=1,
            skipped_nodes=["node-9"],
            failures=[
                MeasurementFailure(
                    kind="unreachable", node="node-3", iteration=1,
                    detail="target was down",
                ),
                MeasurementFailure(
                    kind="iteration_error", iteration=2, detail="boom",
                ),
            ],
            evidence={
                edge("node-0", "node-1"): EdgeEvidence(
                    source="node-0", sink="node-1", tx_hash="0xaa",
                    observed_at=3.0, kind="push", iteration=0,
                ),
                edge("node-2", "node-3"): EdgeEvidence(
                    source="node-2", sink="node-3", tx_hash="0xbb",
                    rpc_confirmed=False, extra_observers=("node-1",),
                    iteration=2, rpc_degraded=True,
                ),
            },
            suspect_nodes={"node-1"},
        )

    def _checkpoint(self):
        from repro.core.parallel_exec import ParallelCheckpoint, ShardResult
        from repro.core.results import NetworkMeasurement

        observed = ShardResult(
            index=0,
            start=0,
            stop=3,
            measurement=self._measurement(),
            wall_time=0.25,
            obs_snapshot={
                "metrics": [],
                "events": {
                    "recorded": 1,
                    "retained": 1,
                    "dropped": 0,
                    "records": [[3.0, "campaign.iteration", 0, 5, 2, 1234]],
                },
            },
            invariants={
                "counts": {"relay_unpooled": 2},
                "honest_counts": {},
                "violations": [
                    {
                        "time": 2.5, "invariant": "relay_unpooled",
                        "node": "node-1", "detail": "relayed never-pooled 0xcc",
                        "byzantine": True,
                    }
                ],
            },
        )
        unobserved = ShardResult(
            index=2,
            start=4,
            stop=5,
            measurement=NetworkMeasurement(node_ids=["node-0", "node-1"]),
        )
        return ParallelCheckpoint(
            fingerprint="f" * 64, n_shards=3, completed={0: observed, 2: unobserved}
        )

    def test_round_trip_is_lossless(self):
        import json

        from repro.core.parallel_exec import (
            PARALLEL_CHECKPOINT_VERSION,
            ParallelCheckpoint,
        )

        original = self._checkpoint()
        payload = json.loads(json.dumps(original.to_dict()))  # through JSON
        assert payload["format_version"] == PARALLEL_CHECKPOINT_VERSION == 5
        # Observer payloads ride only when an observer ran.
        assert "invariants" in payload["completed"]["0"]
        assert "invariants" not in payload["completed"]["2"]
        restored = ParallelCheckpoint.from_dict(payload)
        assert restored == original
        # A second hop must be a fixed point.
        assert restored.to_dict() == original.to_dict()

    def test_version_1_checkpoint_refused(self):
        """What the removed serial executor wrote (format 1, and format 2
        with the embedded partial) is recognised and named, not reported
        as a missing key."""
        from repro.core.parallel_exec import ParallelCheckpoint
        from repro.errors import CheckpointError
        from repro.io import measurement_to_dict

        for version in (1, 2):
            payload = {
                "format_version": version,
                "seed": 42,
                "group_size": 2,
                "completed_iterations": 3,
                "measurement": measurement_to_dict(self._measurement()),
            }
            with pytest.raises(CheckpointError, match="removed serial executor"):
                ParallelCheckpoint.from_dict(payload)

    @pytest.mark.parametrize(
        "bad_entry",
        [["node-0"], ["node-0", "node-0"], ["node-0", 7], [], ["a", "b", "c"]],
    )
    def test_malformed_edge_entries_rejected(self, bad_entry):
        from repro.core.parallel_exec import ParallelCheckpoint
        from repro.errors import CheckpointError

        payload = self._checkpoint().to_dict()
        payload["completed"]["0"]["measurement"]["edges"] = [bad_entry]
        with pytest.raises(CheckpointError):
            ParallelCheckpoint.from_dict(payload)
