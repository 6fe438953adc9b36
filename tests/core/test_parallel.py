"""Tests for the parallel measurement primitive (Section 5.3.1)."""

import pytest

from repro.core.campaign import TopoShot
from repro.core.config import RETRY_BACKOFF, RETRY_BACKOFF_FACTOR, MeasurementConfig
from repro.core.parallel import measure_par, measure_par_with_repeats
from repro.core.results import edge
from repro.core.schedule import build_schedule
from repro.errors import MeasurementError
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import prefill_mempools
from tests.conftest import pairs_of


def config_for(network):
    policy = network.node(network.measurable_node_ids()[0]).config.policy
    return MeasurementConfig.for_policy(policy)


class TestMeasurePar:
    def test_detects_true_edges_only(self, measured_network):
        network, supernode, truth = measured_network
        true_pairs = pairs_of(truth, connected=True, limit=4)
        false_pairs = pairs_of(truth, connected=False, limit=4)
        # Build a source-disjoint pair set: sources from one side only.
        pairs = []
        sources = set()
        sinks = set()
        for a, b in true_pairs + false_pairs:
            if a in sinks or b in sources:
                continue
            pairs.append((a, b))
            sources.add(a)
            sinks.add(b)
        report = measure_par(network, supernode, pairs, config_for(network))
        for outcome in report.outcomes:
            expected = truth.has_edge(outcome.source, outcome.sink)
            if outcome.detected:
                assert expected, (outcome.source, outcome.sink)

    def test_full_first_iteration_perfect_precision(self, measured_network):
        network, supernode, truth = measured_network
        targets = network.measurable_node_ids()
        iteration = build_schedule(targets, 3)[0]
        report = measure_par(
            network, supernode, iteration.edges, config_for(network)
        )
        for e in report.detected:
            a, b = tuple(e)
            assert truth.has_edge(a, b)

    def test_empty_pairs_is_noop(self, measured_network):
        network, supernode, _ = measured_network
        report = measure_par(network, supernode, [], config_for(network))
        assert report.outcomes == [] and report.transactions_sent == 0
        assert report.detected == set()

    def test_overlapping_sources_and_sinks_rejected(self, measured_network):
        network, supernode, _ = measured_network
        ids = network.measurable_node_ids()
        with pytest.raises(MeasurementError):
            measure_par(
                network,
                supernode,
                [(ids[0], ids[1]), (ids[1], ids[2])],
                config_for(network),
            )

    def test_slot_budget_enforced(self, measured_network):
        network, supernode, _ = measured_network
        ids = network.measurable_node_ids()
        config = config_for(network)
        too_many = [(ids[0], ids[i]) for i in range(1, len(ids))]
        tight = MeasurementConfig(
            replace_bump=config.replace_bump,
            future_count=config.future_count,
            future_per_account=config.future_per_account,
            mempool_slots_budget=3,
        )
        with pytest.raises(MeasurementError):
            measure_par(network, supernode, too_many, tight)

    def test_transactions_sent_accounting(self, measured_network):
        network, supernode, truth = measured_network
        (a, b), = pairs_of(truth, connected=True, limit=1)
        report = measure_par(network, supernode, [(a, b)], config_for(network))
        # p1 to every peer + p2 batch + p3 batch at least.
        assert report.transactions_sent > supernode.degree

    def test_seed_and_flood_senders_tracked(self, measured_network):
        network, supernode, truth = measured_network
        (a, b), = pairs_of(truth, connected=True, limit=1)
        report = measure_par(network, supernode, [(a, b)], config_for(network))
        assert len(report.seed_senders) == 1
        assert len(report.flood_senders) >= 1


class TestRepeats:
    def test_union_improves_or_keeps_detection(self, measured_network):
        network, supernode, truth = measured_network
        targets = network.measurable_node_ids()
        iteration = build_schedule(targets, 3)[0]
        config = config_for(network)
        single = measure_par(network, supernode, iteration.edges, config)
        supernode.clear_observations()
        network.forget_known_transactions()
        from repro.netgen.workloads import refresh_mempools

        refresh_mempools(network)
        tripled = measure_par_with_repeats(
            network,
            supernode,
            iteration.edges,
            config.with_repeats(3),
            refresh=lambda: refresh_mempools(network),
        )
        assert tripled.detected >= single.detected
        # Precision still perfect after repeats.
        for e in tripled.detected:
            a, b = tuple(e)
            assert truth.has_edge(a, b)

    def test_outcomes_cover_all_pairs(self, measured_network):
        network, supernode, truth = measured_network
        targets = network.measurable_node_ids()
        iteration = build_schedule(targets, 3)[0]
        report = measure_par_with_repeats(
            network, supernode, iteration.edges, config_for(network).with_repeats(2)
        )
        probed = {(o.source, o.sink) for o in report.outcomes}
        assert probed == set(iteration.edges)

    def test_detected_edges_marked_in_outcomes(self, measured_network):
        network, supernode, truth = measured_network
        targets = network.measurable_node_ids()
        iteration = build_schedule(targets, 3)[0]
        report = measure_par_with_repeats(
            network, supernode, iteration.edges, config_for(network).with_repeats(2)
        )
        for outcome in report.outcomes:
            assert outcome.detected == (edge(outcome.source, outcome.sink) in report.detected)


def scripted_rounds(monkeypatch, **fields):
    """Replace ``measure_par`` with a stub that probes nothing and reports
    every pair undetected with the given record fields; returns the list
    of sim times at which each round ran."""
    import repro.core.parallel as parallel
    from repro.core.parallel import ParallelProbeReport
    from repro.core.results import EdgeEvidence

    rounds = []

    def stub(network, supernode, pairs, *args, **kwargs):
        rounds.append(network.sim.now)
        return ParallelProbeReport(
            outcomes=[
                EdgeEvidence(source=a, sink=b, tx_hash="", detected=False, **fields)
                for a, b in pairs
            ],
        )

    monkeypatch.setattr(parallel, "measure_par", stub)
    return rounds


class TestRetryBackoff:
    """The parallel twin of ``test_primitive.py::TestRetryBackoff``: one
    loop, so ``measurePar`` rounds retry by the serial rule."""

    PAIRS = [("a", "b"), ("a", "c")]

    @pytest.mark.parametrize("backoff,factor", [(RETRY_BACKOFF, RETRY_BACKOFF_FACTOR)])
    def test_setup_failures_wait_out_the_geometric_schedule(
        self, measured_network, monkeypatch, backoff, factor
    ):
        network, supernode, _ = measured_network
        rounds = scripted_rounds(monkeypatch, setup_ok=False)
        config = MeasurementConfig().with_repeats(2).with_retries(3)
        expected, wait = network.sim.now, backoff
        for _ in range(3):
            expected += wait
            wait *= factor
        report = measure_par_with_repeats(network, supernode, self.PAIRS, config)
        assert len(rounds) == 3 + 2  # retries + repeats
        assert network.sim.now == expected
        assert report.setup_failures == len(self.PAIRS)

    def test_degraded_round_retries_without_waiting(
        self, measured_network, monkeypatch
    ):
        network, supernode, _ = measured_network
        rounds = scripted_rounds(monkeypatch, rpc_degraded=True)
        config = MeasurementConfig().with_repeats(2).with_retries(3)
        measure_par_with_repeats(network, supernode, self.PAIRS, config)
        assert len(rounds) == 3 + 2
        assert set(rounds) == {network.sim.now}  # the clock never moved

    def test_zero_retries_runs_exactly_repeats_rounds(
        self, measured_network, monkeypatch
    ):
        network, supernode, _ = measured_network
        rounds = scripted_rounds(monkeypatch, setup_ok=False)
        measure_par_with_repeats(
            network, supernode, self.PAIRS, MeasurementConfig().with_repeats(3)
        )
        assert len(rounds) == 3
        assert set(rounds) == {network.sim.now}


class TestFewPeerSupernode:
    """p1 used to seed txC at ``peer_ids[::step][:3]`` — *every* peer of a
    supernode with three or fewer. No node then gossips a seed back, the
    supernode sees no txC take hold and every pair was dropped as a set-up
    failure: a 2-node network scored recall 0.000, a 3-node one 0.333."""

    @pytest.mark.parametrize("n_nodes", [2, 3, 4])
    def test_whole_tiny_network(self, n_nodes):
        network = quick_network(n_nodes=n_nodes, seed=0)
        prefill_mempools(network)
        measurement = TopoShot.attach(network).measure_network()
        assert measurement.edges == network.ground_truth_edges()
        assert measurement.edges  # quick networks this small are cliques
        assert measurement.setup_failures == 0

    def test_supernode_joined_to_two_targets(self):
        network = quick_network(n_nodes=8, seed=0)
        prefill_mempools(network)
        a, b = sorted(next(iter(network.ground_truth_edges())))
        shot = TopoShot.attach(network, targets=[a, b])
        measurement = shot.measure_network(targets=[a, b])
        assert measurement.edges == {edge(a, b)}
        assert measurement.setup_failures == 0
