"""Tests for the DEthna marked-transaction baseline.

The golden-topology assertions pin the protocol's fidelity story: on a
sparse network where every target is measured, the mark-race inference
recovers the active topology with high precision AND high recall; on a
target *subset*, two-hop relays through non-target nodes cost precision
(the documented caveat); and marks are genuinely cheap — priced below
the ambient median yet admitted everywhere.
"""

from repro.baselines.dethna import mark_price, run_dethna
from repro.core.results import edge
from repro.eth.supernode import Supernode
from repro.eth.transaction import gwei
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import prefill_mempools
from repro.sim.faults import FaultPlan


def build(seed=41, n=12, **overrides):
    network = quick_network(n_nodes=n, seed=seed, **overrides)
    prefill_mempools(network, median_price=gwei(1.0))
    supernode = Supernode.join(network)
    network.run(1.0)
    return network, supernode


class TestGoldenTopology:
    def test_recovers_sparse_topology(self):
        """Full-target DEthna on the golden sparse net: near-perfect."""
        network, supernode = build(seed=7, n=16, outbound_dials=3)
        report = run_dethna(network, supernode, rounds=8)
        assert report.score_vs_active is not None
        assert report.score_vs_active.precision >= 0.8
        assert report.score_vs_active.recall >= 0.9

    def test_exact_edges_with_fixed_seed(self):
        """Determinism: the same seed yields the same inferred edge set."""
        edges = []
        for _ in range(2):
            network, supernode = build(seed=7, n=10, outbound_dials=3)
            report = run_dethna(network, supernode, rounds=6)
            edges.append(frozenset(report.predicted))
        assert edges[0] == edges[1]
        truth = {
            e
            for e in network.ground_truth_edges()
        }
        assert edges[0] & truth  # finds real edges, not noise

    def test_every_vote_needs_min_votes(self):
        """The threshold filters one vote count: a stricter one claims a
        subset of a looser one, and one no pair can reach (a pair gets at
        most two votes a round, one per endpoint's mark) claims nothing."""
        claimed = {
            min_votes: run_dethna(
                *build(seed=7, n=10, outbound_dials=3), rounds=6, min_votes=min_votes
            ).predicted
            for min_votes in (1, 3, 13)
        }
        assert claimed[1] and claimed[3] <= claimed[1]
        assert claimed[13] == set()


class TestMarkEconomics:
    def test_marks_priced_below_ambient_median(self):
        """The paper's cost asymmetry: marks relay but never attract
        miners, so they must sit below the ambient median."""
        network, supernode = build(seed=41)
        target = network.measurable_node_ids()[0]
        price = mark_price(network, target, factor=0.5)
        median = network.node(target).mempool.median_pending_price()
        assert 0 < price < median

    def test_marks_sent_counts_cost(self):
        network, supernode = build(seed=41, n=8)
        report = run_dethna(network, supernode, rounds=3)
        assert report.marks_sent == 3 * len(network.measurable_node_ids())


class TestSubsetAndFaults:
    def test_target_subset_restricts_scoring(self):
        network, supernode = build(seed=3, n=20, outbound_dials=4)
        targets = list(network.measurable_node_ids())[:6]
        report = run_dethna(network, supernode, targets=targets, rounds=6)
        for claimed in report.predicted:
            assert set(claimed) <= set(targets)

    def test_send_timeouts_are_survived(self):
        network, supernode = build(seed=11, n=10, outbound_dials=3)
        network.install_faults(FaultPlan(send_timeout_rate=0.5))
        report = run_dethna(network, supernode, rounds=4)
        assert report.send_failures > 0
        # skipped injections, not crashes: the report is still produced
        assert report.marks_sent + report.send_failures == 4 * len(
            network.measurable_node_ids()
        )

    def test_summary_mentions_cost(self):
        network, supernode = build(seed=41, n=8)
        report = run_dethna(network, supernode, rounds=2)
        assert "marks" in report.summary()
