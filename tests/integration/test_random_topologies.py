"""Property-style sweeps over random topologies.

The 100%-precision guarantee must hold on *any* connected overlay, not
just the seeds the other tests use; these sweeps hammer the primitive and
the campaign across randomly shaped networks and propagation variants.
"""

import itertools

import pytest

from repro.core.campaign import TopoShot
from repro.core.primitive import measure_one_link
from repro.eth.supernode import Supernode
from repro.netgen.ethereum import NetworkSpec, generate_network
from repro.netgen.workloads import prefill_mempools


def build(seed, **overrides):
    defaults = dict(n_nodes=10, mempool_capacity=128, outbound_dials=3, max_peers=8)
    defaults.update(overrides)
    network = generate_network(NetworkSpec(seed=seed, **defaults))
    prefill_mempools(network)
    return network


class TestPrimitivePrecisionSweep:
    @pytest.mark.parametrize("seed", range(200, 210))
    def test_no_false_positive_on_any_random_topology(self, seed):
        """For each random network, probe one true link and one non-link;
        the non-link must never be reported (precision by construction)."""
        network = build(seed)
        truth = network.ground_truth_graph()
        supernode = Supernode.join(network)
        pairs = list(itertools.combinations(sorted(truth.nodes()), 2))
        true_pair = next(p for p in pairs if truth.has_edge(*p))
        non_pair = next((p for p in pairs if not truth.has_edge(*p)), None)
        assert measure_one_link(network, supernode, *true_pair).detected
        if non_pair is not None:
            supernode.clear_observations()
            network.forget_known_transactions()
            assert not measure_one_link(network, supernode, *non_pair).detected


class TestPropagationVariants:
    def test_campaign_works_under_announce_only_propagation(self):
        """TopoShot does not depend on direct pushes: with Bitcoin-style
        announce-only gossip the hashes still flow and detection holds."""
        network = build(301, announce_only=True, n_nodes=12)
        shot = TopoShot.attach(network)
        shot.config = shot.config.with_repeats(2)
        measurement = shot.measure_network()
        assert measurement.score.precision == 1.0
        assert measurement.score.recall >= 0.85

    def test_campaign_works_under_push_to_all(self):
        # Push-to-all floods faster, which widens the parallel race window;
        # the paper's three-repeat union absorbs it.
        network = build(302, push_to_all=True, n_nodes=12)
        shot = TopoShot.attach(network)
        shot.config = shot.config.with_repeats(3)
        measurement = shot.measure_network()
        assert measurement.score.precision == 1.0
        assert measurement.score.recall >= 0.9

    def test_campaign_works_without_announcements(self):
        network = build(303, announce_only=False, n_nodes=12)
        for node_id in network.measurable_node_ids():
            node = network.node(node_id)
            object.__setattr__(node.config, "push_to_all", True)
        shot = TopoShot.attach(network)
        measurement = shot.measure_network()
        assert measurement.score.precision == 1.0
        assert measurement.score.recall >= 0.9
