"""Tests for the W1 node census baseline."""

import pytest

from repro.baselines.census import measurable_targets, run_census
from repro.eth.supernode import Supernode
from repro.netgen.ethereum import NetworkSpec, generate_network


@pytest.fixture
def mixed_network():
    network = generate_network(
        NetworkSpec(
            n_nodes=40,
            seed=73,
            parity_fraction=0.2,
            nethermind_fraction=0.1,
            fraction_rpc_disabled=0.15,
            fraction_non_relaying=0.1,
        )
    )
    supernode = Supernode.join(network)
    return network, supernode


class TestCensus:
    def test_counts_every_reachable_node(self, mixed_network):
        network, supernode = mixed_network
        census = run_census(network, supernode)
        assert census.network_size == 40
        assert sum(census.client_families.values()) == 40
        assert len(census.versions) == 40

    def test_client_mix_reflects_generation(self, mixed_network):
        network, supernode = mixed_network
        census = run_census(network, supernode)
        assert census.dominant_client == "geth"
        assert census.client_families["geth"] / census.network_size > 0.5
        assert "openethereum" in census.client_families
        assert "nethermind" in census.client_families

    def test_rpc_and_relay_counts(self, mixed_network):
        network, supernode = mixed_network
        census = run_census(network, supernode)
        assert 0 < census.rpc_responsive < 40
        assert 0 < census.relaying <= 40

    def test_summary_readable(self, mixed_network):
        network, supernode = mixed_network
        census = run_census(network, supernode)
        assert "census: 40 nodes" in census.summary()
        assert "geth" in census.summary()

    def test_measurable_targets_filters_by_family(self, mixed_network):
        network, supernode = mixed_network
        census = run_census(network, supernode)
        targets = measurable_targets(census)
        assert targets
        for node_id in targets:
            assert census.versions[node_id].startswith("Geth")

    def test_census_sees_only_supernode_peers(self):
        """Nodes the supernode is not peered with stay uncounted — the
        W1 method's reachability limit."""
        network = generate_network(NetworkSpec(n_nodes=10, seed=74))
        partial = Supernode.join(
            network, node_id="partial", targets=network.measurable_node_ids()[:5]
        )
        census = run_census(network, partial)
        assert len(census.versions) == 5
