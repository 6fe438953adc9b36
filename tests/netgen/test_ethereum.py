"""Tests for the Ethereum-like topology generator."""

import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.eth.network import Network
from repro.netgen.ethereum import (
    CUSTOM_BUMP,
    NetworkSpec,
    _bridge_components,
    generate_network,
    goerli_like,
    quick_network,
    rinkeby_like,
    ropsten_like,
)
from tests.conftest import property_settings


class TestGeneration:
    def test_node_count_and_connectivity(self):
        network = quick_network(n_nodes=30, seed=1)
        graph = network.ground_truth_graph()
        assert graph.number_of_nodes() == 30
        assert nx.is_connected(graph)

    def test_seeded_determinism(self):
        edges_a = set(quick_network(25, seed=9).ground_truth_graph().edges())
        edges_b = set(quick_network(25, seed=9).ground_truth_graph().edges())
        assert edges_a == edges_b

    def test_wiring_names_the_generator(self):
        """``fast`` draws its links in another order than ``legacy`` (and
        ``auto`` picks legacy below the threshold); both wire a connected
        overlay."""
        links = {}
        for wiring in ("legacy", "fast", "auto"):
            graph = generate_network(
                NetworkSpec(n_nodes=60, seed=2, wiring=wiring)
            ).ground_truth_graph()
            assert nx.is_connected(graph)
            links[wiring] = set(map(frozenset, graph.edges()))
        assert links["auto"] == links["legacy"] != links["fast"]
        with pytest.raises(ValueError, match="unknown wiring"):
            generate_network(NetworkSpec(n_nodes=8, wiring="sparse"))

    def test_different_seeds_differ(self):
        edges_a = set(quick_network(25, seed=1).ground_truth_graph().edges())
        edges_b = set(quick_network(25, seed=2).ground_truth_graph().edges())
        assert edges_a != edges_b

    def test_average_degree_tracks_outbound_dials(self):
        spec = NetworkSpec(n_nodes=50, seed=3, outbound_dials=6, max_peers=30)
        graph = generate_network(spec).ground_truth_graph()
        avg = 2 * graph.number_of_edges() / graph.number_of_nodes()
        assert 6 <= avg <= 13  # ~2x dials minus rejected attempts

    def test_max_peers_respected(self):
        spec = NetworkSpec(n_nodes=40, seed=4, outbound_dials=10, max_peers=12)
        network = generate_network(spec)
        for node_id in network.measurable_node_ids():
            assert network.node(node_id).degree <= 12

    def test_routing_tables_populated(self):
        network = quick_network(n_nodes=20, seed=5)
        for node_id in network.measurable_node_ids():
            table = network.node(node_id).routing_table
            assert table
            assert node_id not in table

    def test_policies_scaled_consistently(self):
        network = quick_network(n_nodes=10, seed=6, mempool_capacity=256)
        geth_nodes = [
            network.node(nid)
            for nid in network.measurable_node_ids()
            if network.node(nid).config.client_version.startswith("Geth")
        ]
        default_capacity = {
            n.config.policy.capacity for n in geth_nodes
        }
        assert 256 in default_capacity


class TestHeterogeneity:
    def test_fractions_realized(self):
        spec = NetworkSpec(
            n_nodes=200,
            seed=7,
            fraction_custom_capacity=0.2,
            fraction_custom_bump=0.2,
            fraction_non_relaying=0.2,
            fraction_future_forwarders=0.2,
            fraction_future_echoers=0.2,
            fraction_rpc_disabled=0.2,
            parity_fraction=0.2,
        )
        network = generate_network(spec)
        nodes = [network.node(nid) for nid in network.measurable_node_ids()]
        customs = sum(1 for n in nodes if n.config.policy.capacity > 256)
        bumps = sum(1 for n in nodes if n.config.policy.replace_bump == CUSTOM_BUMP)
        silents = sum(1 for n in nodes if not n.config.relays_transactions)
        forwarders = sum(1 for n in nodes if n.config.forwards_future)
        echoers = sum(1 for n in nodes if n.config.echoes_future_to_sender)
        no_rpc = sum(1 for n in nodes if not n.config.responds_to_rpc)
        parity = sum(
            1 for n in nodes if n.config.client_version.startswith("OpenEthereum")
        )
        for count in (customs, bumps, silents, forwarders, echoers, no_rpc, parity):
            assert 15 <= count <= 70  # ~20% of 200, loose binomial bounds

    def test_hubs_have_high_degree(self):
        spec = goerli_like(seed=8, n_hubs=3)
        network = generate_network(spec)
        hubs = [spec.node_id(i) for i in range(3)]
        assert all(network.node(h).config.max_peers is None for h in hubs)
        graph = network.ground_truth_graph()
        hub_degrees = [graph.degree(h) for h in hubs]
        others = [
            graph.degree(n) for n in graph.nodes() if n not in hubs
        ]
        assert min(hub_degrees) > 2 * (sum(others) / len(others))


class TestPresets:
    @pytest.mark.parametrize(
        "preset,expected_name",
        [(ropsten_like, "ropsten"), (rinkeby_like, "rinkeby"), (goerli_like, "goerli")],
    )
    def test_preset_shapes(self, preset, expected_name):
        spec = preset(seed=1)
        assert spec.name == expected_name
        assert spec.n_nodes >= 40
        assert spec.mempool_capacity >= 512

    def test_rinkeby_denser_than_ropsten(self):
        ropsten = generate_network(ropsten_like(seed=2)).ground_truth_graph()
        rinkeby = generate_network(rinkeby_like(seed=2)).ground_truth_graph()
        density_r = 2 * ropsten.number_of_edges() / (
            ropsten.number_of_nodes() * (ropsten.number_of_nodes() - 1)
        )
        density_k = 2 * rinkeby.number_of_edges() / (
            rinkeby.number_of_nodes() * (rinkeby.number_of_nodes() - 1)
        )
        assert density_k > density_r

    def test_preset_overrides(self):
        spec = ropsten_like(seed=3, n_nodes=30)
        assert spec.n_nodes == 30
        assert spec.name == "ropsten"


def _overlay(names, links) -> Network:
    network = Network(seed=0)
    for name in names:
        network.create_node(name)
    for a, b in links:
        network.connect(a, b, force=True)
    return network


def _networkx_bridge(network: Network, rng) -> None:
    """The bridge union-find replaced: networkx components in node order."""
    graph = network.ground_truth_graph()
    components = [sorted(c) for c in nx.connected_components(graph)]
    for previous, current in zip(components, components[1:]):
        network.connect(rng.choice(previous), rng.choice(current), force=True)


class TestBridge:
    @property_settings(40)
    @given(
        n_nodes=st.integers(2, 300),
        link_share=st.floats(0.0, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_union_find_adds_the_networkx_bridge_links(
        self, n_nodes, link_share, seed
    ):
        """Under ``NetworkSpec`` names, bridging in min-name order is the
        networkx order (creation order) link for link and draw for draw."""
        draw = random.Random(seed)
        names = [NetworkSpec(name="law").node_id(i) for i in range(n_nodes)]
        links = set()
        for _ in range(int(link_share * (n_nodes - 1))):
            a, b = draw.sample(names, 2)
            links.add(tuple(sorted((a, b))))
        ours, oracle = _overlay(names, links), _overlay(names, links)
        _bridge_components(ours, random.Random(seed))
        _networkx_bridge(oracle, random.Random(seed))
        assert ours.ground_truth_edges() == oracle.ground_truth_edges()
        assert nx.is_connected(ours.ground_truth_graph())

    def test_min_name_order_past_the_four_digit_padding(self):
        """``n-10000`` sorts before ``n-9998``: past 9 999 nodes, components
        are bridged by name, not by creation order."""
        network = _overlay(["n-9998", "n-9999", "n-10000"], [])
        _bridge_components(network, random.Random(0))
        assert network.ground_truth_edges() == {
            frozenset(("n-10000", "n-9998")),
            frozenset(("n-9998", "n-9999")),
        }
