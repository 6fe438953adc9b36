"""Tests for random-graph baselines."""


import networkx as nx
import pytest

from repro.errors import AnalysisError
from repro.netgen.topology import (
    average_degree,
    ba_graph,
    configuration_model_graph,
    degree_sequence,
    er_graph,
)


class TestER:
    def test_exact_node_and_edge_counts(self):
        graph = er_graph(50, 120, seed=1)
        assert graph.number_of_nodes() == 50
        assert graph.number_of_edges() == 120

    def test_seeded_determinism(self):
        assert set(er_graph(20, 30, seed=5).edges()) == set(
            er_graph(20, 30, seed=5).edges()
        )

    def test_too_many_edges_rejected(self):
        with pytest.raises(AnalysisError):
            er_graph(5, 11)


class TestConfigurationModel:
    def test_preserves_degree_sum_approximately(self):
        degrees = [5, 4, 4, 3, 3, 3, 2, 2, 1, 1]
        graph = configuration_model_graph(degrees, seed=2)
        # Self-loops/multi-edges are stripped, so <= the requested total.
        assert graph.number_of_nodes() == len(degrees)
        assert sum(d for _, d in graph.degree()) <= sum(degrees)

    def test_odd_degree_sum_patched(self):
        graph = configuration_model_graph([3, 2, 2], seed=3)
        assert graph.number_of_nodes() == 3

    def test_is_simple_graph(self):
        graph = configuration_model_graph([4] * 10, seed=4)
        assert not any(u == v for u, v in graph.edges())

    def test_empty_sequence_rejected(self):
        with pytest.raises(AnalysisError):
            configuration_model_graph([])


class TestBA:
    def test_average_degree_matched_roughly(self):
        graph = ba_graph(200, average_degree=10, seed=5)
        assert 8 <= average_degree(graph) <= 11

    def test_small_network_rejected(self):
        with pytest.raises(AnalysisError):
            ba_graph(1, 4)


class TestHelpers:
    def test_degree_sequence_sorted_desc(self):
        graph = er_graph(20, 40, seed=6)
        sequence = degree_sequence(graph)
        assert sequence == sorted(sequence, reverse=True)

    def test_average_degree_formula(self):
        graph = nx.path_graph(4)  # 3 edges, 4 nodes
        assert average_degree(graph) == 1.5
