"""Tests for graph metrics, baselines, communities, degrees and rendering."""

import networkx as nx
import pytest

from repro.analysis.communities import community_table, detect_communities
from repro.analysis.degrees import degree_distribution
from repro.analysis.metrics import compute_metrics, count_maximal_cliques
from repro.analysis.randomgraphs import (
    comparison_table,
    metrics_for_baselines,
    modularity_lower_than_baselines,
)
from repro.analysis.report import render_comparison, render_table
from repro.errors import AnalysisError


@pytest.fixture
def sample_graph():
    """A 30-node connected graph with community structure."""
    graph = nx.random_partition_graph([10, 10, 10], 0.8, 0.05, seed=3)
    if not nx.is_connected(graph):
        components = list(nx.connected_components(graph))
        for a, b in zip(components, components[1:]):
            graph.add_edge(next(iter(a)), next(iter(b)))
    return graph


class TestMetrics:
    def test_known_values_on_cycle(self):
        graph = nx.cycle_graph(6)
        metrics = compute_metrics(graph, "cycle")
        assert metrics.diameter == 3
        assert metrics.radius == 3
        assert metrics.periphery_size == 6
        assert metrics.center_size == 6
        assert metrics.clustering_coefficient == 0.0
        assert metrics.transitivity == 0.0

    def test_known_values_on_star(self):
        graph = nx.star_graph(5)  # hub + 5 leaves
        metrics = compute_metrics(graph, "star")
        assert metrics.diameter == 2
        assert metrics.radius == 1
        assert metrics.center_size == 1
        assert metrics.periphery_size == 5

    def test_complete_graph_cliques(self):
        graph = nx.complete_graph(5)
        metrics = compute_metrics(graph, "k5")
        assert metrics.clique_count == 1  # one maximal clique
        assert metrics.clustering_coefficient == 1.0

    def test_disconnected_graph_uses_largest_component(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (1, 2), (2, 0)])
        graph.add_node("isolated")
        metrics = compute_metrics(graph, "mixed")
        assert metrics.diameter == 1
        assert metrics.n_nodes == 4

    def test_empty_graph_rejected(self):
        with pytest.raises(AnalysisError):
            compute_metrics(nx.Graph())

    def test_as_row_has_all_paper_statistics(self, sample_graph):
        row = compute_metrics(sample_graph).as_row()
        for key in (
            "Diameter",
            "Periphery size",
            "Radius",
            "Center size",
            "Eccentricity",
            "Clustering coefficient",
            "Transitivity",
            "Degree assortativity",
            "Clique number",
            "Modularity",
        ):
            assert key in row

    def test_clique_cap(self):
        graph = nx.complete_bipartite_graph(6, 6)
        assert count_maximal_cliques(graph, cap=5) == 5


class TestBaselines:
    def test_baseline_trio_with_matched_sizes(self, sample_graph):
        baselines = metrics_for_baselines(sample_graph, trials=2, seed=1)
        assert set(baselines) == {"ER", "CM", "BA"}
        for averaged in baselines.values():
            assert len(averaged.samples) == 2
            assert averaged.samples[0].n_nodes == sample_graph.number_of_nodes()

    def test_comparison_table_structure(self, sample_graph):
        table = comparison_table(sample_graph, name="Test", trials=2, seed=1)
        assert list(table) == ["Test", "ER", "CM", "BA"]
        assert "Modularity" in table["ER"]

    def test_modularity_comparison_helper(self):
        table = {
            "Measured": {"Modularity": 0.05},
            "ER": {"Modularity": 0.16},
            "CM": {"Modularity": 0.15},
        }
        assert modularity_lower_than_baselines(table)
        table["Measured"]["Modularity"] = 0.2
        assert not modularity_lower_than_baselines(table)


class TestCommunities:
    def test_partition_covers_graph(self, sample_graph):
        rows = detect_communities(sample_graph, seed=1)
        assert sum(row.n_nodes for row in rows) == sample_graph.number_of_nodes()

    def test_planted_partition_recovered(self, sample_graph):
        rows = detect_communities(sample_graph, seed=1)
        assert len(rows) == 3
        assert all(8 <= row.n_nodes <= 12 for row in rows)

    def test_rows_sorted_by_size(self, sample_graph):
        rows = detect_communities(sample_graph, seed=1)
        sizes = [row.n_nodes for row in rows]
        assert sizes == sorted(sizes, reverse=True)
        assert [row.index for row in rows] == list(range(1, len(rows) + 1))

    def test_density_definition(self):
        graph = nx.complete_graph(4)  # one dense community
        rows = detect_communities(graph, seed=1)
        total_intra = sum(row.intra_edges for row in rows)
        assert total_intra <= 6
        if len(rows) == 1:
            assert rows[0].density == 1.0

    def test_inter_edges_count_directed_stubs(self):
        graph = nx.Graph()
        # Two triangles joined by one bridge.
        graph.add_edges_from([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
        rows = detect_communities(graph, seed=1)
        assert sum(row.inter_edges for row in rows) == 2  # bridge seen twice

    def test_table_rendering(self, sample_graph):
        rows = detect_communities(sample_graph, seed=1)
        text = community_table(rows)
        assert "#nodes" in text
        assert len(text.splitlines()) == len(rows) + 2

    def test_empty_graph_rejected(self):
        with pytest.raises(AnalysisError):
            detect_communities(nx.Graph())


class TestDegrees:
    def test_histogram_and_stats(self):
        graph = nx.star_graph(4)
        dist = degree_distribution(graph)
        assert dist.histogram == {1: 4, 4: 1}
        assert dist.max_degree == 4
        assert dist.average == pytest.approx(8 / 5)

    def test_range_and_buckets(self):
        graph = nx.complete_graph(6)  # all degree 5
        dist = degree_distribution(graph)
        assert dist.nodes_in_range(5, 5) == 6
        assert dist.buckets([0, 5, 10]) == [("0-5", 0), ("5-10", 6)]

    def test_ascii_plot(self):
        dist = degree_distribution(nx.path_graph(5))
        plot = dist.ascii_plot()
        assert "deg" in plot and "#" in plot

    def test_empty_graph_rejected(self):
        with pytest.raises(AnalysisError):
            degree_distribution(nx.Graph())


class TestReport:
    def test_render_table_alignment(self):
        rows = [{"a": 1, "b": "xx"}, {"a": 22, "b": "y"}]
        text = render_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_render_empty(self):
        assert "(empty)" in render_table([])

    def test_render_comparison_rows_are_statistics(self):
        table = {
            "Measured": {"Diameter": 5, "Modularity": 0.06},
            "ER": {"Diameter": 3.0, "Modularity": 0.16},
        }
        text = render_comparison(table, title="Table 4")
        assert "Diameter" in text
        assert "Measured" in text
        assert "ER" in text
