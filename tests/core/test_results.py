"""Tests for result containers and precision/recall scoring."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import (
    NetworkMeasurement,
    ValidationScore,
    edge,
    score_edges,
)


class TestScoring:
    def test_perfect_measurement(self):
        truth = {edge("a", "b"), edge("b", "c")}
        score = score_edges(truth, truth)
        assert score.precision == 1.0
        assert score.recall == 1.0
        assert score.f1 == 1.0

    def test_false_positive_hurts_precision_only(self):
        truth = {edge("a", "b")}
        measured = {edge("a", "b"), edge("a", "c")}
        score = score_edges(measured, truth)
        assert score.precision == 0.5
        assert score.recall == 1.0

    def test_false_negative_hurts_recall_only(self):
        truth = {edge("a", "b"), edge("b", "c")}
        measured = {edge("a", "b")}
        score = score_edges(measured, truth)
        assert score.precision == 1.0
        assert score.recall == 0.5

    def test_empty_measurement_has_perfect_precision(self):
        score = score_edges(set(), {edge("a", "b")})
        assert score.precision == 1.0
        assert score.recall == 0.0

    def test_edge_is_undirected(self):
        assert edge("a", "b") == edge("b", "a")
        score = score_edges({edge("b", "a")}, {edge("a", "b")})
        assert score.true_positives == 1

    def test_f1_zero_when_nothing_matches(self):
        score = ValidationScore(0, 5, 5)
        assert score.f1 == 0.0

    @given(
        measured=st.sets(
            st.frozensets(st.sampled_from("abcdef"), min_size=2, max_size=2),
            max_size=10,
        ),
        truth=st.sets(
            st.frozensets(st.sampled_from("abcdef"), min_size=2, max_size=2),
            max_size=10,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_counts_partition_property(self, measured, truth):
        score = score_edges(measured, truth)
        assert score.true_positives + score.false_positives == len(measured)
        assert score.true_positives + score.false_negatives == len(truth)
        assert 0.0 <= score.precision <= 1.0
        assert 0.0 <= score.recall <= 1.0


class TestNetworkMeasurement:
    def test_graph_includes_isolated_nodes(self):
        m = NetworkMeasurement(node_ids=["a", "b", "c"])
        m.add_edges({edge("a", "b")})
        graph = m.graph
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 1

    def test_validate_against_caches_score(self):
        m = NetworkMeasurement(node_ids=["a", "b"])
        m.add_edges({edge("a", "b")})
        score = m.validate_against({edge("a", "b")})
        assert m.score is score
        assert score.recall == 1.0

    def test_duration(self):
        m = NetworkMeasurement(node_ids=[], sim_time_start=5.0, sim_time_end=65.0)
        assert m.duration == 60.0

    def test_summary_mentions_validation(self):
        m = NetworkMeasurement(node_ids=["a", "b"])
        m.add_edges({edge("a", "b")})
        m.validate_against({edge("a", "b")})
        assert "precision=1.000" in m.summary()
        assert "setup failures" not in m.summary()
        m.setup_failures = 2
        assert "setup failures : 2" in m.summary()


class TestOffendingEdgeLists:
    def test_score_edges_fills_sorted_edge_lists(self):
        truth = {edge("a", "b"), edge("b", "c")}
        measured = {edge("a", "b"), edge("c", "d"), edge("a", "d")}
        score = score_edges(measured, truth)
        assert score.false_positive_edges == (("a", "d"), ("c", "d"))
        assert score.false_negative_edges == (("b", "c"),)
        assert score.false_positives == 2
        assert score.false_negatives == 1

    def test_str_reports_counts_only(self):
        truth = {edge("a", "b")}
        measured = {edge("a", "c")}
        score = score_edges(measured, truth)
        assert str(score) == (
            "precision=0.000 recall=0.000 (tp=0, fp=1, fn=1)"
        )

    def test_edge_lists_default_empty(self):
        score = ValidationScore(1, 2, 3)
        assert score.false_positive_edges == ()
        assert score.false_negative_edges == ()
