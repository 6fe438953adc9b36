"""Tests for the two-round parallel schedule (Section 5.3.2)."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import (
    ScheduleIteration,
    build_schedule,
    expected_iteration_count,
    verify_schedule_coverage,
)
from repro.errors import MeasurementError


def ids(n):
    return [f"n{i}" for i in range(n)]


class TestCoverage:
    @pytest.mark.parametrize("n,k", [(8, 3), (10, 2), (24, 6), (7, 7), (5, 1)])
    def test_every_pair_exactly_once(self, n, k):
        schedule = build_schedule(ids(n), k)
        verify_schedule_coverage(ids(n), schedule)

    def test_paper_example_n8_k3(self):
        """Figure 3b: N=8, K=3 gives two round-1 and two round-2 iterations."""
        schedule = build_schedule(ids(8), 3)
        round1, round2 = schedule[:2], schedule[2:]
        assert len(round2) == 2
        # Round 1 is one whole group against every later node; round 2
        # halves inside the groups, so it pairs nothing across them.
        assert [it.sources for it in round1] == [("n0", "n1", "n2"), ("n3", "n4", "n5")]
        assert round2[0].sources == ("n0", "n3", "n6")
        assert round2[0].sinks == ("n1", "n2", "n4", "n5", "n7")
        # First iteration: group {n0,n1,n2} vs the other five -> 15 edges.
        assert round1[0].edge_count == 15
        assert round1[1].edge_count == 6

    def test_sources_and_sinks_disjoint_in_every_iteration(self):
        for iteration in build_schedule(ids(20), 4):
            assert not set(iteration.sources) & set(iteration.sinks)

    def test_trivial_networks(self):
        assert build_schedule(ids(0), 3) == []
        assert build_schedule(ids(1), 3) == []
        two = build_schedule(ids(2), 3)
        assert len(two) == 1
        assert two[0].edges == (("n0", "n1"),)


class TestComplexity:
    @pytest.mark.parametrize("n,k", [(100, 10), (60, 3), (500, 4)])
    def test_iteration_count_near_paper_formula(self, n, k):
        schedule = build_schedule(ids(n), k)
        expected = expected_iteration_count(n, k)
        assert abs(len(schedule) - expected) <= 1 + math.ceil(math.log2(k))

    def test_paper_ropsten_count(self):
        """N=500, K=4 -> 125 + 2 = 127 iterations (Section 5.3.2)."""
        assert expected_iteration_count(500, 4) == 127

    def test_larger_k_fewer_iterations(self):
        n = 120
        counts = [len(build_schedule(ids(n), k)) for k in (2, 5, 10, 30)]
        assert counts == sorted(counts, reverse=True)


class TestValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(MeasurementError):
            build_schedule(["a", "a", "b"], 2)

    def test_bad_group_size_rejected(self):
        with pytest.raises(MeasurementError):
            build_schedule(ids(5), 0)

    def test_overlapping_iteration_rejected(self):
        with pytest.raises(MeasurementError):
            ScheduleIteration(
                sources=("a", "b"),
                sinks=("b", "c"),
                edges=(("a", "b"),),
            )

    def test_verify_detects_missing_pair(self):
        schedule = build_schedule(ids(6), 2)[:-1]  # drop the last iteration
        with pytest.raises(MeasurementError):
            verify_schedule_coverage(ids(6), schedule)


class TestBudget:
    def test_oversized_iteration_becomes_rounds_of_all_sources(self):
        """N=10, K=3, 8 slots: the first iteration (3 x 7 = 21 edges) runs as
        three rounds, each all three sources against a window of the sinks."""
        first = build_schedule(ids(10), 3)[0]
        rounds = build_schedule(ids(10), 3, budget=8)[:3]
        assert [r.edge_count for r in rounds] == [8, 8, 5]
        assert all(r.sources == first.sources for r in rounds)
        assert rounds[0].sinks == ("n3", "n4", "n5")
        assert rounds[0].edges[:4] == (
            ("n0", "n3"), ("n1", "n3"), ("n2", "n3"), ("n0", "n4"),
        )
        assert rounds[1].sinks == ("n5", "n6", "n7", "n8")

    def test_single_sink_with_more_sources_than_budget_is_split(self):
        schedule = build_schedule(ids(6), 5, budget=2)
        assert [r.sources for r in schedule[:3]] == [
            ("n0", "n1"), ("n2", "n3"), ("n4",),
        ]
        assert all(r.sinks == ("n5",) for r in schedule[:3])
        verify_schedule_coverage(ids(6), schedule, budget=2)

    def test_schedule_within_budget_is_the_uncut_schedule(self):
        assert build_schedule(ids(24), 2, budget=50) == build_schedule(ids(24), 2)

    def test_wanted_keeps_empty_iterations_in_place(self):
        schedule = build_schedule(ids(6), 2, wanted=[("n5", "n0"), ("n2", "n3")])
        assert len(schedule) == len(build_schedule(ids(6), 2))
        assert [it.edges for it in schedule if it.edges] == [
            (("n0", "n5"),), (("n2", "n3"),),
        ]

    def test_non_positive_budget_rejected(self):
        with pytest.raises(MeasurementError):
            build_schedule(ids(5), 2, budget=0)

    def test_verify_detects_round_over_budget(self):
        with pytest.raises(MeasurementError):
            verify_schedule_coverage(ids(8), build_schedule(ids(8), 3), budget=14)

    def test_verify_detects_unwanted_pair(self):
        with pytest.raises(MeasurementError):
            verify_schedule_coverage(
                ids(4), build_schedule(ids(4), 2), wanted=[("n0", "n1")]
            )


@given(
    n=st.integers(min_value=2, max_value=40),
    k=st.integers(min_value=1, max_value=40),
    budget=st.integers(min_value=1, max_value=120),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_schedule_covers_all_pairs_property(n, k, budget, data):
    """Property: for any (N, K, budget, wanted subset), every wanted
    unordered pair is scheduled exactly once and no other, no round exceeds
    the budget, every round keeps sources/sinks disjoint, the rounds of one
    iteration concatenate to that iteration's edges sink-major, and with
    nothing over budget the result is the uncut schedule."""
    nodes = ids(n)
    every = list(combinations(nodes, 2))
    wanted = data.draw(st.one_of(st.none(), st.sets(st.sampled_from(every))))
    if wanted is not None:  # a pair list names its pairs in either orientation
        wanted = [p[::-1] if i % 2 else p for i, p in enumerate(sorted(wanted))]

    uncut = build_schedule(nodes, k, wanted=wanted)
    schedule = build_schedule(nodes, k, budget, wanted)
    verify_schedule_coverage(nodes, schedule, wanted=wanted, budget=budget)
    verify_schedule_coverage(nodes, uncut, wanted=wanted)
    if wanted is None:
        assert uncut == build_schedule(nodes, k)
    if all(iteration.edge_count <= budget for iteration in uncut):
        assert schedule == uncut
    for iteration in schedule:
        assert not set(iteration.sources) & set(iteration.sinks)

    rounds = iter(schedule)
    for iteration in uncut:
        if iteration.edge_count <= budget:
            assert next(rounds) == iteration  # emitted untouched
            continue
        edges = set(iteration.edges)
        sink_major = [
            (a, b)
            for b in iteration.sinks
            for a in iteration.sources
            if (a, b) in edges
        ]
        chunks = [next(rounds) for _ in range(0, len(sink_major), budget)]
        assert [e for chunk in chunks for e in chunk.edges] == sink_major
        for chunk in chunks:
            assert set(chunk.sources) == {a for a, _ in chunk.edges}
            assert set(chunk.sinks) == {b for _, b in chunk.edges}
    assert next(rounds, None) is None
