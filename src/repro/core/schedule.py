"""The parallel measurement schedule (Section 5.3.2).

Nodes are partitioned into groups of ``K``. Round one runs one iteration
per group, measuring the edges from that group to every *later* node (each
unordered pair is scheduled exactly once). Round two measures intra-group
edges by recursive halving: every group is split in half, the cross-half
pairs are measured in one iteration across all groups simultaneously, and
the halves recurse — ``ceil(log2 K)`` further iterations.

Total: ``ceil(N/K) + ceil(log2 K)`` iterations, matching the paper's
``N/K + log K`` complexity (127 iterations for Ropsten at N=500, K=4).

This module is also the one place the mempool slot budget of the same
section bounds a round: :func:`build_schedule` takes the budget (and, for a
pair list, the wanted pairs) and emits ``measurePar`` rounds that fit it —
an iteration with more edges than slots becomes consecutive rounds of the
same sources against a window of its sinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import MeasurementError


@dataclass(frozen=True)
class ScheduleIteration:
    """One ``measurePar`` call: disjoint source/sink sets and the edges
    (source, sink) to probe."""

    sources: Tuple[str, ...]
    sinks: Tuple[str, ...]
    edges: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        overlap = set(self.sources) & set(self.sinks)
        if overlap:
            raise MeasurementError(
                f"sources and sinks overlap: {sorted(overlap)[:3]}..."
            )

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _cross_edges(
    sources: Sequence[str], sinks: Sequence[str]
) -> Tuple[Tuple[str, str], ...]:
    return tuple((a, b) for a in sources for b in sinks)


def _cut(iteration: ScheduleIteration, budget: int) -> List[ScheduleIteration]:
    """``iteration`` as rounds of at most ``budget`` edges: untouched when it
    fits, else consecutive slices of its edges taken sink-major, so a round
    is all of the iteration's sources against the sinks in flight."""
    if iteration.edge_count <= budget:
        return [iteration]
    position = {sink: index for index, sink in enumerate(iteration.sinks)}
    edges = sorted(iteration.edges, key=lambda pair: position[pair[1]])
    rounds: List[ScheduleIteration] = []
    for start in range(0, len(edges), budget):
        chunk = tuple(edges[start : start + budget])
        used = {node_id for pair in chunk for node_id in pair}
        sources = tuple(s for s in iteration.sources if s in used)
        sinks = tuple(s for s in iteration.sinks if s in used)
        rounds.append(replace(iteration, sources=sources, sinks=sinks, edges=chunk))
    return rounds


def build_schedule(
    node_ids: Sequence[str],
    group_size: int,
    budget: Optional[int] = None,
    wanted: Optional[Iterable[Tuple[str, str]]] = None,
) -> List[ScheduleIteration]:
    """Build the two-round schedule covering every unordered pair once, as
    the ``measurePar`` rounds a campaign runs.

    ``wanted`` (pairs in either orientation) restricts every iteration's
    edges to the listed pairs; an iteration left empty keeps its place in
    the schedule. ``budget`` is the mempool slot budget: an iteration with
    more edges is replaced by consecutive rounds of at most ``budget``
    edges each (:func:`_cut`), one that fits is emitted as is.

    Raises :class:`MeasurementError` on duplicate node ids or a non-positive
    group size or budget.
    """
    ids = list(node_ids)
    if len(set(ids)) != len(ids):
        raise MeasurementError("duplicate node ids in schedule input")
    if group_size < 1:
        raise MeasurementError("group size K must be >= 1")
    if budget is not None and budget < 1:
        raise MeasurementError("slot budget must be >= 1")
    if len(ids) < 2:
        return []

    groups = [ids[i : i + group_size] for i in range(0, len(ids), group_size)]
    iterations: List[ScheduleIteration] = []

    # Round 1: group i versus everything after it.
    for start, group in zip(range(group_size, len(ids), group_size), groups):
        rest = ids[start:]
        iterations.append(
            ScheduleIteration(tuple(group), tuple(rest), _cross_edges(group, rest))
        )

    # Round 2: recursive halving inside every group, all groups at once.
    active = [g for g in groups if len(g) >= 2]
    while active:
        sources: List[str] = []
        sinks: List[str] = []
        edges: List[Tuple[str, str]] = []
        next_active: List[List[str]] = []
        for group in active:
            half = len(group) // 2
            first, second = group[:half], group[half:]
            sources.extend(first)
            sinks.extend(second)
            edges.extend(_cross_edges(first, second))
            next_active.extend(part for part in (first, second) if len(part) >= 2)
        iterations.append(
            ScheduleIteration(tuple(sources), tuple(sinks), tuple(edges))
        )
        active = next_active

    if wanted is not None:
        keep = {frozenset(pair) for pair in wanted}
        iterations = [
            replace(it, edges=tuple(e for e in it.edges if frozenset(e) in keep))
            for it in iterations
        ]
    if budget is not None:
        iterations = [part for it in iterations for part in _cut(it, budget)]
    return iterations


def expected_iteration_count(n_nodes: int, group_size: int) -> int:
    """The paper's ``N/K + log K`` estimate (both terms rounded up)."""
    if n_nodes < 2:
        return 0
    first = math.ceil(n_nodes / group_size)
    second = math.ceil(math.log2(group_size)) if group_size > 1 else 0
    return first + second


def verify_schedule_coverage(
    node_ids: Sequence[str],
    iterations: Sequence[ScheduleIteration],
    wanted: Optional[Iterable[Tuple[str, str]]] = None,
    budget: Optional[int] = None,
) -> None:
    """Assert the schedule's law (test helper): every wanted unordered pair
    — every pair among ``node_ids`` unless ``wanted`` lists them — is
    scheduled exactly once and no other, from one of its round's sources to
    one of its sinks, and no round has more than ``budget`` edges."""
    seen: Set[frozenset] = set()
    for iteration in iterations:
        if budget is not None and iteration.edge_count > budget:
            raise MeasurementError(f"round of {iteration.edge_count} > {budget} edges")
        sources, sinks = set(iteration.sources), set(iteration.sinks)
        for a, b in iteration.edges:
            if a not in sources or b not in sinks:
                raise MeasurementError(f"edge {(a, b)} is not source -> sink")
            key = frozenset((a, b))
            if key in seen:
                raise MeasurementError(f"pair {sorted(key)} scheduled twice")
            seen.add(key)
    if wanted is None:
        ids = list(node_ids)
        wanted = ((a, b) for i, a in enumerate(ids) for b in ids[i + 1 :])
    expected = {frozenset(pair) for pair in wanted}
    if seen != expected:
        missing, extra = expected - seen, seen - expected
        raise MeasurementError(
            f"{len(missing)} pairs never scheduled, {len(extra)} unexpected pairs "
            f"scheduled, e.g. {sorted(next(iter(missing or extra)))}"
        )
