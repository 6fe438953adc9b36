"""Security implications of a measured topology (Section 3 use cases).

The paper motivates topology measurement with concrete attack/defence
analyses that become possible once the active-link graph is known:

- **Use case 1 — targeted eclipse attacks**: low-degree nodes can be
  isolated by attacking just their few active neighbours;
- **Use case 2 — single points of failure**: supernodes, bridge (cut)
  nodes and topology-critical nodes whose removal partitions the network;
- **Use case 3 — deanonymization**: when nodes' neighbour sets are
  distinguishing, they fingerprint the node, enabling the
  client-behind-NAT identification of Biryukov et al.

This module turns a measured graph into those assessments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

import networkx as nx

from repro.errors import AnalysisError


@dataclass(frozen=True)
class EclipseTarget:
    """A node cheap to eclipse: all information flows through few links."""

    node: str
    degree: int
    neighbors: Tuple[str, ...]

    @property
    def attack_cost(self) -> int:
        """Number of connections an eclipse attacker must disable."""
        return self.degree


def eclipse_targets(graph: nx.Graph, max_degree: int = 3) -> List[EclipseTarget]:
    """Nodes vulnerable to targeted eclipse attacks (Use case 1).

    Returns nodes of degree <= ``max_degree``, cheapest targets first.
    """
    if graph.number_of_nodes() == 0:
        raise AnalysisError("empty graph")
    targets = [
        EclipseTarget(
            node=node,
            degree=graph.degree(node),
            neighbors=tuple(sorted(graph.neighbors(node))),
        )
        for node in graph.nodes()
        if graph.degree(node) <= max_degree
    ]
    return sorted(targets, key=lambda t: (t.degree, t.node))


@dataclass
class CriticalNodeReport:
    """Single-point-of-failure analysis (Use case 2)."""

    cut_nodes: List[str] = field(default_factory=list)
    supernodes: List[str] = field(default_factory=list)
    partition_impact: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        worst = max(self.partition_impact.values(), default=0)
        return (
            f"{len(self.cut_nodes)} cut nodes, {len(self.supernodes)} "
            f"supernodes, worst single-node partition strands {worst} nodes"
        )


def critical_nodes(
    graph: nx.Graph, supernode_quantile: float = 0.95
) -> CriticalNodeReport:
    """Find topology-critical nodes.

    - ``cut_nodes``: articulation points whose removal disconnects the
      graph (censorship/DoS leverage, per the DETER-style attacks the
      paper cites);
    - ``supernodes``: degree above the given quantile;
    - ``partition_impact``: per cut node, how many nodes end up stranded
      outside the largest surviving component.
    """
    if graph.number_of_nodes() == 0:
        raise AnalysisError("empty graph")
    cut_nodes = sorted(nx.articulation_points(graph))
    degrees = sorted(degree for _, degree in graph.degree())
    if degrees:
        index = min(len(degrees) - 1, int(supernode_quantile * len(degrees)))
        threshold = max(degrees[index], 1)
    else:
        threshold = 1
    supernodes = sorted(
        node for node, degree in graph.degree() if degree >= threshold
    )
    impact: Dict[str, int] = {}
    for node in cut_nodes:
        remaining = graph.copy()
        remaining.remove_node(node)
        if remaining.number_of_nodes() == 0:
            impact[node] = 0
            continue
        largest = max(
            (len(c) for c in nx.connected_components(remaining)), default=0
        )
        impact[node] = remaining.number_of_nodes() - largest
    return CriticalNodeReport(
        cut_nodes=cut_nodes, supernodes=supernodes, partition_impact=impact
    )


@dataclass(frozen=True)
class FingerprintReport:
    """Neighbour-set distinguishability (Use case 3)."""

    n_nodes: int
    unique_fingerprints: int
    collision_groups: Tuple[Tuple[str, ...], ...]

    @property
    def uniqueness(self) -> float:
        """Fraction of nodes whose neighbour set is globally unique."""
        if self.n_nodes == 0:
            return 0.0
        colliding = sum(len(group) for group in self.collision_groups)
        return (self.n_nodes - colliding) / self.n_nodes

    def summary(self) -> str:
        return (
            f"{self.unique_fingerprints}/{self.n_nodes} distinct neighbour "
            f"sets; {self.uniqueness:.0%} of nodes uniquely fingerprintable"
        )


def neighbor_fingerprints(graph: nx.Graph) -> FingerprintReport:
    """How identifying are nodes' neighbour sets?

    A node whose neighbour set is unique can be re-identified by a passive
    observer of its connections — the precondition of the deanonymization
    attack the paper describes (identify a client node by its server-node
    neighbours, then link transaction origins to it).
    """
    if graph.number_of_nodes() == 0:
        raise AnalysisError("empty graph")
    by_fingerprint: Dict[FrozenSet[str], List[str]] = {}
    for node in graph.nodes():
        fingerprint = frozenset(graph.neighbors(node))
        by_fingerprint.setdefault(fingerprint, []).append(node)
    collisions = tuple(
        tuple(sorted(group))
        for group in by_fingerprint.values()
        if len(group) > 1
    )
    return FingerprintReport(
        n_nodes=graph.number_of_nodes(),
        unique_fingerprints=len(by_fingerprint),
        collision_groups=collisions,
    )


def partition_resilience_score(graph: nx.Graph, removals: int = 3) -> float:
    """Fraction of nodes still in the largest component after greedily
    removing the ``removals`` highest-degree nodes (a simple partition-
    attack stress test; higher is more resilient)."""
    if graph.number_of_nodes() <= removals:
        raise AnalysisError("graph too small for the requested removals")
    stressed = graph.copy()
    for _ in range(removals):
        node, _ = max(stressed.degree(), key=lambda item: item[1])
        stressed.remove_node(node)
    if stressed.number_of_nodes() == 0:
        return 0.0
    largest = max((len(c) for c in nx.connected_components(stressed)), default=0)
    return largest / stressed.number_of_nodes()
