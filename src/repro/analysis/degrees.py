"""Degree-distribution summaries (Figures 6, 8, 9 and the Goerli
large-degree table of Appendix D)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import networkx as nx

from repro.errors import AnalysisError


@dataclass
class DegreeDistribution:
    """Histogram plus the summary statistics the paper quotes."""

    histogram: Dict[int, int] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return sum(self.histogram.values())

    @property
    def max_degree(self) -> int:
        return max(self.histogram) if self.histogram else 0

    @property
    def average(self) -> float:
        if not self.histogram:
            return 0.0
        total = sum(degree * count for degree, count in self.histogram.items())
        return total / self.n_nodes

    def nodes_in_range(self, low: int, high: int) -> int:
        """Count of nodes with degree in ``[low, high]`` (the Goerli
        large-degree table)."""
        return sum(c for d, c in self.histogram.items() if low <= d <= high)

    def buckets(self, edges: List[int]) -> List[Tuple[str, int]]:
        """Bucketed counts, e.g. ``edges=[100, 150, 200]`` produces the
        Appendix D degree-range table."""
        rows: List[Tuple[str, int]] = []
        for low, high in zip(edges, edges[1:]):
            rows.append((f"{low}-{high}", self.nodes_in_range(low, high - 1)))
        return rows

    def ascii_plot(self, width: int = 50, max_rows: int = 40) -> str:
        """Terminal-friendly rendering of the histogram."""
        if not self.histogram:
            return "(empty)"
        peak = max(self.histogram.values())
        lines = []
        for degree in sorted(self.histogram)[:max_rows]:
            count = self.histogram[degree]
            bar = "#" * max(1, round(width * count / peak))
            lines.append(f"deg {degree:>4} | {bar} {count}")
        return "\n".join(lines)


def degree_distribution(graph: nx.Graph) -> DegreeDistribution:
    """Histogram of node degrees."""
    if graph.number_of_nodes() == 0:
        raise AnalysisError("cannot summarize degrees of an empty graph")
    histogram: Dict[int, int] = {}
    for _, degree in graph.degree():
        histogram[degree] = histogram.get(degree, 0) + 1
    return DegreeDistribution(histogram=dict(sorted(histogram.items())))
