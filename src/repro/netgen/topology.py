"""Random-graph baselines used by the paper's comparative analysis.

Tables 4, 9 and 10 compare each measured testnet against three models,
matched to the measurement:

- **ER** (Erdos-Renyi): same node and edge counts;
- **CM** (configuration model): same degree sequence;
- **BA** (Barabasi-Albert): same node count and average degree.

All generators return *simple* graphs (self-loops and parallel edges
stripped, as is standard when the CM multigraph is used for statistics).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


def er_graph(n_nodes: int, n_edges: int, seed: int = 0) -> nx.Graph:
    """Erdos-Renyi G(n, m): ``n_edges`` uniformly random edges."""
    if n_nodes < 1:
        raise AnalysisError("ER graph needs at least one node")
    max_edges = n_nodes * (n_nodes - 1) // 2
    if n_edges > max_edges:
        raise AnalysisError(f"{n_edges} edges exceed the {max_edges} possible")
    import networkx as nx

    return nx.gnm_random_graph(n_nodes, n_edges, seed=seed)


def configuration_model_graph(
    degree_sequence: Sequence[int], seed: int = 0
) -> nx.Graph:
    """Configuration model with the measured degree sequence.

    An odd degree sum is patched by incrementing one degree (the standard
    fix; the paper's CM columns do the same implicitly).
    """
    degrees: List[int] = list(degree_sequence)
    if not degrees:
        raise AnalysisError("empty degree sequence")
    if sum(degrees) % 2 == 1:
        degrees[0] += 1
    import networkx as nx

    # Parallel edges collapse in the conversion; self-loops are dropped here.
    collapsed = nx.Graph(nx.configuration_model(degrees, seed=seed))
    simple = nx.Graph()
    simple.add_nodes_from(collapsed.nodes())
    simple.add_edges_from((u, v) for u, v in collapsed.edges() if u != v)
    return simple


def ba_graph(n_nodes: int, average_degree: float, seed: int = 0) -> nx.Graph:
    """Barabasi-Albert with attachment parameter ``m ~ average_degree / 2``.

    BA produces average degree ``~2m``; the paper parameterizes by the
    measured network's average degree (l' = 26 for Ropsten).
    """
    if n_nodes < 2:
        raise AnalysisError("BA graph needs at least two nodes")
    m = max(1, min(n_nodes - 1, round(average_degree / 2)))
    import networkx as nx

    return nx.barabasi_albert_graph(n_nodes, m, seed=seed)


def average_degree(graph: nx.Graph) -> float:
    """Mean node degree of a graph."""
    n = graph.number_of_nodes()
    if n == 0:
        raise AnalysisError("empty graph")
    return 2.0 * graph.number_of_edges() / n


def degree_sequence(graph: nx.Graph) -> List[int]:
    """Sorted (descending) degree sequence."""
    return sorted((degree for _, degree in graph.degree()), reverse=True)
