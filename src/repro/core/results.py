"""Result containers and precision/recall scoring.

The paper validates TopoShot against ground truth available on locally
controlled nodes (Section 6.1, Appendix B); in the simulator the ground
truth is the network's true link set, so every measurement can be scored.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.core.parallel import ParallelProbeReport

Edge = FrozenSet[str]


def edge(a: str, b: str) -> Edge:
    """Canonical undirected edge key."""
    return frozenset((a, b))


def _sorted_pairs(edges: Iterable[Edge]) -> Tuple[Tuple[str, str], ...]:
    """Edges as sorted (a, b) tuples, deterministically ordered."""
    return tuple(sorted(tuple(sorted(e)) for e in edges))


# Per-edge confidence labels assigned by the hardened pipeline
# (see docs/adversarial.md). Plain strings so they serialize as-is.
CONFIDENCE_HIGH = "high"
CONFIDENCE_CROSS_VALIDATED = "cross_validated"
CONFIDENCE_SUSPECT = "suspect"
CONFIDENCE_QUARANTINED = "quarantined"


@dataclass(frozen=True)
class EdgeEvidence:
    """The verdict on one probed pair, detected or not: which tx was
    sent, whether it came back, from whom, when, how.

    The paper's positives rest on the supernode observing ``txA`` back
    from the probed target; this record pins that observation down so an
    adversarial false positive — or a miss — can be diagnosed after the
    fact. ``rpc_confirmed`` is the Section 6.1 cross-check (``txA``
    present in the sink's pool when queried); ``extra_observers`` are
    third-party nodes that also demonstrated possession of ``txA`` — on a
    conforming network the price band makes that set empty, so any entry
    marks a broken isolation envelope (and a Byzantine suspect).
    """

    source: str
    sink: str
    tx_hash: str
    observed_at: Optional[float] = None
    kind: str = ""  # "push" / "announce" / "" (not observed)
    rpc_confirmed: bool = True
    extra_observers: Tuple[str, ...] = ()
    iteration: int = -1
    # True when the RPC cross-check behind this claim came back *unknown*
    # (degraded measurement plane): the edge stands on gossip alone and
    # is labeled suspect rather than silently trusted.
    rpc_degraded: bool = False
    # The probe's verdict. ``setup_ok`` is False when the probe never ran
    # end to end (endpoint down, seed or txA never took hold, injection
    # lost), ``flood_confirmed`` when a serial probe never saw txC on the
    # sink. A payload without these keys comes from before misses were
    # kept and holds detected records only, so each reads back True.
    detected: bool = True
    setup_ok: bool = True
    flood_confirmed: bool = True

    @property
    def edge(self) -> Edge:
        return edge(self.source, self.sink)

    @property
    def clean(self) -> bool:
        """RPC-confirmed over a healthy plane, intact isolation envelope."""
        return (
            self.rpc_confirmed
            and not self.rpc_degraded
            and not self.extra_observers
        )

    @property
    def ambiguous(self) -> bool:
        """A negative too weak to trust — lost packets or a sick plane
        could have masked a real edge (Section 6.1) — so worth a re-probe."""
        return not self.detected and (
            self.rpc_degraded or not self.flood_confirmed
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "sink": self.sink,
            "tx_hash": self.tx_hash,
            "observed_at": self.observed_at,
            "kind": self.kind,
            "rpc_confirmed": self.rpc_confirmed,
            "extra_observers": list(self.extra_observers),
            "iteration": self.iteration,
            "rpc_degraded": self.rpc_degraded,
            "detected": self.detected,
            "setup_ok": self.setup_ok,
            "flood_confirmed": self.flood_confirmed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EdgeEvidence":
        observed_at = payload.get("observed_at")
        return cls(
            source=str(payload["source"]),
            sink=str(payload["sink"]),
            tx_hash=str(payload.get("tx_hash", "")),
            observed_at=None if observed_at is None else float(observed_at),  # type: ignore[arg-type]
            kind=str(payload.get("kind", "")),
            rpc_confirmed=bool(payload.get("rpc_confirmed", True)),
            extra_observers=tuple(
                str(x) for x in payload.get("extra_observers", ())  # type: ignore[union-attr]
            ),
            iteration=int(payload.get("iteration", -1)),  # type: ignore[arg-type]
            rpc_degraded=bool(payload.get("rpc_degraded", False)),
            detected=bool(payload.get("detected", True)),
            setup_ok=bool(payload.get("setup_ok", True)),
            flood_confirmed=bool(payload.get("flood_confirmed", True)),
        )


def keep_stronger(records: Dict, key: object, item: EdgeEvidence) -> None:
    """File ``item`` under ``key`` unless the record held there is at least
    as strong: a detection beats anything, and a probe that ran end to end
    beats one that never did; among equals the first stays."""
    held = records.get(key)
    if held is None or (held.detected, held.setup_ok) < (item.detected, item.setup_ok):
        records[key] = item


@dataclass(frozen=True)
class ValidationScore:
    """Precision/recall of a measured edge set against ground truth.

    ``false_positive_edges``/``false_negative_edges`` list the actual
    offending edges (sorted (a, b) tuples) so adversarial false-positive
    diagnosis is possible from bench output; ``__str__`` reports counts
    only, unchanged.
    """

    true_positives: int
    false_positives: int
    false_negatives: int
    false_positive_edges: Tuple[Tuple[str, str], ...] = ()
    false_negative_edges: Tuple[Tuple[str, str], ...] = ()

    @property
    def precision(self) -> float:
        """1.0 on an empty measurement (no false claims were made)."""
        claimed = self.true_positives + self.false_positives
        return 1.0 if claimed == 0 else self.true_positives / claimed

    @property
    def recall(self) -> float:
        """1.0 when there was nothing to find."""
        actual = self.true_positives + self.false_negatives
        return 1.0 if actual == 0 else self.true_positives / actual

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 0.0 if p + r == 0 else 2 * p * r / (p + r)

    def __str__(self) -> str:
        return (
            f"precision={self.precision:.3f} recall={self.recall:.3f} "
            f"(tp={self.true_positives}, fp={self.false_positives}, "
            f"fn={self.false_negatives})"
        )


def score_edges(measured: Iterable[Edge], truth: Iterable[Edge]) -> ValidationScore:
    """Score measured undirected edges against the true link set."""
    measured_set = set(measured)
    truth_set = set(truth)
    tp = len(measured_set & truth_set)
    fp_edges = _sorted_pairs(measured_set - truth_set)
    fn_edges = _sorted_pairs(truth_set - measured_set)
    return ValidationScore(
        true_positives=tp,
        false_positives=len(fp_edges),
        false_negatives=len(fn_edges),
        false_positive_edges=fp_edges,
        false_negative_edges=fn_edges,
    )


@dataclass(frozen=True)
class MeasurementFailure:
    """One adverse event the campaign survived instead of aborting on.

    ``kind`` is one of ``"unreachable"`` (a target was down when its
    iteration ran), ``"send_timeout"`` (supernode injections timed out),
    ``"rpc_degraded"`` (probes answered over a sick RPC plane),
    ``"iteration_error"`` (a whole iteration failed and was skipped) or
    ``"shard_error"`` (a whole shard failed on every executor).
    """

    kind: str
    node: str = ""
    iteration: int = -1
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "node": self.node,
            "iteration": self.iteration,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "MeasurementFailure":
        return cls(
            kind=str(payload["kind"]),
            node=str(payload.get("node", "")),
            iteration=int(payload.get("iteration", -1)),  # type: ignore[arg-type]
            detail=str(payload.get("detail", "")),
        )


@dataclass
class NetworkMeasurement:
    """A measured topology snapshot plus metadata and optional validation.

    Also the campaign's one *partial-result record*: a checkpoint, a shard
    result and a timed-out job's partial are all a measurement whose tally
    covers only part of the schedule. :meth:`absorb` folds one
    ``measurePar`` round into the tally, :meth:`merge` folds another
    partial in, and :func:`repro.io.measurement_to_dict` is the only codec.
    """

    node_ids: List[str]
    edges: Set[Edge] = field(default_factory=set)
    iterations: int = 0
    sim_time_start: float = 0.0
    sim_time_end: float = 0.0
    transactions_sent: int = 0
    score: Optional[ValidationScore] = None
    setup_failures: int = 0
    send_timeouts: int = 0
    skipped_nodes: List[str] = field(default_factory=list)
    failures: List[MeasurementFailure] = field(default_factory=list)
    # One record per probed pair, detected or not (the detected ones are
    # exactly ``edges | quarantined``), and the hardening state (see
    # docs/adversarial.md): confidence labels, edges quarantined by cross-
    # validation (claimed once but excluded from ``edges``), and nodes
    # whose observed behavior was provably nonconforming.
    evidence: Dict[Edge, EdgeEvidence] = field(default_factory=dict)
    edge_confidence: Dict[Edge, str] = field(default_factory=dict)
    quarantined: Set[Edge] = field(default_factory=set)
    suspect_nodes: Set[str] = field(default_factory=set)

    @property
    def duration(self) -> float:
        """Simulated measurement duration in seconds (Table 7's column)."""
        return self.sim_time_end - self.sim_time_start

    @property
    def graph(self) -> nx.Graph:
        """The measured overlay as a networkx graph.

        Nodes and edges go in sorted: Louvain (the Modularity statistic,
        the community table) follows insertion order, and ``edges`` is a
        set whose order follows string hashing (``PYTHONHASHSEED``).
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(sorted(self.node_ids))
        g.add_edges_from(sorted(tuple(sorted(e)) for e in self.edges))
        return g

    def add_edges(self, edges: Iterable[Edge]) -> None:
        self.edges.update(edges)

    def add_failure(
        self, kind: str, node: str = "", iteration: int = -1, detail: str = ""
    ) -> None:
        """Record an adverse event without aborting the campaign."""
        self.failures.append(
            MeasurementFailure(kind=kind, node=node, iteration=iteration, detail=detail)
        )

    def absorb(self, report: "ParallelProbeReport", index: int) -> Dict[str, int]:
        """Fold the ``measurePar`` round of schedule item ``index`` in.

        Edges union, every probed pair's record joins ``evidence``
        (stamped with ``index``; :func:`keep_stronger` decides a pair seen
        twice), counters add, and every adverse event the round survived
        becomes a failure record. Returns how many events were recorded
        per failure kind, for the campaign's metrics.
        """
        self.edges |= report.detected
        for item in report.outcomes:
            keep_stronger(self.evidence, item.edge, replace(item, iteration=index))
        self.suspect_nodes |= report.suspect_nodes
        self.transactions_sent += report.transactions_sent
        self.setup_failures += report.setup_failures
        self.send_timeouts += report.send_timeouts
        for node_id in report.unreachable:
            self.add_failure(
                "unreachable", node=node_id, iteration=index,
                detail="target was down; its pairs were skipped this iteration",
            )
        if report.send_timeouts:
            self.add_failure(
                "send_timeout", iteration=index,
                detail=f"{report.send_timeouts} injection(s) timed out",
            )
        degraded = sum(1 for outcome in report.outcomes if outcome.rpc_degraded)
        if degraded:
            self.add_failure(
                "rpc_degraded", iteration=index,
                detail=(
                    f"{degraded} probe(s) answered over a degraded RPC "
                    "plane; their verdicts rest on gossip alone"
                ),
            )
        return {"unreachable": len(report.unreachable), "rpc_degraded": degraded}

    def merge(self, other: "NetworkMeasurement") -> None:
        """Fold another partial's tally into this one.

        Only what iterations accumulate is combined (same rules as
        :meth:`absorb`); the campaign header — targets, schedule length,
        sim window, score — stays this measurement's own, and confidence
        labels are assigned once, by the hardening pass after the last
        merge.
        """
        self.edges |= other.edges
        for pair_edge, item in other.evidence.items():
            keep_stronger(self.evidence, pair_edge, item)
        self.suspect_nodes |= other.suspect_nodes
        self.transactions_sent += other.transactions_sent
        self.setup_failures += other.setup_failures
        self.send_timeouts += other.send_timeouts
        self.failures.extend(other.failures)

    def failed_nodes(self) -> List[str]:
        """Nodes that were unreachable at least once, sorted."""
        return sorted({f.node for f in self.failures if f.node})

    def validate_against(self, truth: Iterable[Edge]) -> ValidationScore:
        """Score and cache precision/recall against ground truth."""
        self.score = score_edges(self.edges, truth)
        return self.score

    def summary(self) -> str:
        lines = [
            f"nodes measured : {len(self.node_ids)}",
            f"edges detected : {len(self.edges)}",
            f"iterations     : {self.iterations}",
            f"sim duration   : {self.duration:.1f} s",
        ]
        if self.score is not None:
            lines.append(f"validation     : {self.score}")
        if self.setup_failures:
            lines.append(f"setup failures : {self.setup_failures}")
        if self.failures:
            kinds: Dict[str, int] = {}
            for failure in self.failures:
                kinds[failure.kind] = kinds.get(failure.kind, 0) + 1
            detail = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
            lines.append(f"failures       : {len(self.failures)} ({detail})")
        if self.quarantined:
            lines.append(f"quarantined    : {len(self.quarantined)} edges")
        if self.suspect_nodes:
            lines.append(
                f"suspect nodes  : {', '.join(sorted(self.suspect_nodes))}"
            )
        return "\n".join(lines)

