"""Longitudinal topology monitoring.

The paper takes single snapshots ("a snapshot of the Ropsten testnet taken
on Oct. 13, 2020"); an operator deploying TopoShot would run it repeatedly
and watch the overlay *change* — new links dialled, old ones dropped,
critical nodes drifting. :class:`TopologyMonitor` wraps a
:class:`~repro.core.campaign.TopoShot` session into repeated snapshots and
diffs them into churn reports.

Two modes:

- **full**: :meth:`TopologyMonitor.take_snapshot` re-runs a whole campaign
  (O(network) probe cost per tick) — the seed behavior;
- **delta**: :meth:`TopologyMonitor.delta_round` re-probes only edges whose
  per-edge evidence has gone *stale* (older than ``staleness_ttl``) or
  whose endpoints' churn signals fired (peer-count polling over
  ``admin_peers``, or explicit :meth:`note_churn_hint`), via
  :meth:`~repro.core.campaign.TopoShot.measure_pairs` — the pipeline of
  a full snapshot, so a round is hardened, keeps K inside the slot budget
  and records its real measurement. Probe order comes
  from the shared pool-waterline prioritizer
  (:func:`repro.core.adaptive.probe_priority`), and each round streams a
  :class:`ChurnReport` as one JSON line — O(churn) probe cost per tick,
  the continuous-tracking path ``BENCH_monitor.json`` gates at >= 5x
  cheaper than full re-snapshots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, IO, List, Optional, Set, Tuple

from repro.core.campaign import TopoShot
from repro.core.results import Edge, NetworkMeasurement, edge
from repro.errors import MeasurementError
from repro.obs import wiring


@dataclass(frozen=True)
class TopologySnapshot:
    """One measured topology at one simulated time."""

    taken_at: float
    measurement: NetworkMeasurement

    @property
    def edges(self) -> Set[Edge]:
        return set(self.measurement.edges)


@dataclass(frozen=True)
class ChurnReport:
    """Difference between two snapshots.

    Convention for the degenerate empty-vs-empty diff (both snapshots
    measured zero edges, so the union is empty): the two topologies are
    *identical*, hence ``jaccard_similarity`` is 1.0 and ``churn_rate``
    is 0.0 — nothing changed, even though nothing was there. This keeps
    churn monotone: an edge appearing in the second snapshot strictly
    raises churn above the empty baseline rather than jumping from an
    arbitrary 0/0.
    """

    from_time: float
    to_time: float
    added: Set[Edge]
    removed: Set[Edge]
    stable: Set[Edge]

    @property
    def jaccard_similarity(self) -> float:
        """|stable| / |union|; 1.0 when both snapshots are empty."""
        union = len(self.added) + len(self.removed) + len(self.stable)
        return 1.0 if union == 0 else len(self.stable) / union

    @property
    def churn_rate(self) -> float:
        """Changed edges relative to the union of both snapshots
        (0.0 for the empty-vs-empty diff: identical topologies)."""
        return 1.0 - self.jaccard_similarity

    def summary(self) -> str:
        return (
            f"[{self.from_time:.0f}s -> {self.to_time:.0f}s] "
            f"+{len(self.added)} -{len(self.removed)} "
            f"={len(self.stable)} stable "
            f"(churn {self.churn_rate:.0%})"
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (sorted for deterministic output)."""

        def edge_list(edges: Set[Edge]) -> List[List[str]]:
            return sorted(sorted(e) for e in edges)

        return {
            "from_time": self.from_time,
            "to_time": self.to_time,
            "added": edge_list(self.added),
            "removed": edge_list(self.removed),
            "stable_count": len(self.stable),
            "churn_rate": self.churn_rate,
            "jaccard_similarity": self.jaccard_similarity,
        }


class TopologyMonitor:
    """Repeated measurement of one network with snapshot diffing.

    ``between_rounds`` (if given) runs after every snapshot — tests use it
    to inject real link churn, an operator analogue would simply be the
    passage of time on a live network.
    """

    def __init__(
        self,
        shot: TopoShot,
        between_rounds: Optional[Callable[[], None]] = None,
        staleness_ttl: Optional[float] = None,
        reprobe_percentile: float = 0.1,
        stream: Optional[IO[str]] = None,
    ) -> None:
        self.shot = shot
        self.between_rounds = between_rounds
        self.snapshots: List[TopologySnapshot] = []
        # --- incremental (delta) mode state ---------------------------
        # staleness_ttl=None means evidence never expires: delta rounds
        # re-probe on churn signals only.
        self.staleness_ttl = staleness_ttl
        self.reprobe_percentile = reprobe_percentile
        self.stream = stream
        # edge -> simulated time the edge was last confirmed by a probe.
        self.edge_state: Dict[Edge, float] = {}
        # The live incremental view (seeded by the base snapshot, patched
        # by every delta round).
        self.current_edges: Set[Edge] = set()
        self.targets: List[str] = []
        self._peer_counts: Dict[str, int] = {}
        self._flagged: Set[str] = set()
        # Probe-cost accounting: what delta mode spent vs what repeated
        # full snapshots over the same universe would have.
        self.probe_savings: Dict[str, int] = {
            "delta_rounds": 0,
            "probed_pairs": 0,
            "universe_pairs": 0,
        }

    def take_snapshot(self, **measure_kwargs: object) -> TopologySnapshot:
        measurement = self.shot.measure_network(**measure_kwargs)  # type: ignore[arg-type]
        snapshot = TopologySnapshot(
            taken_at=self.shot.network.sim.now, measurement=measurement
        )
        self.snapshots.append(snapshot)
        self._seed_delta_state(snapshot)
        obs = self.shot.obs
        if obs.enabled:
            metrics = obs.metrics
            metrics.counter(wiring.MONITOR_SNAPSHOTS).inc()
            metrics.gauge(wiring.MONITOR_LAST_EDGES).set(len(snapshot.edges))
            obs.emit(
                snapshot.taken_at, "monitor.snapshot",
                len(self.snapshots) - 1, len(snapshot.edges),
            )
            if len(self.snapshots) >= 2:
                report = self.churn_between(-2, -1)
                metrics.gauge(wiring.MONITOR_LAST_CHURN).set(report.churn_rate)
                metrics.counter(wiring.MONITOR_EDGES_ADDED).inc(len(report.added))
                metrics.counter(wiring.MONITOR_EDGES_REMOVED).inc(len(report.removed))
                obs.emit(
                    snapshot.taken_at, "monitor.churn",
                    report.from_time, report.to_time,
                    len(report.added), len(report.removed), len(report.stable),
                )
        return snapshot

    # ------------------------------------------------------------------
    # Incremental (delta) mode
    # ------------------------------------------------------------------
    def _seed_delta_state(self, snapshot: TopologySnapshot) -> None:
        """Adopt a full snapshot as the incremental baseline.

        Per-edge confirmation times come from the hardened pipeline's
        :class:`~repro.core.results.EdgeEvidence` where available (PR 5's
        ``observed_at``), falling back to the snapshot time.
        """
        self.targets = list(snapshot.measurement.node_ids)
        self.current_edges = set()
        self.edge_state = {}
        self._confirm(snapshot.measurement, snapshot.taken_at)
        self._flagged.clear()
        self._peer_counts = self._poll_counts()

    def _confirm(self, measurement: NetworkMeasurement, fallback: float) -> None:
        """Track ``measurement.edges``, each confirmed when its evidence
        says the probe saw it (``fallback`` where there is none)."""
        for e in measurement.edges:
            observed = getattr(measurement.evidence.get(e), "observed_at", None)
            self.edge_state[e] = fallback if observed is None else observed
        self.current_edges |= measurement.edges

    def note_churn_hint(self, node_id: str) -> None:
        """Flag a node for re-probing in the next delta round (external
        churn signals: discovery-table drift, gossip anomalies, an
        operator's own alerting)."""
        self._flagged.add(node_id)

    def _poll_counts(self) -> Dict[str, int]:
        """Peer counts of every RPC-answering target (``admin_peers``).

        The poll goes through the network's RPC client; a target whose
        plane is momentarily down (timeout, throttle, flap) or that serves
        no RPC at all is simply *absent* from the result — its last-known
        count stands, so a sick plane never fakes a churn signal.
        """
        counts: Dict[str, int] = {}
        network = self.shot.network
        client = network.rpc_client()
        for node_id in self.targets:
            if network.node(node_id).crashed:
                continue
            count = client.peer_count(node_id)
            if count is not None:
                counts[node_id] = count
        return counts

    def poll_peer_counts(self) -> Set[str]:
        """Flag targets whose ``admin_peers`` count moved since last poll.

        The cheap churn signal: one RPC per target instead of a probe per
        pair. A changed count pins *which* nodes re-wired; the next delta
        round spends real probes only there. Returns the newly flagged
        node ids.
        """
        fresh = self._poll_counts()
        changed = {
            node_id
            for node_id, count in fresh.items()
            if self._peer_counts.get(node_id, count) != count
        }
        self._peer_counts.update(fresh)
        self._flagged |= changed
        return changed

    def stale_edges(self, now: Optional[float] = None) -> Set[Edge]:
        """Known edges whose last confirmation exceeds ``staleness_ttl``."""
        if self.staleness_ttl is None:
            return set()
        if now is None:
            now = self.shot.network.sim.now
        ttl = self.staleness_ttl
        return {
            e
            for e, confirmed_at in self.edge_state.items()
            if now - confirmed_at >= ttl
        }

    def _candidate_pairs(self, now: float) -> List[Tuple[str, str]]:
        """The re-probe set: stale edges, edges incident to flagged nodes,
        and (possibly new) pairs among flagged nodes."""
        candidates: List[Tuple[str, str]] = []
        seen: Set[Edge] = set()

        def offer(a: str, b: str) -> None:
            key = edge(a, b)
            if key not in seen:
                seen.add(key)
                candidates.append(tuple(sorted((a, b))))  # type: ignore[arg-type]

        for e in sorted(self.stale_edges(now), key=sorted):
            a, b = sorted(e)
            offer(a, b)
        flagged = self._flagged
        if flagged:
            for e in sorted(self.current_edges, key=sorted):
                a, b = sorted(e)
                if a in flagged or b in flagged:
                    offer(a, b)
            target_set = set(self.targets)
            for a, b in combinations(sorted(flagged & target_set), 2):
                offer(a, b)
        return candidates

    def delta_round(
        self,
        max_pairs: Optional[int] = None,
        poll: bool = True,
    ) -> ChurnReport:
        """One incremental round: re-probe only stale/churn-flagged pairs.

        Requires a base snapshot (:meth:`take_snapshot`). Candidate pairs
        are ordered by the shared pool-waterline prioritizer
        (:func:`repro.core.adaptive.probe_priority`) — cheapest price band
        first — and optionally truncated to ``max_pairs``: flagged nodes
        with a candidate pair the round did not reach stay flagged for the
        next one (stale edges stay stale). The round's hardened edge set
        patches ``current_edges``; its measurement, ``edges`` widened to
        the tracked view, is appended to ``snapshots``; the diff against
        the previous snapshot is returned as a :class:`ChurnReport` and
        streamed as one JSON line when a ``stream`` is attached.
        """
        if not self.snapshots:
            raise MeasurementError(
                "delta_round requires a base snapshot; call take_snapshot() first"
            )
        from repro.core.adaptive import probe_priority

        network = self.shot.network
        if poll:
            self.poll_peer_counts()
        pairs = self._candidate_pairs(network.sim.now)
        # Endpoint health (empty until the resilient RPC client has had to
        # retry) demotes pairs whose endpoints keep timing out: spend the
        # round's budget where the plane can actually confirm the probes.
        pairs = probe_priority(
            network,
            pairs,
            percentile=self.reprobe_percentile,
            endpoint_health=network.rpc_client().health_report(),
        )
        unprobed = [] if max_pairs is None else pairs[max_pairs:]
        pairs = pairs[:max_pairs]

        measurement = self.shot.measure_pairs(pairs)
        now = network.sim.now
        for key in {edge(*pair) for pair in pairs} - measurement.edges:
            self.current_edges.discard(key)
            self.edge_state.pop(key, None)
        self._confirm(measurement, now)
        self._flagged &= {node_id for pair in unprobed for node_id in pair}

        # The round's own record, widened to the tracked view, is its snapshot.
        after = self.current_edges
        measurement.node_ids = list(self.targets)
        measurement.edges = set(after)
        self.snapshots.append(TopologySnapshot(taken_at=now, measurement=measurement))
        report = self.churn_between(-2, -1)
        universe_pairs = len(self.targets) * (len(self.targets) - 1) // 2
        savings = self.probe_savings
        savings["delta_rounds"] += 1
        savings["probed_pairs"] += len(pairs)
        savings["universe_pairs"] += universe_pairs
        if self.stream is not None:
            record = report.to_dict()
            record["probed_pairs"] = len(pairs)
            record["edge_count"] = len(after)
            record["transactions_sent"] = measurement.transactions_sent
            record["failures"] = len(measurement.failures)
            self.stream.write(json.dumps(record, sort_keys=True) + "\n")
        obs = self.shot.obs
        if obs.enabled:
            metrics = obs.metrics
            saved = max(0, universe_pairs - len(pairs))
            metrics.counter(wiring.MONITOR_DELTA_ROUNDS).inc()
            metrics.counter(wiring.MONITOR_DELTA_PROBED).inc(len(pairs))
            metrics.counter(wiring.MONITOR_DELTA_SAVED).inc(saved)
            metrics.gauge(wiring.MONITOR_LAST_EDGES).set(len(after))
            metrics.gauge(wiring.MONITOR_LAST_CHURN).set(report.churn_rate)
            obs.emit(
                now, "monitor.delta",
                len(pairs), len(report.added), len(report.removed),
                len(after),
            )
        return report

    def run_rounds(self, rounds: int, **measure_kwargs: object) -> List[TopologySnapshot]:
        """Take ``rounds`` snapshots, invoking ``between_rounds`` between."""
        if rounds <= 0:
            raise MeasurementError("rounds must be positive")
        taken = []
        for index in range(rounds):
            taken.append(self.take_snapshot(**measure_kwargs))
            if self.between_rounds is not None and index + 1 < rounds:
                self.between_rounds()
        return taken

    def churn_between(self, earlier: int, later: int) -> ChurnReport:
        """Diff two snapshots by index (negative indices allowed)."""
        first, second = self.snapshots[earlier], self.snapshots[later]
        before, after = first.measurement.edges, second.measurement.edges
        return ChurnReport(
            from_time=first.taken_at,
            to_time=second.taken_at,
            added=after - before,
            removed=before - after,
            stable=before & after,
        )

    def churn_series(self) -> List[ChurnReport]:
        """Consecutive-snapshot churn across the whole history."""
        return [
            self.churn_between(i, i + 1)
            for i in range(len(self.snapshots) - 1)
        ]

    def persistent_edges(self) -> Set[Edge]:
        """Edges present in every snapshot (the overlay's stable core)."""
        if not self.snapshots:
            return set()
        core = self.snapshots[0].edges
        for snapshot in self.snapshots[1:]:
            core &= snapshot.edges
        return core


def rewire_random_links(
    network,
    fraction: float = 0.1,
    rng=None,
) -> tuple:
    """Inject churn: drop ``fraction`` of the measurable links and dial the
    same number of fresh ones. Returns (removed, added) edge sets."""
    if not 0 <= fraction <= 1:
        raise MeasurementError("fraction must be in [0, 1]")
    rng = rng or network.sim.rng.stream("rewire")
    links = sorted(tuple(sorted(link)) for link in network.ground_truth_edges())
    count = int(len(links) * fraction)
    removed = set()
    rng.shuffle(links)
    for a, b in links[:count]:
        network.disconnect(a, b)
        removed.add(frozenset((a, b)))
    nodes = network.measurable_node_ids()
    added: Set[Edge] = set()
    attempts = 0
    while len(added) < count and attempts < 50 * count + 50:
        attempts += 1
        a, b = rng.sample(nodes, 2)
        key = frozenset((a, b))
        if network.are_connected(a, b):
            continue
        network.connect(a, b, force=True)
        added.add(key)
    # On dense overlays some dials can recreate just-dropped links; the
    # *net* churn excludes those (they are invisible to any observer).
    return removed - added, added - removed
