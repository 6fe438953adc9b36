"""The parallel measurement primitive ``measurePar`` (Section 5.3.1).

Measures ``r`` designated (source, sink) pairs in one pass:

- **p1** seed one ``txC`` per edge, each from its own EOA, and flood them
  network-wide;
- **p2** configure every source ``Ak``: Z-future eviction flood, re-seed the
  *other* edges' ``txC``, then install ``txA(k, .)`` for its own edges;
- **p3** configure every sink ``Bl``: eviction flood, then the r-vector of
  ``txB`` (for edges sinking at ``Bl``) / ``txC`` (for the rest);
- **p4** edge (Ak, Bl) is detected iff the measurement node observes
  ``txA(k, .)`` from ``Bl``.

Every node is sent the part of the round's one Z-future flood that its pool
has room for (:func:`repro.core.primitive.trim_flood`); the futures cut are
the ones it would have refused.

Isolation among measured nodes holds because every node other than the
edge's own source/sink holds that edge's ``txC`` at price Y, which
``txA`` (price ``(1+R/2)Y``) cannot replace.

Faithful to the paper, sources are configured *before* sinks. A source that
admits its ``txA`` broadcasts it immediately; if the broadcast reaches a
sink that p3 has not configured yet, the sink still holds ``txC``, rejects
``txA``, and — since the source now marks the sink as knowing ``txA`` —
never re-sends it. The per-node configuration gap therefore creates an
interference window that grows with the group size, which is exactly the
recall decay of Figure 4b ("TopoShot does not guarantee isolation among
nodes {A}").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import (
    PARALLEL_SEND_GAP,
    PROPAGATION_WAIT,
    SEED_WAIT,
    MeasurementConfig,
)
from repro.core.gas_estimator import estimate_y
from repro.core.primitive import (
    _known,
    build_future_flood,
    inject,
    probe_with_repeats,
    rebid,
    verdict,
)
from repro.core.results import Edge, EdgeEvidence
from repro.eth.rpc import rpc_tx_in_pool
from repro.errors import MeasurementError
from repro.eth.account import Wallet
from repro.eth.network import Network
from repro.eth.supernode import Supernode
from repro.eth.transaction import Transaction, TransactionFactory


@dataclass
class ParallelProbeReport:
    """Result of one ``measurePar`` call: one record per probed pair in
    ``outcomes``, detected or not, plus the round's tallies."""

    outcomes: List[EdgeEvidence] = field(default_factory=list)
    y: int = 0
    seed_senders: List[str] = field(default_factory=list)
    flood_senders: List[str] = field(default_factory=list)
    transactions_sent: int = 0
    # Flood trimming (primitive.trim_flood): futures not sent because the
    # pool had no room for them (sent + trimmed = the static-Z cost), and
    # node-floods whose pool had room for more than the whole flood.
    flood_trimmed: int = 0
    flood_short: int = 0
    send_timeouts: int = 0
    unreachable: List[str] = field(default_factory=list)
    # Nodes whose observed behavior was provably nonconforming this round.
    suspect_nodes: Set[str] = field(default_factory=set)

    @property
    def detected(self) -> Set[Edge]:
        return {outcome.edge for outcome in self.outcomes if outcome.detected}

    @property
    def setup_failures(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.setup_ok)


def _setup_failed(pair: Tuple[str, str], tx_hash: str = "") -> EdgeEvidence:
    """The record of a pair this round could not probe."""
    return EdgeEvidence(
        source=pair[0], sink=pair[1], tx_hash=tx_hash, detected=False, setup_ok=False
    )


def measure_par(
    network: Network,
    supernode: Supernode,
    pairs: Sequence[Tuple[str, str]],
    config: Optional[MeasurementConfig] = None,
    wallet: Optional[Wallet] = None,
    source_order_rng: Optional[random.Random] = None,
) -> ParallelProbeReport:
    """Measure the given (source, sink) pairs in parallel.

    Source and sink sets must be disjoint (guaranteed by the schedule of
    Section 5.3.2). ``source_order_rng`` randomizes the per-repeat
    configuration order, so repeated runs lose different edges to the
    interference window and their union improves recall.
    """
    if not pairs:
        return ParallelProbeReport()
    config = config or MeasurementConfig()
    if len(pairs) > config.mempool_slots_budget:
        raise MeasurementError(
            f"{len(pairs)} edges need as many txC slots, over the "
            f"{config.mempool_slots_budget}-slot budget; seeds beyond the "
            "pools' below-Y headroom would be rejected and break isolation "
            "(Section 5.3.2 bounds the measurement to 2000 of 5120 slots)"
        )
    wallet = wallet or Wallet(f"toposhot-par-{network.sim.now:.3f}")
    factory = TransactionFactory()

    report = ParallelProbeReport()

    # Graceful degradation: endpoints that are down right now cannot be
    # probed this round. Their pairs are reported as setup failures (never
    # as negatives) so a later repeat — or the campaign's failure section —
    # picks them up.
    down = {nid for pair in pairs for nid in pair if network.node(nid).crashed}
    if down:
        report.unreachable = sorted(down)
        skipped = {pair for pair in pairs if down.intersection(pair)}
        report.outcomes.extend(_setup_failed(p) for p in pairs if p in skipped)
        pairs = [pair for pair in pairs if pair not in skipped]
        if not pairs:
            return report

    sources = list(dict.fromkeys(a for a, _ in pairs))
    sinks = list(dict.fromkeys(b for _, b in pairs))
    overlap = set(sources) & set(sinks)
    if overlap:
        raise MeasurementError(
            f"sources and sinks must be disjoint; overlap: {sorted(overlap)[:3]}"
        )
    if source_order_rng is not None:
        source_order_rng.shuffle(sources)
        source_order_rng.shuffle(sinks)

    y = estimate_y(supernode, config)
    report.y = y

    # One EOA and one txC per edge ("any two different transactions are
    # sent from different EOAs").
    tx_c: Dict[Tuple[str, str], Transaction] = {}
    tx_a: Dict[Tuple[str, str], Transaction] = {}
    tx_b: Dict[Tuple[str, str], Transaction] = {}
    for pair in pairs:
        account = wallet.fresh_account(prefix="edge")
        report.seed_senders.append(account.address)
        seed = factory.transfer(account, gas_price=config.price_c(y))
        tx_c[pair] = seed
        tx_a[pair] = rebid(factory, seed, config.price_a(y))
        tx_b[pair] = rebid(factory, seed, config.price_b(y))
        if network.invariants is not None:
            # TopoShot's isolation invariant: this edge's txC may only
            # ever be replaced on its own (source, sink) pair.
            network.invariants.guard_isolation(seed.hash, frozenset(pair))

    # p1: inject every txC at a few entry peers and let the overlay flood
    # them ("propagates them to the Ethereum network"). Deliberately NOT
    # sent to every peer: a node never pushes a transaction back to the
    # peer it came from, so direct-to-everyone seeding would leave the
    # supernode blind to whether the seeds took hold anywhere — which is
    # why even a supernode with three peers or fewer leaves one unseeded.
    seed_batch = [tx_c[pair] for pair in pairs]
    peer_ids = supernode.peer_ids
    step = max(1, len(peer_ids) // 3)
    entry_peers = peer_ids[::step][: max(1, min(3, len(peer_ids) - 1))]
    for peer_id in entry_peers:
        inject(supernode, peer_id, seed_batch, report)
    network.run(SEED_WAIT)

    # Isolation precondition: a txC that failed to take hold anywhere (e.g.
    # pools had no below-Y headroom left) cannot shield its edge, so the
    # edge is skipped this round rather than risking a false positive. A
    # seeded txC is re-broadcast by admitting nodes, so the supernode
    # observes it from at least one peer.
    active = [
        pair for pair in pairs if supernode.observers_of(tx_c[pair].hash)
    ]
    report.outcomes.extend(
        _setup_failed(pair, tx_a[pair].hash) for pair in pairs if pair not in active
    )
    if not active:
        return report

    flood = build_future_flood(wallet, factory, config, y)
    report.flood_senders.extend({tx.sender for tx in flood})

    # p2: configure sources, spaced by the send gap.
    gap = PARALLEL_SEND_GAP
    for index, source in enumerate(sources):
        own = [tx_a[pair] for pair in active if pair[0] == source]
        others = [tx_c[pair] for pair in active if pair[0] != source]
        network.sim.schedule(
            index * gap,
            lambda s=source, b=[*others, *own]: inject(supernode, s, b, report, flood),
            label=f"p2:{source}",
        )

    # p3: configure sinks, continuing the same cadence.
    offset = len(sources)
    for index, sink in enumerate(sinks):
        vector = [
            tx_b[pair] if pair[1] == sink else tx_c[pair] for pair in active
        ]
        network.sim.schedule(
            (offset + index) * gap,
            lambda s=sink, b=vector: inject(supernode, s, b, report, flood),
            label=f"p3:{sink}",
        )

    network.run((offset + len(sinks)) * gap + PROPAGATION_WAIT)

    # p4: detection, by the one verdict (repro.core.primitive.verdict).
    for pair in active:
        source, sink = pair
        outcome = verdict(network, supernode, source, sink, tx_a[pair].hash, config)
        degraded = outcome.rpc_degraded
        # Suspects: nodes whose demonstrated possession of txA is not
        # backed by their pool over RPC — a spoofing relay's fingerprint.
        # Honest third parties that genuinely pooled txA (eviction fallout)
        # pass this check and are not accused; their presence still dirties
        # the evidence. Only a *definite* miss accuses: an unanswerable
        # plane is not evidence of misbehavior.
        if outcome.observed_at is not None and not outcome.rpc_confirmed:
            report.suspect_nodes.add(sink)
        for observer_id in outcome.extra_observers:
            observer_check = rpc_tx_in_pool(network, observer_id, outcome.tx_hash)
            if observer_check is False:
                report.suspect_nodes.add(observer_id)
            degraded |= observer_check is None
        # Setup check per p2: txA must have taken hold on its source
        # (verified RPC-style; gossip cannot confirm M's own sends).
        setup_check = rpc_tx_in_pool(network, source, outcome.tx_hash)
        report.outcomes.append(
            replace(
                outcome,
                rpc_degraded=degraded or setup_check is None,
                setup_ok=_known(setup_check, True),
            )
        )
    return report


def measure_par_with_repeats(
    network: Network,
    supernode: Supernode,
    pairs: Sequence[Tuple[str, str]],
    config: Optional[MeasurementConfig] = None,
    wallet: Optional[Wallet] = None,
    refresh: Optional[Callable[[], None]] = None,
) -> ParallelProbeReport:
    """:func:`repro.core.primitive.probe_with_repeats` over ``pairs`` with
    ``measurePar``: positives union into one merged report whose
    ``outcomes`` hold the strongest record per pair.

    Every round after the first reshuffles the source configuration order,
    so interference hits different edges; ``refresh`` is typically pool
    churn (:func:`repro.netgen.workloads.refresh_mempools`).
    """
    config = config or MeasurementConfig()
    shuffler = network.sim.rng.stream("parallel-shuffle")
    merged = ParallelProbeReport()

    def probe_round(
        remaining: List[Tuple[str, str]], round_index: int
    ) -> List[EdgeEvidence]:
        report = measure_par(
            network,
            supernode,
            remaining,
            config,
            wallet,
            source_order_rng=shuffler if round_index > 0 else None,
        )
        merged.suspect_nodes |= report.suspect_nodes
        merged.transactions_sent += report.transactions_sent
        merged.flood_trimmed += report.flood_trimmed
        merged.flood_short += report.flood_short
        merged.seed_senders.extend(report.seed_senders)
        merged.flood_senders.extend(report.flood_senders)
        merged.send_timeouts += report.send_timeouts
        for node_id in report.unreachable:
            if node_id not in merged.unreachable:
                merged.unreachable.append(node_id)
        merged.y = report.y
        return report.outcomes

    best = probe_with_repeats(network, supernode, pairs, config, probe_round, refresh)
    merged.outcomes = [best[pair] for pair in pairs if pair in best]
    return merged
