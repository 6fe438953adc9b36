"""DEthna: topology discovery with marked transactions (Zhao et al., 2024).

Method
------
DEthna (arXiv:2402.03881) infers *active* edges by injecting **marked
transactions**: transactions crafted to be relayed by every client but
never mined, so probing is nearly free compared to TopoShot's replacement
floods. Each measurement round assigns every target node its own mark (a
fresh sender account at a deliberately low fee), injects all marks at the
same instant, and watches which peers demonstrate possession of which
mark back at the monitor. A node that echoes target ``A``'s mark in the
first relay wave — before multi-hop propagation can contaminate the
observation — is taken to be ``A``'s neighbour; votes accumulate over
rounds and a pair is claimed once it collects ``min_votes``.

Concretely, per round and per mark ``m_A``:

1. the monitor pushes ``m_A`` to ``A`` only (priced via
   :func:`repro.core.adaptive.pool_waterline` so it clears eviction but
   sits below the ambient median — relayed, never attractive to miners);
2. ``A`` admits the mark and broadcasts it to its unaware peers in one
   flush, so every true neighbour receives it in the same relay epoch;
3. the monitor records first-observation times of ``m_A`` per peer
   (pushes and announcements both count, see
   :class:`repro.eth.supernode.Supernode`) and votes for the peers whose
   report lands within ``margin`` seconds of the round's earliest report
   — the earliest reporter is a one-hop neighbour with high probability,
   and the tight window excludes most two-hop echoes.

Fidelity caveats vs the source paper
------------------------------------
- The paper's marks are unexecutable on-chain (e.g. insufficient balance
  at execution) yet valid for relay; this simulator has no execution
  layer, so "low-fee, fresh account" stands in. The cost asymmetry the
  paper exploits (marks are never mined) is preserved.
- The paper calibrates per-peer RTTs on the live network to normalise
  observation times; here the race window rides on the simulator's
  homogeneous latency model, so ``margin`` plays that role directly.
- When only a subset of nodes is targeted (the arena's ``--targets``
  mode), the earliest *target* reporter of a mark can be two hops away
  through a non-target relay, which costs precision — the full-network
  mode of the paper does not have this failure mode.

Config knobs
------------
``rounds``             measurement rounds (more rounds → higher recall;
                       each neighbour must win the relay race at least
                       ``min_votes`` times)
``margin``             race window in seconds after a mark's earliest
                       report within which a reporter earns a vote
``round_wait``         simulated seconds each round runs before reading
                       the observation log
``mark_price_factor``  mark fee as a fraction of the ambient median
                       (clamped above the pool eviction waterline)
``min_votes``          votes (across rounds, both directions pooled)
                       needed to claim an edge
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.adaptive import pool_waterline
from repro.core.results import Edge, ValidationScore, edge, score_edges
from repro.errors import SendTimeoutError
from repro.eth.account import Wallet
from repro.eth.network import Network
from repro.eth.supernode import Supernode
from repro.eth.transaction import TransactionFactory, gwei


@dataclass
class DethnaReport:
    """Outcome of a DEthna measurement: edges and probe cost."""

    predicted: Set[Edge] = field(default_factory=set)
    marks_sent: int = 0
    rounds: int = 0
    send_failures: int = 0
    score_vs_active: Optional[ValidationScore] = None

    def summary(self) -> str:
        v = self.score_vs_active
        scored = (
            f" precision={v.precision:.3f} recall={v.recall:.3f}" if v else ""
        )
        return (
            f"dethna: {len(self.predicted)} predicted edges from "
            f"{self.marks_sent} marks over {self.rounds} rounds;{scored}"
        )


def mark_price(network: Network, reference_id: str, factor: float = 0.5) -> int:
    """Price a mark: relayed (above the eviction waterline) but cheap.

    Reuses :func:`repro.core.adaptive.pool_waterline` — the same adaptive
    pricing hook TopoShot's Y-estimation builds on — so the mark survives
    admission into a full pool while staying below the ambient median
    (miners never prefer it; on the paper's live network it would also be
    unexecutable).
    """
    node = network.node(reference_id)
    median = node.mempool.median_pending_price() or gwei(1.0)
    waterline = pool_waterline(node) or 0
    return max(waterline + 1, int(median * factor))


def run_dethna(
    network: Network,
    supernode: Supernode,
    targets: Optional[Sequence[str]] = None,
    rounds: int = 12,
    margin: float = 0.03,
    round_wait: float = 1.2,
    mark_price_factor: float = 0.5,
    min_votes: int = 2,
    wallet: Optional[Wallet] = None,
    refresh_between_rounds: bool = True,
    validate: bool = True,
) -> DethnaReport:
    """Run the full DEthna protocol among ``targets`` (default: all
    measurable nodes) and score the inferred edge set.

    Marks for all targets are injected at the same simulated instant, so
    one round measures every target in parallel — the cost profile the
    paper claims over pairwise probing. Injections that time out under a
    fault plan are recorded in ``send_failures`` and skipped for the
    round.
    """
    from repro.netgen.workloads import refresh_mempools

    if targets is None:
        targets = network.measurable_node_ids()
    targets = list(targets)
    wallet = wallet or Wallet("dethna")
    factory = TransactionFactory()
    report = DethnaReport(rounds=rounds)
    votes: Dict[Edge, int] = {}
    # Pin the ambient fee level once, like the campaign loop does, so the
    # inter-round refresh cannot ratchet the mark price upward.
    ambient = network.node(targets[0]).mempool.median_pending_price() or gwei(1.0)

    for round_index in range(rounds):
        price = mark_price(network, targets[0], factor=mark_price_factor)
        marks: Dict[str, str] = {}  # target -> mark hash
        for target in targets:
            mark = factory.transfer(
                wallet.fresh_account(prefix=f"mark-r{round_index}"), price
            )
            try:
                supernode.send_transactions(target, [mark])
            except SendTimeoutError:
                report.send_failures += 1
                continue
            marks[target] = mark.hash
            report.marks_sent += 1
        network.run(round_wait)

        for target, mark_hash in marks.items():
            arrivals: List[Tuple[float, str]] = []
            for peer in targets:
                if peer == target:
                    continue
                seen = supernode.first_observation_time(peer, mark_hash)
                if seen is not None:
                    arrivals.append((seen, peer))
            if not arrivals:
                continue
            earliest = min(t for t, _ in arrivals)
            for seen, peer in arrivals:
                if seen <= earliest + margin:
                    key = edge(target, peer)
                    votes[key] = votes.get(key, 0) + 1

        supernode.clear_observations()
        network.forget_known_transactions()
        if refresh_between_rounds and round_index + 1 < rounds:
            refresh_mempools(network, median_price=ambient)

    report.predicted = {e for e, count in votes.items() if count >= min_votes}
    if validate:
        report.score_vs_active = score_edges(
            report.predicted, network.ground_truth_edges(among=targets)
        )
    return report
