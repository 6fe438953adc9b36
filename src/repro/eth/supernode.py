"""The measurement supernode.

The paper's measurement node ``M`` "is set up without bounds on its
neighbors, so it can be connected to the majority of the network"
(Section 6). Ours likewise connects to every target with no peer limit,
never relays traffic (pure observer/injector), and records an observation
log answering the question at the heart of Step 4 of the primitive:
*did node B send me transaction txA?*

Announcements count as observations too: a node only announces hashes of
transactions in its own pool, so an announcement is equally strong evidence
of possession (and the supernode bypasses the 5-second announcement hold
that would otherwise mask observations from later announcers — the paper's
instrumented Geth client does the same kind of local-check bypassing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import SendTimeoutError
from repro.eth.messages import (
    FindNode,
    GetPooledTransactions,
    Neighbors,
    NewPooledTransactionHashes,
    Transactions,
)
from repro.eth.node import Node, NodeConfig
from repro.eth.policies import GETH
from repro.eth.transaction import Transaction
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.eth.network import Network


@dataclass(frozen=True)
class Observation:
    """One piece of evidence: ``peer`` possessed ``tx_hash`` at ``time``."""

    time: float
    peer: str
    tx_hash: str
    kind: str  # "push" or "announce"


def supernode_config(client_version: str = "TopoShot/measurement") -> NodeConfig:
    """Configuration for a measurement node: no peer bound, no relaying,
    and a mempool large enough never to interfere with observations."""
    return NodeConfig(
        policy=GETH.with_capacity(1_000_000),
        max_peers=None,
        relays_transactions=False,
        push_to_all=True,
        client_version=client_version,
    )


class Supernode(Node):
    """Measurement node: observer of pushes/announcements, direct injector."""

    def __init__(
        self,
        node_id: str,
        sim: Simulator,
        config: Optional[NodeConfig] = None,
    ) -> None:
        super().__init__(node_id, sim, config or supernode_config())
        self.observations: List[Observation] = []
        self._first_seen: Dict[Tuple[str, str], float] = {}
        self._first_kind: Dict[Tuple[str, str], str] = {}
        # tx hash -> peers seen possessing it (the keys of _first_seen,
        # indexed by hash for observers_of).
        self._observers: Dict[str, Set[str]] = {}
        # Lifetime totals by evidence kind ("push"/"announce"). Unlike the
        # per-iteration log, these survive clear_observations(), so the
        # observability collectors can report campaign-wide counts.
        self.observation_counts: Dict[str, int] = {}
        self.neighbor_responses: Dict[str, Tuple[str, ...]] = {}
        self.tx_observers.append(self._record_push)

    def _handle_neighbors(self, from_id: str, msg: Neighbors) -> None:
        # Discovery crawling (the W2 baseline): remember who reported
        # which routing-table entries.
        self.neighbor_responses[from_id] = msg.node_ids

    # ------------------------------------------------------------------
    # Observation log
    # ------------------------------------------------------------------
    def _record_push(self, from_id: str, tx: Transaction, _result) -> None:
        if from_id:
            self._record(from_id, tx.hash, "push")

    def _record(self, peer: str, tx_hash: str, kind: str) -> None:
        key = (peer, tx_hash)
        if key not in self._first_seen:
            self._first_seen[key] = self.sim.now
            self._first_kind[key] = kind
            self._observers.setdefault(tx_hash, set()).add(peer)
            self.observations.append(
                Observation(self.sim.now, peer, tx_hash, kind)
            )
            counts = self.observation_counts
            counts[kind] = counts.get(kind, 0) + 1

    def _handle_announcement(
        self, from_id: str, msg: NewPooledTransactionHashes
    ) -> None:
        # An announcement proves possession; record it for every hash and
        # fetch the bodies we do not have, ignoring the announcement hold.
        wanted = []
        for tx_hash in msg.hashes:
            self._record(from_id, tx_hash, "announce")
            self._mark_known(from_id, tx_hash)
            if tx_hash not in self.mempool:
                wanted.append(tx_hash)
        if wanted:
            self._send(from_id, GetPooledTransactions(hashes=tuple(wanted)))

    def observed_from(self, peer: str, tx_hash: str) -> bool:
        """Did ``peer`` demonstrably possess ``tx_hash``?"""
        return (peer, tx_hash) in self._first_seen

    def first_observation_time(self, peer: str, tx_hash: str) -> Optional[float]:
        return self._first_seen.get((peer, tx_hash))

    def observers_of(self, tx_hash: str) -> Set[str]:
        """Every peer seen possessing ``tx_hash``."""
        return set(self._observers.get(tx_hash, ()))

    def observation_kind(self, peer: str, tx_hash: str) -> Optional[str]:
        """How ``peer`` first demonstrated possession: push/announce.

        Feeds the per-edge evidence records the hardened pipeline keeps
        (which message kind returned ``txA``, from whom, at what time).
        """
        return self._first_kind.get((peer, tx_hash))

    def clear_observations(self) -> None:
        """Reset the log between measurement iterations."""
        self.observations.clear()
        self._first_seen.clear()
        self._first_kind.clear()
        self._observers.clear()

    # ------------------------------------------------------------------
    # Snapshot/reset (see repro.sim.snapshot)
    # ------------------------------------------------------------------
    def capture_state(self) -> Dict[str, object]:
        state = super().capture_state()
        state["observations"] = list(self.observations)
        state["first_seen"] = dict(self._first_seen)
        state["first_kind"] = dict(self._first_kind)
        state["observation_counts"] = dict(self.observation_counts)
        state["neighbor_responses"] = dict(self.neighbor_responses)
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        super().restore_state(state)
        self.observations = list(state["observations"])
        self._first_seen = dict(state["first_seen"])
        self._first_kind = dict(state.get("first_kind", {}))
        self._observers = {}
        for peer, tx_hash in self._first_seen:
            self._observers.setdefault(tx_hash, set()).add(peer)
        self.observation_counts = dict(state["observation_counts"])
        self.neighbor_responses = dict(state["neighbor_responses"])

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def send_transactions(self, peer_id: str, txs: Sequence[Transaction]) -> None:
        """Push transactions directly to one peer, bypassing broadcast.

        Order within the packet is preserved on arrival, which Step 2/3 of
        the primitive relies on ("immediately after" the future flood).

        Raises :class:`~repro.errors.SendTimeoutError` when the network's
        fault plan times the injection out; the measurement stack converts
        that into a setup failure and retries with backoff.
        """
        if not txs:
            return
        faults = self.network.faults if self.network is not None else None
        if faults is not None and faults.send_times_out(peer_id):
            raise SendTimeoutError(peer_id, f"injecting {len(txs)} transactions")
        self._send(peer_id, Transactions(txs=tuple(txs)))

    def announce_hashes(self, peer_id: str, hashes: Sequence[str]) -> None:
        """Announce transaction hashes without ever delivering the bodies.

        This is the Bitcoin/TxProbe blocking trick (Section 4.1): a peer
        that requests an announced hash burns its announcement-hold window
        waiting for a body that never comes.
        """
        if hashes:
            self._send(peer_id, NewPooledTransactionHashes(hashes=tuple(hashes)))

    def send_find_node(self, peer_id: str) -> None:
        """Issue an RLPx FIND_NODE-style routing-table query."""
        self._send(peer_id, FindNode())

    def clear_neighbor_responses(self) -> None:
        self.neighbor_responses.clear()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @classmethod
    def join(
        cls,
        network: "Network",
        node_id: str = "supernode-M",
        targets: Optional[Iterable[str]] = None,
    ) -> "Supernode":
        """Create a supernode, attach it and connect it to ``targets``
        (default: every existing node)."""
        supernode = cls(node_id, network.sim)
        network.add_node(supernode, supernode=True)
        target_ids = list(targets) if targets is not None else [
            nid for nid in network.node_ids if nid != node_id
        ]
        for target in target_ids:
            if not network.are_connected(node_id, target):
                network.connect(node_id, target, force=True)
        return supernode
