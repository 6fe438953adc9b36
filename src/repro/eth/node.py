"""A simulated Ethereum full node.

Models exactly the behaviours TopoShot's correctness argument depends on
(Sections 2 and 5 of the paper):

- **push propagation**: an admitted *pending* transaction is pushed to a
  subset of peers (all of them, or ``ceil(sqrt(n))`` like Geth >= 1.9.11)
  and announced by hash to the rest;
- **announcement protocol**: a peer receiving an announcement requests the
  transaction unless it already has it or requested it within the last
  ``ANNOUNCE_HOLD`` seconds (5 s in Geth);
- **future transactions are buffered but never forwarded** (the non-default
  ``forwards_future`` flag models the misbehaving testnet nodes the paper's
  pre-processing phase filters out);
- **per-peer known-transaction tracking** so a transaction is never pushed
  back to the peer it came from, bounded like Geth's 32k known-tx cache so
  memory stays flat over long campaigns;
- **batched broadcast**: outgoing pushes are flushed every
  ``BROADCAST_INTERVAL`` seconds in one ``Transactions`` packet per peer,
  like Geth's broadcast loop.

Blocks are forwarded eagerly; on arrival a node advances its confirmed
nonce view and prunes its mempool.

The transaction paths here execute once per (message, peer) and dominate
large-campaign wall time together with the event engine, so they avoid
per-call dict lookups, closure allocations and repeated config attribute
chains; see ``docs/performance.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import NodeDetachedError
from repro.eth.chain import Block
from repro.eth.mempool import AddOutcome, AddResult, Mempool
from repro.eth.messages import (
    FindNode,
    GetPooledTransactions,
    Message,
    Neighbors,
    NewBlock,
    NewPooledTransactionHashes,
    PooledTransactions,
    Status,
    Transactions,
)
from repro.eth.policies import GETH, MempoolPolicy
from repro.eth.transaction import Transaction
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.eth.network import Network

TxObserver = Callable[[str, Transaction, AddResult], None]
BlockObserver = Callable[[str, Block], None]


class KnownTxCache(dict):
    """Bounded, insertion-ordered known-transaction-hash cache.

    A dict subclass so the hot paths keep C-speed membership tests
    (``h in cache``) and inserts (``cache[h] = None``) while offering the
    small set-like API (`add`/`discard`) the rest of the code and the tests
    use. Eviction is FIFO over insertion order — the dict *is* the order —
    mirroring Geth's bounded per-peer knownTxs cache (32768 hashes). FIFO
    keeps eviction deterministic across processes, unlike anything derived
    from string-hash iteration order.
    """

    __slots__ = ()

    def add(self, tx_hash: str) -> None:
        self[tx_hash] = None

    def discard(self, tx_hash: str) -> None:
        self.pop(tx_hash, None)

    def prune(self, limit: int) -> int:
        """Drop oldest entries until at most ``limit`` remain."""
        dropped = 0
        while len(self) > limit:
            del self[next(iter(self))]
            dropped += 1
        return dropped


#: Seconds a requested announcement is held: a node does not request an
#: announced transaction again within this long (5 s in Geth).
ANNOUNCE_HOLD = 5.0
#: Seconds between flushes of the batched broadcast loop.
BROADCAST_INTERVAL = 0.02
#: The network id every simulated node reports (``admin_nodeInfo``).
NETWORK_ID = 1


@dataclass(frozen=True)
class NodeConfig:
    """Behavioural knobs of one node.

    ``max_peers=None`` means unlimited (used by supernodes). The default of
    50 active neighbours matches the Geth default quoted in the paper.
    ``known_tx_limit`` bounds each peer's known-transaction cache (Geth's
    ``maxKnownTxs`` is 32768); ``None`` disables the bound.
    """

    policy: MempoolPolicy = GETH
    max_peers: Optional[int] = 50
    push_to_all: bool = False
    announce_only: bool = False  # Bitcoin-style: no direct pushes at all
    relays_transactions: bool = True
    forwards_future: bool = False
    echoes_future_to_sender: bool = False  # Rinkeby quirk (Appendix D)
    responds_to_rpc: bool = True
    client_version: str = "Geth/v1.9.25-stable"
    known_tx_limit: Optional[int] = 32768


# How many `_announce_requested` entries may pile up before a flush takes
# the time to sweep out the expired ones.
_ANNOUNCE_PRUNE_THRESHOLD = 512


class Node:
    """One Ethereum node attached to a :class:`~repro.eth.network.Network`."""

    def __init__(
        self,
        node_id: str,
        sim: Simulator,
        config: Optional[NodeConfig] = None,
    ) -> None:
        self.id = node_id
        self.sim = sim
        self.config = config or NodeConfig()
        self.network: Optional["Network"] = None
        # Peer id -> slot: the peer's bit position in the known tables.
        self.peers: Dict[str, int] = {}
        self.confirmed_nonces: Dict[str, int] = {}
        self.head_number = 0
        # The mempool consults the confirmed nonce once per offered
        # transaction and the clock at its fee-floor checks; the dict's
        # own C-level ``get`` (the pool normalizes the None default) and
        # the simulator's frameless clock skip a Python frame per read.
        self.mempool = Mempool(
            policy=self.config.policy,
            confirmed_nonce=self.confirmed_nonces.get,
            clock=sim.clock,
        )
        self.routing_table: List[str] = []  # inactive neighbours (discovery)
        self.tx_observers: List[TxObserver] = []
        self.block_observers: List[BlockObserver] = []

        self.crashed = False
        self.crash_count = 0
        self._rng = sim.rng.stream(f"node:{node_id}")
        self._getrandbits = self._rng.getrandbits
        # Dense index of this node in its network's id-interning table
        # (repro.sim.idmap); -1 while detached. Set by Network.add_node.
        self.index = -1
        self._push_queue: Dict[str, List[Transaction]] = {}
        self._announce_queue: Dict[str, List[str]] = {}
        self._flush_scheduled = False
        self._flush_label = f"flush:{node_id}"
        self._announce_requested: Dict[str, float] = {}  # hash -> hold expiry
        self._seen_blocks: Set[str] = set()
        # Known tables (struct-of-arrays layout): one dict ``hash -> mask``
        # per node instead of a bounded set per peer, for transactions and
        # for blocks. Bit i of ``mask`` means "the peer occupying slot i
        # knows this hash". Slots are assigned on add_peer and recycled
        # through ``_free_slots`` after remove_peer sweeps the departing
        # bit out of both tables.
        self._known: Dict[str, int] = {}
        self._known_blocks: Dict[str, int] = {}
        self._free_slots: List[int] = []
        self._next_slot = 0
        # Broadcast-path caches. `_peer_list` pairs each peer id with its
        # slot bit in peer-dict insertion order, so the per-transaction
        # unaware scan is one dict lookup plus an int AND per peer.
        # `_peer_bits` maps peer id -> bit for inbound marking;
        # `_all_bits` ORs every current peer's bit (broadcast early-exit).
        # `_push_fanout` is Geth's ceil(sqrt(peer_count)).
        self._peer_list: List[Tuple[str, int]] = []
        self._peer_bits: Dict[str, int] = {}
        self._all_bits = 0
        self._push_fanout = 1
        # Per-type message handler table, consulted by handle_message and
        # directly by Network._deliver's fast path. Built from bound
        # methods, so subclass overrides (Supernode) resolve through the
        # MRO as usual. The table is keyed by exact message class.
        self._dispatch: Dict[type, Callable[[str, Message], None]] = {
            Transactions: self._handle_txs,
            PooledTransactions: self._handle_txs,
            NewPooledTransactionHashes: self._handle_announcement,
            GetPooledTransactions: self._handle_tx_request,
            NewBlock: self._handle_new_block,
            FindNode: self._handle_find_node,
            Status: self._handle_status,
            Neighbors: self._handle_neighbors,
        }
        # Immutable-config hot-path caches (NodeConfig is frozen).
        config = self.config
        self._known_tx_limit = config.known_tx_limit
        self._relays_transactions = config.relays_transactions
        self._forwards_future = config.forwards_future
        self._echoes_future = config.echoes_future_to_sender
        # Client versions learned from DevP2P Status handshakes; this is
        # the public information the paper's service discovery matches
        # frontend web3_clientVersion strings against (Section 6.3).
        self.peer_versions: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Peers
    # ------------------------------------------------------------------
    def can_accept_peer(self) -> bool:
        limit = self.config.max_peers
        return limit is None or len(self.peers) < limit

    def _refresh_peer_caches(self) -> None:
        """Rebuild the broadcast caches from the peers dict (cold path).

        ``add_peer`` appends incrementally instead of calling this — a
        supernode collects tens of thousands of peers, and rebuilding a
        length-k list per add is O(k^2) across a join. Insertion order is
        preserved either way: it feeds the broadcast fan-out shuffle and
        is part of determinism, not cosmetics.
        """
        self._peer_list = [(peer_id, 1 << slot) for peer_id, slot in self.peers.items()]
        self._peer_bits = dict(self._peer_list)
        all_bits = 0
        for _, bit in self._peer_list:
            all_bits |= bit
        self._all_bits = all_bits
        self._push_fanout = max(1, math.ceil(math.sqrt(len(self.peers))))

    def add_peer(self, peer_id: str) -> None:
        if peer_id not in self.peers:
            if self._free_slots:
                slot = self._free_slots.pop()
            else:
                slot = self._next_slot
                self._next_slot += 1
            self.peers[peer_id] = slot
            bit = 1 << slot
            self._peer_list.append((peer_id, bit))
            self._peer_bits[peer_id] = bit
            self._all_bits |= bit
            self._push_fanout = max(1, math.ceil(math.sqrt(len(self.peers))))
            if self.network is not None:
                # DevP2P handshake: exchange Status with the new peer.
                self._send(peer_id, Status(client_version=self.config.client_version))

    def remove_peer(self, peer_id: str) -> None:
        slot = self.peers.pop(peer_id, None)
        if slot is not None:
            # Sweep the departing peer's bit out of both tables so the slot
            # can be recycled without leaking "knows" bits to its next
            # occupant. Disconnects are cold; the sweep is O(table).
            bit = 1 << slot
            for known in (self._known, self._known_blocks):
                for key, value in known.items():
                    if value & bit:
                        known[key] = value & ~bit
            self._free_slots.append(slot)
            self._refresh_peer_caches()
        self._push_queue.pop(peer_id, None)
        self._announce_queue.pop(peer_id, None)
        self.peer_versions.pop(peer_id, None)

    @property
    def peer_ids(self) -> List[str]:
        return list(self.peers)

    @property
    def degree(self) -> int:
        return len(self.peers)

    def knows(self, peer_id: str, tx_hash: str) -> bool:
        """Does this node believe ``peer_id`` already has ``tx_hash``?"""
        bit = self._peer_bits.get(peer_id)
        return bit is not None and bool(self._known.get(tx_hash, 0) & bit)

    def _prune_known(self) -> None:
        """FIFO-prune the known-tx table down to ``known_tx_limit``.

        The table is insertion-ordered (the dict *is* the order), so
        dropping from the head evicts the oldest-first-seen hashes —
        deterministic across processes, like the old per-peer caches.
        """
        known = self._known
        limit = self._known_tx_limit
        while len(known) > limit:
            del known[next(iter(known))]

    def _mark_known(self, peer_id: str, tx_hash: str) -> None:
        bit = self._peer_bits.get(peer_id)
        if bit is not None:
            known = self._known
            value = known.get(tx_hash)
            if value is not None:
                known[tx_hash] = value | bit
            else:
                known[tx_hash] = bit
                limit = self._known_tx_limit
                if limit is not None and len(known) > limit:
                    self._prune_known()

    def forget_known_transactions(self) -> None:
        """Drop all known-tx state (between measurement iterations).

        The table is cleared, so ``known_tx_limit`` bounds live entries
        only, like Geth's per-peer FIFO.
        """
        self._known.clear()
        self._announce_requested.clear()

    # ------------------------------------------------------------------
    # Crash / restart (fault injection)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Take the node down: it neither sends nor receives while crashed.

        The network drops deliveries to/from a crashed node at delivery
        time; links are kept (the TCP sessions re-establish on restart).
        """
        if self.crashed:
            return
        self.crashed = True
        self.crash_count += 1
        self._push_queue.clear()
        self._announce_queue.clear()
        if self.network is not None:
            # Liveness changed: deliveries must re-run the guard chain
            # instead of taking the epoch fast path.
            self.network._epoch += 1
            self.network._crashed_count += 1

    def restart(self) -> None:
        """Bring the node back with volatile state wiped.

        Matches a rebooted client without a transaction journal (the
        paper's testnet targets restart with empty mempools): the mempool
        and all per-peer known-transaction/announcement state are gone;
        the persisted chain view (head, confirmed nonces) survives.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.mempool.clear()
        self._known.clear()
        self._announce_requested.clear()
        if self.network is not None:
            self.network._epoch += 1
            self.network._crashed_count -= 1

    # ------------------------------------------------------------------
    # Chain view
    # ------------------------------------------------------------------
    def confirmed_nonce(self, sender: str) -> int:
        return self.confirmed_nonces.get(sender, 0)

    # ------------------------------------------------------------------
    # Snapshot/reset (see repro.sim.snapshot)
    # ------------------------------------------------------------------
    def capture_state(self) -> Dict[str, object]:
        """Capture this node's behavioural state for :meth:`restore_state`.

        Per-peer entries are captured in peer-dict insertion order; that
        order feeds ``_refresh_peer_caches`` and hence the broadcast
        fan-out, so it is part of determinism, not cosmetics.
        """
        return {
            "crashed": self.crashed,
            "crash_count": self.crash_count,
            "head_number": self.head_number,
            "confirmed_nonces": dict(self.confirmed_nonces),
            "mempool": self.mempool.capture_state(),
            "peers": dict(self.peers),
            "known": dict(self._known),
            "known_blocks": dict(self._known_blocks),
            "free_slots": list(self._free_slots),
            "next_slot": self._next_slot,
            "peer_versions": dict(self.peer_versions),
            "announce_requested": dict(self._announce_requested),
            "seen_blocks": set(self._seen_blocks),
            "routing_table": list(self.routing_table),
            "flush_scheduled": self._flush_scheduled,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Rewind this node to a capture taken by :meth:`capture_state`.

        Captured containers are copied in (one snapshot serves many
        restores). ``confirmed_nonces`` is cleared and refilled *in place*
        because the mempool holds its bound ``.get``. Queued-but-unflushed
        gossip is dropped: snapshots are only taken at quiescent instants,
        so there legitimately is none.
        """
        self.crashed = state["crashed"]
        self.crash_count = state["crash_count"]
        self.head_number = state["head_number"]
        self.confirmed_nonces.clear()
        self.confirmed_nonces.update(state["confirmed_nonces"])
        self.mempool.restore_state(state["mempool"])
        self.peers = dict(state["peers"])
        self._known = dict(state["known"])
        self._known_blocks = dict(state["known_blocks"])
        self._free_slots = list(state["free_slots"])
        self._next_slot = state["next_slot"]
        self.peer_versions = dict(state["peer_versions"])
        self._announce_requested = dict(state["announce_requested"])
        self._seen_blocks = set(state["seen_blocks"])
        self.routing_table = list(state["routing_table"])
        self._push_queue = {}
        self._announce_queue = {}
        self._flush_scheduled = state["flush_scheduled"]
        self._refresh_peer_caches()

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle_message(self, from_id: str, msg: Message) -> None:
        """Generic delivery entry point (the guarded/slow path).

        The transport's epoch fast path dispatches straight into
        ``_dispatch`` and skips this frame entirely (see
        ``Network._deliver``); direct callers and the guarded path land
        here, so overriding this method alone does NOT intercept every
        delivery — override the handler, or the dispatch table entry.
        """
        handler = self._dispatch.get(msg.__class__)
        if handler is None:
            raise TypeError(f"unhandled message type {type(msg).__name__}")
        handler(from_id, msg)

    def _handle_txs(self, from_id: str, msg: Message) -> None:
        """Admit a ``Transactions`` / ``PooledTransactions`` packet.

        The packet is one pass of the pool's admission loop, with this
        node's mark-known and relay steps as its per-offer hooks (the same
        order ``_receive`` keeps for one transaction). A node whose offers
        somebody reads — a registered observer — or that echoes futures
        back to their sender takes ``_receive`` per transaction instead.
        """
        if self.tx_observers or self._echoes_future:
            receive = self._receive
            for tx in msg.txs:
                receive(from_id, tx)
            return
        mark = None
        if from_id in self._peer_bits:
            mark = partial(self._mark_known, from_id)
        relay = relay_future = None
        if self._relays_transactions:
            relay = self.broadcast_transaction
            if self._forwards_future:
                # Misbehaving node: relays futures too (Section 6.2.1).
                relay_future = relay
        self.mempool._offer(msg.txs, mark, relay, relay_future)

    def _handle_new_block(self, from_id: str, msg: NewBlock) -> None:
        self.receive_block(from_id, msg.block)

    def _handle_find_node(self, from_id: str, msg: FindNode) -> None:
        self._send(from_id, Neighbors(node_ids=tuple(self.routing_table)))

    def _handle_status(self, from_id: str, msg: Status) -> None:
        self.peer_versions[from_id] = msg.client_version

    def _handle_neighbors(self, from_id: str, msg: Neighbors) -> None:
        pass  # discovery responses carry no state at the base node

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def receive_transaction(self, from_id: Optional[str], tx: Transaction) -> AddResult:
        """Admit a transaction arriving from ``from_id`` (None = local RPC)."""
        return self._receive(from_id, tx, want_result=True)

    def _receive(
        self, from_id: Optional[str], tx: Transaction, want_result: bool = False
    ) -> Optional[AddResult]:
        """The receive step of one transaction: mark the sender, short-cut
        a duplicate, admit.

        During gossip most deliveries carry a transaction the pool already
        holds. For a known hash this is equivalent to ``pool.add()`` (same
        stats bump, same result) minus the admission machinery that cannot
        apply to a duplicate — and the :class:`AddResult` is only built
        when somebody reads it: a registered observer, or a caller passing
        ``want_result`` (an echoing node's packet loop discards it). A
        packet into any other node is one pass of ``Mempool._offer``.
        """
        tx_hash = tx.hash
        if from_id is not None:
            self._mark_known(from_id, tx_hash)
        pool = self.mempool
        if tx_hash in pool._by_hash:
            pool.stats["rejected_known"] += 1
            observers = self.tx_observers
            if not (observers or want_result):
                return None
            result = AddResult(tx, AddOutcome.REJECTED_KNOWN)
            for observer in observers:
                observer(from_id or "", tx, result)
            return result
        return self._admit(from_id, tx)

    def _admit(self, from_id: Optional[str], tx: Transaction) -> AddResult:
        """Offer a not-yet-known transaction to the pool; echo and relay."""
        result = self.mempool.add(tx)
        for observer in self.tx_observers:
            observer(from_id or "", tx, result)
        if (
            self._echoes_future
            and from_id is not None
            and from_id in self.peers
            and result.admitted
            and not result.is_pending
        ):
            # The Rinkeby quirk the paper hit (Appendix D): "when our
            # measurement node M sends future transactions to certain nodes
            # in Rinkeby, these nodes return the same future transactions
            # back to node M."
            self._send(from_id, Transactions(txs=(tx,)))
        if self._relays_transactions:
            # Relay (inlined): push what became executable to peers.
            if result.propagatable or (result.admitted and self._forwards_future):
                # forwards_future: misbehaving node relays future
                # transactions too (Section 6.2.1).
                self.broadcast_transaction(tx)
            for promoted_tx in result.promoted:
                self.broadcast_transaction(promoted_tx)
        return result

    def submit_transaction(self, tx: Transaction) -> AddResult:
        """Local submission (eth_sendRawTransaction)."""
        return self.receive_transaction(None, tx)

    def broadcast_transaction(self, tx: Transaction) -> None:
        """Queue ``tx`` toward every peer not known to have it."""
        tx_hash = tx.hash
        known = self._known
        all_bits = self._all_bits
        value = known.get(tx_hash)
        if value is not None and value & all_bits == all_bits:
            # Every current peer already knows the hash (remove_peer
            # sweeps departing bits, so mask ⊆ all_bits for live peers).
            return
        mask = value or 0
        unaware = [item for item in self._peer_list if not mask & item[1]]
        if not unaware:
            return
        config = self.config
        if config.announce_only:
            # Bitcoin's propagation model (what TxProbe exploits): hashes
            # first, bodies on request, never unsolicited pushes.
            push_targets: List[Tuple[str, int]] = []
            announce_targets = unaware
        elif config.push_to_all:
            push_targets = unaware
            announce_targets = []
        else:
            # Inlined random.Random.shuffle: the exact Fisher-Yates of
            # CPython's shuffle, with _randbelow_with_getrandbits expanded
            # in place. Consumes the identical getrandbits sequence, so the
            # permutation — and every later draw — is bit-for-bit the same,
            # without two Python frames per element.
            getrandbits = self._getrandbits
            for i in range(len(unaware) - 1, 0, -1):
                n = i + 1
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                unaware[i], unaware[r] = unaware[r], unaware[i]
            n_push = self._push_fanout
            push_targets = unaware[:n_push]
            announce_targets = unaware[n_push:]
        # One table write covers every target: push + announce together
        # span the whole unaware set, so the entry's mask becomes all
        # current peers' bits.
        if value is None:
            known[tx_hash] = all_bits
            limit = self._known_tx_limit
            if limit is not None and len(known) > limit:
                self._prune_known()
        else:
            known[tx_hash] = value | all_bits
        if push_targets:
            push_queue = self._push_queue
            for peer_id, _bit in push_targets:
                bucket = push_queue.get(peer_id)
                if bucket is None:
                    push_queue[peer_id] = [tx]
                else:
                    bucket.append(tx)
        if announce_targets:
            announce_queue = self._announce_queue
            for peer_id, _bit in announce_targets:
                bucket = announce_queue.get(peer_id)
                if bucket is None:
                    announce_queue[peer_id] = [tx_hash]
                else:
                    bucket.append(tx_hash)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.sim.schedule(BROADCAST_INTERVAL, self._flush, self._flush_label)

    def _flush(self) -> None:
        self._flush_scheduled = False
        peers = self.peers
        network = self.network
        if network is None:
            raise NodeDetachedError(self.id)
        my_id = self.id
        push_queue, self._push_queue = self._push_queue, {}
        announce_queue, self._announce_queue = self._announce_queue, {}
        # One Network.send_batch call per flush instead of a Network.send
        # per peer: the transport resolves this node's index once, draws
        # latencies in the same per-peer order as the old loop, and hands
        # the engine every heap entry in a single push_entries call.
        batch: List[Tuple[str, Message]] = []
        for peer_id, txs in push_queue.items():
            if peer_id in peers:
                batch.append((peer_id, Transactions(txs=tuple(txs))))
        for peer_id, hashes in announce_queue.items():
            if peer_id in peers:
                batch.append(
                    (peer_id, NewPooledTransactionHashes(hashes=tuple(hashes)))
                )
        if batch:
            network.send_batch(my_id, batch)
        # Opportunistic hold-window hygiene: announcement holds are only
        # ever *read* within their 5 s window, but entries used to pile up
        # one per announced hash until a restart. Sweep the expired ones
        # once the map is big enough to matter.
        requested = self._announce_requested
        if len(requested) >= _ANNOUNCE_PRUNE_THRESHOLD:
            now = self.sim.now
            self._announce_requested = {
                tx_hash: expiry
                for tx_hash, expiry in requested.items()
                if expiry > now
            }

    def _handle_announcement(
        self, from_id: str, msg: NewPooledTransactionHashes
    ) -> None:
        # A sender that is not a peer has no bit to set: bit == 0 and
        # nothing is written.
        bit = self._peer_bits.get(from_id, 0)
        wanted: List[str] = []
        now = self.sim.now
        hold = ANNOUNCE_HOLD
        requested = self._announce_requested
        requested_get = requested.get
        # Membership against the mempool's primary hash index directly:
        # Mempool.__contains__ is one Python frame per announced hash.
        pool_txs = self.mempool._by_hash
        known = self._known
        known_get = known.get
        inserted = False
        for tx_hash in msg.hashes:
            if bit:
                value = known_get(tx_hash)
                if value is not None:
                    known[tx_hash] = value | bit
                else:
                    known[tx_hash] = bit
                    inserted = True
            if tx_hash in pool_txs:
                continue
            # Within the hold window we do not respond to other
            # announcements of the same transaction (Section 2).
            if requested_get(tx_hash, -1.0) > now:
                continue
            requested[tx_hash] = now + hold
            wanted.append(tx_hash)
        limit = self._known_tx_limit
        if inserted and limit is not None and len(known) > limit:
            self._prune_known()
        if wanted:
            self._send(from_id, GetPooledTransactions(hashes=tuple(wanted)))

    def _handle_tx_request(self, from_id: str, msg: GetPooledTransactions) -> None:
        pool_get = self.mempool.get
        available = tuple(
            tx for tx_hash in msg.hashes if (tx := pool_get(tx_hash)) is not None
        )
        if available:
            for tx in available:
                self._mark_known(from_id, tx.hash)
            self._send(from_id, PooledTransactions(txs=available))

    # ------------------------------------------------------------------
    # Blocks
    # ------------------------------------------------------------------
    def receive_block(self, from_id: Optional[str], block: Block) -> None:
        """Process a gossiped (or locally mined) block."""
        block_hash = block.hash
        known_blocks = self._known_blocks
        bit = self._peer_bits.get(from_id)
        if bit is not None:
            known_blocks[block_hash] = known_blocks.get(block_hash, 0) | bit
        if block_hash in self._seen_blocks:
            return
        self._seen_blocks.add(block_hash)
        if block.number > self.head_number:
            self.head_number = block.number
        for tx in block.txs:
            current = self.confirmed_nonces.get(tx.sender, 0)
            self.confirmed_nonces[tx.sender] = max(current, tx.nonce + 1)
        new_base_fee = (
            block.next_base_fee() if self.config.policy.enforce_base_fee else None
        )
        self.mempool.apply_block(block.txs, new_base_fee=new_base_fee)
        for observer in self.block_observers:
            observer(from_id or "", block)
        # Eager block gossip to peers that have not seen it.
        mask = known_blocks.get(block_hash, 0)
        for peer_id, bit in self._peer_list:
            if not mask & bit:
                self._send(peer_id, NewBlock(block=block))
        known_blocks[block_hash] = mask | self._all_bits

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _send(self, to_id: str, msg: Message) -> None:
        network = self.network
        if network is None:
            raise NodeDetachedError(self.id)
        network.send(self.id, to_id, msg)

    def __repr__(self) -> str:
        return (
            f"Node({self.id}, client={self.config.policy.name}, "
            f"peers={len(self.peers)}, pool={len(self.mempool)})"
        )
