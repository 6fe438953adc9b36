"""Sanitizer-style runtime invariant checker for simulated networks.

Asserts, while a simulation runs, the properties TopoShot's correctness
argument rests on (paper Sections 2 and 5):

mempool invariants
    pool size <= L; replacements satisfy the node's *conforming* policy
    bump R (replacement monotonicity); admitted pending nonces are never
    stale; periodic full structural checks via
    :meth:`repro.eth.mempool.Mempool.check_invariants`.
propagation invariants
    a ``PooledTransactions`` body only answers a recorded
    ``GetPooledTransactions`` ("no body without request"); requests only
    follow announcements; honest nodes only relay or announce
    transactions they have pooled; no node pushes the same body twice to
    the same peer (known-tx suppression).
TopoShot isolation invariant
    a guarded ``txC`` is replaced only on the probed target (registered
    per probe by the measurement primitives via :meth:`guard_isolation`).

Zero cost when disabled — by the same mechanism and claim as
``repro.obs``: installation *replaces* ``Network._deliver_cb`` (the
pre-bound callback every queued delivery carries) with a checking
wrapper and registers per-node transaction observers; without an
install, the hot paths execute byte-identical code. Install and clear at
quiescent instants only (in-flight deliveries carry the previously bound
callback).

Violations are recorded with exact per-invariant counts (bounded record
list), streamed into ``repro.obs`` (event + pull-collected counters, see
``repro.obs.wiring``), and classified *honest* vs. *byzantine*: a node
with an installed misbehavior (see :mod:`repro.eth.behaviors`) breaking
protocol is the adversary model working, while an honest node breaking
protocol is a simulator bug — in ``strict`` mode only the latter raises
:class:`~repro.errors.InvariantViolationError`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import InvariantViolationError, SimulationError
from repro.eth.mempool import AddOutcome, AddResult, Mempool, MempoolError
from repro.eth.messages import (
    GetPooledTransactions,
    Message,
    NewPooledTransactionHashes,
    PooledTransactions,
    Transactions,
)
from repro.eth.node import KnownTxCache, Node
from repro.eth.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.eth.network import Network

#: Every invariant the checker can report, in stable (doc) order.
INVARIANT_NAMES: Tuple[str, ...] = (
    "capacity",
    "replacement_bump",
    "nonce_order",
    "mempool_state",
    "relay_unpooled",
    "announce_unpooled",
    "unsolicited_request",
    "unsolicited_body",
    "duplicate_push",
    "isolation",
)

#: Cap on retained violation records (counters stay exact).
MAX_VIOLATION_RECORDS = 10000

#: FIFO bound for the per-node / per-link bookkeeping caches.
_CACHE_LIMIT = 32768


@dataclass(frozen=True)
class InvariantViolation:
    """One recorded violation."""

    time: float
    invariant: str
    node: str
    detail: str
    byzantine: bool


class InvariantChecker:
    """Runtime checker; install via ``Network.install_invariants``.

    Parameters
    ----------
    strict:
        Raise :class:`InvariantViolationError` on the first violation by
        an *honest* node (Byzantine violations are always record-only).
    full_check_every:
        Run a full :meth:`Mempool.check_invariants` sweep on a node's
        pool every N observed admissions on that checker (0 disables).
    """

    def __init__(self, strict: bool = False, full_check_every: int = 512) -> None:
        if full_check_every < 0:
            raise SimulationError(
                f"full_check_every must be >= 0, got {full_check_every!r}"
            )
        self.strict = strict
        self.full_check_every = full_check_every
        self.network: Optional["Network"] = None
        self.counts: Counter = Counter()
        self.honest_counts: Counter = Counter()
        self.violations: List[InvariantViolation] = []
        # Per-node: every hash the node ever admitted to its pool.
        self._ever_pooled: Dict[str, KnownTxCache] = {}
        # Per directed link (from, to): pushed bodies / announced hashes /
        # requested hashes (keyed (responder, requester)).
        self._pushed: Dict[Tuple[str, str], KnownTxCache] = {}
        self._announced: Dict[Tuple[str, str], KnownTxCache] = {}
        self._requested: Dict[Tuple[str, str], KnownTxCache] = {}
        # guarded txC hash -> node ids allowed to replace it.
        self._guards: Dict[str, FrozenSet[str]] = {}
        self._crash_counts: Dict[str, int] = {}
        self._observers: Dict[str, Callable[[str, Transaction, AddResult], None]] = {}
        self._admissions = 0

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def total_violations(self) -> int:
        return sum(self.counts.values())

    @property
    def honest_violations(self) -> int:
        return sum(self.honest_counts.values())

    def summary(self) -> str:
        if not self.counts:
            return "invariants: no violations"
        parts = [
            f"{name}={self.counts[name]}"
            for name in INVARIANT_NAMES
            if name in self.counts
        ]
        return (
            f"invariants: {self.total_violations} violations "
            f"({self.honest_violations} honest): " + ", ".join(parts)
        )

    def report(self) -> dict:
        """JSON form of everything recorded so far — what a campaign shard
        ships to the driver (:meth:`absorb` is the inverse)."""
        return {
            "counts": dict(self.counts),
            "honest_counts": dict(self.honest_counts),
            "violations": [asdict(v) for v in self.violations],
        }

    def absorb(self, report: dict) -> None:
        """Fold another checker's :meth:`report` into this one: counts sum,
        violation records append (same retention cap)."""
        self.counts.update(report["counts"])
        self.honest_counts.update(report["honest_counts"])
        room = MAX_VIOLATION_RECORDS - len(self.violations)
        self.violations.extend(
            InvariantViolation(**v) for v in report["violations"][:room]
        )

    # ------------------------------------------------------------------
    # Isolation guards (registered by the measurement primitives)
    # ------------------------------------------------------------------
    def guard_isolation(self, tx_c_hash: str, allowed: FrozenSet[str]) -> None:
        """Flag a planted ``txC``: replacing it anywhere off ``allowed``
        (the probed pair) breaks the primitive's isolation argument."""
        self._guards[tx_c_hash] = allowed

    # ------------------------------------------------------------------
    # Lifecycle (driven by Network.install_invariants / clear_invariants)
    # ------------------------------------------------------------------
    def attach(self, network: "Network") -> None:
        if self.network is not None:
            raise SimulationError("invariant checker is already attached")
        self.network = network
        for node_id, node in network.nodes.items():
            if node_id in network.supernode_ids:
                continue
            observer = self._make_observer(node)
            self._observers[node_id] = observer
            node.tx_observers.append(observer)
            self._crash_counts[node_id] = node.crash_count

    def detach(self, network: "Network") -> None:
        for node_id, observer in self._observers.items():
            node = network.nodes.get(node_id)
            if node is not None and observer in node.tx_observers:
                node.tx_observers.remove(observer)
        self._observers.clear()
        self.network = None

    def reset_transient(self) -> None:
        """Forget per-link protocol state (with ``forget_known_transactions``).

        The campaign loop wipes every node's per-peer known-transaction
        caches between iterations; the checker's push/announce/request
        bookkeeping mirrors those caches, so it must be wiped at the same
        instant or re-sent traffic would read as violations.
        """
        self._pushed.clear()
        self._announced.clear()
        self._requested.clear()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(self, invariant: str, node_id: str, detail: str) -> None:
        network = self.network
        behaviors = network.behaviors if network is not None else None
        byzantine = behaviors is not None and node_id in behaviors.assignments
        self.counts[invariant] += 1
        if not byzantine:
            self.honest_counts[invariant] += 1
        if len(self.violations) < MAX_VIOLATION_RECORDS:
            now = network.sim.now if network is not None else 0.0
            self.violations.append(
                InvariantViolation(now, invariant, node_id, detail, byzantine)
            )
        if network is not None:
            obs = network.obs
            if obs.enabled:
                obs.emit(
                    network.sim.now, "invariant", invariant, f"{node_id}: {detail}"
                )
        if self.strict and not byzantine:
            raise InvariantViolationError(
                f"invariant {invariant!r} violated by honest node "
                f"{node_id!r}: {detail}"
            )

    # ------------------------------------------------------------------
    # Transport checks (wrapped around Network._deliver_cb)
    # ------------------------------------------------------------------
    def make_delivery_wrapper(
        self, deliver: Callable[..., None]
    ) -> Callable[..., None]:
        """Wrap the network's pre-bound delivery callback.

        The transport hands the callback *integer* intern-table indices
        (the SoA hot path); the checker's bookkeeping is string-keyed, so
        the wrapper translates through the network's name table once per
        delivery. ``attach`` ran before this is called (see
        ``Network.install_invariants``), so the network is bound.
        """
        names = self.network._names

        def checked_deliver(
            fi: int, ti: int, msg: Message, epoch: int = -1
        ) -> None:
            self.on_delivery(names[fi], names[ti], msg)
            deliver(fi, ti, msg, epoch)

        return checked_deliver

    def on_delivery(self, from_id: str, to_id: str, msg: Message) -> None:
        """Inspect one delivery *before* the target handles it."""
        cls = msg.__class__
        if cls is Transactions or cls is PooledTransactions:
            self._check_body(from_id, to_id, msg, cls is PooledTransactions)
        elif cls is NewPooledTransactionHashes:
            self._check_announce(from_id, to_id, msg)
        elif cls is GetPooledTransactions:
            self._check_request(from_id, to_id, msg)

    def _link_cache(
        self, table: Dict[Tuple[str, str], KnownTxCache], key: Tuple[str, str]
    ) -> KnownTxCache:
        cache = table.get(key)
        if cache is None:
            cache = table[key] = KnownTxCache()
        return cache

    def _check_body(
        self, from_id: str, to_id: str, msg: Message, is_response: bool
    ) -> None:
        network = self.network
        supernode_sender = network is not None and from_id in network.supernode_ids
        ever_pooled = self._ever_pooled.get(from_id)
        from_pool = (
            network.nodes[from_id].mempool._by_hash
            if network is not None and from_id in network.nodes
            else {}
        )
        pushed = self._link_cache(self._pushed, (from_id, to_id))
        requested = (
            self._requested.get((from_id, to_id)) if is_response else None
        )
        for tx in msg.txs:
            tx_hash = tx.hash
            if supernode_sender:
                # The measurement node injects by design; record only.
                pushed[tx_hash] = None
                continue
            if is_response and (requested is None or tx_hash not in requested):
                self._record(
                    "unsolicited_body",
                    from_id,
                    f"body {tx_hash[:18]} to {to_id} without request",
                )
            if (
                ever_pooled is None or tx_hash not in ever_pooled
            ) and tx_hash not in from_pool:
                self._record(
                    "relay_unpooled",
                    from_id,
                    f"relayed never-pooled {tx_hash[:18]} to {to_id}",
                )
            if not is_response and tx_hash in pushed:
                # A restart wipes the sender's known-tx caches, making an
                # honest re-push legitimate; resync before flagging.
                crashes = network.nodes[from_id].crash_count if network else 0
                if crashes != self._crash_counts.get(from_id):
                    self._crash_counts[from_id] = crashes
                    pushed.clear()
                else:
                    self._record(
                        "duplicate_push",
                        from_id,
                        f"re-pushed {tx_hash[:18]} to {to_id}",
                    )
            pushed[tx_hash] = None
        if len(pushed) > _CACHE_LIMIT:
            pushed.prune(_CACHE_LIMIT)

    def _check_announce(self, from_id: str, to_id: str, msg: Message) -> None:
        network = self.network
        supernode_sender = network is not None and from_id in network.supernode_ids
        announced = self._link_cache(self._announced, (from_id, to_id))
        ever_pooled = self._ever_pooled.get(from_id)
        from_pool = (
            network.nodes[from_id].mempool._by_hash
            if network is not None and from_id in network.nodes
            else {}
        )
        for tx_hash in msg.hashes:
            announced[tx_hash] = None
            if supernode_sender:
                continue
            if (
                ever_pooled is None or tx_hash not in ever_pooled
            ) and tx_hash not in from_pool:
                self._record(
                    "announce_unpooled",
                    from_id,
                    f"announced never-pooled {tx_hash[:18]} to {to_id}",
                )
        if len(announced) > _CACHE_LIMIT:
            announced.prune(_CACHE_LIMIT)

    def _check_request(self, from_id: str, to_id: str, msg: Message) -> None:
        # from_id requests bodies *from* to_id: record under
        # (responder, requester) so the eventual body looks itself up.
        network = self.network
        supernode_sender = network is not None and from_id in network.supernode_ids
        requested = self._link_cache(self._requested, (to_id, from_id))
        announced = self._announced.get((to_id, from_id))
        for tx_hash in msg.hashes:
            requested[tx_hash] = None
            if supernode_sender:
                continue
            if announced is None or tx_hash not in announced:
                self._record(
                    "unsolicited_request",
                    from_id,
                    f"requested unannounced {tx_hash[:18]} from {to_id}",
                )
        if len(requested) > _CACHE_LIMIT:
            requested.prune(_CACHE_LIMIT)

    # ------------------------------------------------------------------
    # Mempool checks (per-node transaction observers)
    # ------------------------------------------------------------------
    def _make_observer(
        self, node: Node
    ) -> Callable[[str, Transaction, AddResult], None]:
        node_id = node.id
        pool = node.mempool
        ever_pooled = self._ever_pooled.setdefault(node_id, KnownTxCache())

        def observer(from_id: str, tx: Transaction, result: AddResult) -> None:
            outcome = result.outcome
            if outcome is AddOutcome.REJECTED_KNOWN:
                return
            if outcome is AddOutcome.REPLACED and result.replaced is not None:
                self._on_replacement(node_id, pool, tx, result.replaced)
            if result.admitted:
                ever_pooled[tx.hash] = None
                if len(ever_pooled) > _CACHE_LIMIT:
                    ever_pooled.prune(_CACHE_LIMIT)
                if result.is_pending and tx.nonce < node.confirmed_nonces.get(
                    tx.sender, 0
                ):
                    self._record(
                        "nonce_order",
                        node_id,
                        f"admitted stale nonce {tx.nonce} from {tx.sender[:10]}",
                    )
                if len(pool._by_hash) > pool._capacity:
                    self._record(
                        "capacity",
                        node_id,
                        f"pool holds {len(pool._by_hash)} > L={pool._capacity}",
                    )
                self._admissions += 1
                every = self.full_check_every
                if every and self._admissions % every == 0:
                    try:
                        pool.check_invariants()
                    except MempoolError as exc:
                        self._record("mempool_state", node_id, str(exc))

        return observer

    def _on_replacement(
        self, node_id: str, pool: Mempool, tx: Transaction, replaced: Transaction
    ) -> None:
        guard = self._guards.get(replaced.hash)
        if guard is not None and node_id not in guard:
            self._record(
                "isolation",
                node_id,
                f"guarded txC {replaced.hash[:18]} replaced off-target "
                f"by {tx.hash[:18]}",
            )
        conforming = pool.policy
        network = self.network
        if network is not None and network.behaviors is not None:
            original = network.behaviors.conforming_policy(node_id)
            if original is not None:
                conforming = original
        base_fee = pool.base_fee
        if not conforming.replacement_allowed(
            replaced.bid_price(base_fee), tx.bid_price(base_fee)
        ):
            self._record(
                "replacement_bump",
                node_id,
                f"replaced {replaced.hash[:18]} below bump "
                f"R={conforming.replace_bump}",
            )
