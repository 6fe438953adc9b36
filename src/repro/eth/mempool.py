"""The parameterized mempool of Section 5.1.

A transaction of sender ``s`` is **pending** (executable) when the nonces of
``s``'s transactions in the pool form a contiguous run starting at ``s``'s
confirmed chain nonce and the transaction belongs to that run; otherwise it
is a **future** transaction. Future transactions are buffered but never
forwarded by well-behaved nodes.

Admission of an incoming transaction ``tx1`` follows the paper's model:

- same sender and nonce as a stored ``tx2``: **replacement** iff
  ``price(tx1) >= (1 + R) * price(tx2)``;
- otherwise, if the pool is full, **eviction** makes room:

  - an incoming *future* transaction may evict the lowest-priced pending
    transaction iff its price is higher, more than ``P`` pending
    transactions are buffered, and the sender holds fewer than ``U``
    transactions in the pool;
  - an incoming *pending* transaction first evicts the lowest-priced future
    transaction (executable work is worth more than queued work — this is
    how ``txB`` at ``(1 - R/2) * Y`` enters a pool that TopoShot just filled
    with ``(1 + R) * Y`` futures, making the Figure 2 workflow coherent;
    real clients likewise shed queued transactions before executable ones);
    lacking futures it falls back to the price rule against pending ones.

EIP-1559 mode (Appendix E): the pool prices transactions by their max fee
and drops transactions whose max fee falls below the block base fee.

One loop. :meth:`Mempool._offer` applies these rules to a sequence of
offers with its locals bound once: it alone checks R, U, P, L and the fee
floor, picks victims, and files and unfiles what an offer moves.
:meth:`Mempool.add` is one offer through it, :meth:`Mempool.add_batch`
hands it the batch past the fill point, and a node hands it a whole
``Transactions`` packet with its mark-known and relay steps as per-offer
hooks. A packet therefore never passes through :meth:`Mempool.add`, and
an :class:`AddResult` is built only where somebody reads one.

Bookkeeping. Each resident transaction is filed once: by hash, and in its
sender's run — the transaction itself while it is the sender's only one
(at most one transaction per (sender, nonce) makes it a complete run), a
``{nonce: tx}`` dict of two or more otherwise. The future set is the only
class container, for futures are the rare class (floods make them) and
Geth too keeps its queue apart; *pending* is whatever is resident and not
future. Admission classifies only the transaction that moved, in O(1) of
its sender's queue length: a fresh pending transaction needs no filing
beyond its heap entry, a fresh future one joins the future set, a
replacement inherits its occupant's class, and an evicted transaction
re-classifies nobody unless it was pending with a queued successor. Only
where a run can really move (a filled gap promotes the queued tail, an
evicted pending transaction demotes it, a block or a base-fee drop
removes transactions) does :meth:`Mempool._rebalance_sender` rescan the
sender's whole queue.
"""

from __future__ import annotations

import enum
import heapq
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.errors import MempoolError
from repro.eth.policies import GETH, MempoolPolicy
from repro.eth.transaction import Transaction


class AddOutcome(enum.Enum):
    """Result category of offering one transaction to a mempool."""

    ADMITTED_PENDING = "admitted_pending"
    ADMITTED_FUTURE = "admitted_future"
    REPLACED = "replaced"
    REJECTED_KNOWN = "rejected_known"
    REJECTED_STALE_NONCE = "rejected_stale_nonce"
    REJECTED_UNDERPRICED_REPLACEMENT = "rejected_underpriced_replacement"
    REJECTED_FUTURE_LIMIT = "rejected_future_limit"
    REJECTED_POOL_FULL = "rejected_pool_full"
    REJECTED_BASE_FEE = "rejected_base_fee"
    REJECTED_FEE_FLOOR = "rejected_fee_floor"

    # Enum members are singletons, so identity hashing is consistent with
    # their (identity-based) equality — and C-speed, unlike the default
    # name-based Enum hash, which showed up in mempool.add profiles.
    __hash__ = object.__hash__


# Outcome by stats key. The admission loop names an offer's outcome by its
# stats key, a constant, and looks the member up only for an AddResult:
# on CPython 3.11 reading a member as ``AddOutcome.X`` costs about ten
# times reading a constant.
_OUTCOME = {outcome.value: outcome for outcome in AddOutcome}
_ADMITTED_KEYS = ("admitted_pending", "admitted_future", "replaced")
_ADMITTED = frozenset(_OUTCOME[key] for key in _ADMITTED_KEYS)

# Shared immutable default for AddResult.evicted/.promoted: results are
# read-only, and two fresh lists per offered transaction was the second
# largest allocation source after the results themselves.
_NO_TXS: Tuple[Transaction, ...] = ()


#: A sender's run: its only transaction, or ``{nonce: tx}`` of two or more.
Run = Union[Transaction, Dict[int, Transaction]]


def _run_txs(run: Optional[Run]) -> Iterable[Transaction]:
    """A run's transactions in filing order."""
    if run.__class__ is dict:
        return run.values()
    return () if run is None else (run,)


def _copy_runs(by_sender: Dict[str, Run], long_runs: Iterable[str]) -> Dict[str, Run]:
    """A per-sender table copy: the dict runs of ``long_runs`` are copied,
    a sole transaction is itself."""
    copy = dict(by_sender)
    copy.update((sender, dict(copy[sender])) for sender in long_runs)
    return copy


class AddResult:
    """Everything that happened when a transaction was offered to the pool.

    A ``__slots__`` class with ``admitted``/``propagatable`` computed
    eagerly instead of via properties. One is allocated per
    :meth:`Mempool.add` and per duplicate an observed node receives
    (``Node._receive``); never for ``add_batch`` offers or for a packet
    into a node that neither is observed nor echoes futures, which the
    admission loop answers without one.
    """

    __slots__ = (
        "tx", "outcome", "replaced", "evicted", "promoted",
        "is_pending", "admitted", "propagatable",
    )

    def __init__(
        self,
        tx: Transaction,
        outcome: AddOutcome,
        replaced: Optional[Transaction] = None,
        evicted: Optional[List[Transaction]] = None,
        promoted: Optional[List[Transaction]] = None,
        is_pending: bool = False,
    ) -> None:
        self.tx = tx
        self.outcome = outcome
        self.replaced = replaced
        self.evicted = _NO_TXS if evicted is None else evicted
        self.promoted = _NO_TXS if promoted is None else promoted
        self.is_pending = is_pending
        admitted = outcome in _ADMITTED
        self.admitted = admitted
        # Admitted *and* executable: only these are forwarded to peers.
        self.propagatable = admitted and is_pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AddResult({self.tx.short_hash()}, {self.outcome.name}, "
            f"pending={self.is_pending}, evicted={len(self.evicted)}, "
            f"promoted={len(self.promoted)})"
        )


NonceProvider = Callable[[str], int]


class Mempool:
    """An unconfirmed-transaction buffer governed by a :class:`MempoolPolicy`.

    Parameters
    ----------
    policy:
        The R/U/P/L parameter set (see :mod:`repro.eth.policies`).
    confirmed_nonce:
        Callable mapping a sender address to its confirmed chain nonce;
        defaults to "0 for everyone", which suits standalone unit tests.
    clock:
        Callable returning the current time; the fee market's floor
        refresh reads it. Defaults to a constant 0.
    """

    def __init__(
        self,
        policy: MempoolPolicy = GETH,
        confirmed_nonce: Optional[NonceProvider] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.set_policy(policy)  # and the hot-path caches of its attributes
        self._confirmed_nonce: NonceProvider = confirmed_nonce or (lambda sender: 0)
        self._clock: Callable[[], float] = clock or (lambda: 0.0)
        self.base_fee: int = 0
        # Live fee market (repro.eth.fee_market), attached opt-in by
        # Network.install_fee_market. None keeps admission on the exact
        # seed code path (golden fingerprints).
        self.fee_market = None
        # add_batch defers eviction-heap maintenance: while True, _place
        # records no heap entries and draws no sequence numbers; the
        # batch ends with one _rebuild_price_heaps().
        self._heaps_deferred = False

        self._by_hash: Dict[str, Transaction] = {}
        self._by_sender: Dict[str, Run] = {}
        self._future: Set[str] = set()  # pending: in _by_hash, not in here
        self._seq = 0  # next tie-break number
        # Lazy min-heaps keyed by (price, seq); entries are validated on pop.
        self._pending_heap: List[Tuple[int, int, str]] = []
        self._future_heap: List[Tuple[int, int, str]] = []

        # Counters exposed for tests and experiment bookkeeping.
        self.stats: Dict[str, int] = {outcome.value: 0 for outcome in AddOutcome}
        self.stats["evictions"] = 0

    def set_policy(self, policy: MempoolPolicy) -> None:
        """Swap the governing policy and refresh the hot-path caches.

        The supported way to change a live pool's policy (the Byzantine
        behavior layer swaps in R=0 tables): assigning ``self.policy``
        directly would leave ``_capacity``/``_enforce_base_fee``/
        ``_future_limit``/``_eviction_floor`` caching the old table. No
        transactions are re-validated; the new policy governs from the
        next offer on.
        """
        self.policy = policy
        self._capacity = policy.capacity
        self._enforce_base_fee = policy.enforce_base_fee
        self._future_limit = policy.future_limit_per_account
        self._eviction_floor = policy.eviction_pending_floor

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_hash)

    def __contains__(self, tx_hash: str) -> bool:
        return tx_hash in self._by_hash

    def get(self, tx_hash: str) -> Optional[Transaction]:
        """Transaction by hash, or None (mirrors eth_getTransactionByHash)."""
        return self._by_hash.get(tx_hash)

    @property
    def pending_count(self) -> int:
        return len(self._by_hash) - len(self._future)

    @property
    def future_count(self) -> int:
        return len(self._future)

    @property
    def is_full(self) -> bool:
        return len(self._by_hash) >= self._capacity

    @property
    def free_slots(self) -> int:
        return max(0, self._capacity - len(self._by_hash))

    def is_pending(self, tx_hash: str) -> bool:
        return tx_hash in self._by_hash and tx_hash not in self._future

    def pending_transactions(self) -> List[Transaction]:
        """All executable transactions, in pool (arrival) order."""
        future = self._future
        return [tx for h, tx in self._by_hash.items() if h not in future]

    def future_transactions(self) -> List[Transaction]:
        """All non-executable transactions, in pool (arrival) order."""
        future = self._future
        return [tx for h, tx in self._by_hash.items() if h in future]

    def sender_transaction(self, sender: str, nonce: int) -> Optional[Transaction]:
        """The stored transaction occupying (sender, nonce), if any."""
        run = self._by_sender.get(sender)
        if run.__class__ is dict:
            return run.get(nonce)
        return run if run is not None and run.nonce == nonce else None

    def pending_prices(self) -> List[int]:
        """Bid prices of all pending transactions (unsorted)."""
        base_fee, future = self.base_fee, self._future
        return [
            tx.bid_price(base_fee) for h, tx in self._by_hash.items() if h not in future
        ]

    def median_pending_price(self) -> Optional[int]:
        """Median bid price over pending transactions (Y estimation, §5.2.1)."""
        prices = sorted(self.pending_prices())
        if not prices:
            return None
        mid = len(prices) // 2
        if len(prices) % 2 == 1:
            return prices[mid]
        return (prices[mid - 1] + prices[mid]) // 2

    def pending_by_price_desc(self) -> List[Transaction]:
        """Pending transactions ordered best-paying first (miner's view).

        Within one sender the nonce order is preserved, since a later nonce
        cannot be mined before an earlier one.
        """
        txs = self.pending_transactions()
        txs.sort(key=lambda tx: (-tx.effective_price(self.base_fee), tx.sender, tx.nonce))
        # Stable fix-up: enforce per-sender nonce order.
        seen_nonce: Dict[str, int] = {}
        ordered: List[Transaction] = []
        deferred: Dict[str, List[Transaction]] = {}
        for tx in txs:
            expected = seen_nonce.get(tx.sender, self._confirmed_nonce(tx.sender) or 0)
            if tx.nonce == expected:
                ordered.append(tx)
                seen_nonce[tx.sender] = expected + 1
                queue = deferred.get(tx.sender, [])
                while queue and queue[0].nonce == seen_nonce[tx.sender]:
                    ready = queue.pop(0)
                    ordered.append(ready)
                    seen_nonce[tx.sender] += 1
            else:
                deferred.setdefault(tx.sender, []).append(tx)
                deferred[tx.sender].sort(key=lambda t: t.nonce)
        return ordered

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def add(self, tx: Transaction) -> AddResult:
        """Offer one transaction to the pool and apply the policy."""
        results: List[AddResult] = []
        self._offer((tx,), results=results)
        return results[0]

    def add_batch(
        self,
        txs: Iterable[Transaction],
        stop_when_full: bool = False,
    ) -> Dict[str, int]:
        """Offer many transactions with one heap rebuild instead of
        per-transaction heappushes.

        The fast path runs while the pool *cannot* fill mid-chunk
        (``len(pool) + chunk <= capacity``): no eviction is possible, so
        the lazy eviction heaps are not consulted and their maintenance —
        the per-offer heappush — is deferred to a single
        :meth:`_rebuild_price_heaps`. Once the pool can fill, the rest of
        the batch meets the rebuilt heaps in one pass of the loop that
        serves :meth:`add`, exactly as one ``add`` per offer would —
        unless ``stop_when_full=True``, which stops offering the moment
        the pool is full and never evicts (a chunk never exceeds the free
        room, so the fast path already does).

        Equivalent to sequential :meth:`add` on every canonical observable
        (transaction set, pending/future split, per-sender views, stats).
        Tie-break order among *equal-priced* eviction candidates follows
        the rebuilt-heap convention (``_by_hash`` insertion order) — the
        same re-keying every base-fee change already performs in
        :meth:`apply_block`.

        Returns this batch's outcome counts (stats-key strings, plus
        ``"evictions"`` when the batch evicted).
        """
        if not isinstance(txs, (list, tuple)):
            txs = list(txs)
        if not txs:
            return {}
        stats = self.stats
        before = dict(stats)
        by_hash = self._by_hash
        capacity = self._capacity
        i = 0
        n = len(txs)
        self._heaps_deferred = True
        try:
            while i < n:
                room = capacity - len(by_hash)
                if room <= 0:
                    break
                end = i + room if room < n - i else n
                self._offer(txs[i:end])
                i = end
        finally:
            self._heaps_deferred = False
        if any(stats[key] != before[key] for key in _ADMITTED_KEYS):
            self._rebuild_price_heaps()
        if i < n and not stop_when_full:
            self._offer(txs[i:])
        return {
            key: count - before[key]
            for key, count in stats.items()
            if count != before[key]
        }

    def _offer(
        self,
        txs: Iterable[Transaction],
        mark: Optional[Callable[[str], None]] = None,
        relay: Optional[Callable[[Transaction], None]] = None,
        relay_future: Optional[Callable[[Transaction], None]] = None,
        results: Optional[List[AddResult]] = None,
    ) -> None:
        """The admission loop: every offer meets the pool's rules here.

        The one place that checks R/U/P/L and the fee floor, picks victims,
        and files and unfiles what an offer moves; :meth:`add`,
        :meth:`add_batch` and a node's transaction packets
        (``Node._handle_txs``) are its callers. Each offer runs, in order:
        ``mark(hash)`` (the node's known-table write), its admission, then
        ``relay(tx)`` if it was admitted pending (``relay_future(tx)`` if
        admitted future) and ``relay`` of every transaction it promoted.
        ``results`` collects one :class:`AddResult` per offer; without it
        none is built.
        """
        by_hash = self._by_hash
        by_sender = self._by_sender
        future = self._future
        stats = self.stats
        confirmed_nonce = self._confirmed_nonce
        clock = self._clock
        base_fee = self.base_fee
        enforce_base_fee = self._enforce_base_fee
        market = self.fee_market
        interval = market.config.update_interval if market is not None else None
        replacement_allowed = self.policy.replacement_allowed
        limit = self._future_limit
        floor = self._eviction_floor
        capacity = self._capacity
        deferred = self._heaps_deferred
        # Only a re-key rebinds the heaps, and none happens inside an offer.
        pending_heap = self._pending_heap
        future_heap = self._future_heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        for tx in txs:
            tx_hash = tx.hash
            if mark is not None:
                mark(tx_hash)
            if tx_hash in by_hash:
                stats["rejected_known"] += 1
                if results is not None:
                    results.append(AddResult(tx, AddOutcome.REJECTED_KNOWN))
                continue
            sender = tx.sender
            tx_nonce = tx.nonce
            confirmed = confirmed_nonce(sender) or 0
            bid = tx.bid_price(base_fee)
            run = by_sender.get(sender)
            long_run = run.__class__ is dict
            if long_run:
                occupant = run.get(tx_nonce)
            else:
                occupant = run if run is not None and run.nonce == tx_nonce else None
            victim = rejected = None
            if tx_nonce < confirmed:
                rejected = "rejected_stale_nonce"
            elif enforce_base_fee and tx.is_underpriced_for_base_fee(base_fee):
                rejected = "rejected_base_fee"
            # Live fee-market floor (opt-in; see repro.eth.fee_market), on
            # every offer including replacements, like Geth's underpriced
            # check — which is why measurement prices are clamped so that
            # even txB at (1 - R/2) * Y clears it (min_measurement_y). This
            # is FeeMarket.floor_for inlined: the cached floor stands until
            # the update interval lapses, and only the offer where it
            # lapses asks the oracle.
            elif market is not None and bid < (
                market.floor
                if (now := clock()) - market.last_update < interval
                else market.floor_for(now)
            ):
                rejected = "rejected_fee_floor"
            elif occupant is not None:
                if not replacement_allowed(occupant.bid_price(base_fee), bid):
                    rejected = "rejected_underpriced_replacement"
            else:
                # Would tx be executable right after insertion? Walk the
                # sender's run from the confirmed nonce.
                if long_run:
                    nonce = confirmed
                    while nonce != tx_nonce and nonce in run:
                        nonce += 1
                    will_be_pending = nonce == tx_nonce
                else:
                    will_be_pending = tx_nonce == confirmed or (
                        run is not None and run.nonce == confirmed == tx_nonce - 1
                    )
                if (
                    not will_be_pending
                    and limit is not None
                    and (len(run) if long_run else run is not None) >= limit
                ):
                    rejected = "rejected_future_limit"
                elif len(by_hash) >= capacity:
                    # A full pool sheds a victim: for an incoming pending
                    # transaction the lowest-priced live future; lacking
                    # one, and for an incoming future always (the paper's
                    # eviction template), the lowest-priced pending one if
                    # more than P are pending and it bids strictly less.
                    # Dead heap entries are popped; the victim's stays.
                    # A live entry's key is its transaction's bid, since
                    # every base-fee change re-keys both heaps.
                    if will_be_pending:
                        while future_heap:
                            head = future_heap[0][2]
                            if head in future:
                                victim = by_hash[head]
                                break
                            heappop(future_heap)
                    if victim is None and len(by_hash) - len(future) > floor:
                        while pending_heap:
                            entry = pending_heap[0]
                            head = entry[2]
                            if head in by_hash and head not in future:
                                if entry[0] < bid:
                                    victim = by_hash[head]
                                break
                            heappop(pending_heap)
                    if victim is None:
                        rejected = "rejected_pool_full"
            if rejected is not None:
                stats[rejected] += 1
                if results is not None:
                    results.append(AddResult(tx, _OUTCOME[rejected]))
                continue

            # From here on only the transactions that move are classified.
            # That rests on the pool agreeing with the confirmed nonces
            # before the offer, which holds because their only writer
            # (Node.receive_block) calls apply_block in the same step and
            # restore_state restores both together.
            rescan = False
            if occupant is not None:
                # Same (sender, nonce): the sender's run is unchanged and
                # the replacement inherits its occupant's class.
                is_pending = occupant.hash not in future
                self._remove(occupant.hash)
                run = by_sender.get(sender)
            else:
                is_pending = will_be_pending
                # A fresh pending transaction moves others only when it
                # fills a gap (its successor is already queued); a fresh
                # future, never.
                rescan = will_be_pending and run is not None and (
                    tx_nonce + 1 in run if long_run else run.nonce == tx_nonce + 1
                )
            if victim is not None:
                victim_hash = victim.hash
                victim_sender = victim.sender
                victim_nonce = victim.nonce
                victim_was_pending = victim_hash not in future
                del by_hash[victim_hash]
                victim_run = by_sender[victim_sender]
                if victim_run.__class__ is not dict:
                    del by_sender[victim_sender]
                else:
                    del victim_run[victim_nonce]
                    if len(victim_run) == 1:  # back to the survivor
                        by_sender[victim_sender] = next(iter(victim_run.values()))
                future.discard(victim_hash)
                stats["evictions"] += 1
                # A pending victim with a queued successor demotes its
                # tail; any other leaves every class as it was.
                if (
                    victim_was_pending
                    and victim_run.__class__ is dict
                    and victim_nonce + 1 in victim_run
                ):
                    self._rebalance_sender(victim_sender)
                # will_be_pending and `run` predate the eviction: stale
                # when the victim was one of the sender's own.
                if victim_sender == sender:
                    rescan = True
                    run = by_sender.get(sender)
            by_hash[tx_hash] = tx
            if run is None:
                by_sender[sender] = tx
            elif run.__class__ is dict:
                run[tx_nonce] = tx
            else:  # a second nonce: the run becomes a dict, occupant first
                by_sender[sender] = {run.nonce: run, tx_nonce: tx}
            promoted = None
            if rescan:
                # tx meets the scan as a resident future with no heap entry
                # yet; the scan files it only if it promotes it.
                future.add(tx_hash)
                promoted = [
                    p for p in self._rebalance_sender(sender) if p.hash != tx_hash
                ]
                is_pending = tx_hash not in future
            # The scan files whatever it promotes and leaves a future alone,
            # so filing tx now as the run's last draws the number the scan
            # would have.
            if not (rescan and is_pending):
                if not is_pending:
                    future.add(tx_hash)
                if not deferred:  # add_batch's fast path re-keys at its end
                    heap = pending_heap if is_pending else future_heap
                    heappush(heap, (bid, self._seq, tx_hash))
                    self._seq += 1
            if occupant is not None:
                outcome = "replaced"
            elif is_pending:
                outcome = "admitted_pending"
            else:
                outcome = "admitted_future"
            stats[outcome] += 1
            if results is not None:
                evicted = None if victim is None else [victim]
                results.append(
                    AddResult(
                        tx, _OUTCOME[outcome], occupant, evicted, promoted, is_pending
                    )
                )
            if is_pending:
                if relay is not None:
                    relay(tx)
            elif relay_future is not None:
                relay_future(tx)
            if promoted and relay is not None:
                for promoted_tx in promoted:
                    relay(promoted_tx)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _remove(self, tx_hash: str) -> Transaction:
        tx = self._by_hash.pop(tx_hash)
        by_sender, sender = self._by_sender, tx.sender
        run = by_sender[sender]
        if run.__class__ is not dict:
            del by_sender[sender]
        else:
            del run[tx.nonce]
            if len(run) == 1:  # back to the survivor, in the sender's slot
                by_sender[sender] = next(iter(run.values()))
        self._future.discard(tx_hash)
        return tx

    def _place(self, tx_hash: str, bid: int, pending: bool) -> None:
        """File one transaction under its class and its eviction heap."""
        if pending:
            self._future.discard(tx_hash)
            heap = self._pending_heap
        else:
            self._future.add(tx_hash)
            heap = self._future_heap
        # Inside add_batch the heaps are rebuilt wholesale at the end, so
        # per-transaction pushes (and their sequence draws) are skipped.
        if not self._heaps_deferred:
            heapq.heappush(heap, (bid, self._seq, tx_hash))
            self._seq += 1

    def _rebalance_sender(self, sender: str) -> List[Transaction]:
        """Recompute pending/future split for one sender (the full scan).

        Needed only where a whole run can move: a filled gap, an evicted
        pending transaction with queued successors, an eviction inside the
        incoming sender's own queue, and removals by block or base fee.
        Every other admission files its one transaction with
        :meth:`_place`. Transactions that change class are re-filed in
        run order, which fixes their tie-break sequence numbers; a
        resident transaction not yet filed counts as future here, so the
        caller files it if it stays one.

        Returns transactions newly *promoted* to pending (they must be
        propagated by the owning node, like Geth's promoteExecutables).
        """
        run = self._by_sender.get(sender)
        promoted: List[Transaction] = []
        if run is None:
            return promoted
        confirmed = self._confirmed_nonce(sender) or 0
        # The pending run is the nonces confirmed .. end - 1.
        end = confirmed
        if run.__class__ is dict:
            while end in run:
                end += 1
        elif run.nonce == confirmed:
            end += 1
        future = self._future
        for tx in _run_txs(run):
            tx_hash = tx.hash
            should_be_pending = confirmed <= tx.nonce < end
            if (tx_hash not in future) is should_be_pending:
                continue
            if should_be_pending:
                promoted.append(tx)
            self._place(tx_hash, tx.bid_price(self.base_fee), should_be_pending)
        return promoted

    # ------------------------------------------------------------------
    # Chain events
    # ------------------------------------------------------------------
    def apply_block(
        self, included: Iterable[Transaction], new_base_fee: Optional[int] = None
    ) -> List[Transaction]:
        """Process a mined block: drop included and stale transactions.

        The caller must have advanced the confirmed-nonce provider first.
        Returns every transaction dropped from the pool. If ``new_base_fee``
        is given and the policy enforces base fees, under-priced
        transactions are dropped as well (Appendix E).
        """
        dropped: List[Transaction] = []
        included = list(included)
        for tx in included:
            if tx.hash in self._by_hash:
                dropped.append(self._remove(tx.hash))
        # Drop now-stale nonces of every touched sender, then re-file it.
        for sender in dict.fromkeys(tx.sender for tx in included):
            confirmed = self._confirmed_nonce(sender) or 0
            run = self._by_sender.get(sender)
            stale = [tx for tx in _run_txs(run) if tx.nonce < confirmed]
            dropped.extend([self._remove(tx.hash) for tx in stale])
            self._rebalance_sender(sender)
        if new_base_fee is not None:
            base_fee_changed = new_base_fee != self.base_fee
            self.base_fee = new_base_fee
            if self.policy.enforce_base_fee:
                dropped.extend(self._drop_underpriced(new_base_fee))
            if base_fee_changed:
                # _offer reads a victim's bid from its heap key, so a bid
                # that depends on the base fee (a subclass's) needs fresh
                # keys. The built-in classes' bids ignore it (a 1559
                # transaction bids its max fee); for them the re-key only
                # renumbers tie-breaks.
                self._rebuild_price_heaps()
        return dropped

    def _drop(self, doomed: List[Transaction]) -> List[Transaction]:
        """Remove ``doomed``, then re-file their senders in first-seen
        order: the order their re-filed transactions draw tie-break
        numbers in, so it must not follow string hashing."""
        for tx in doomed:
            self._remove(tx.hash)
        for sender in dict.fromkeys(tx.sender for tx in doomed):
            self._rebalance_sender(sender)
        return doomed

    def _rebuild_price_heaps(self) -> None:
        """Re-key both eviction heaps under the current ``base_fee``.

        Iterates ``_by_hash`` (insertion-ordered) rather than the future
        hash *set* so that re-assigned tie-breaker sequence numbers — and
        therefore victim selection among equal-priced transactions — stay
        identical across processes.
        """
        base_fee = self.base_fee
        pending_entries: List[Tuple[int, int, str]] = []
        future_entries: List[Tuple[int, int, str]] = []
        future = self._future
        for seq, (tx_hash, tx) in enumerate(self._by_hash.items(), self._seq):
            entry = (tx.bid_price(base_fee), seq, tx_hash)
            if tx_hash in future:
                future_entries.append(entry)
            else:
                pending_entries.append(entry)
        self._seq += len(self._by_hash)
        heapq.heapify(pending_entries)
        heapq.heapify(future_entries)
        self._pending_heap = pending_entries
        self._future_heap = future_entries

    def _drop_underpriced(self, base_fee: int) -> List[Transaction]:
        txs = self._by_hash.values()
        return self._drop([t for t in txs if t.is_underpriced_for_base_fee(base_fee)])

    def clear(self) -> int:
        """Drop every buffered transaction; returns how many were dropped.

        Used by experiment harnesses to model organic pool churn (mining,
        expiry, new traffic) compressed into an instant between measurement
        iterations. The tie-break counter restarts too: both heaps are
        empty and ``(bid, seq)`` is only compared inside one heap, so later
        tie-breaks keep their order and the pool is :attr:`is_blank` again.
        """
        dropped = len(self._by_hash)
        self._by_hash.clear()
        self._by_sender.clear()
        self._future.clear()
        self._pending_heap.clear()
        self._future_heap.clear()
        self._seq = 0
        return dropped

    # ------------------------------------------------------------------
    # Snapshot/reset (see repro.sim.snapshot)
    # ------------------------------------------------------------------
    def capture_state(self) -> Dict[str, object]:
        """Capture full pool state for later :meth:`restore_state`.

        Transactions are immutable, so shallow container copies suffice.
        The tie-break position is captured so that eviction order among
        equal-priced transactions replays identically; ``long_runs`` (senders
        whose run is a dict) so that no copy has to look for them.
        """
        long_runs = [s for s, run in self._by_sender.items() if run.__class__ is dict]
        return {
            "base_fee": self.base_fee,
            "by_hash": dict(self._by_hash),
            "by_sender": _copy_runs(self._by_sender, long_runs),
            "long_runs": long_runs,
            "future": set(self._future),
            "seq": self._seq,
            "pending_heap": list(self._pending_heap),
            "future_heap": list(self._future_heap),
            "stats": dict(self.stats),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore a capture taken by :meth:`capture_state`."""
        self.base_fee = state["base_fee"]
        self._copy_containers(state)
        self.stats = dict(state["stats"])

    @property
    def is_blank(self) -> bool:
        """Empty at tie-break position 0: new or cleared, not merely drained."""
        return not self._by_hash and not self._seq

    def refill_from(self, image: Dict[str, object], counts: Dict[str, int]) -> None:
        """Take by copy what one ``add_batch`` built in a pool like this one.

        ``image`` is the :meth:`capture_state` of a donor that was blank,
        was offered one ``add_batch(txs, stop_when_full=True)`` and
        returned ``counts``. This pool must be indistinguishable from that
        donor before the offer in everything :meth:`_offer` reads:
        blank, the same policy, base fee, fee market and clock, and no
        confirmed nonce for any sender of the batch
        (:func:`repro.netgen.workloads.prefill_mempools` establishes it).
        The same offer would then walk to the donor's containers, tie-break
        numbers (drawn from 0 in both) included; copying them is that
        answer without the walk. ``stats`` is the pool's own: bumped by the
        batch's outcome counts, not overwritten.
        """
        if not self.is_blank:
            raise MempoolError("refill_from needs a blank pool")
        self._copy_containers(image)
        stats = self.stats
        for key, count in counts.items():
            stats[key] += count

    def take_share(
        self, image: Dict[str, object], counts: Dict[str, int]
    ) -> Optional[Dict[str, int]]:
        """Take by copy what ``add_batch(txs, stop_when_full=True)`` admits
        into this pool, blank or not.

        ``image`` and ``counts`` are a blank donor's answer to that offer
        (as for :meth:`refill_from`), and the same conditions hold but
        blankness: same policy, base fee, fee market and clock, and no
        confirmed nonce for any sender of the batch. When the donor admitted
        every offer as pending, as separate one-transaction runs, and this
        pool holds none of their senders, then each offer is pending here
        too until the pool is full: residents cannot reach a fresh sender's
        run, and an offer that stops at a full pool never evicts. So the
        pool takes the donor's first ``free_slots`` transactions, bumps
        ``stats`` by their count and ends as ``add_batch`` ends, re-keying
        both heaps. Returns the outcome counts of the share, or None, having
        changed nothing, where the copy would not be the offer's answer.
        """
        by_hash = image["by_hash"]
        if (
            counts.keys() != {"admitted_pending"}
            or image["long_runs"]
            or not self._by_sender.keys().isdisjoint(image["by_sender"])
        ):
            return None
        room = min(self.free_slots, len(by_hash))
        if not room:
            return {}
        self._by_hash.update(islice(by_hash.items(), room))
        self._by_sender.update(islice(image["by_sender"].items(), room))
        self.stats["admitted_pending"] += room
        self._rebuild_price_heaps()
        return {"admitted_pending": room}

    def _copy_containers(self, state: Dict[str, object]) -> None:
        """Replace this pool's content with copies of a capture's containers.

        Five C-level copies that share what is immutable: transactions
        (a sender's only one is its whole run) and heap entries. The rest
        is copied, never adopted: one capture is handed to many pools
        (every shard/sweep restore, every sibling of a refresh donor), and
        a live pool would corrupt it for the next. Insertion order of
        ``_by_hash`` is state (dict copies preserve it):
        ``_rebuild_price_heaps`` iterates it to assign tie-breakers.
        """
        self._by_hash = dict(state["by_hash"])
        self._by_sender = _copy_runs(state["by_sender"], state["long_runs"])
        self._future = set(state["future"])
        self._seq = state["seq"]
        self._pending_heap = list(state["pending_heap"])
        self._future_heap = list(state["future_heap"])

    # ------------------------------------------------------------------
    # Consistency check (used by property-based tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`MempoolError` if internal state is inconsistent."""
        by_hash, future = self._by_hash, self._future
        if len(by_hash) > self.policy.capacity:
            raise MempoolError("pool exceeds capacity L")
        if not future <= by_hash.keys():
            raise MempoolError("future transaction not resident")
        heaps = self._pending_heap, self._future_heap  # indexed by "is future"
        entries = [{entry[2] for entry in heap} for heap in heaps]
        if any(h not in entries[h in future] for h in by_hash):
            raise MempoolError("live transaction without an eviction-heap entry")
        base_fee = self.base_fee
        for price, _, h in (entry for heap in heaps for entry in heap):
            tx = by_hash.get(h)
            if tx is not None and price != tx.bid_price(base_fee):
                raise MempoolError(f"heap key of tx {tx.short_hash()} is not its bid")
        size = 0
        for sender, run in self._by_sender.items():
            if run.__class__ is not dict:
                nonces = {run.nonce: run}
            elif len(run) < 2:
                raise MempoolError(f"dict run of {len(run)} retained for {sender}")
            else:
                nonces = run
            size += len(nonces)
            confirmed = self._confirmed_nonce(sender) or 0
            end = confirmed
            while end in nonces:
                if nonces[end].hash in future:
                    raise MempoolError(
                        f"tx {nonces[end].short_hash()} in pending run but "
                        "marked future"
                    )
                end += 1
            for nonce, tx in nonces.items():
                filed = (sender, nonce) == (tx.sender, tx.nonce)
                if not filed or by_hash.get(tx.hash) is not tx:
                    raise MempoolError(f"tx {tx.short_hash()} misfiled by sender")
                if nonce >= end and tx.hash not in future:
                    raise MempoolError(
                        f"tx {tx.short_hash()} beyond pending run but not marked future"
                    )
                if nonce < confirmed:
                    raise MempoolError("stale nonce retained")
        if size != len(by_hash):
            raise MempoolError("per-sender table and pool differ in size")
