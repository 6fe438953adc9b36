"""A deliberately naive mempool, written from the R/U/P/L rules alone.

:class:`ReferencePool` is the independent side of the lock-step test in
``test_mempool_reference.py``: one list of transactions in arrival order,
every query an O(n) walk, and the pending/future class of *every*
transaction recomputed from the confirmed nonces whenever it is asked
for. It shares no bookkeeping with :class:`repro.eth.mempool.Mempool` (no
sets, no heaps, no per-sender index, no caches), only the rules of that
module's docstring:

- **pending** = member of the sender's contiguous nonce run starting at
  its confirmed nonce; everything else is **future**;
- **R**: same sender and nonce replaces iff ``new >= (1 + R) * old``;
- **U**: a future transaction is refused once its sender already holds
  ``U`` transactions in the pool;
- **L**/**P**: a full pool evicts — an incoming pending transaction sheds
  the lowest-priced future, else the lowest-priced pending one under the
  price rule; an incoming future transaction may only displace the
  lowest-priced pending one, and only while more than ``P`` are pending
  and its own price is higher;
- EIP-1559 mode: offers and stored transactions below the base fee go;
- **fee floor**: an offer that passes the nonce and base-fee checks and
  bids below the live floor is refused, replacements included. The floor
  is a scripted function of time, sampled at the first such offer and
  again at the first one ``interval`` or more after the last sample; in
  between the last sample stands (a rate-limited oracle).

The clock is read where a pool reads it: at the floor check. A clock that
moves on at every read therefore moves in step for both pools, and an
interval can lapse in the middle of a batch.

The rules do not order *equal-priced* eviction candidates, so neither
does this pool: callers offer distinct prices (the real pool's tie-break
is pinned by ``test_mempool_admission.py`` instead).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.eth.mempool import AddOutcome
from repro.eth.policies import MempoolPolicy
from repro.eth.transaction import Transaction

# (outcome, evicted, promoted, is_pending) of one offer.
Offer = Tuple[AddOutcome, List[Transaction], List[Transaction], bool]


class ReferencePool:
    def __init__(
        self,
        policy: MempoolPolicy,
        confirmed_nonce: Callable[[str], int],
        clock: Callable[[], float] = lambda: 0.0,
        floor: Optional[Callable[[float], int]] = None,
        interval: float = 1.0,
    ) -> None:
        self.policy = policy
        self.confirmed_nonce = confirmed_nonce
        self.clock = clock
        self.floor = floor  # None: no live floor
        self.interval = interval
        self.sampled: Optional[Tuple[float, int]] = None  # (time, floor)
        self.base_fee = 0
        self.txs: List[Transaction] = []

    def _live_floor(self) -> int:
        now = self.clock()
        if self.sampled is None or now - self.sampled[0] >= self.interval:
            self.sampled = (now, self.floor(now))
        return self.sampled[1]

    # -- classes, recomputed from scratch on every call ------------------
    def _in_run(self, tx: Transaction, txs: List[Transaction]) -> bool:
        held = [t.nonce for t in txs if t.sender == tx.sender]
        start = self.confirmed_nonce(tx.sender)
        return tx.nonce >= start and all(
            nonce in held for nonce in range(start, tx.nonce + 1)
        )

    def pending(self) -> List[Transaction]:
        return [tx for tx in self.txs if self._in_run(tx, self.txs)]

    def future(self) -> List[Transaction]:
        return [tx for tx in self.txs if not self._in_run(tx, self.txs)]

    def _price(self, tx: Transaction) -> int:
        return tx.bid_price(self.base_fee)

    def _cheapest(self, txs: List[Transaction]) -> Optional[Transaction]:
        return min(txs, key=self._price) if txs else None

    # -- admission -------------------------------------------------------
    def add(self, tx: Transaction) -> Offer:
        policy = self.policy
        if any(t.hash == tx.hash for t in self.txs):
            return AddOutcome.REJECTED_KNOWN, [], [], False
        if tx.nonce < self.confirmed_nonce(tx.sender):
            return AddOutcome.REJECTED_STALE_NONCE, [], [], False
        if policy.enforce_base_fee and tx.is_underpriced_for_base_fee(self.base_fee):
            return AddOutcome.REJECTED_BASE_FEE, [], [], False
        if self.floor is not None and self._price(tx) < self._live_floor():
            return AddOutcome.REJECTED_FEE_FLOOR, [], [], False

        pending_before = self.pending()
        occupant = next(
            (t for t in self.txs if (t.sender, t.nonce) == (tx.sender, tx.nonce)),
            None,
        )
        if occupant is not None:
            bump = 1 + Fraction(str(policy.replace_bump))
            if self._price(tx) < bump * self._price(occupant):
                return AddOutcome.REJECTED_UNDERPRICED_REPLACEMENT, [], [], False
            self.txs.remove(occupant)
            self.txs.append(tx)
            promoted = self._promoted(pending_before, tx)
            return AddOutcome.REPLACED, [], promoted, self._in_run(tx, self.txs)

        arrives_pending = self._in_run(tx, self.txs + [tx])
        limit = policy.future_limit_per_account
        held = sum(1 for t in self.txs if t.sender == tx.sender)
        if not arrives_pending and limit is not None and held >= limit:
            return AddOutcome.REJECTED_FUTURE_LIMIT, [], [], False

        evicted: List[Transaction] = []
        if len(self.txs) >= policy.capacity:
            victim = self._cheapest(self.future()) if arrives_pending else None
            if victim is None:
                cheapest = self._cheapest(pending_before)
                if (
                    len(pending_before) > policy.eviction_pending_floor
                    and cheapest is not None
                    and self._price(cheapest) < self._price(tx)
                ):
                    victim = cheapest
            if victim is None:
                return AddOutcome.REJECTED_POOL_FULL, [], [], False
            self.txs.remove(victim)
            evicted.append(victim)

        self.txs.append(tx)
        promoted = self._promoted(pending_before, tx)
        is_pending = self._in_run(tx, self.txs)
        outcome = (
            AddOutcome.ADMITTED_PENDING if is_pending else AddOutcome.ADMITTED_FUTURE
        )
        return outcome, evicted, promoted, is_pending

    def _promoted(
        self, pending_before: List[Transaction], incoming: Transaction
    ) -> List[Transaction]:
        """Stored transactions the offer of ``incoming`` made executable."""
        return [
            tx
            for tx in self.pending()
            if tx is not incoming and tx not in pending_before
        ]

    def add_batch(
        self, txs: Iterable[Transaction], stop_when_full: bool = False
    ) -> Dict[str, int]:
        """A batch is its transactions offered one by one."""
        counts: Dict[str, int] = {}
        for tx in txs:
            if stop_when_full and len(self.txs) >= self.policy.capacity:
                break
            outcome, evicted, _, _ = self.add(tx)
            counts[outcome.value] = counts.get(outcome.value, 0) + 1
            if evicted:
                counts["evictions"] = counts.get("evictions", 0) + len(evicted)
        return counts

    # -- chain events ----------------------------------------------------
    def apply_block(
        self, included: Iterable[Transaction], new_base_fee: Optional[int] = None
    ) -> List[Transaction]:
        """Drop what the block included or made stale (the caller advanced
        the confirmed nonces first), then what a new base fee prices out."""
        mined = {tx.hash for tx in included}
        if new_base_fee is not None:
            self.base_fee = new_base_fee
        dropped = [
            tx
            for tx in self.txs
            if tx.hash in mined
            or tx.nonce < self.confirmed_nonce(tx.sender)
            or (
                new_base_fee is not None
                and self.policy.enforce_base_fee
                and tx.is_underpriced_for_base_fee(new_base_fee)
            )
        ]
        self.txs = [tx for tx in self.txs if tx not in dropped]
        return dropped
