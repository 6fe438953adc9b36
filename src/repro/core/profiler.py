"""Client mempool-policy profiling (Section 5.1, the paper's Table 3).

A measurement node drives black-box unit tests against a target mempool
and reads off R, U, P and L from the observed replacement/eviction
behaviour. The profiler only calls ``Mempool.add`` and inspects outcomes —
it never peeks at the policy object — so Table 3 is *measured*, not copied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.eth.account import Wallet
from repro.eth.mempool import AddOutcome, Mempool
from repro.eth.policies import MempoolPolicy
from repro.eth.transaction import Transaction, TransactionFactory, gwei

BASE_PRICE = gwei(1.0)
HIGH_PRICE = gwei(100.0)


@dataclass(frozen=True)
class ClientProfile:
    """Measured mempool parameters of one client."""

    name: str
    replace_bump: Optional[float]  # R; None if not found within scan range
    future_limit: Optional[int]  # U; None = unlimited
    eviction_floor: int  # P
    capacity: int  # L

    def replace_bump_percent(self) -> str:
        if self.replace_bump is None:
            return ">max-scanned"
        return f"{self.replace_bump * 100:.1f}%"

    def future_limit_str(self) -> str:
        return "inf" if self.future_limit is None else str(self.future_limit)


def _fresh_pool(policy: MempoolPolicy) -> Mempool:
    return Mempool(policy=policy)


def _fill_pending(
    pool: Mempool,
    wallet: Wallet,
    factory: TransactionFactory,
    count: int,
    price: int = BASE_PRICE,
) -> List[Transaction]:
    """Insert ``count`` pending transactions from distinct accounts."""
    txs = []
    for _ in range(count):
        tx = factory.transfer(wallet.fresh_account(prefix="fill"), gas_price=price)
        result = pool.add(tx)
        if not result.admitted:
            break
        txs.append(tx)
    return txs


def _fill_future(
    pool: Mempool,
    wallet: Wallet,
    factory: TransactionFactory,
    count: int,
    price: int = BASE_PRICE,
    per_account: int = 1,
) -> int:
    """Insert up to ``count`` future transactions, ``per_account`` each."""
    inserted = 0
    while inserted < count:
        account = wallet.fresh_account(prefix="fut")
        for index in range(per_account):
            if inserted >= count:
                break
            result = pool.add(factory.future(account, gas_price=price, index=index))
            if not result.admitted:
                return inserted
            inserted += 1
    return inserted


def measure_replace_bump(
    policy: MempoolPolicy,
    granularity: float = 0.005,
    max_bump: float = 0.30,
) -> Optional[float]:
    """Scan bump ratios to find the minimal successful replacement bump R.

    Each trial uses a fresh pool holding one pending transaction and offers
    a same-sender/nonce transaction at the candidate price.
    """
    steps = int(round(max_bump / granularity))
    for step in range(steps + 1):
        bump = step * granularity
        pool = _fresh_pool(policy)
        wallet = Wallet(f"profile-R-{step}")
        factory = TransactionFactory()
        account = wallet.fresh_account()
        original = factory.transfer(account, gas_price=BASE_PRICE)
        assert pool.add(original).admitted
        challenger = Transaction(
            sender=original.sender,
            nonce=original.nonce,
            gas_price=int(math.ceil(BASE_PRICE * (1.0 + bump))),
        )
        if pool.add(challenger).outcome is AddOutcome.REPLACED:
            return bump
    return None


def measure_capacity(policy: MempoolPolicy, probe_limit: int = 20_000) -> int:
    """Add ever-higher-priced pending transactions until one evicts or is
    rejected; the admitted count without side effects is L."""
    pool = _fresh_pool(policy)
    wallet = Wallet("profile-L")
    factory = TransactionFactory()
    for index in range(probe_limit):
        tx = factory.transfer(
            wallet.fresh_account(prefix="cap"), gas_price=BASE_PRICE + index
        )
        result = pool.add(tx)
        if result.evicted or not result.admitted:
            return index
    return probe_limit


def measure_future_limit(
    policy: MempoolPolicy, capacity: int
) -> Optional[int]:
    """Fill the pool with pending transactions, then flood futures from one
    account until rejection; a future-limit rejection reveals U, while a
    pool-full rejection means U is effectively unlimited."""
    pool = _fresh_pool(policy)
    wallet = Wallet("profile-U")
    factory = TransactionFactory()
    _fill_pending(pool, wallet, factory, capacity)
    account = wallet.fresh_account(prefix="flood")
    admitted = 0
    for index in range(capacity + 2):
        result = pool.add(
            factory.future(account, gas_price=HIGH_PRICE, index=index)
        )
        if result.outcome is AddOutcome.REJECTED_FUTURE_LIMIT:
            return admitted
        if not result.admitted:
            return None  # ran out of evictable pending first: unlimited
        admitted += 1
    return None


def _eviction_succeeds(policy: MempoolPolicy, capacity: int, pending: int) -> bool:
    """One trial of the paper's eviction test: a full pool with ``pending``
    pending transactions and ``L - pending`` futures from other accounts; a
    high-priced future transaction is offered and must evict to succeed."""
    pool = _fresh_pool(policy)
    wallet = Wallet(f"profile-P-{pending}")
    factory = TransactionFactory()
    _fill_pending(pool, wallet, factory, pending)
    per_account = policy.future_limit_per_account or capacity
    _fill_future(pool, wallet, factory, capacity - pending, per_account=per_account)
    probe = factory.future(wallet.fresh_account(prefix="probe"), gas_price=HIGH_PRICE)
    return bool(pool.add(probe).evicted)


def measure_eviction_floor(policy: MempoolPolicy, capacity: int) -> int:
    """Find P: the minimal pending count allowing eviction, minus one.

    Eviction requires strictly more than P pending transactions, so success
    is monotone in the pending count and a binary search suffices (the
    paper sweeps l by hand; Table 3 reports P = minimal successful l - 1).
    """
    if _eviction_succeeds(policy, capacity, 1):
        return 0
    if not _eviction_succeeds(policy, capacity, capacity):
        return capacity  # eviction never triggered
    low, high = 1, capacity  # low fails, high succeeds
    while high - low > 1:
        mid = (low + high) // 2
        if _eviction_succeeds(policy, capacity, mid):
            high = mid
        else:
            low = mid
    return high - 1


def profile_client(policy: MempoolPolicy) -> ClientProfile:
    """Run all four black-box tests against a client policy."""
    capacity = measure_capacity(policy)
    floor = measure_eviction_floor(policy, capacity)
    return ClientProfile(
        name=policy.name,
        replace_bump=measure_replace_bump(policy),
        future_limit=measure_future_limit(policy, capacity),
        eviction_floor=floor,
        capacity=capacity,
    )
