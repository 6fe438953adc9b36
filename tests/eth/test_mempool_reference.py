"""Lock-step of :class:`Mempool` against the naive :class:`ReferencePool`.

Golden fingerprints pin that the pool behaves as it did yesterday; this
pins that it behaves as the R/U/P/L rules say. Hypothesis drives both
pools through the same stream of offers, replacements, evictions, batches
and mined blocks (confirmed nonces advance, the base fee moves) and
compares, after every step, the outcome, the evicted and promoted
transactions, and the pending and future sets — for the five client
presets of Table 3 and the EIP-1559 policy, scaled to pools small enough
to stay full. With a drawn live fee floor the clock moves on at every
read, so the floor's update interval lapses between offers and in the
middle of packets and batches.

Prices are distinct by construction: the rules leave the choice among
equal-priced eviction candidates open (see ``reference_pool.py``).
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.eth.fee_market import FeeMarket, FeeMarketConfig
from repro.eth.mempool import Mempool
from repro.eth.policies import ALETH, BESU, GETH, NETHERMIND, PARITY, MempoolPolicy
from repro.eth.transaction import DynamicFeeTransaction, Transaction
from tests.conftest import property_settings
from tests.eth.reference_pool import ReferencePool

SENDERS = [f"0xref{i}" for i in range(4)]
PRICE_STEP = 4096  # room for a per-offer serial below the drawn price level

POLICIES = [
    GETH.scaled(8),
    PARITY.scaled(12),
    NETHERMIND.scaled(8),
    BESU.scaled(8),
    ALETH.scaled(6),
    GETH.scaled(8).with_base_fee_enforcement(),
]
POLICY_IDS = ["geth", "parity", "nethermind", "besu", "aleth", "geth-1559"]

offer = st.tuples(
    st.sampled_from(SENDERS),
    # Nonce relative to the confirmed one; None extends the sender's run
    # (keeps pools full of pending transactions reachable).
    st.one_of(st.none(), st.integers(min_value=-1, max_value=4)),
    st.integers(min_value=1, max_value=40),  # price level
    st.booleans(),  # dynamic-fee transaction (1559 policy only)
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), offer),
        st.tuples(st.just("again"), st.integers(min_value=0, max_value=63)),
        st.tuples(
            st.just("batch"), st.lists(offer, min_size=1, max_size=6), st.booleans()
        ),
        st.tuples(st.just("packet"), st.lists(offer, min_size=1, max_size=6)),
        st.tuples(
            st.just("block"),
            st.lists(st.sampled_from(SENDERS), max_size=3, unique=True),
            st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
        ),
    ),
    min_size=1,
    max_size=90,
)


# A live floor: (clock steps, cycled one per read; floor levels, one per
# whole second of the clock, cycled). None: no fee market.
INTERVAL = 1.0
live_floor = st.one_of(
    st.none(),
    st.tuples(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=5),
        st.lists(st.integers(min_value=0, max_value=25), min_size=1, max_size=4),
    ),
)


class ScriptedMarket(FeeMarket):
    """The real oracle's rate limit around a scripted floor."""

    def __init__(self, script) -> None:
        super().__init__(FeeMarketConfig(min_floor=0, update_interval=INTERVAL))
        self.script = script

    def _recompute(self, now: float) -> None:
        self.floor = self.script(now)
        self.last_update = now


def stepped_clock(steps):
    """A clock that moves on by the next of ``steps`` at every read."""
    return itertools.accumulate(itertools.cycle(steps), initial=0.0).__next__


def hashes(txs):
    return sorted(tx.hash for tx in txs)


class LockStep:
    """Both pools behind one confirmed-nonce table, compared after each op."""

    def __init__(self, policy: MempoolPolicy, floor=None) -> None:
        self.policy = policy
        self.confirmed = {}
        steps, levels = floor or ([0.0], None)

        def script(now: float) -> int:
            return levels[int(now) % len(levels)] * PRICE_STEP

        self.pool = Mempool(
            policy, confirmed_nonce=self._confirmed, clock=stepped_clock(steps)
        )
        self.reference = ReferencePool(
            policy,
            confirmed_nonce=self._confirmed,
            clock=stepped_clock(steps),
            floor=script if levels else None,
            interval=INTERVAL,
        )
        if levels:
            self.pool.fee_market = ScriptedMarket(script)
        self.serial = 0

    def _confirmed(self, sender: str) -> int:
        return self.confirmed.get(sender, 0)

    def build(self, sender, offset, level, dynamic) -> Transaction:
        self.serial += 1
        if offset is None:
            nonce = self._confirmed(sender)
            while self.pool.sender_transaction(sender, nonce) is not None:
                nonce += 1
        else:
            nonce = max(0, self._confirmed(sender) + offset)
        price = level * PRICE_STEP + self.serial
        if dynamic and self.policy.enforce_base_fee:
            return DynamicFeeTransaction(
                sender=sender,
                nonce=nonce,
                gas_price=price,
                max_fee=price,
                priority_fee=self.serial,
            )
        return Transaction(sender=sender, nonce=nonce, gas_price=price)

    def offer(self, spec) -> None:
        self.add(self.build(*spec))

    def add(self, tx: Transaction) -> None:
        self.check(self.pool.add(tx), tx)

    def check(self, result, tx: Transaction) -> None:
        outcome, evicted, promoted, is_pending = self.reference.add(tx)
        assert result.outcome is outcome
        assert hashes(result.evicted) == hashes(evicted)
        assert hashes(result.promoted) == hashes(promoted)
        assert result.is_pending == is_pending

    def again(self, index: int) -> None:
        """Re-offer a stored transaction (the only way to be *known*)."""
        if self.reference.txs:
            self.add(self.reference.txs[index % len(self.reference.txs)])

    def batch(self, offers, stop_when_full: bool) -> None:
        txs = [self.build(*spec) for spec in offers]
        assert self.pool.add_batch(
            txs, stop_when_full=stop_when_full
        ) == self.reference.add_batch(txs, stop_when_full=stop_when_full)

    def packet(self, offers) -> None:
        """A ``Transactions`` packet: one pass of the admission loop."""
        txs = [self.build(*spec) for spec in offers]
        results = []
        self.pool._offer(txs, results=results)
        for result, tx in zip(results, txs, strict=True):
            self.check(result, tx)

    def block(self, senders, base_fee_level) -> None:
        """Mine each sender's next executable transaction; one that holds
        none had two nonces confirmed elsewhere (stale leftovers)."""
        included = []
        for sender in senders:
            nonce = self._confirmed(sender)
            tx = self.pool.sender_transaction(sender, nonce)
            if tx is None:
                tx = Transaction(sender=sender, nonce=nonce + 1, gas_price=1)
            self.confirmed[sender] = tx.nonce + 1
            included.append(tx)
        new_base_fee = (
            None if base_fee_level is None else base_fee_level * PRICE_STEP
        )
        assert hashes(self.pool.apply_block(included, new_base_fee)) == hashes(
            self.reference.apply_block(included, new_base_fee)
        )

    def compare(self) -> None:
        self.pool.check_invariants()
        assert hashes(self.pool.pending_transactions()) == hashes(
            self.reference.pending()
        )
        assert hashes(self.pool.future_transactions()) == hashes(
            self.reference.future()
        )


@pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
@given(ops=steps, floor=live_floor)
@property_settings(50)
def test_mempool_matches_reference_in_lock_step(policy: MempoolPolicy, ops, floor):
    run = LockStep(policy, floor)
    for kind, *args in ops:
        getattr(run, kind)(*args)
        run.compare()
