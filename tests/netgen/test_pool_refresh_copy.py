"""Pool refresh by copy: a copied pool is the pool admission would have built.

``prefill_mempools`` lets the first blank pool of each (policy, base fee,
fee market) class take the real ``add_batch`` and gives every later blank
pool of the class a copy of its containers (``Mempool.refill_from``); a
live pool takes its share of the class's pass (``Mempool.take_share``), run
on a detached pool when the class has no blank one. The oracle here is a
twin network on which the test itself runs the loop the copies replaced —
(clear, then) ``add_batch`` on every node — compared with *exact* pool
state: insertion orders, both eviction heaps entry for entry, the
tie-break sequence position, ``stats`` and admission times.

A copy shares with its image what no pool writes in place (transactions,
heap entries, one-transaction sender runs); section (d) holds the law that
makes the sharing invisible, and its cost in tracked containers.
"""

import copy
import gc
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.eth.account import Wallet
from repro.errors import MempoolError
from repro.eth.chain import Block
from repro.eth.fee_market import FeeMarket
from repro.eth.mempool import Mempool
from repro.eth.miner import Miner
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import ALETH, BESU, GETH, NETHERMIND, PARITY, MempoolPolicy
from repro.eth.transaction import Transaction, TransactionFactory, gwei
from repro.netgen.ethereum import NetworkSpec, generate_network
from repro.netgen import workloads
from repro.netgen.workloads import prefill_mempools, refresh_mempools
from tests.conftest import property_settings
from tests.eth.test_mempool_reference import PRICE_STEP, SENDERS, LockStep

GETH_1559 = GETH.scaled(20).with_base_fee_enforcement()
POLICIES = [
    GETH.scaled(16),
    PARITY.scaled(24),
    NETHERMIND.scaled(16),
    BESU.scaled(12),
    ALETH.scaled(12),
    GETH_1559,
]
# Around the 1 gwei background median, so a 1559 pool turns part of the
# batch away (``rejected_base_fee``) and the counts are not all one key.
BASE_FEES = [None, gwei(0.8), gwei(1.1)]


def build(policies: Sequence[MempoolPolicy], fee_market: bool = False) -> Network:
    """Unwired nodes, one per policy: a refresh never touches a link."""
    network = Network(seed=11)
    for index, policy in enumerate(policies):
        network.create_node(f"n{index:02d}", NodeConfig(policy=policy))
    if fee_market:
        network.install_fee_market(FeeMarket())
    return network


def pools(network: Network) -> List[Mempool]:
    return [network.node(node_id).mempool for node_id in network.node_ids]


def exact(capture: Dict[str, object]) -> Dict[str, object]:
    """A capture with every insertion order made comparable (dict equality
    ignores it; the heap rebuild and the fan-out do not)."""
    state = dict(capture)
    state["by_hash"] = list(state["by_hash"].items())
    state["by_sender"] = [
        (sender, list(run.items()) if isinstance(run, dict) else run)
        for sender, run in state["by_sender"].items()
    ]
    return state


def exact_state(pool: Mempool) -> Dict[str, object]:
    return exact(pool.capture_state())


def exact_states(network: Network) -> List[Dict[str, object]]:
    return [exact_state(pool) for pool in pools(network)]


def reference_refresh(network: Network, txs: List[Transaction]) -> None:
    """The refresh before pools copied: every node takes the real offer."""
    for pool in pools(network):
        pool.clear()
    market = network.fee_market
    if market is not None:
        market.refresh(network.sim.now)
    for pool in pools(network):
        pool.add_batch(txs, stop_when_full=True)
    if market is not None:
        market.refresh(network.sim.now)


@contextmanager
def recorded_paths():
    """Which pools admitted and which copied, in call order: ``admitted``
    ran ``add_batch``, ``copied`` took a copy, whole (``refill_from``) or
    their share (``take_share``); ``detached`` are the class passes run on
    a pool of no node."""
    admitted: List[Mempool] = []
    copied: List[Mempool] = []
    detached: List[Mempool] = []
    add_batch, refill_from = Mempool.add_batch, Mempool.refill_from
    take_share = Mempool.take_share

    def counting_add_batch(self, txs, stop_when_full=False):
        if not any(self is pool for pool in detached):
            admitted.append(self)
        return add_batch(self, txs, stop_when_full=stop_when_full)

    def counting_refill_from(self, image, counts):
        copied.append(self)
        return refill_from(self, image, counts)

    def counting_take_share(self, image, counts):
        taken = take_share(self, image, counts)
        if taken is not None:
            copied.append(self)
        return taken

    def detached_pool(*args, **kwargs):
        pool = Mempool(*args, **kwargs)
        detached.append(pool)
        return pool

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Mempool, "add_batch", counting_add_batch)
        patch.setattr(Mempool, "refill_from", counting_refill_from)
        patch.setattr(Mempool, "take_share", counting_take_share)
        patch.setattr(workloads, "Mempool", detached_pool)
        yield admitted, copied, detached


@pytest.fixture
def paths():
    with recorded_paths() as recorded:
        yield recorded


def live_through(network: Network, index: int, adds, base_fee: Optional[int]) -> None:
    """One node's private past: offers that overflow the pool (evictions,
    replacements, futures), then a block — so its ``_seq`` position, stats,
    stale heap entries and, on a 1559 pool, base fee are its own."""
    node = network.node(network.node_ids[index])
    pool = node.mempool
    for sender, nonce, price in adds:
        pool.add(
            Transaction(sender=f"0xpast{sender}", nonce=nonce, gas_price=gwei(price))
        )
    included = sorted(pool.pending_transactions(), key=lambda tx: tx.hash)[:3]
    for tx in included:
        node.confirmed_nonces[tx.sender] = max(
            node.confirmed_nonces.get(tx.sender, 0), tx.nonce + 1
        )
    if not pool.policy.enforce_base_fee:
        base_fee = None
    pool.apply_block(included, new_base_fee=base_fee)


past = st.tuples(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),  # sender
            st.integers(min_value=0, max_value=3),  # nonce
            st.sampled_from([0.5, 1.0, 1.0, 1.5, 2.0, 3.0]),  # price, gwei
        ),
        max_size=40,
    ),
    st.sampled_from(BASE_FEES),
)


# ----------------------------------------------------------------------
# (a) The oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fee_market", [False, True], ids=["no-market", "fee-market"])
@given(pasts=st.lists(past, min_size=18, max_size=18))
@property_settings(25)
def test_refresh_equals_per_node_admission_exactly(fee_market: bool, pasts):
    """Three pools per preset, interleaved, each with its own history."""
    policies = POLICIES * 3
    refreshed = build(policies, fee_market)
    reference = build(policies, fee_market)
    for network in (refreshed, reference):
        for index, (adds, base_fee) in enumerate(pasts):
            live_through(network, index, adds, base_fee)
    assert exact_states(refreshed) == exact_states(reference)

    with recorded_paths() as (admitted, copied, detached):
        txs = refresh_mempools(refreshed)
    reference_refresh(reference, txs)

    assert exact_states(refreshed) == exact_states(reference)
    for pool in pools(refreshed):
        pool.check_invariants()
    if fee_market:
        assert (
            refreshed.fee_market.capture_state()
            == reference.fee_market.capture_state()
        )
    # Not vacuous: the five legacy presets alone hold two copies each, and
    # every pool took exactly one of the two paths.
    assert len(copied) >= 10 and detached == []
    assert len(admitted) + len(copied) == len(policies)


def test_a_refresh_rewinds_every_tie_break_counter():
    """The oracle's teeth, spelled out once: pools with different pasts
    draw from 0 again after ``clear()``, so one heap serves them all."""
    network = build([GETH.scaled(16)] * 3)
    for index, offers in enumerate((0, 7, 19)):
        live_through(network, index, [(0, n, 1.0) for n in range(offers)], None)
    assert len({pool.capture_state()["seq"] for pool in pools(network)}) == 3
    refresh_mempools(network)
    donor, *siblings = pools(network)
    for pool in pools(network):
        assert sorted(seq for _, seq, _ in pool._pending_heap) == list(range(16))
        assert pool.capture_state()["seq"] == 16
    for sibling in siblings:
        assert sibling._pending_heap == donor._pending_heap


# ----------------------------------------------------------------------
# (b) Every fallback is taken, and lands in the same state
# ----------------------------------------------------------------------
class TestFallbacks:
    def twins(self, policies, prepare):
        refreshed, reference = build(policies), build(policies)
        for network in (refreshed, reference):
            prepare(network)
        return refreshed, reference

    def check(self, refreshed, reference, paths, admitting: set, refresh=True):
        """``admitting``: indices of the pools that must take ``add_batch``;
        the class pass always runs on a blank pool of the network here."""
        admitted, copied, detached = paths
        all_pools = pools(refreshed)
        txs = (refresh_mempools if refresh else prefill_mempools)(refreshed)
        assert {all_pools.index(pool) for pool in admitted} == admitting
        assert {all_pools.index(pool) for pool in copied} == (
            set(range(len(all_pools))) - admitting
        )
        if refresh:
            reference_refresh(reference, txs)
        else:
            for pool in pools(reference):
                pool.add_batch(txs, stop_when_full=True)
        assert exact_states(refreshed) == exact_states(reference)
        for pool in all_pools:
            pool.check_invariants()
        assert detached == []

    def test_non_empty_pool(self, paths):
        """A prefill (no drain first) onto a pool that already holds traffic
        from other senders: it takes its share of the class's pass."""

        def prepare(network):
            pool = network.node("n02").mempool
            for nonce in range(5):
                pool.add(Transaction(sender="0xbusy", nonce=nonce, gas_price=gwei(3)))

        refreshed, reference = self.twins([GETH.scaled(16)] * 4, prepare)
        self.check(refreshed, reference, paths, admitting={0}, refresh=False)
        assert len(refreshed.node("n02").mempool) == 16
        assert refreshed.node("n02").mempool.sender_transaction("0xbusy", 4)

    def test_pool_drained_by_a_mined_block(self, paths):
        """Empty, but not blank: its tie-break numbers have moved on, so a
        whole copy would hand it foreign ones; its share is re-keyed from
        its own position. No ``clear()`` here — a prefill."""

        def prepare(network):
            node = network.node("n01")
            txs = [
                Transaction(sender=f"0xmined{i}", nonce=0, gas_price=gwei(2 + i))
                for i in range(5)
            ]
            for tx in txs:
                assert node.mempool.add(tx).admitted
            block = Block(number=1, miner="elsewhere", timestamp=0.0, txs=tuple(txs))
            node.receive_block(None, block)
            assert len(node.mempool) == 0 and not node.mempool.is_blank

        refreshed, reference = self.twins([GETH.scaled(16)] * 4, prepare)
        self.check(refreshed, reference, paths, admitting={0}, refresh=False)
        drained, copied = pools(refreshed)[1:3]
        assert drained.capture_state()["seq"] == copied.capture_state()["seq"] + 5
        # ... and ``refill_from`` itself refuses such a pool.
        pool = Mempool(GETH.scaled(16))
        tx = Transaction(sender="0xonly", nonce=0, gas_price=gwei(1))
        pool.add(tx)
        pool.apply_block([tx])
        assert len(pool) == 0
        with pytest.raises(MempoolError, match="blank"):
            pool.refill_from(copied.capture_state(), {})

    def test_sender_confirmed_on_that_node(self, paths):
        """One node has seen a block spending from two background accounts:
        to it those offers are stale, to everyone else they are pending."""
        spent = [Wallet("background").account(f"bg-{i}").address for i in (0, 5)]

        def prepare(network):
            node = network.node("n01")
            block = Block(
                number=1,
                miner="elsewhere",
                timestamp=0.0,
                txs=tuple(
                    Transaction(sender=sender, nonce=0, gas_price=gwei(9))
                    for sender in spent
                ),
            )
            node.receive_block(None, block)

        refreshed, reference = self.twins([GETH.scaled(16)] * 4, prepare)
        self.check(refreshed, reference, paths, admitting={0, 1})
        ahead = refreshed.node("n01").mempool
        assert ahead.stats["rejected_stale_nonce"] == 2
        assert all(ahead.sender_transaction(sender, 0) is None for sender in spent)
        assert refreshed.node("n02").mempool.stats["rejected_stale_nonce"] == 0

    def test_differing_base_fee(self, paths):
        def prepare(network):
            for node_id, base_fee in (("n00", 0.8), ("n01", 1.1), ("n02", 0.8)):
                network.node(node_id).mempool.apply_block(
                    [], new_base_fee=gwei(base_fee)
                )

        refreshed, reference = self.twins([GETH_1559] * 4, prepare)
        # n00 and n02 share a base fee; n01 and n03 (base fee 0) stand alone.
        self.check(refreshed, reference, paths, admitting={0, 1, 3})
        rejected = [pool.stats["rejected_base_fee"] for pool in pools(refreshed)]
        assert rejected[0] == rejected[2] > 0
        assert rejected[1] > rejected[0] and rejected[3] == 0

    def test_policy_swapped_on_a_live_pool(self, paths):
        """``set_policy`` is how the nonconforming-replacer behaviour
        installs R=0: same capacity, another class."""

        def prepare(network):
            pool = network.node("n01").mempool
            pool.set_policy(pool.policy.with_bump(0.0))

        refreshed, reference = self.twins([GETH.scaled(16)] * 4, prepare)
        self.check(refreshed, reference, paths, admitting={0, 1})

    def test_donor_that_admits_nothing(self, paths):
        """A base fee above every offer: nothing to copy, so the class has
        no donor and each pool answers for itself."""

        def prepare(network):
            for pool in pools(network)[:3]:
                pool.apply_block([], new_base_fee=gwei(1000))

        refreshed, reference = self.twins([GETH_1559] * 4, prepare)
        self.check(refreshed, reference, paths, admitting={0, 1, 2, 3})
        assert [len(pool) for pool in pools(refreshed)] == [0, 0, 0, 20]
        assert pools(refreshed)[1].stats["rejected_base_fee"] == 20

    def test_fee_market_exempt_supernode_pool_is_its_own_class(self, paths):
        """``install_fee_market`` leaves ``fee_market`` None on supernodes."""

        def prepare(network):
            network.install_fee_market(FeeMarket())
            network.node("n02").mempool.fee_market = None

        refreshed, reference = self.twins([GETH.scaled(16)] * 4, prepare)
        self.check(refreshed, reference, paths, admitting={0, 2})


# ----------------------------------------------------------------------
# (b') A live pool's share is its own admission
# ----------------------------------------------------------------------
BACKGROUND_SENDERS = [Wallet("background").account(f"bg-{i}").address for i in range(3)]

live_pool = st.tuples(
    st.sampled_from(range(len(POLICIES))),
    past,
    # After the block: more of the pool's own traffic, up to overflowing it,
    # so rooms run from 0 to the whole capacity.
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=3),
            st.sampled_from([0.5, 1.0, 2.0]),
        ),
        max_size=30,
    ),
    st.one_of(st.none(), st.sampled_from(range(len(BACKGROUND_SENDERS)))),
)


def reference_prefill(network: Network, txs: List[Transaction]) -> None:
    """The prefill before live pools took shares: the real offer everywhere."""
    market = network.fee_market
    if market is not None:
        market.floor_for(network.sim.now)
    for pool in pools(network):
        pool.add_batch(txs, stop_when_full=True)
    if market is not None:
        market.refresh(network.sim.now)


@pytest.mark.parametrize("fee_market", [False, True], ids=["no-market", "fee-market"])
@given(
    specs=st.lists(live_pool, min_size=1, max_size=8),
    blank=st.lists(st.sampled_from(range(len(POLICIES))), max_size=3),
    count=st.one_of(st.none(), st.integers(min_value=1, max_value=30)),
)
@property_settings(25)
def test_a_live_pool_takes_what_its_own_admission_takes(
    fee_market: bool, specs, blank, count
):
    """Live pools (pending and future residents, long runs, a base fee, a
    tie-break position and stats of their own) next to blank pools of the
    same class or none, prefilled together: exactly the pools a real
    ``add_batch`` on every node builds. A pool holding one background
    sender shows the fallback."""
    policies = [POLICIES[index] for index, *_ in specs] + [POLICIES[i] for i in blank]
    prefilled, reference = build(policies, fee_market), build(policies, fee_market)
    for network in (prefilled, reference):
        for index, (_, (adds, base_fee), after, held) in enumerate(specs):
            live_through(network, index, adds, base_fee)
            pool = network.node(network.node_ids[index]).mempool
            for sender, nonce, price in after:
                pool.add(
                    Transaction(
                        sender=f"0xlate{sender}", nonce=nonce, gas_price=gwei(price)
                    )
                )
            if held is not None:
                sender = BACKGROUND_SENDERS[held]
                pool.add(Transaction(sender=sender, nonce=0, gas_price=gwei(5)))
    assert exact_states(prefilled) == exact_states(reference)

    txs = prefill_mempools(prefilled, count=count)
    reference_prefill(reference, txs)

    assert exact_states(prefilled) == exact_states(reference)
    for pool in pools(prefilled):
        pool.check_invariants()
    if fee_market:
        assert (
            prefilled.fee_market.capture_state()
            == reference.fee_market.capture_state()
        )


def test_a_live_network_admits_once_per_class(paths):
    """No pool is blank once traffic has propagated: one detached pass per
    class, and every pool takes its share of it."""
    admitted, copied, detached = paths
    network = generate_network(
        NetworkSpec(n_nodes=40, seed=2, mempool_capacity=32, parity_fraction=0.3)
    )
    factory, wallet = TransactionFactory(), Wallet("propagate")
    for index, node_id in enumerate(network.node_ids[:6]):
        network.node(node_id).submit_transaction(
            factory.transfer(wallet.fresh_account(), gas_price=gwei(1) + index)
        )
    network.settle()
    assert not any(pool.is_blank for pool in pools(network))
    prefill_mempools(network)
    classes = {pool.policy for pool in pools(network)}
    assert (len(admitted), len(detached)) == (0, len(classes)) == (0, 2)
    assert copied == pools(network)
    assert all(pool.is_full for pool in pools(network))


# ----------------------------------------------------------------------
# (c) Cost: admissions per class, not per node
# ----------------------------------------------------------------------
def test_refresh_admits_once_per_class(paths):
    admitted, copied, _ = paths
    network = build([GETH.scaled(32)] * 64)
    prefill_mempools(network)
    assert (len(admitted), len(copied)) == (1, 63)
    del admitted[:], copied[:]
    refresh_mempools(network)
    assert (len(admitted), len(copied)) == (1, 63)
    assert all(pool.is_full for pool in pools(network))


def test_generated_testnet_admits_once_per_class(paths):
    admitted, copied, _ = paths
    network = generate_network(
        NetworkSpec(n_nodes=40, seed=2, mempool_capacity=32, parity_fraction=0.3)
    )
    prefill_mempools(network)
    refresh_mempools(network)
    classes = {pool.policy for pool in pools(network)}
    assert len(classes) == 2
    assert len(admitted) == 2 * len(classes)
    assert len(copied) == 2 * (40 - len(classes))


# ----------------------------------------------------------------------
# (d) What copies share is never written in place
# ----------------------------------------------------------------------
BACKGROUND = [f"0xbg{i}" for i in range(12)]
EVERYBODY = BACKGROUND + SENDERS
LAW_POLICIES = [
    GETH.scaled(8),
    PARITY.scaled(12),
    ALETH.scaled(6),
    GETH.scaled(8).with_base_fee_enforcement(),
]
LAW_POLICY_IDS = ["geth", "parity", "aleth", "geth-1559"]
MUTATED_IDS = ["donor", "copy", "sibling", "restored"]

# Offers as in the PR 15 lock-step, with the background senders in the
# draw: ``None`` puts a second nonce into a shared one-transaction run, 0
# replaces (or fails to replace) its only transaction, and the pools start
# full, so every admission evicts.
shared_offer = st.tuples(
    st.sampled_from(EVERYBODY),
    st.one_of(st.none(), st.integers(min_value=-1, max_value=4)),
    st.integers(min_value=1, max_value=40),
    st.booleans(),
)
law_steps = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), shared_offer),
        st.tuples(st.just("again"), st.integers(min_value=0, max_value=63)),
        st.tuples(
            st.just("batch"),
            st.lists(shared_offer, min_size=1, max_size=6),
            st.booleans(),
        ),
        st.tuples(
            st.just("block"),
            st.lists(st.sampled_from(EVERYBODY), max_size=3, unique=True),
            st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
        ),
        st.tuples(st.just("clear")),
    ),
    min_size=1,
    max_size=40,
)


class SharedLockStep(LockStep):
    """Four pools holding one image — the donor, two copies of it and a
    pool restored from its capture — one of them (``mutated``) in lock-step
    with the reference pool, the other three and the capture watched."""

    def __init__(self, policy: MempoolPolicy, mutated: int) -> None:
        super().__init__(policy)
        group = [
            Mempool(policy, confirmed_nonce=self._confirmed if i == mutated else None)
            for i in range(4)
        ]
        donor, copied, sibling, restored = group
        # Serial 0 of each price level: never drawn by ``LockStep.build``.
        txs = [
            Transaction(sender=sender, nonce=0, gas_price=(10 + i) * PRICE_STEP)
            for i, sender in enumerate(BACKGROUND)
        ]
        counts = donor.add_batch(txs, stop_when_full=True)
        assert counts == self.reference.add_batch(txs, stop_when_full=True)
        assert donor.is_full
        self.image = donor.capture_state()
        copied.refill_from(self.image, counts)
        sibling.refill_from(self.image, counts)
        restored.restore_state(self.image)
        self.pool = group.pop(mutated)
        self.others = group
        self.before = copy.deepcopy(self.watched())

    def watched(self):
        return [exact(self.image)] + [exact_state(pool) for pool in self.others]

    def clear(self) -> None:
        self.pool.clear()
        del self.reference.txs[:]

    def compare(self) -> None:
        super().compare()
        assert self.watched() == self.before


@pytest.mark.parametrize("mutated", range(4), ids=MUTATED_IDS)
@pytest.mark.parametrize("policy", LAW_POLICIES, ids=LAW_POLICY_IDS)
@given(ops=law_steps)
@property_settings(10)
def test_mutating_one_pool_reaches_no_other(policy: MempoolPolicy, mutated: int, ops):
    run = SharedLockStep(policy, mutated)
    run.compare()
    for kind, *args in ops:
        getattr(run, kind)(*args)
        run.compare()
    # The capture still restores to what it captured.
    fresh = Mempool(policy)
    fresh.restore_state(run.image)
    assert exact_state(fresh) == run.before[0]
    fresh.check_invariants()


def test_mutating_a_copied_pool_never_reaches_donor_or_sibling():
    """One walk through the law, spelled out: no top-level container is
    shared, and a replacement, four evictions and a ``clear()`` stay home."""
    network = build([GETH.scaled(16)] * 3)
    refresh_mempools(network)
    donor, copied, sibling = pools(network)
    for name in (
        "_by_hash", "_by_sender", "_future",
        "_pending_heap", "_future_heap", "stats",
    ):
        containers = [getattr(pool, name) for pool in (donor, copied, sibling)]
        assert len({id(container) for container in containers}) == 3, name
    before = exact_state(donor), exact_state(sibling)

    factory, wallet = TransactionFactory(), Wallet("mutator")
    resident = list(copied.capture_state()["by_hash"].values())
    victim = min(resident, key=lambda tx: tx.gas_price)
    bumped = factory.replacement(resident[3], 0.5)
    assert copied.add(bumped).replaced is not None
    flood = wallet.fresh_account()
    for index in range(4):  # futures into a full pool evict pending ones
        result = copied.add(factory.future(flood, gwei(50), index=index))
        assert result.evicted
    assert victim.hash not in copied
    copied.check_invariants()
    assert (exact_state(donor), exact_state(sibling)) == before

    # ... and the other way round: the donor's later life is its own.
    mid = exact_state(copied)
    donor.add(factory.transfer(wallet.fresh_account(), gas_price=gwei(70)))
    donor.clear()
    assert exact_state(copied) == mid


def test_the_law_above_is_about_shared_objects():
    """Not vacuous: a sender's only transaction is its run, so donor, copies
    and image file the same object, and share heap entries; dict runs (two
    or more transactions) are copied."""
    network = build([GETH.scaled(16)] * 3)
    factory, flooder = TransactionFactory(), Wallet("flooder").fresh_account()
    long_run = [factory.future(flooder, gwei(50), index=index) for index in range(3)]
    prefill_mempools(network, count=13)
    donor, copied, sibling = pools(network)
    for tx in long_run:
        assert donor.add(tx).admitted
    image = donor.capture_state()
    copied.clear()
    copied.refill_from(image, {})
    sibling.restore_state(image)

    assert image["long_runs"] == [flooder.address]
    for pool in (donor, copied, sibling):
        for sender, run in pool._by_sender.items():
            sole = not isinstance(run, dict)
            assert sole == (sender != flooder.address), sender
            assert (run is image["by_sender"][sender]) == sole, sender
        assert len(pool._by_sender[flooder.address]) == 3
        assert all(a is b for a, b in zip(pool._future_heap, image["future_heap"]))
    assert exact_state(sibling) == exact(image)


def test_a_copy_tracks_a_constant_number_of_containers():
    """The collector walks what it tracks. A copy's share of it is its own
    top-level containers, the same few whatever the pools hold — not one
    dict per resident sender. Real admissions of fresh senders track none:
    a sender's only transaction is its own run."""

    def tracked_growth(n_pools: int, capacity: int) -> int:
        network = build([GETH.scaled(capacity)] * n_pools)
        gc.collect()
        blank = len(gc.get_objects())
        refresh_mempools(network)
        gc.collect()
        return len(gc.get_objects()) - blank

    def per_copied_pool(capacity: int) -> float:
        # One pool: the donor and the batch. 64 pools: that, and 63 copies.
        return (tracked_growth(64, capacity) - tracked_growth(1, capacity)) / 63

    assert per_copied_pool(16) == per_copied_pool(128) <= 6

    def admitted_growth(n_pools: int, n_txs: int, batch: bool) -> int:
        txs = [
            Transaction(sender=f"0xfresh{i}", nonce=0, gas_price=gwei(1 + i % 5))
            for i in range(n_txs)
        ]
        pools = [Mempool(GETH.scaled(128)) for _ in range(n_pools)]
        gc.collect()
        blank = len(gc.get_objects())
        for pool in pools:
            if batch:
                pool.add_batch(txs)
            else:
                for tx in txs:
                    assert pool.add(tx).admitted
        gc.collect()
        return len(gc.get_objects()) - blank

    def per_admitting_pool(n_txs: int, batch: bool) -> float:
        return (admitted_growth(9, n_txs, batch) - admitted_growth(1, n_txs, batch)) / 8

    # The 2: ``_by_hash`` and ``_by_sender`` themselves, which the collector
    # starts tracking once they hold a transaction.
    for batch in (False, True):
        assert per_admitting_pool(16, batch) == per_admitting_pool(128, batch) <= 2


# ----------------------------------------------------------------------
# (e) Snapshot / restore through the same container copy
# ----------------------------------------------------------------------
def test_snapshot_restore_round_trips_a_copied_refresh():
    network = build(POLICIES * 2, fee_market=True)
    prefill_mempools(network)
    live_through(network, 4, [(0, n, 2.0) for n in range(9)], None)
    refresh_mempools(network)
    snapshot = network.snapshot()
    before = exact_states(network)

    refresh_mempools(network, median_price=gwei(3.0))
    live_through(network, 1, [(1, n, 5.0) for n in range(30)], None)
    assert exact_states(network) != before

    network.restore(snapshot)
    assert exact_states(network) == before
    recapture = network.snapshot()
    for node_id in network.node_ids:
        assert (
            recapture["nodes"][node_id]["mempool"]
            == snapshot["nodes"][node_id]["mempool"]
        )
    # The snapshot is still nobody's live container.
    refresh_mempools(network)
    network.restore(snapshot)
    assert exact_states(network) == before


# ----------------------------------------------------------------------
# Bugfix: a refresh after mined blocks refills the pools
# ----------------------------------------------------------------------
class TestRefreshAfterBlocks:
    def mined_network(self, lagging: Sequence[str] = ()) -> Network:
        network = generate_network(
            NetworkSpec(n_nodes=12, seed=3, mempool_capacity=64)
        )
        prefill_mempools(network)
        for node_id in lagging:
            network.node(node_id).crash()
        miner = Miner(
            network.node(network.node_ids[0]),
            network.chain,
            block_interval=5,
            poisson=False,
        )
        miner.start()
        network.run(12.0)
        miner.stop()
        for node_id in lagging:
            network.node(node_id).restart()
        assert network.chain.height == 2
        return network

    def test_pools_are_full_of_pending_transactions_again(self):
        """Background accounts are re-derived per call; before the fix
        every refresh after a block offered their nonce 0 again and all 64
        were ``rejected_stale_nonce`` on every node."""
        network = self.mined_network()
        txs = refresh_mempools(network)
        assert {tx.nonce for tx in txs} == {1}
        for pool in pools(network):
            assert pool.is_full and pool.pending_count == 64
            assert pool.stats["rejected_stale_nonce"] == 0
            pool.check_invariants()

    def test_node_behind_the_chain_head_is_not_copied_into(self, paths):
        """Nodes at the head know the spent accounts, so none is blank and
        each admits for itself; the node that slept through both blocks
        sees nonce 1 from accounts it believes are at 0 — futures, which
        no pool at the head could have donated."""
        admitted, copied, _ = paths
        behind = "testnet-0007"
        network = self.mined_network(lagging=[behind])
        del admitted[:], copied[:]  # the set-up's own prefill
        refresh_mempools(network)
        assert copied == []
        assert len(admitted) == 12
        for node_id in network.node_ids:
            pool = network.node(node_id).mempool
            pool.check_invariants()
            assert pool.is_full
            expected = (0, 64) if node_id == behind else (64, 0)
            assert (pool.pending_count, pool.future_count) == expected

    def test_no_miner_no_change(self):
        """Nonce 0 wherever nothing was mined: hashes and goldens stay."""
        network = build([GETH.scaled(16)] * 2)
        assert {tx.nonce for tx in refresh_mempools(network)} == {0}
