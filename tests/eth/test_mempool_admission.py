"""Admission classifies the one transaction that moved.

The admission loop (``Mempool._offer``) files a fresh or replacing
transaction in O(1) of its sender's queue and hands the full per-sender
scan (``_rebalance_sender``) only the cases where a whole run moves. One
test per hand-over, plus guards that pin the complexity and the tie-break
bookkeeping rather than the clock: the flood path never scans, and two
seeded streams leave exactly the eviction-heap entries and sequence
position recorded from earlier implementations — one from the
scan-on-every-add pool, one (full-pool batches and packets) from the pool
that offered every transaction through its own ``Mempool.add``. A last
test pins a victim's stale heap entry as it is.
"""

import hashlib
import random

import pytest

from repro.eth.mempool import AddOutcome, Mempool
from repro.eth.messages import Transactions
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH, MempoolPolicy
from repro.eth.transaction import Transaction

POLICY = MempoolPolicy(
    name="tiny",
    replace_bump=0.10,
    future_limit_per_account=None,
    eviction_pending_floor=0,
    capacity=4,
)


def tx(sender: str, nonce: int, price: int) -> Transaction:
    return Transaction(sender=sender, nonce=nonce, gas_price=price)


@pytest.fixture
def scans(monkeypatch):
    """Senders handed to the full scan, in call order."""
    calls = []
    scan = Mempool._rebalance_sender

    def counting(self, sender):
        calls.append(sender)
        return scan(self, sender)

    monkeypatch.setattr(Mempool, "_rebalance_sender", counting)
    return calls


def admit(pool: Mempool, *txs: Transaction) -> None:
    for each in txs:
        assert pool.add(each).admitted


class TestLocalRules:
    def test_fresh_future_and_fresh_tail_do_not_scan(self, scans):
        pool = Mempool(POLICY)
        assert pool.add(tx("0xa", 0, 10)).outcome is AddOutcome.ADMITTED_PENDING
        assert pool.add(tx("0xa", 1, 10)).outcome is AddOutcome.ADMITTED_PENDING
        assert pool.add(tx("0xa", 5, 10)).outcome is AddOutcome.ADMITTED_FUTURE
        assert pool.add(tx("0xb", 3, 10)).outcome is AddOutcome.ADMITTED_FUTURE
        assert scans == []
        pool.check_invariants()

    @pytest.mark.parametrize("nonce, pending", [(1, True), (4, False)])
    def test_replacement_keeps_the_occupants_class(self, scans, nonce, pending):
        pool = Mempool(POLICY)
        admit(pool, tx("0xa", 0, 10), tx("0xa", 1, 10), tx("0xa", 4, 10))
        before = (pool.pending_count, pool.future_count)
        bumped = tx("0xa", nonce, 11)
        result = pool.add(bumped)
        assert result.outcome is AddOutcome.REPLACED
        assert result.is_pending is pending
        assert result.propagatable is pending
        assert result.promoted == ()
        assert pool.is_pending(bumped.hash) is pending
        assert (pool.pending_count, pool.future_count) == before
        assert scans == []
        pool.check_invariants()


class TestScanFallbacks:
    def test_gap_fill_promotes_the_queued_tail(self, scans):
        pool = Mempool(POLICY)
        tail = [tx("0xa", 1, 10), tx("0xa", 2, 10)]
        beyond = tx("0xa", 4, 10)
        admit(pool, *tail, beyond)
        assert pool.future_count == 3
        filler = tx("0xa", 0, 10)
        result = pool.add(filler)
        assert result.outcome is AddOutcome.ADMITTED_PENDING
        # The tail became executable and must be propagated; the
        # transaction itself is reported by the outcome, not as promoted.
        assert [t.hash for t in result.promoted] == [t.hash for t in tail]
        assert beyond.hash in pool and not pool.is_pending(beyond.hash)
        assert scans == ["0xa"]
        pool.check_invariants()

    def test_evicting_a_pending_tx_demotes_its_successors(self, scans):
        pool = Mempool(POLICY)
        head = tx("0xa", 0, 1)
        successors = [tx("0xa", 1, 50), tx("0xa", 2, 50)]
        admit(pool, head, *successors, tx("0xb", 0, 50))
        assert pool.pending_count == 4
        probe = tx("0xc", 7, 20)  # future: may only displace a pending tx
        result = pool.add(probe)
        assert result.outcome is AddOutcome.ADMITTED_FUTURE
        assert [t.hash for t in result.evicted] == [head.hash]
        assert all(t.hash in pool and not pool.is_pending(t.hash) for t in successors)
        assert pool.pending_count == 1
        assert scans == ["0xa"]
        pool.check_invariants()

    def test_evicting_the_last_of_a_run_moves_nobody(self, scans):
        pool = Mempool(POLICY)
        last = tx("0xa", 1, 1)
        admit(pool, tx("0xa", 0, 50), last, tx("0xb", 0, 50), tx("0xd", 0, 50))
        result = pool.add(tx("0xc", 7, 20))
        assert [t.hash for t in result.evicted] == [last.hash]
        assert pool.pending_count == 3
        assert scans == []
        pool.check_invariants()

    def test_victim_in_the_incoming_senders_own_run(self, scans):
        """No futures to shed, so the incoming pending transaction evicts
        the cheapest pending one — its own predecessor. It was executable
        when the victim was chosen and is not once the victim is gone."""
        pool = Mempool(POLICY)
        head = tx("0xa", 0, 1)
        admit(pool, head, tx("0xa", 1, 50), tx("0xb", 0, 50), tx("0xb", 1, 50))
        incoming = tx("0xa", 2, 50)
        result = pool.add(incoming)
        assert [t.hash for t in result.evicted] == [head.hash]
        assert result.outcome is AddOutcome.ADMITTED_FUTURE
        assert not result.propagatable
        assert incoming.hash in pool and not pool.is_pending(incoming.hash)
        demoted = pool.sender_transaction("0xa", 1)
        assert demoted.hash in pool and not pool.is_pending(demoted.hash)
        assert scans == ["0xa", "0xa"]  # tail demotion, then the incoming tx
        pool.check_invariants()

    def test_victim_was_the_incoming_senders_only_tx(self, scans):
        pool = Mempool(POLICY)
        only = tx("0xa", 0, 1)
        admit(pool, only, tx("0xb", 0, 50), tx("0xb", 1, 50), tx("0xb", 2, 50))
        incoming = tx("0xa", 1, 50)
        result = pool.add(incoming)
        assert [t.hash for t in result.evicted] == [only.hash]
        assert result.outcome is AddOutcome.ADMITTED_FUTURE
        assert incoming.hash in pool and not pool.is_pending(incoming.hash)
        assert scans == ["0xa"]
        pool.check_invariants()

    def test_add_batch_defers_heap_entries_on_every_path(self):
        """Inside a batch neither a local rule nor the scan may push heap
        entries or draw sequence numbers; the rebuild keys them all."""
        pool = Mempool(GETH.scaled(64))
        batch = [tx("0xa", 2, 10), tx("0xa", 1, 10), tx("0xa", 0, 10)]  # gap fill
        batch += [tx("0xa", 1, 12), tx("0xb", 5, 10), tx("0xb", 5, 12)]  # replace
        pool.add_batch(batch)
        pool.check_invariants()
        assert len(pool._pending_heap) == 3 and len(pool._future_heap) == 1
        seqs = sorted(seq for _, seq, _ in pool._pending_heap + pool._future_heap)
        assert seqs == [0, 1, 2, 3]


class TestWorkGuards:
    def test_flooding_futures_into_a_full_pool_never_scans(self, scans):
        policy = GETH.scaled(64)
        flood_size = policy.future_limit_per_account
        pool = Mempool(policy)
        admit(pool, *(tx(f"0xp{i}", 0, 10) for i in range(policy.capacity)))
        assert pool.is_full
        for index in range(flood_size):
            result = pool.add(tx("0xflood", 1000 + index, 11))
            assert result.outcome is AddOutcome.ADMITTED_FUTURE
            assert len(result.evicted) == 1
        assert pool.future_count == flood_size
        assert scans == []
        pool.check_invariants()

    def test_seeded_stream_reproduces_the_recorded_heaps(self):
        """2 000 seeded operations over few distinct prices, so victims
        are decided by tie-break sequence numbers. The digest and sequence
        position were recorded at commit 535fe4f, where every admission
        ended in the full scan: each local rule must push the entries and
        draw the numbers the scan did, in the same order."""
        rng = random.Random(15)
        senders = [f"0xstream{i}" for i in range(12)]
        confirmed = {}
        pool = Mempool(GETH.scaled(48), confirmed_nonce=lambda s: confirmed.get(s, 0))

        def draw(step: int) -> Transaction:
            sender = rng.choice(senders)
            nonce = confirmed.get(sender, 0) + rng.randrange(12)
            # Prices drift upward so replacement and eviction keep
            # succeeding late in the stream.
            return tx(sender, nonce, rng.randint(1, 12) + step // 80)

        for step in range(2000):
            roll = rng.random()
            if roll < 0.86:
                pool.add(draw(step))
            elif roll < 0.92:
                pool.add_batch([draw(step) for _ in range(rng.randint(1, 6))])
            else:
                included = []
                for sender in rng.sample(senders, 2):
                    mined = pool.sender_transaction(sender, confirmed.get(sender, 0))
                    if mined is not None:
                        confirmed[sender] = mined.nonce + 1
                        included.append(mined)
                pool.apply_block(included)
        pool.check_invariants()

        heaps = repr((pool._pending_heap, pool._future_heap)).encode()
        assert hashlib.sha256(heaps).hexdigest() == (
            "9dc03082e503ef2598ade25c367f50446e3e37e662497f7b0f299eec2cf83933"
        )
        assert pool.capture_state()["seq"] == 971
        assert pool.stats["evictions"] == 373 and pool.stats["replaced"] == 114

    def test_seeded_full_pool_stream_reproduces_the_recorded_heaps(self):
        """600 seeded steps into a node whose pool starts full of pending
        background: ``add_batch`` calls of 8–40 offers past the fill
        point, ``Transactions`` packets of 1–40 from peers, single adds and
        blocks. The digests (eviction heaps; the node's known table, push
        and announce queues and RNG) and counters were recorded at commit
        99d70c7, where every offer past the fill point, and every offer of
        a packet, was its own ``Mempool.add``."""
        rng = random.Random(29)
        network = Network(seed=5)
        config = NodeConfig(policy=GETH.scaled(48))
        receiver = network.create_node("r", config)
        for peer in ("p0", "p1", "p2"):
            network.create_node(peer, config)
            network.connect("r", peer)
        network.settle()
        pool = receiver.mempool
        confirmed = receiver.confirmed_nonces
        background = [tx(f"0xbg{i}", 0, 8 + i % 5) for i in range(48)]
        pool.add_batch(background, stop_when_full=True)
        assert pool.is_full
        senders = [f"0xstream{i}" for i in range(16)]
        handle = receiver._dispatch[Transactions]

        def draw(step: int) -> Transaction:
            sender = rng.choice(senders)
            nonce = confirmed.get(sender, 0) + rng.randrange(12)
            return tx(sender, nonce, rng.randint(6, 14) + step // 60)

        for step in range(600):
            roll = rng.random()
            if roll < 0.45:
                peer = rng.choice(["p0", "p1", "p2"])
                size = rng.randint(1, 40)
                handle(peer, Transactions(tuple(draw(step) for _ in range(size))))
            elif roll < 0.75:
                pool.add_batch([draw(step) for _ in range(rng.randint(8, 40))])
            elif roll < 0.9:
                pool.add(draw(step))
            else:
                included = []
                for sender in rng.sample(senders, 2):
                    mined = pool.sender_transaction(sender, confirmed.get(sender, 0))
                    if mined is not None:
                        confirmed[sender] = mined.nonce + 1
                        included.append(mined)
                pool.apply_block(included)
        pool.check_invariants()

        heaps = repr((pool._pending_heap, pool._future_heap)).encode()
        assert hashlib.sha256(heaps).hexdigest() == (
            "874557f7f6905fd85a18372451d8f5c7775a5561ae8529cfd2e62eb33315b959"
        )
        # The known table by what Node.knows answers, not by its layout.
        known = [
            (h, tuple(p for p in receiver.peers if receiver.knows(p, h)))
            for h in receiver._known
        ]
        node = repr(
            (
                known,
                receiver._push_queue,
                receiver._announce_queue,
                receiver._rng.getstate(),
            )
        ).encode()
        assert hashlib.sha256(node).hexdigest() == (
            "8f7321702425293cf042f199f3e231e2a38e3565f296c70b6cf5db7daaff4499"
        )
        assert pool.capture_state()["seq"] == 2878
        assert pool.stats["evictions"] == 1822 and pool.stats["replaced"] == 16
        assert pool.stats["rejected_pool_full"] == 5868


class TestStaleHeapEntry:
    def test_a_readmitted_victim_is_ranked_by_its_old_entry(self):
        """Pinned as it is, not as it should be (ROADMAP item 7). A
        victim's ``(bid, seq, hash)`` entry stays in its lazy heap; when
        the same hash is admitted again before that entry is popped, the
        entry is live again and ranks the transaction at its *old*
        arrival. Among equal prices the next victim is then the re-admitted
        transaction, not the oldest arrival. The admission loop must keep
        the entry where it is: no ``heapreplace``, no early removal."""
        pool = Mempool(POLICY)
        a, b = tx("0xa", 0, 10), tx("0xb", 0, 10)
        admit(pool, a, b, tx("0xc", 0, 10), tx("0xd", 0, 10))
        first = tx("0xf", 5, 20)  # a future may only displace a pending tx
        assert pool.add(first).evicted == [a]
        assert pool._pending_heap[0] == (10, 0, a.hash)
        comeback = pool.add(a)  # pending again: it sheds the future
        assert comeback.outcome is AddOutcome.ADMITTED_PENDING
        assert comeback.evicted == [first]
        assert (10, 0, a.hash) in pool._pending_heap
        assert (10, 5, a.hash) in pool._pending_heap
        # b arrived before a's comeback; the old entry ranks a first.
        assert pool.add(tx("0xg", 5, 20)).evicted == [a]
        assert pool.is_pending(b.hash)
        pool.check_invariants()
