"""Tests for discovery tables, the RPC facade and the supernode."""

import gc
import random
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReproError, RpcUnavailableError
from repro.eth.discovery import (
    BUCKET_COUNT,
    RoutingTable,
    build_routing_tables,
    bucket_index,
    kademlia_id,
    xor_distance,
)
from repro.eth.messages import NewPooledTransactionHashes
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.rpc import RpcServer
from repro.eth.supernode import Supernode
from repro.eth.transaction import Transaction, gwei
from repro.netgen.ethereum import NetworkSpec, generate_network
from tests.conftest import property_settings


class TestKademlia:
    def test_id_is_stable(self):
        assert kademlia_id("node-1") == kademlia_id("node-1")

    def test_xor_distance_symmetric_and_zero_on_self(self):
        assert xor_distance("a", "b") == xor_distance("b", "a")
        assert xor_distance("a", "a") == 0

    def test_bucket_index_in_range(self):
        for i in range(50):
            index = bucket_index("owner", f"peer-{i}")
            assert 0 <= index < BUCKET_COUNT


class TestRoutingTable:
    def test_never_contains_owner(self):
        table = RoutingTable(owner_id="me", capacity=16)
        assert not table.add("me")

    def test_no_duplicates(self):
        table = RoutingTable(owner_id="me", capacity=16)
        assert table.add("peer")
        assert not table.add("peer")
        assert len(table) == 1

    def test_bucket_capacity_limits_insertion(self):
        table = RoutingTable(owner_id="me", capacity=BUCKET_COUNT)  # 1 per bucket
        inserted = table.fill_from([f"n{i}" for i in range(200)], random.Random(1))
        assert inserted <= BUCKET_COUNT
        for bucket in table.buckets.values():
            assert len(bucket) <= table.bucket_capacity

    def test_fill_from_reaches_target(self):
        table = RoutingTable(owner_id="me", capacity=64)
        population = [f"n{i}" for i in range(500)]
        table.fill_from(population, random.Random(2))
        assert len(table) >= 32  # most buckets fillable from 500 candidates

    def test_closest_sorts_by_xor(self):
        table = RoutingTable(owner_id="me", capacity=64)
        table.fill_from([f"n{i}" for i in range(100)], random.Random(3))
        closest = table.closest("target", count=5)
        distances = [xor_distance(nid, "target") for nid in closest]
        assert distances == sorted(distances)

    def test_build_tables_for_population(self):
        ids = [f"n{i}" for i in range(30)]
        tables = build_routing_tables(ids, random.Random(4), capacity=16)
        assert set(tables) == set(ids)
        for owner, table in tables.items():
            assert owner not in table.entries()


@dataclass
class ParentTable:
    """The table's insertion rules as they were before fills bucketed in one
    loop: a frame per candidate, ``len(self)`` per candidate, two id
    look-ups per XOR. Kept as the oracle."""

    owner_id: str
    capacity: int
    buckets: Dict[int, List[str]] = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self.buckets.values())

    def add(self, node_id: str) -> bool:
        if node_id == self.owner_id:
            return False
        index = bucket_index(self.owner_id, node_id)
        bucket = self.buckets.setdefault(index, [])
        if node_id in bucket:
            return False
        if len(bucket) >= max(1, self.capacity // BUCKET_COUNT):
            return False
        bucket.append(node_id)
        return True

    def fill_from(self, population, rng, target_size=None) -> int:
        target = self.capacity if target_size is None else target_size
        candidates = [nid for nid in population if nid != self.owner_id]
        rng.shuffle(candidates)
        inserted = 0
        for candidate in candidates:
            if len(self) >= target:
                break
            if self.add(candidate):
                inserted += 1
        return inserted

    def fill_from_sampled(self, population, rng, target_size=None) -> int:
        target = self.capacity if target_size is None else target_size
        size = len(self)
        if size >= target:
            return 0
        k = min(len(population), 3 * target + 8)
        inserted = 0
        for candidate in rng.sample(population, k):
            if candidate == self.owner_id:
                continue
            if self.add(candidate):
                inserted += 1
                size += 1
                if size >= target:
                    break
        return inserted

    def entries(self) -> List[str]:
        return [nid for index in sorted(self.buckets) for nid in self.buckets[index]]


fill_steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["fill_from", "fill_from_sampled"]),
            st.one_of(st.none(), st.integers(0, 300)),
        ),
        st.tuples(st.just("add"), st.integers(0, 599)),
    ),
    min_size=1,
    max_size=4,
)


class TestParentFills:
    """Routing tables are the parent's, draw for draw: the same buckets in
    the same order, the same return values, the same RNG state after."""

    @property_settings(30)
    @given(
        n_names=st.integers(2, 600),
        capacity=st.integers(1, 300),
        owner=st.integers(0, 599),
        steps=fill_steps,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fills_equal_the_parent_rules(self, n_names, capacity, owner, steps, seed):
        names = [NetworkSpec(name="law").node_id(i) for i in range(n_names)]
        owner_id = names[owner % n_names]
        ours = RoutingTable(owner_id=owner_id, capacity=capacity)
        oracle = ParentTable(owner_id=owner_id, capacity=capacity)
        ours_rng, oracle_rng = random.Random(seed), random.Random(seed)
        for kind, arg in steps:
            if kind == "add":
                name = names[arg % n_names]
                assert ours.add(name) == oracle.add(name)
                continue
            got = getattr(ours, kind)(names, ours_rng, target_size=arg)
            assert got == getattr(oracle, kind)(names, oracle_rng, target_size=arg)
            assert ours.buckets == oracle.buckets
            assert [list(b) for b in ours.buckets.values()] == [
                list(b) for b in oracle.buckets.values()
            ]
            assert ours.entries() == oracle.entries()
            assert len(ours) == len(oracle)
            assert ours_rng.getstate() == oracle_rng.getstate()
        for name in names:
            index = bucket_index(owner_id, name)
            assert (name in ours) == (name in oracle.buckets.get(index, []))

    @property_settings(15)
    @given(
        n_names=st.integers(2, 600),
        capacity=st.integers(1, 300),
        fast=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_build_equals_the_parent_build(self, n_names, capacity, fast, seed):
        names = [NetworkSpec(name="law").node_id(i) for i in range(n_names)]
        ours_rng, oracle_rng = random.Random(seed), random.Random(seed)
        tables = build_routing_tables(names, ours_rng, capacity=capacity, fast=fast)
        for name in names:
            oracle = ParentTable(owner_id=name, capacity=capacity)
            if fast:
                oracle.fill_from_sampled(names, oracle_rng)
            else:
                oracle.fill_from(names, oracle_rng)
            assert tables[name].buckets == oracle.buckets
            assert tables[name].entries() == oracle.entries()
        assert ours_rng.getstate() == oracle_rng.getstate()


def test_builds_with_new_names_leave_no_kademlia_ids_behind():
    """A tenant names its world (``CampaignSpec.from_dict`` builds the
    ``NetworkSpec`` it sends), so a warm service worker builds worlds of
    ever new names. Ids resolved for one build go with it; a process-wide
    cache kept ~2 KB per 16-node world (~420 KB after these 200)."""

    def build(index: int) -> None:
        generate_network(NetworkSpec(n_nodes=16, seed=index, name=f"tenant-{index}"))

    build(-1)  # imports and first-use caches of the build itself
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(200):
            build(index)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 50_000


@pytest.fixture
def rpc_network(wallet, factory):
    network = Network(seed=6)
    config = NodeConfig(policy=GETH.scaled(64), client_version="Geth/v1.9.99-test")
    network.create_node("a", config)
    network.create_node("b", config)
    network.connect("a", "b")
    tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
    network.node("a").submit_transaction(tx)
    return network, tx


class TestRpc:
    def test_client_version(self, rpc_network):
        network, _ = rpc_network
        rpc = RpcServer(network.node("a"))
        assert rpc.call("web3_clientVersion") == "Geth/v1.9.99-test"

    def test_get_transaction_by_hash(self, rpc_network):
        network, tx = rpc_network
        rpc = RpcServer(network.node("a"))
        found = rpc.call("eth_getTransactionByHash", tx.hash)
        assert found["hash"] == tx.hash
        assert found["pending"] is True
        assert rpc.call("eth_getTransactionByHash", "0xmissing") is None

    def test_txpool_status_and_content(self, rpc_network, wallet, factory):
        network, tx = rpc_network
        node = network.node("a")
        node.submit_transaction(factory.future(wallet.fresh_account(), gwei(2)))
        rpc = RpcServer(node)
        status = rpc.call("txpool_status")
        assert status == {"pending": 1, "queued": 1}
        content = rpc.call("txpool_content")
        assert tx.hash in content["pending"][tx.sender]

    def test_admin_peers_is_ground_truth(self, rpc_network):
        network, _ = rpc_network
        assert RpcServer(network.node("a")).call("admin_peers") == ["b"]

    def test_send_raw_transaction(self, rpc_network, wallet, factory):
        network, _ = rpc_network
        rpc = RpcServer(network.node("a"))
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        assert rpc.call("eth_sendRawTransaction", tx) == tx.hash

    def test_send_raw_rejection_raises(self, rpc_network, wallet, factory):
        network, existing = rpc_network
        rpc = RpcServer(network.node("a"))
        weak = Transaction(
            sender=existing.sender, nonce=existing.nonce, gas_price=existing.gas_price
        )
        weak_bump = Transaction(
            sender=existing.sender,
            nonce=existing.nonce,
            gas_price=existing.gas_price + 1,
        )
        with pytest.raises(ReproError):
            rpc.call("eth_sendRawTransaction", weak_bump)

    def test_disabled_rpc_raises(self):
        network = Network(seed=1)
        node = network.create_node(
            "quiet", NodeConfig(policy=GETH.scaled(16), responds_to_rpc=False)
        )
        with pytest.raises(RpcUnavailableError):
            RpcServer(node).call("web3_clientVersion")

    def test_unknown_method_raises(self, rpc_network):
        from repro.errors import RpcMethodNotFoundError

        network, _ = rpc_network
        with pytest.raises(RpcMethodNotFoundError) as excinfo:
            RpcServer(network.node("a")).call("eth_mine_me_some_coins")
        assert excinfo.value.method == "eth_mine_me_some_coins"
        assert "eth_mine_me_some_coins" in str(excinfo.value)


class TestSupernode:
    def test_joins_everyone_without_peer_limit(self, triangle_network):
        supernode = Supernode.join(triangle_network)
        assert supernode.degree == 3
        assert all(
            triangle_network.are_connected(supernode.id, n)
            for n in ("n0", "n1", "n2")
        )

    def test_records_push_observations(self, triangle_network, wallet, factory):
        supernode = Supernode.join(triangle_network)
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        triangle_network.node("n0").submit_transaction(tx)
        triangle_network.run(10.0)
        assert supernode.observed_from("n0", tx.hash)
        assert supernode.observers_of(tx.hash) >= {"n0"}

    def test_records_announce_observations_despite_hold(
        self, triangle_network, wallet, factory
    ):
        supernode = Supernode.join(triangle_network)
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        supernode.handle_message(
            "n0", NewPooledTransactionHashes(hashes=(tx.hash,))
        )
        supernode.handle_message(
            "n1", NewPooledTransactionHashes(hashes=(tx.hash,))
        )
        assert supernode.observed_from("n0", tx.hash)
        assert supernode.observed_from("n1", tx.hash)  # hold bypassed

    def test_observers_of_tracks_the_log_across_clear_and_restore(
        self, triangle_network
    ):
        """observers_of reads a hash -> peers index: it must agree with
        the observation log after recording, clearing and a state restore,
        and hand out a set the caller may mutate."""
        supernode = Supernode.join(triangle_network)
        announce = NewPooledTransactionHashes(hashes=("0xaa", "0xbb"))
        supernode.handle_message("n0", announce)
        supernode.handle_message("n1", NewPooledTransactionHashes(hashes=("0xaa",)))
        assert supernode.observers_of("0xaa") == {"n0", "n1"}
        assert supernode.observers_of("0xbb") == {"n0"}
        assert supernode.observers_of("0xcc") == set()
        supernode.observers_of("0xaa").clear()
        assert supernode.observers_of("0xaa") == {"n0", "n1"}

        state = supernode.capture_state()
        supernode.clear_observations()
        assert supernode.observers_of("0xaa") == set()
        supernode.handle_message("n2", NewPooledTransactionHashes(hashes=("0xbb",)))
        assert supernode.observers_of("0xbb") == {"n2"}
        supernode.restore_state(state)
        assert supernode.observers_of("0xaa") == {"n0", "n1"}
        assert supernode.observers_of("0xbb") == {"n0"}

    def test_never_relays(self, wallet, factory):
        network = Network(seed=8)
        config = NodeConfig(policy=GETH.scaled(32))
        network.create_node("a", config)
        network.create_node("b", config)
        # a and b are NOT connected; the supernode bridges them physically.
        supernode = Supernode.join(network)
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        supernode.send_transactions("a", [tx])
        network.run(10.0)
        assert tx.hash in network.node("a").mempool
        assert tx.hash not in network.node("b").mempool

    def test_clear_observations(self, triangle_network, wallet, factory):
        supernode = Supernode.join(triangle_network)
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        triangle_network.node("n0").submit_transaction(tx)
        triangle_network.run(5.0)
        supernode.clear_observations()
        assert not supernode.observed_from("n0", tx.hash)
        assert supernode.observations == []

    def test_first_observation_time_is_monotone_in_distance(
        self, line_network, wallet, factory
    ):
        supernode = Supernode.join(line_network)
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        # Local submission: n0 then gossips to M (a node never propagates a
        # transaction back to the peer that sent it, so injecting through M
        # would leave n0 unobservable).
        line_network.node("n0").submit_transaction(tx)
        line_network.run(10.0)
        t0 = supernode.first_observation_time("n0", tx.hash)
        t3 = supernode.first_observation_time("n3", tx.hash)
        assert t0 is not None and t3 is not None
        assert t0 < t3  # farther along the line -> later possession

    def test_find_node_crawling(self, triangle_network):
        supernode = Supernode.join(triangle_network)
        triangle_network.node("n0").routing_table = ["n1", "n2"]
        supernode.send_find_node("n0")
        triangle_network.run(2.0)
        assert supernode.neighbor_responses["n0"] == ("n1", "n2")

    def test_targets_subset_join(self, triangle_network):
        supernode = Supernode.join(
            triangle_network, node_id="partial-M", targets=["n0", "n1"]
        )
        assert supernode.degree == 2
        assert not triangle_network.are_connected("partial-M", "n2")
