"""Snapshot/restore round-trip at mainnet scale (20k nodes).

The struct-of-arrays refactor moved the hot state into integer-indexed
arrays and a slot-mask known-tx table; this test pins the
snapshot contract at a size where those representations actually matter:
capture a quiescent 20k-node world, perturb it with real traffic, restore,
and require the re-captured snapshot to be *deeply equal* to the original
— every RNG stream, mempool, known-tx table, adjacency set and transport
counter bit-identical.
"""

import pytest

from repro.eth.account import Wallet
from repro.eth.transaction import TransactionFactory, gwei
from repro.netgen.ethereum import quick_network

N_NODES = 20_000

# Sparse per-node knobs: the point is the node count (array sizes, interning
# table, per-node state blobs), not edge density, so keep generation cheap.
SPARSE = {
    "outbound_dials": 4,
    "max_peers": 20,
    "routing_table_capacity": 48,
}


@pytest.fixture(scope="module")
def scale_network():
    network = quick_network(n_nodes=N_NODES, seed=3, **SPARSE)
    network.settle()
    return network


def test_snapshot_restore_round_trip_at_20k(scale_network):
    network = scale_network
    baseline = network.snapshot()

    # Perturb the world with real traffic: submissions, gossip, flushes,
    # known-tx table growth — everything the snapshot must rewind.
    wallet = Wallet("scale-snap")
    factory = TransactionFactory()
    ids = network.measurable_node_ids()
    for index in range(5):
        origin = network.node(ids[(index * 997) % len(ids)])
        origin.submit_transaction(
            factory.transfer(wallet.fresh_account(), gas_price=gwei(3.0) + index)
        )
    network.settle()
    perturbed = network.snapshot()
    assert perturbed != baseline  # the traffic must have left a trace

    network.restore(baseline)
    recaptured = network.snapshot()
    assert recaptured == baseline  # bit-identical restored world


def test_interning_stable_across_capture_restore_at_20k(scale_network):
    """Property at scale: the str<->int table is a bijection and survives a
    capture/restore cycle untouched (indices keep naming the same nodes)."""
    network = scale_network
    table_before = network.ids.capture()
    assert len(table_before) == len(set(table_before)) == len(network.nodes)
    network.ids.check_bijection()

    snap = network.snapshot()
    network.restore(snap)

    assert network.ids.capture() == table_before
    network.ids.check_bijection()
    names = network.ids.names
    for index in range(0, N_NODES, 1999):
        name = names[index]
        assert network.node(name).index == index
        assert network.ids.index[name] == index
