"""Footprint laws of a node's own state: what a node keeps per peer and
between measurement iterations is bounded by what it needs."""

import gc

from repro.eth.network import Network
from repro.eth.node import Node, NodeConfig
from repro.eth.policies import GETH
from repro.eth.transaction import gwei


def tracked_state(node: Node) -> int:
    """The gc-tracked objects a node owns: everything reachable from its
    attributes except the shared world (simulator, network, mempool,
    config, RNG) and code (methods, functions, types). After a full
    collection, so containers of atoms are untracked as CPython leaves
    them."""
    gc.collect()
    shared = {
        id(obj) for obj in (node.sim, node.network, node.mempool, node.config, node._rng)
    }
    seen = set()
    stack = list(vars(node).values())
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in shared or not gc.is_tracked(obj):
            continue
        if callable(obj):  # methods, functions, types: code, not state
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


def star(spokes: int) -> Node:
    network = Network(seed=3)
    config = NodeConfig(policy=GETH.scaled(16))
    hub = network.create_node("hub", config)
    for index in range(spokes):
        network.create_node(f"s{index}", config)
        network.connect("hub", f"s{index}")
    network.settle()
    return hub


def test_per_peer_state_holds_no_objects_of_its_own():
    """A peer is a slot: its bits live in the node's tables, so the node's
    tracked objects do not grow with its peer count."""
    small, large = star(4), star(40)
    assert large.degree == 40
    assert tracked_state(large) == tracked_state(small)


def test_forgetting_empties_every_known_table(wallet, factory):
    """Between iterations a node keeps no known-tx entry, live or dead."""
    network = Network(seed=11)
    config = NodeConfig(policy=GETH.scaled(64))
    for index in range(4):
        network.create_node(f"n{index}", config)
    for index in range(3):
        network.connect(f"n{index}", f"n{index + 1}")
    for _ in range(5):
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        network.node("n0").submit_transaction(tx)
    network.run(5.0)
    assert all(network.node(node_id)._known for node_id in network.node_ids)
    network.forget_known_transactions()
    assert not any(network.node(node_id)._known for node_id in network.node_ids)
