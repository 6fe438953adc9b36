"""One message path: a batch is its sends, a packet is its receives.

``Network.send`` is a batch of one through ``Network._transmit``, and
``Node._handle_txs`` hands a whole packet to the pool's admission loop
(``Mempool._offer``) with the node's mark-known and relay steps as
per-offer hooks — or, for an observed or echoing node, loops the
``Node._receive`` that ``receive_transaction`` wraps. These properties
hold the two claims the routines make about themselves — nothing a pass
binds once (the clock, the epoch, the sender's liveness, the fault
injector, the pool's locals) may differ from what a message or an offer
alone would have seen, and nothing a packet's loop skips (the
``AddResult`` nobody reads) may be observable — against twin worlds: one
driven as drawn, one where every message is its own ``send`` and every
transaction its own ``receive_transaction``. Flood-shaped packets (up to
40 futures into a full pool, past U, through the known table's limit)
are drawn for plain, future-forwarding and echoing receivers.
"""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NotConnectedError, UnknownNodeError
from repro.eth.messages import (
    GetPooledTransactions,
    NewPooledTransactionHashes,
    Transactions,
)
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.transaction import Transaction
from repro.sim.faults import FaultPlan
from tests.conftest import property_settings

NODES = [f"n{i}" for i in range(5)]
LINKS = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)]
TXS = [
    Transaction(sender=f"0xsender{i % 6}", nonce=i // 6, gas_price=100 + 7 * i)
    for i in range(18)
]


def build_world(armed: bool, one_send_at_a_time: bool) -> Network:
    network = Network(seed=11)
    config = NodeConfig(policy=GETH.scaled(16))
    for node_id in NODES:
        network.create_node(node_id, config)
    for a, b in LINKS:
        network.connect(NODES[a], NODES[b])
    network.settle()  # the Status handshakes
    if armed:
        network.install_faults(FaultPlan(loss_rate=0.3, extra_delay_mean=0.05))
    if one_send_at_a_time:
        # Flushes included: this world never hands the transport two
        # messages in one pass.
        def send_batch(from_id, entries):
            for to_id, msg in entries:
                network.send(from_id, to_id, msg)

        network.send_batch = send_batch
    return network


def message(kind: int, tx: Transaction):
    if kind == 0:
        return Transactions(txs=(tx,))
    if kind == 1:
        return NewPooledTransactionHashes(hashes=(tx.hash,))
    return GetPooledTransactions(hashes=(tx.hash,))


def transport_state(network: Network):
    """Everything the transport wrote, and every stream it drew from."""
    sim = network.sim
    queue = sorted(
        (e[0], e[1], e[3], e[4])
        if len(e) == 5
        else (e[0], e[1], e[2].label, e[2].daemon)
        for e in sim._queue
    )
    faults = network.faults
    return (
        queue,
        sim.now,
        sim.executed_events,
        network.messages_sent,
        network.messages_by_kind,
        network.messages_dropped,
        network.drops_by_reason,
        network._latency_rng.getstate(),
        faults._rng.getstate() if faults is not None else None,
    )


def node_states(network: Network):
    return {
        node_id: (node.mempool.capture_state(), node._known, node._rng.getstate())
        for node_id, node in network.nodes.items()
    }


entry = st.tuples(
    st.integers(0, 9),  # which neighbour
    st.integers(0, 2),  # which message kind
    st.integers(0, len(TXS) - 1),
)
step = st.one_of(
    # Messages from one node: a single send, or a batch.
    st.tuples(
        st.just("msgs"),
        st.integers(0, len(NODES) - 1),
        st.lists(entry, min_size=1, max_size=5),
        st.booleans(),  # a lone entry goes through send_batch all the same
    ),
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.01, 0.05, 0.3])),
    st.tuples(st.just("crash"), st.integers(0, len(NODES) - 1)),
    st.tuples(st.just("restart"), st.integers(0, len(NODES) - 1)),
    st.tuples(st.just("unlink"), st.integers(0, len(LINKS) - 1)),
)


def apply(network: Network, op, split: bool) -> None:
    if op[0] == "msgs":
        _, sender, entries, as_batch = op
        from_id = NODES[sender]
        peers = network.neighbors(from_id)
        if not peers:
            return
        batch = [
            (peers[peer % len(peers)], message(kind, TXS[tx]))
            for peer, kind, tx in entries
        ]
        if split or (len(batch) == 1 and not as_batch):
            for to_id, msg in batch:
                network.send(from_id, to_id, msg)
        else:
            network.send_batch(from_id, batch)
    elif op[0] == "run":
        network.run(op[1])
    elif op[0] == "crash":
        network.node(NODES[op[1]]).crash()
    elif op[0] == "restart":
        network.node(NODES[op[1]]).restart()
    else:  # a link vanishes under whatever is in flight on it
        a, b = (NODES[i] for i in LINKS[op[1]])
        if network.are_connected(a, b):
            network.disconnect(a, b)


@pytest.mark.parametrize("armed", [False, True], ids=["reliable", "fault-plan"])
@given(ops=st.lists(step, min_size=1, max_size=30))
@property_settings(40)
def test_any_interleaving_equals_one_send_at_a_time(armed, ops):
    drawn = build_world(armed, one_send_at_a_time=False)
    split = build_world(armed, one_send_at_a_time=True)
    for op in ops:
        apply(drawn, op, split=False)
        apply(split, op, split=True)
        assert transport_state(drawn) == transport_state(split), op
    drawn.run(2.0)
    split.run(2.0)
    assert transport_state(drawn) == transport_state(split)
    assert node_states(drawn) == node_states(split)


@pytest.mark.parametrize(
    "from_id, to_id, error",
    [
        ("n0", "ghost", UnknownNodeError),
        ("n0", "n3", NotConnectedError),
        ("n0", "n0", NotConnectedError),
        ("ghost", "n0", NotConnectedError),
        ("ghost", "ghost", UnknownNodeError),
    ],
)
def test_a_send_that_cannot_be_made_raises_the_same_from_a_batch(
    from_id, to_id, error
):
    network = build_world(armed=False, one_send_at_a_time=False)
    msg = message(0, TXS[0])
    before = transport_state(network)
    with pytest.raises(error):
        network.send(from_id, to_id, msg)
    if from_id in network:
        with pytest.raises(error):
            network.send_batch(from_id, [("n1", msg), (to_id, msg)])
    else:  # the flush entry names the sender it does not know
        with pytest.raises(UnknownNodeError):
            network.send_batch(from_id, [(to_id, msg)])
    # A pass that raises queues nothing.
    assert transport_state(network)[0] == before[0]
    assert network.messages_sent == before[3]


# ----------------------------------------------------------------------
# Receive: a Transactions packet is a receive_transaction per transaction
# ----------------------------------------------------------------------
PEERS = ["p0", "p1", "p2"]


def build_receiver(observed: bool, policy=GETH.scaled(8), **receiver_fields):
    network = Network(seed=3)
    # A known-table limit small enough that the stream overflows it.
    config = NodeConfig(policy=policy, known_tx_limit=6)
    receiver = network.create_node("r", replace(config, **receiver_fields))
    for peer in PEERS:
        network.create_node(peer, config)
        network.connect("r", peer)
    network.settle()
    calls = []
    if observed:
        receiver.tx_observers.append(
            lambda from_id, tx, result: calls.append(
                (
                    from_id,
                    tx.hash,
                    result.outcome,
                    result.replaced,
                    tuple(result.evicted),
                    tuple(result.promoted),
                    result.is_pending,
                )
            )
        )
    return network, receiver, calls


packet = st.tuples(
    st.sampled_from(PEERS + ["stranger"]),
    st.lists(
        st.tuples(
            st.integers(0, 4),  # sender
            st.integers(0, 3),  # nonce: gaps make futures, repeats replace
            st.sampled_from([100, 100, 105, 120, 200]),
        ),
        min_size=1,
        max_size=6,
    ),
)


def receiver_state(network, receiver, calls):
    return (
        receiver.mempool.capture_state(),
        receiver._known,
        receiver._push_queue,
        receiver._announce_queue,
        receiver._rng.getstate(),
        list(calls),
        transport_state(network),
    )


@pytest.mark.parametrize("observed", [False, True], ids=["unobserved", "observed"])
@given(packets=st.lists(packet, min_size=1, max_size=12))
@property_settings(40)
def test_a_packet_equals_a_receive_per_transaction(observed, packets):
    by_packet = build_receiver(observed)
    by_receive = build_receiver(observed)
    for from_id, specs in packets:
        txs = tuple(
            Transaction(sender=f"0xrecv{s}", nonce=n, gas_price=p) for s, n, p in specs
        )
        by_packet[1]._dispatch[Transactions](from_id, Transactions(txs))
        for tx in txs:
            by_receive[1].receive_transaction(from_id, tx)
        for world in (by_packet, by_receive):
            world[0].run(0.001)
        assert receiver_state(*by_packet) == receiver_state(*by_receive)
    for world in (by_packet, by_receive):
        world[0].run(2.0)
    assert receiver_state(*by_packet) == receiver_state(*by_receive)
    assert node_states(by_packet[0]) == node_states(by_receive[0])


# Flood-shaped packets: up to 40 offers into a pool full of pending
# background, from accounts whose runs reach and pass U, with the known
# table (6 entries) overflowing inside one packet.
FLOOD_POLICY = replace(
    GETH.scaled(16), future_limit_per_account=4, eviction_pending_floor=2
)
RECEIVERS = {
    "plain": {},
    "forwards-future": {"forwards_future": True},
    "echoing": {"echoes_future_to_sender": True},
}

flood = st.tuples(
    st.sampled_from(PEERS + ["stranger"]),
    st.lists(
        st.tuples(
            st.integers(0, 2),  # sender
            st.integers(0, 15),  # nonce: mostly futures; 0 fills the gap
            st.sampled_from([90, 110, 110, 150, 200]),  # vs background 100-102
        ),
        min_size=1,
        max_size=40,
    ),
)


@pytest.mark.parametrize("kind", list(RECEIVERS), ids=list(RECEIVERS))
@pytest.mark.parametrize("observed", [False, True], ids=["unobserved", "observed"])
@given(background=st.integers(0, 16), packets=st.lists(flood, min_size=1, max_size=6))
@property_settings(30)
def test_a_flood_packet_equals_a_receive_per_transaction(
    observed, kind, background, packets
):
    worlds = [
        build_receiver(observed, FLOOD_POLICY, **RECEIVERS[kind]) for _ in range(2)
    ]
    by_packet, by_receive = worlds
    fill = [
        Transaction(sender=f"0xbg{i}", nonce=0, gas_price=100 + i % 3)
        for i in range(background)
    ]
    for world in worlds:
        world[1].mempool.add_batch(fill, stop_when_full=True)
    for from_id, specs in packets:
        txs = tuple(
            Transaction(sender=f"0xflood{s}", nonce=n, gas_price=p) for s, n, p in specs
        )
        by_packet[1]._dispatch[Transactions](from_id, Transactions(txs))
        for tx in txs:
            by_receive[1].receive_transaction(from_id, tx)
        for world in worlds:
            world[0].run(0.001)
        assert receiver_state(*by_packet) == receiver_state(*by_receive)
    for world in worlds:
        world[0].run(2.0)
    assert receiver_state(*by_packet) == receiver_state(*by_receive)
    assert node_states(by_packet[0]) == node_states(by_receive[0])
