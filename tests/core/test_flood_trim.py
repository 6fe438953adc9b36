"""Flood trimming: a flood above the eviction point cannot change a verdict.

Every flood site sends node X the prefix of the round's flood its pool has
room for (``core.primitive.trim_flood`` over ``core.adaptive.flood_room``)
instead of all Z futures. The law is equality, not a tolerance: the trimmed
and the full flood leave every pool in the same state, so they draw the
same random numbers, fire the same events and reach the same verdicts.

(a) holds one pool against its twin under hypothesis-drawn pasts; (b) holds
whole campaigns against twins whose ``trim_flood`` returns the whole list.
"""

from typing import Dict, List

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import primitive
from repro.core.adaptive import flood_room
from repro.core.campaign import TopoShot
from repro.core.config import MeasurementConfig
from repro.core.primitive import build_future_flood, rebid, trim_flood
from repro.eth.account import Wallet
from repro.eth.behaviors import BehaviorMix
from repro.eth.mempool import AddOutcome, Mempool
from repro.eth.transaction import TransactionFactory, gwei
from repro.io import measurement_to_dict
from repro.netgen.ethereum import generate_network, quick_network, ropsten_like
from repro.netgen.workloads import prefill_mempools
from repro.sim.faults import FaultPlan
from tests.conftest import property_settings
from tests.netgen.test_pool_refresh_copy import (
    POLICIES,
    build,
    exact_state,
    live_through,
    past,
)

REFUSED_WHOLE = {AddOutcome.REJECTED_BASE_FEE, AddOutcome.REJECTED_FEE_FLOOR}


def untrimmed(node, flood):
    """``trim_flood`` of a twin that still sends every node the whole Z."""
    return flood, False


# ----------------------------------------------------------------------
# (a) One pool
# ----------------------------------------------------------------------
def live_heaps(state: Dict[str, object]) -> Dict[str, object]:
    """The eviction heaps are lazy: the entry of a transaction that left the
    pool stays until a victim search pops it off the top (and outlives a
    re-admission of the same hash, which pushes a second entry). A refused
    future runs one such search; a flood cut to exactly ``room`` has no
    refused future, so with the margin off — a device of this test, the
    shipped margin always leaves refusals — the twins may differ in such
    left-overs. Each resident's latest entry is what its admission filed."""
    resident = {tx_hash for tx_hash, _ in state["by_hash"]}
    classes = (
        ("pending_heap", resident - state["future"]),
        ("future_heap", state["future"]),
    )
    for heap, live in classes:
        latest: Dict[str, tuple] = {}
        for entry in state[heap]:
            if entry[2] in live:
                held = latest.get(entry[2], entry)
                latest[entry[2]] = max(held, entry, key=lambda e: e[1])
        state[heap] = sorted(latest.values())
    return state


def flooded(policy, fee_market, history, z, u, trim) -> Dict[str, object]:
    """One pool with a past, sent ``trim``'s share of a Z-future flood and
    then a sink's payload; returns what a twin must reproduce."""
    network = build([policy], fee_market)
    adds, base_fee = history
    live_through(network, 0, adds, base_fee)
    node = network.node("n00")
    pool: Mempool = node.mempool
    config = MeasurementConfig(
        future_count=z,
        future_per_account=u,
        replace_bump=policy.replace_bump or 0.1,
    )
    y = pool.median_pending_price() or gwei(1.0)
    wallet, factory = Wallet("trim"), TransactionFactory()
    seeds = [
        factory.transfer(wallet.fresh_account(prefix="edge"), gas_price=y)
        for _ in range(3)
    ]
    for seed in seeds[:2]:  # p1: two of the three txC took hold earlier
        pool.add(seed)
    flood = build_future_flood(wallet, factory, config, y)
    room = flood_room(node, flood[0].bid_price(pool.base_fee))
    kept, short = trim(node, flood)
    assert list(kept) == flood[: len(kept)]
    assert trim is untrimmed or short == (room > z)
    payload = [
        rebid(factory, seeds[0], config.price_b(y)),
        seeds[1],
        seeds[2],
        rebid(factory, seeds[0], config.price_a(y)),
    ]
    outcomes = [pool.add(tx).outcome for tx in [*kept, *payload]]
    pool.check_invariants()
    state = exact_state(pool)
    refusals = state["stats"].pop("rejected_pool_full")
    return {
        "room": room,
        "sent": len(kept),
        "flood": outcomes[: len(kept)],
        "payload": outcomes[len(kept) :],
        "refusals": refusals,
        "state": state,
    }


def check_law(policy, fee_market, history, z, u, margin_off) -> Dict[str, object]:
    def trim(node, flood):
        with pytest.MonkeyPatch.context() as patch:
            if margin_off:
                patch.setattr(primitive, "flood_margin", lambda z: 0)
            return trim_flood(node, flood)

    full = flooded(policy, fee_market, history, z, u, untrimmed)
    trimmed = flooded(policy, fee_market, history, z, u, trim)
    assert trimmed["room"] == full["room"]
    admitted = full["flood"].count(AddOutcome.ADMITTED_FUTURE)
    assert admitted <= full["room"]
    # What was cut is what the pool refuses: for want of a victim — or,
    # when the flood's price does not clear the pool at all, wholesale.
    cut = set(full["flood"][trimmed["sent"] :])
    assert cut <= {AddOutcome.REJECTED_POOL_FULL} or (
        len(cut) == 1 and cut <= REFUSED_WHOLE and not admitted
    )
    assert trimmed["flood"] == full["flood"][: trimmed["sent"]]
    assert trimmed["payload"] == full["payload"]
    if cut <= {AddOutcome.REJECTED_POOL_FULL}:
        assert full["refusals"] - trimmed["refusals"] == z - trimmed["sent"]
        if margin_off:
            live_heaps(full["state"]), live_heaps(trimmed["state"])
        assert trimmed["state"] == full["state"]
    return trimmed


flood_shape = st.tuples(
    st.sampled_from([0.5, 1.0, 2.0]),  # Z / L: Fig. 4a's short flood .. a Z override
    st.sampled_from(["pool", "half", "double"]),  # U of the flood vs the pool's
)


def z_and_u(policy, shape):
    z = max(2, int(policy.capacity * shape[0]))
    own = policy.future_limit_per_account or z // 2
    u = {"pool": own, "half": max(1, own // 2), "double": own * 2}[shape[1]]
    return z, min(u, z - 1)  # U < Z: the flood spans accounts


@pytest.mark.parametrize("margin_off", [True, False], ids=["margin-0", "margin"])
@pytest.mark.parametrize("fee_market", [False, True], ids=["no-market", "fee-market"])
@given(policy=st.sampled_from(POLICIES), history=past, shape=flood_shape)
@property_settings(60)
def test_trimmed_flood_leaves_the_pool_the_full_flood_leaves(
    margin_off, fee_market, policy, history, shape
):
    """Five scaled presets + geth-1559, own pasts (multi-nonce senders whose
    tail an eviction demotes, a block, Parity's P > 0), floods shorter and
    longer than the pool. With the margin off the prefix is exactly
    ``room``, so an under-estimate of one cannot hide."""
    z, u = z_and_u(policy, shape)
    check_law(policy, fee_market, history, z, u, margin_off)


# Sixteen one-transaction senders at 0.5 gwei: every resident is evictable
# and no eviction demotes a tail, so the pool admits exactly ``room``.
CHEAP_POOL = ([(sender, 0, 0.5) for sender in range(16)], None)
# Four-nonce senders: evicting a run's head demotes the three behind it.
CHEAP_RUNS = ([(sender, nonce, 0.5) for sender in range(6) for nonce in range(4)], None)


def test_the_bound_is_met_and_the_law_is_not_vacuous():
    policy = POLICIES[0]
    trimmed = check_law(policy, False, CHEAP_POOL, 2 * policy.capacity, 8, True)
    assert trimmed["room"] == trimmed["sent"] == policy.capacity
    assert trimmed["flood"] == [AddOutcome.ADMITTED_FUTURE] * policy.capacity
    demoting = check_law(policy, False, CHEAP_RUNS, 2 * policy.capacity, 8, True)
    admitted = demoting["flood"].count(AddOutcome.ADMITTED_FUTURE)
    assert 0 < admitted < demoting["room"] == demoting["sent"]


def test_an_off_by_one_underestimate_fails_the_law(monkeypatch):
    """Mutation check: ``room`` one too low leaves one resident unevicted."""
    monkeypatch.setattr(
        primitive, "flood_room", lambda node, bid: flood_room(node, bid) - 1
    )
    policy = POLICIES[0]
    with pytest.raises(AssertionError):
        check_law(policy, False, CHEAP_POOL, 2 * policy.capacity, 8, True)


def test_leaked_futures_are_looked_past():
    """A duplicate-spamming or future-forwarding peer of a node flooded
    earlier in the round can hand this pool part of the flood ahead of M.
    Those are refused as known, so the prefix must hold ``room`` futures
    the pool does not have yet."""

    def flooded_after_leak(trim):
        network = build([POLICIES[0]])
        live_through(network, 0, *CHEAP_POOL)
        node = network.node("n00")
        config = MeasurementConfig(future_count=32, future_per_account=8)
        flood = build_future_flood(
            Wallet("leak"), TransactionFactory(), config, gwei(1.0)
        )
        for tx in flood[:5]:
            assert node.mempool.add(tx).admitted
        kept, _ = trim(node, flood)
        for tx in kept:
            node.mempool.add(tx)
        state = exact_state(node.mempool)
        del state["stats"]
        return len(kept), state

    sent, state = flooded_after_leak(trim_flood)
    assert sent == 5 + 11 + 4  # the leak, the room left, the margin
    assert (32, state) == flooded_after_leak(untrimmed)


# ----------------------------------------------------------------------
# (b) Whole campaigns
# ----------------------------------------------------------------------
def quick24():
    return quick_network(n_nodes=24, seed=7)


def ropsten32():
    """Custom-capacity, Parity, RPC-less and non-relaying nodes."""
    return generate_network(ropsten_like(seed=7, n_nodes=32))


def byzantine16():
    """Every misbehaviour that does not re-send what a pool *refused*
    (``spoof_relay`` does, see docs/adversarial.md), under packet loss,
    with the serial probes of cross-validation in the walk."""
    network = quick_network(n_nodes=16, seed=11)
    network.install_behaviors(
        BehaviorMix(
            censor=0.1,
            lazy_relay=0.1,
            nonconforming_replacer=0.1,
            duplicate_spammer=0.1,
            stale_client=0.1,
        )
    )
    return network


def campaign(build_network, plan=None, cross_validate=0):
    network = build_network()
    prefill_mempools(network)
    shot = TopoShot.attach(network)
    if cross_validate:
        shot.config = shot.config.with_cross_validation(cross_validate)
    if plan is not None:
        network.install_faults(plan)
    measurement = shot.measure_network()
    pools: List[Dict[str, object]] = []
    for node_id in network.node_ids:
        state = exact_state(network.node(node_id).mempool)
        del state["stats"]["rejected_pool_full"]
        pools.append(state)
    result = measurement_to_dict(measurement)
    return {
        "sent": result.pop("transactions_sent"),
        "measurement": result,
        "events": network.sim.executed_events,
        "messages": network.messages_sent,
        "pools": pools,
    }


@pytest.mark.parametrize(
    "build_network, plan, cross_validate",
    [
        (quick24, None, 0),
        (ropsten32, None, 0),
        (byzantine16, FaultPlan(loss_rate=0.02), 2),
    ],
    ids=["quick-24", "ropsten-32", "byzantine-loss-16"],
)
def test_campaign_equals_its_full_flood_twin(
    build_network, plan, cross_validate, monkeypatch
):
    trimmed = campaign(build_network, plan, cross_validate)
    monkeypatch.setattr(primitive, "trim_flood", untrimmed)
    full = campaign(build_network, plan, cross_validate)
    assert trimmed.pop("sent") < 0.8 * full.pop("sent")
    assert trimmed == full


def test_counters_rebuild_the_static_cost():
    """sent + trimmed is what the static-Z flood costs, and a pool with room
    for more than Z is counted every time it is flooded."""
    from repro.netgen.ethereum import NetworkSpec
    from repro.obs import Observability, wiring

    def run():
        network = generate_network(  # one 281-slot pool among 128-slot ones
            NetworkSpec(
                n_nodes=16, seed=5, mempool_capacity=128,
                fraction_custom_capacity=0.25,
            )
        )
        prefill_mempools(network)
        obs = Observability()
        measurement = TopoShot.attach(network, obs=obs).measure_network()
        counters = {
            s["name"]: s["value"]
            for s in obs.metrics.snapshot()
            if s["type"] == "counter" and not s["labels"]
        }
        return measurement, counters

    measurement, counters = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(primitive, "trim_flood", untrimmed)
        static, static_counters = run()
    sent = counters[wiring.CAMPAIGN_TXS]
    trimmed = counters[wiring.CAMPAIGN_FLOOD_TRIMMED]
    assert sent == measurement.transactions_sent
    assert trimmed > 0 and sent + trimmed == static.transactions_sent
    assert static_counters[wiring.CAMPAIGN_FLOOD_TRIMMED] == 0
    # The big pool, once per iteration that has it as a source or a sink.
    assert 0 < counters[wiring.CAMPAIGN_FLOOD_SHORT] <= measurement.iterations
