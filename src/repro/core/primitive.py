"""The serial measurement primitive ``measureOneLink`` (Section 5.2).

Four steps, exactly as Figure 2a:

1. plant ``txC`` (price ``Y``) on node A and wait X seconds for it to flood
   the whole network;
2. flood node B with Z future transactions priced ``(1+R)Y`` (evicting
   ``txC`` there) immediately followed by ``txB`` priced ``(1-R/2)Y``;
3. flood node A the same way, immediately followed by ``txA`` priced
   ``(1+R/2)Y``;
4. conclude A--B is an active link iff the measurement node receives
   ``txA`` *from node B*.

A node is sent the part of the Z-future flood its pool has room for
(:func:`trim_flood`): the futures cut are the ones it would have refused.

Isolation: txA's bump over txC is R/2 < R, so no other node ever accepts
(or re-propagates) txA; its bump over txB is (1+R/2)/(1-R/2)-1 >= R, so B —
and only B — replaces and forwards it.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.adaptive import flood_room
from repro.core.config import (
    FLOOD_WAIT,
    FUTURE_NONCE_GAP,
    PROPAGATION_WAIT,
    SEND_TIMEOUT,
    SETTLE_WAIT,
    MeasurementConfig,
    retry_delay,
)
from repro.core.gas_estimator import estimate_y
from repro.core.results import EdgeEvidence, keep_stronger
from repro.errors import NotConnectedError, SendTimeoutError
from repro.eth.account import Wallet
from repro.eth.network import Network
from repro.eth.node import Node
from repro.eth.rpc import rpc_tx_in_pool
from repro.eth.supernode import Supernode
from repro.eth.transaction import Transaction, TransactionFactory


def _known(value: Optional[bool], default: bool) -> bool:
    """Collapse a tri-state RPC answer: *unknown* takes the default.

    Every pool check below runs through the (possibly faulty) measurement
    plane and may come back ``None``. Defaults are chosen so a broken
    plane can only ever *weaken* a verdict (degrade to suspect/LOW), never
    manufacture a negative — the paper's false-negative discussion, §6.1.
    """
    return default if value is None else value


def confirmed_direct(record: EdgeEvidence, extra_observed_at: Optional[float]) -> bool:
    """The cross-validation verdict for one probe, given the earliest time
    any of ``record.extra_observers`` demonstrated possession of txA.

    A clean positive proves direct adjacency outright. With the envelope
    broken (third parties also showed ``txA``), the timing race decides:
    one-way delays are strictly positive, so a sink that received ``txA``
    *through* a third party demonstrates possession to the supernode only
    after that party does. A sink whose possession arrives no later than
    every third party's therefore cannot sit behind a relay chain.
    Per-message latency noise makes one race fallible both ways; the
    campaign amplifies it 1-of-n (see ``MeasurementConfig.cross_validate``).
    """
    if not (record.detected and record.rpc_confirmed):
        return False
    if not record.extra_observers:
        return True
    return (
        record.observed_at is not None
        and extra_observed_at is not None
        and record.observed_at <= extra_observed_at
    )


def build_future_flood(
    wallet: Wallet,
    factory: TransactionFactory,
    config: MeasurementConfig,
    y: int,
) -> List[Transaction]:
    """Create the Z-transaction eviction flood, spread over ``ceil(Z/U)``
    fresh accounts at price ``(1+R)Y`` (Step 2/3 of the primitive)."""
    price = config.price_future(y)
    accounts = wallet.fresh_accounts(config.flood_accounts, prefix="flood")
    per_account = math.ceil(config.future_count / len(accounts))
    flood: List[Transaction] = []
    for account in accounts:
        for index in range(per_account):
            if len(flood) >= config.future_count:
                break
            flood.append(
                factory.future(
                    account,
                    gas_price=price,
                    nonce_gap=FUTURE_NONCE_GAP,
                    index=index,
                )
            )
    return flood


def rebid(factory: TransactionFactory, original: Transaction, price: int) -> Transaction:
    """Same sender and nonce as ``original`` at an explicit price."""
    return Transaction(
        sender=original.sender,
        nonce=original.nonce,
        gas_price=price,
        gas_limit=original.gas_limit,
        to=original.to,
        value=original.value,
    )


def flood_margin(z: int) -> int:
    """Futures sent beyond a pool's room: the read is a bound at the
    instant of sending, and a block mined before the packet lands frees
    slots (futures fill them without evicting) the read did not see."""
    return max(4, z // 16)


def trim_flood(
    node: Node, flood: Sequence[Transaction]
) -> Tuple[Sequence[Transaction], bool]:
    """The prefix of the round's ``flood`` worth sending to ``node``, and
    whether its pool had room for more futures than the whole flood holds
    (a pool larger than Z: the false-negative mechanism of Figure 4a).

    The flood is one price from fresh accounts, so a pool admits the first
    :func:`~repro.core.adaptive.flood_room` futures it does not hold yet
    and refuses the rest as no-ops: the prefix holding that many, plus
    :func:`flood_margin`, leaves the pool in the state the full flood
    would. Futures it holds already can only be this round's, leaked by a
    misbehaving peer of a node flooded earlier; the prefix looks past
    them. The one exception is a pool whose own U is below the flood's
    per-account run — it admits the head of every account's run, not a
    prefix — which gets the whole flood.
    """
    z = len(flood)
    pool = node.mempool
    room = flood_room(node, flood[0].bid_price(pool.base_fee))
    keep = room + flood_margin(z)
    limit = pool.policy.future_limit_per_account
    if limit is not None and limit < z and flood[limit].sender == flood[0].sender:
        keep = z
    elif pool.future_count:
        # Up to and including the keep-th future the pool does not hold.
        fresh = (i for i, tx in enumerate(flood, 1) if tx.hash not in pool)
        keep = next(islice(fresh, keep - 1, None), z)
    return flood[:keep], room > z


def inject(
    supernode: Supernode,
    peer_id: str,
    batch: Sequence[Transaction],
    tally: Optional[object] = None,
    flood: Sequence[Transaction] = (),
) -> bool:
    """The one injection every probe sends through: did the packet leave M?

    ``flood`` is the round's eviction flood, to arrive immediately ahead
    of ``batch`` in the same packet; the peer is sent the part of it its
    pool can admit (:func:`trim_flood`).

    A timed-out send or a churned supernode link fails the set-up of
    whatever was being planted, never the run: it is counted on ``tally``
    (a round report), not raised.
    """
    kept, short = (
        trim_flood(supernode.network.node(peer_id), flood) if flood else ((), False)
    )
    try:
        supernode.send_transactions(peer_id, [*kept, *batch])
    except (SendTimeoutError, NotConnectedError):
        if tally is not None:
            tally.send_timeouts += 1
        return False
    if tally is not None:
        tally.transactions_sent += len(kept) + len(batch)
        tally.flood_trimmed += len(flood) - len(kept)
        tally.flood_short += short
    return True


def cleanup(
    network: Network,
    supernode: Supernode,
    refresh: Optional[Callable[[], None]] = None,
) -> None:
    """The one clean-up between probes: drop the observation log and every
    node's known-transaction table, then run ``refresh`` (pool churn)."""
    supernode.clear_observations()
    network.forget_known_transactions()
    if refresh is not None:
        refresh()


def verdict(
    network: Network,
    supernode: Supernode,
    source: str,
    sink: str,
    tx_hash: str,
    config: MeasurementConfig,
) -> EdgeEvidence:
    """The one verdict both primitives end in (Section 5.2 step 4, 5.3.1
    p4): ``source``--``sink`` is an edge iff M observed ``tx_hash``, the
    pair's txA, back from the sink.

    Hardened (``config.hardened``, Section 6.1), gossip possession must
    survive an RPC cross-check of the sink's pool — a spoofing relay can
    forward txA without ever pooling it — and third parties M saw with txA
    are recorded: on a conforming network the price band keeps that set
    empty, so any entry marks a broken isolation envelope. A cross-check
    that comes back *unknown* keeps the gossip verdict and marks it
    degraded, never a manufactured negative. Unhardened, the gossip
    verdict stands alone.

    The sink's cross-check is the only RPC call made here; each caller
    runs its own set-up checks around it, and ``setup_ok`` is left to it.
    """
    # Read before the cross-check, which may sleep through retries while
    # gossip keeps arriving: the verdict is on what M had seen by now.
    observed_at = supernode.first_observation_time(sink, tx_hash)
    kind = supernode.observation_kind(sink, tx_hash) or ""
    rpc_confirmed, extra_observers, degraded = True, (), False
    if config.hardened:
        check = rpc_tx_in_pool(network, sink, tx_hash)
        degraded = check is None
        rpc_confirmed = _known(check, True)
        extra_observers = tuple(
            sorted(supernode.observers_of(tx_hash) - {source, sink})
        )
    return EdgeEvidence(
        source=source,
        sink=sink,
        tx_hash=tx_hash,
        observed_at=observed_at,
        kind=kind,
        rpc_confirmed=rpc_confirmed,
        extra_observers=extra_observers,
        rpc_degraded=degraded,
        detected=observed_at is not None and rpc_confirmed,
    )


def probe_wallet(network: Network) -> Wallet:
    """A new wallet for one serial probe, named by the sim time it starts
    at: what :func:`measure_one_link` mints from when handed none."""
    return Wallet(f"toposhot-{network.sim.now:.3f}")


def measure_one_link(
    network: Network,
    supernode: Supernode,
    a_id: str,
    b_id: str,
    config: Optional[MeasurementConfig] = None,
    wallet: Optional[Wallet] = None,
) -> EdgeEvidence:
    """Run one serial ``measureOneLink(A, B, X, Y, Z, R, U)`` probe and
    return its record: the :func:`verdict` plus the serial set-up checks.

    The call advances the shared simulation by roughly
    ``X + settle + propagation`` seconds and leaves flood transactions in
    the targets' pools (as the real tool does; they are future transactions
    and cost nothing, Section 5.2.2). It mints its seed and flood accounts
    from ``wallet``, empty or not, or from a :func:`probe_wallet`.
    """
    if a_id == b_id:
        raise ValueError("cannot measure a node against itself")
    if a_id in network.supernode_ids or b_id in network.supernode_ids:
        raise ValueError("measurement infrastructure cannot be a target")
    config = config or MeasurementConfig()
    wallet = wallet if wallet is not None else probe_wallet(network)
    factory = TransactionFactory()

    y = estimate_y(supernode, config)

    def send_failed(tx_a_hash: str = "", flood_confirmed: bool = False) -> EdgeEvidence:
        # The injection itself died (timeout, churned supernode link): wait
        # out the timeout budget and fail the setup — never the link.
        network.run(SEND_TIMEOUT)
        return EdgeEvidence(
            source=a_id,
            sink=b_id,
            tx_hash=tx_a_hash,
            detected=False,
            setup_ok=False,
            flood_confirmed=flood_confirmed,
        )

    # Step 1: plant txC on A; it floods to everyone, including B.
    seed_account = wallet.fresh_account(prefix="seed")
    tx_c = factory.transfer(seed_account, gas_price=config.price_c(y))
    if network.invariants is not None:
        # Arm the TopoShot isolation invariant: this txC may only ever be
        # replaced on the probed pair. The guard stays registered (the
        # property must hold for the rest of the run, not just the probe).
        network.invariants.guard_isolation(tx_c.hash, frozenset((a_id, b_id)))
    if not inject(supernode, a_id, [tx_c]):
        return send_failed()
    network.run(FLOOD_WAIT)
    flood_confirmed = supernode.observed_from(b_id, tx_c.hash)

    # Step 2: evict txC on B and slot txB in its place.
    flood_b = build_future_flood(wallet, factory, config, y)
    tx_b = rebid(factory, tx_c, config.price_b(y))
    if not inject(supernode, b_id, [tx_b], flood=flood_b):
        return send_failed(flood_confirmed=flood_confirmed)
    network.run(SETTLE_WAIT)

    # Step 3: evict txC on A and slot txA in its place. The paper re-uses
    # the same future set {txO1..txOZ} for both targets.
    tx_a = rebid(factory, tx_c, config.price_a(y))
    if not inject(supernode, a_id, [tx_a], flood=flood_b):
        return send_failed(tx_a.hash, flood_confirmed)
    network.run(PROPAGATION_WAIT)

    # Step 4: did B demonstrably possess txA? Setup diagnostics use the
    # eth_getTransactionByHash validation of Section 6.1 (a node never
    # propagates a transaction back to the peer it came from, so M cannot
    # verify its own injections through gossip).
    a_has_a = rpc_tx_in_pool(network, a_id, tx_a.hash)
    b_has_b = rpc_tx_in_pool(network, b_id, tx_b.hash)
    # Short-circuit like the seed's ``or``: only consult txA on B when txB
    # is demonstrably absent.
    b_has_a = b_has_b if b_has_b else rpc_tx_in_pool(network, b_id, tx_a.hash)
    # Unknown setup answers default to "ok": a sick measurement plane must
    # not convert a live probe into a setup failure.
    setup_a_ok = _known(a_has_a, True)
    setup_b_ok = _known(b_has_b, True) if b_has_b is not False else _known(b_has_a, True)
    found = verdict(network, supernode, a_id, b_id, tx_a.hash, config)
    return replace(
        found,
        setup_ok=found.detected or (setup_a_ok and setup_b_ok),
        flood_confirmed=flood_confirmed,
        rpc_degraded=found.rpc_degraded or None in (a_has_a, b_has_b, b_has_a),
    )


Pair = Tuple[str, str]


def probe_with_repeats(
    network: Network,
    supernode: Supernode,
    pairs: Sequence[Pair],
    config: MeasurementConfig,
    probe_round: Callable[[List[Pair], int], Sequence[EdgeEvidence]],
    refresh: Optional[Callable[[], None]] = None,
) -> Dict[Pair, EdgeEvidence]:
    """The one repeat/retry loop under every probe, serial or parallel.

    ``probe_round(remaining, round_index)`` runs the primitive once on the
    pairs still undetected and returns their records. Positives union
    (Section 6.1 runs each pair three times), the strongest record per
    pair is returned (:func:`~repro.core.results.keep_stronger`), and each
    round ends in one decision:

    - a still-undetected pair failed set-up (crashed endpoint, lost
      injection, send timeout) and retry budget is left: wait
      ``retry_delay(n)`` (time for a restart, a reconnect) and go
      again without consuming a repeat;
    - else one came back ambiguous and budget is left: go again at once;
    - else consume a repeat.

    A retry round re-probes *every* still-undetected pair, not only the
    failed ones: it pays its floods either way, and the extra look is a
    free repeat for the rest. :func:`cleanup` runs between rounds, not
    after the last; ``max_retries=0`` is exactly ``repeats`` rounds.
    """
    best: Dict[Pair, EdgeEvidence] = {}
    remaining = list(pairs)
    repeats_left = config.repeats
    retries_left = config.max_retries
    setup_retries = rounds = 0
    while remaining:
        outcomes = probe_round(remaining, rounds)
        rounds += 1
        for outcome in outcomes:
            keep_stronger(best, (outcome.source, outcome.sink), outcome)
        remaining = [
            pair for pair in remaining if not (pair in best and best[pair].detected)
        ]
        if not remaining:
            break
        missed = [outcome for outcome in outcomes if not outcome.detected]
        if retries_left > 0 and not all(outcome.setup_ok for outcome in missed):
            retries_left -= 1
            setup_retries += 1
            network.run(retry_delay(setup_retries))
        elif retries_left > 0 and any(outcome.ambiguous for outcome in missed):
            retries_left -= 1
        else:
            repeats_left -= 1
            if repeats_left <= 0:
                break
        cleanup(network, supernode, refresh)
    return best


def measure_link_with_repeats(
    network: Network,
    supernode: Supernode,
    a_id: str,
    b_id: str,
    config: Optional[MeasurementConfig] = None,
    wallet: Optional[Wallet] = None,
    refresh: Optional[Callable[[], None]] = None,
) -> List[EdgeEvidence]:
    """:func:`probe_with_repeats` over the one pair ``(a_id, b_id)`` with
    the serial primitive; returns every round's record. An undetected pair
    leaves through a trailing :func:`cleanup`, so back-to-back calls start
    from a clean slate."""
    config = config or MeasurementConfig()
    records: List[EdgeEvidence] = []

    def probe_round(remaining: List[Pair], round_index: int) -> List[EdgeEvidence]:
        records.append(measure_one_link(network, supernode, a_id, b_id, config, wallet))
        return records[-1:]

    probe_with_repeats(network, supernode, [(a_id, b_id)], config, probe_round, refresh)
    if not records[-1].detected:
        cleanup(network, supernode, refresh)
    return records
