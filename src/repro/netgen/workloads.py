"""Background transaction workloads, batched for heavy traffic.

Three layers map to Section 6.2.1's field observations and the ROADMAP's
"millions of users' worth of traffic" scenario:

- :func:`prefill_mempools` stuffs every pool with identically ordered
  background transactions before a measurement, so pools are *full* (a
  correctness precondition of the primitive) and the gas-price distribution
  gives the median-Y estimate something to bite on. The list is admitted
  once per (policy, base fee, fee market) class through
  :meth:`repro.eth.mempool.Mempool.add_batch` — on the class's first blank
  pool, or on a detached one when none is blank; every other blank pool of
  the class copies the containers that built
  (:meth:`~repro.eth.mempool.Mempool.refill_from`) and every live one takes
  the prefix it has room for (:meth:`~repro.eth.mempool.Mempool.take_share`),
  so a prefill after traffic has propagated, and the whole-network refresh
  between measurement rounds (:func:`refresh_mempools`), cost one admission
  pass per class, not one per node;
- :class:`BatchedWorkload` sustains heavy traffic at **O(ticks) engine
  cost**: one engine event per tick generates the whole tick's transactions
  from a precomputed price table (a single seeded RNG stream), counts the
  fee-market floor's casualties by binary search instead of constructing
  them, materializes at most ``materialize_cap`` real transactions, and
  bulk-inserts those into a rotating fanout of pools. Shapes —
  :func:`steady`, :func:`nft_mint_storm`, :func:`mev_replacement_race`,
  :func:`spam_flood`, :func:`diurnal_load` — modulate the rate and
  replacement mix;
- :class:`BackgroundWorkload` is the legacy per-transaction submitter (one
  engine event *per transaction*), kept for low-rate runs where full
  propagation of every background transaction matters.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.errors import MeasurementError
from repro.eth.account import Wallet
from repro.eth.mempool import Mempool
from repro.eth.network import Network
from repro.eth.node import Node
from repro.eth.transaction import Transaction, TransactionFactory, gwei
from repro.sim.process import PeriodicProcess


def _price_sample(rng, median_price: int, sigma: float) -> int:
    """Lognormal gas price centred (in median) on ``median_price``."""
    return max(1, int(rng.lognormvariate(math.log(median_price), sigma)))


def prefill_mempools(
    network: Network,
    median_price: int = gwei(1.0),
    sigma: float = 0.4,
    count: Optional[int] = None,
    include: Optional[Iterable[str]] = None,
    wallet: Optional[Wallet] = None,
) -> List[Transaction]:
    """Fill every node's pool with a shared background-transaction list.

    The same transactions in the same order are offered to every node (as
    if they had propagated), so the price rank of any later measurement
    transaction is consistent network-wide. Each transaction comes from its
    own fresh account at that account's confirmed chain nonce, making all
    of them immediately pending on a node at the chain head, and the offer
    stops at a full pool (``add_batch(stop_when_full=True)``): background
    traffic fills pools, it never evicts.

    Who admits, who copies. What a pool makes of the offer depends only on
    what admission reads: its ``policy``, ``base_fee`` and ``fee_market``,
    its content, and its node's confirmed nonces for the batch's senders.
    The offer is admitted for real once per (policy, base fee, fee market)
    class, by the first pool of the class whose node has confirmed nothing
    from any sender of the batch:

    - a *blank* one (new or cleared, :attr:`~repro.eth.mempool.Mempool.is_blank`:
      empty and drawing tie-break numbers from 0) takes the real
      ``add_batch``; every later blank pool of the class would walk to the
      very same containers, heap entries included, so it copies them
      (:meth:`~repro.eth.mempool.Mempool.refill_from`) and bumps its
      ``stats`` by the batch's outcome counts;
    - a *live* one (holding traffic, or drained by blocks or evictions and
      further along in its tie-break numbers) first has the class's pass
      run on a detached blank pool of the class, one that belongs to no
      node; it, and every later live pool of the class, then takes its
      share of that pass (:meth:`~repro.eth.mempool.Mempool.take_share`):
      when the pass admitted every offer as pending and the pool holds none
      of the batch's senders, its own ``add_batch`` would admit exactly the
      pass's first ``free_slots`` transactions, pending, and re-key its
      heaps, and the share does just that.

    No later eviction, capture or counter can tell a copied pool or a share
    from an admitting pool. The real ``add_batch`` stays for a pool whose
    node has seen a block spending from these accounts (its view of them
    differs from a node's that has not), for a live pool that holds one of
    the senders or whose class pass did anything but admit every offer as
    pending, and for a blank pool whose class pass admitted nothing. A
    refresh clears every pool first, so it costs one admission pass per
    class plus N container copies; a prefill onto live pools, one pass per
    class plus N shares.

    Returns the generated transactions.
    """
    rng = network.sim.rng.stream("prefill")
    wallet = wallet or Wallet("background")
    factory = TransactionFactory()
    node_ids = list(include) if include is not None else network.node_ids
    nodes: List[Node] = [network.node(nid) for nid in node_ids]
    if count is None:
        count = max(
            (n.config.policy.capacity for n in nodes if n.config.policy.capacity < 10**5),
            default=0,
        )
    # With a live fee market installed, senders consult the oracle and bid
    # at least the admission floor — a wallet never knowingly submits a
    # transaction the pools will drop. Without one (the default), prices
    # are the raw lognormal sample, which keeps the golden fingerprints
    # byte-identical.
    floor = 0
    if network.fee_market is not None:
        floor = network.fee_market.floor_for(network.sim.now)
    # A new wallet re-derives the same addresses on every call, so the
    # nonce comes from the chain: once a block has spent from an account,
    # its nonce 0 is stale on every node that saw the block.
    confirmed_nonce = network.chain.confirmed_nonce
    txs = [
        factory.transfer(
            account,
            gas_price=max(floor, _price_sample(rng, median_price, sigma)),
            nonce=confirmed_nonce(account.address),
        )
        for account in wallet.fresh_accounts(count, prefix="bg")
    ]
    senders = {tx.sender for tx in txs}
    passes: Dict[tuple, tuple] = {}
    for node in nodes:
        pool = node.mempool
        if node.confirmed_nonces.keys().isdisjoint(senders):
            key = (pool.policy, pool.base_fee, pool.fee_market)
            class_pass = passes.get(key)
            if pool.is_blank:
                if class_pass and class_pass[0]["by_hash"]:
                    pool.refill_from(*class_pass)
                    continue
                counts = pool.add_batch(txs, stop_when_full=True)
                passes[key] = (pool.capture_state(), counts)
                continue
            if class_pass is None:
                donor = Mempool(pool.policy, clock=network.sim.clock)
                donor.base_fee, donor.fee_market = pool.base_fee, pool.fee_market
                counts = donor.add_batch(txs, stop_when_full=True)
                class_pass = passes[key] = (donor.capture_state(), counts)
            if pool.take_share(*class_pass) is not None:
                continue
        pool.add_batch(txs, stop_when_full=True)
    if network.fee_market is not None:
        # The refill compressed hours of organic traffic into one instant;
        # force the (otherwise rate-limited) oracle to price against the
        # pools as they now stand.
        network.fee_market.refresh(network.sim.now)
    return txs


def refresh_mempools(
    network: Network,
    median_price: int = gwei(1.0),
    sigma: float = 0.4,
    count: Optional[int] = None,
    include: Optional[Iterable[str]] = None,
    wallet: Optional[Wallet] = None,
) -> List[Transaction]:
    """Compressed organic churn: drop every pool's content and pre-fill anew.

    On a live network, a measurement campaign's stale seed transactions
    drain continuously — mined into blocks (they are priced at the pool
    median), expired after ``e`` hours, or evicted by fresh traffic. A
    simulated campaign compresses hours into seconds, so the drain must be
    applied explicitly between iterations; without it, stale seeds clog
    third-party pools until new seeds are rejected and isolation breaks.
    """
    node_ids = list(include) if include is not None else network.node_ids
    for node_id in node_ids:
        network.node(node_id).mempool.clear()
    if network.fee_market is not None:
        # The drain empties the pools, so the admission floor relaxes with
        # them — otherwise a floor inflated by a just-stopped traffic storm
        # clamps the refill up to storm prices and the "ambient" level
        # ratchets instead of recovering.
        network.fee_market.refresh(network.sim.now)
    return prefill_mempools(
        network,
        median_price=median_price,
        sigma=sigma,
        count=count,
        include=node_ids,
        wallet=wallet,
    )


# ----------------------------------------------------------------------
# Batched heavy-traffic engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadShape:
    """One traffic pattern for :class:`BatchedWorkload`.

    ``rate_per_second`` is the mean offered load; the optional modulators
    compose: a diurnal sinusoid scales it first, then a burst window (NFT
    drops) multiplies it. ``replacement_fraction`` of each tick's
    materialized transactions are re-submitted next tick as priced-up
    replacements (MEV races) through real node submission, so they
    propagate and exercise the replacement path network-wide.
    """

    name: str
    rate_per_second: float
    median_price: int = gwei(1.0)
    sigma: float = 0.4
    burst_every: Optional[float] = None
    burst_duration: float = 5.0
    burst_multiplier: float = 1.0
    diurnal_period: Optional[float] = None
    diurnal_amplitude: float = 0.0
    replacement_fraction: float = 0.0
    replacement_bump: float = 0.15

    def __post_init__(self) -> None:
        if self.rate_per_second <= 0:
            raise MeasurementError("rate must be positive")
        if not 0 <= self.replacement_fraction <= 1:
            raise MeasurementError("replacement_fraction must be in [0, 1]")
        if self.diurnal_amplitude < 0 or self.diurnal_amplitude > 1:
            raise MeasurementError("diurnal_amplitude must be in [0, 1]")

    def rate_at(self, now: float) -> float:
        """Offered tx/s at simulated time ``now`` (modulators applied)."""
        rate = self.rate_per_second
        if self.diurnal_period:
            rate *= 1.0 + self.diurnal_amplitude * math.sin(
                2.0 * math.pi * now / self.diurnal_period
            )
        if self.burst_every and (now % self.burst_every) < self.burst_duration:
            rate *= self.burst_multiplier
        return max(0.0, rate)


def steady(rate_per_second: float = 100.0, **kwargs) -> WorkloadShape:
    """Flat organic load at the ambient price level."""
    return WorkloadShape(name="steady", rate_per_second=rate_per_second, **kwargs)


def nft_mint_storm(
    rate_per_second: float = 200.0,
    burst_every: float = 60.0,
    burst_duration: float = 5.0,
    burst_multiplier: float = 20.0,
    **kwargs,
) -> WorkloadShape:
    """Periodic mint-drop bursts: quiet baseline, violent spikes."""
    return WorkloadShape(
        name="nft-mint-storm",
        rate_per_second=rate_per_second,
        burst_every=burst_every,
        burst_duration=burst_duration,
        burst_multiplier=burst_multiplier,
        **kwargs,
    )


def mev_replacement_race(
    rate_per_second: float = 50.0,
    replacement_fraction: float = 0.5,
    replacement_bump: float = 0.15,
    **kwargs,
) -> WorkloadShape:
    """Searchers outbidding each other: heavy replacement traffic."""
    return WorkloadShape(
        name="mev-replacement-race",
        rate_per_second=rate_per_second,
        replacement_fraction=replacement_fraction,
        replacement_bump=replacement_bump,
        **kwargs,
    )


def spam_flood(
    rate_per_second: float = 2000.0,
    median_price: int = gwei(0.2),
    sigma: float = 0.2,
    **kwargs,
) -> WorkloadShape:
    """High-volume bottom-of-the-fee-market spam (mostly floor fodder)."""
    return WorkloadShape(
        name="spam-flood",
        rate_per_second=rate_per_second,
        median_price=median_price,
        sigma=sigma,
        **kwargs,
    )


def diurnal_load(
    rate_per_second: float = 100.0,
    diurnal_period: float = 86400.0,
    diurnal_amplitude: float = 0.6,
    **kwargs,
) -> WorkloadShape:
    """Day/night sinusoid around the mean rate."""
    return WorkloadShape(
        name="diurnal-load",
        rate_per_second=rate_per_second,
        diurnal_period=diurnal_period,
        diurnal_amplitude=diurnal_amplitude,
        **kwargs,
    )


class BatchedWorkload:
    """Sustained background traffic at one engine event per tick.

    Per tick, the whole tick's load is settled in bulk:

    1. the offered count comes from ``shape.rate_at(now) * tick_interval``
       (fractional remainder resolved by one RNG draw, so the long-run
       rate is exact and seed-deterministic);
    2. the live fee-market floor (if installed) is applied *statistically*:
       the precomputed sorted price table — drawn once from a single seeded
       stream at construction — is binary-searched for the floor, and the
       inadmissible fraction of the tick is counted as floor-rejected
       without ever constructing a transaction;
    3. at most ``materialize_cap`` admissible transactions are actually
       built (prices re-sampled from the admissible tail of the table) and
       bulk-inserted via :meth:`~repro.eth.mempool.Mempool.add_batch` into
       a rotating window of ``fanout`` pools, as-if-propagated — the
       statistical remainder is accounted in ``stats`` only;
    4. a ``replacement_fraction`` of the materialized transactions is
       queued and re-submitted next tick as priced-up replacements through
       a real entry node, so MEV races exercise the actual replacement and
       propagation machinery.

    Engine cost is therefore O(ticks) events and O(cap × fanout) pool
    work per tick, independent of the offered tx/s — the property the
    ``BENCH_monitor.json`` sustained-load gate (<15% throughput cost at
    ≥50k tx/s) measures.
    """

    def __init__(
        self,
        network: Network,
        shape: WorkloadShape,
        tick_interval: float = 1.0,
        fanout: int = 16,
        materialize_cap: int = 256,
        price_table_size: int = 4096,
        entry_nodes: Optional[List[str]] = None,
        wallet: Optional[Wallet] = None,
    ) -> None:
        if tick_interval <= 0:
            raise MeasurementError("tick_interval must be positive")
        if materialize_cap < 1:
            raise MeasurementError("materialize_cap must be >= 1")
        if price_table_size < 16:
            raise MeasurementError("price_table_size must be >= 16")
        self.network = network
        self.shape = shape
        self.tick_interval = tick_interval
        self.materialize_cap = materialize_cap
        self.wallet = wallet or Wallet(f"workload-{shape.name}")
        self.factory = TransactionFactory()
        self._rng = network.sim.rng.stream(f"workload-{shape.name}")
        # The single-stream precomputed price array: sorted so the floor
        # cut is one bisect, and so index-above-cut sampling draws from
        # exactly the admissible tail of the distribution.
        self._price_table: List[int] = sorted(
            _price_sample(self._rng, shape.median_price, shape.sigma)
            for _ in range(price_table_size)
        )
        ids = entry_nodes or list(network.measurable_node_ids())
        if not ids:
            raise MeasurementError("network has no eligible entry nodes")
        self._fanout_ids = ids
        self.fanout = min(max(1, fanout), len(ids))
        self._cursor = 0
        self._pending_replacements: List[Transaction] = []
        self.stats: Dict[str, int] = {
            "ticks": 0,
            "offered": 0,
            "floor_rejected": 0,
            "materialized": 0,
            "statistical": 0,
            "admitted": 0,
            "replacements": 0,
        }
        self._process = PeriodicProcess(
            network.sim,
            interval=tick_interval,
            action=self._tick,
            poisson=False,
            rng_name=f"workload-{shape.name}-timer",
            label=f"workload-{shape.name}",
        )

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self._process.start()

    def stop(self) -> None:
        self._process.stop()

    @property
    def running(self) -> bool:
        return self._process.running

    def offered_rate(self) -> float:
        """Mean offered tx/s over the workload's lifetime so far."""
        ticks = self.stats["ticks"]
        if ticks == 0:
            return 0.0
        return self.stats["offered"] / (ticks * self.tick_interval)

    # -- the tick ------------------------------------------------------
    def _tick(self) -> None:
        stats = self.stats
        stats["ticks"] += 1
        now = self.network.sim.now
        expected = self.shape.rate_at(now) * self.tick_interval
        count = int(expected)
        if self._rng.random() < expected - count:
            count += 1
        if count <= 0:
            return
        stats["offered"] += count

        market = self.network.fee_market
        table = self._price_table
        size = len(table)
        if market is not None:
            floor = market.floor_for(now)
            cut = bisect_left(table, floor)
        else:
            cut = 0
        if cut >= size:
            # The whole distribution sits under the floor: the entire tick
            # is rejected fodder, no state to mutate.
            stats["floor_rejected"] += count
            return
        admissible = count - (count * cut) // size
        stats["floor_rejected"] += count - admissible

        materialize = min(admissible, self.materialize_cap)
        stats["materialized"] += materialize
        stats["statistical"] += admissible - materialize

        rng_random = self._rng.random
        span = size - cut
        fresh = self.wallet.fresh_account
        transfer = self.factory.transfer
        prefix = self.shape.name
        txs = [
            transfer(
                fresh(prefix=prefix),
                gas_price=table[cut + int(rng_random() * span)],
            )
            for _ in range(materialize)
        ]

        # Bulk insert into the rotating fanout window, as-if-propagated.
        ids = self._fanout_ids
        total = len(ids)
        start = self._cursor
        admitted = 0
        for j in range(self.fanout):
            node = self.network.node(ids[(start + j) % total])
            counts = node.mempool.add_batch(txs)
            admitted += (
                counts.get("admitted_pending", 0)
                + counts.get("admitted_future", 0)
                + counts.get("replaced", 0)
            )
        self._cursor = (start + self.fanout) % total
        stats["admitted"] += admitted

        # MEV races: last tick's queued originals come back priced up,
        # through real submission so the replacements propagate.
        if self._pending_replacements:
            entry = self.network.node(ids[start % total])
            for original in self._pending_replacements:
                entry.submit_transaction(
                    self.factory.replacement(
                        original, self.shape.replacement_bump
                    )
                )
                stats["replacements"] += 1
            self._pending_replacements = []
        n_repl = int(materialize * self.shape.replacement_fraction)
        if n_repl > 0:
            self._pending_replacements = txs[:n_repl]


class BackgroundWorkload:
    """Continuous transaction submission through random entry nodes.

    Submissions go through :meth:`Node.submit_transaction`, so they
    propagate normally and land in miners' pools. One engine event per
    transaction — use :class:`BatchedWorkload` for heavy rates.
    """

    def __init__(
        self,
        network: Network,
        rate_per_second: float = 5.0,
        median_price: int = gwei(1.0),
        sigma: float = 0.4,
        entry_nodes: Optional[List[str]] = None,
        wallet: Optional[Wallet] = None,
    ) -> None:
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        self.network = network
        self.median_price = median_price
        self.sigma = sigma
        self.entry_nodes = entry_nodes or network.measurable_node_ids()
        self.wallet = wallet or Wallet("bg-workload")
        self.factory = TransactionFactory()
        self.submitted: List[Transaction] = []
        self._rng = network.sim.rng.stream("bg-workload")
        self._process = PeriodicProcess(
            network.sim,
            interval=1.0 / rate_per_second,
            action=self._submit_one,
            poisson=True,
            rng_name="bg-workload-timer",
            label="background-tx",
        )

    def start(self) -> None:
        self._process.start()

    def stop(self) -> None:
        self._process.stop()

    @property
    def running(self) -> bool:
        return self._process.running

    @property
    def sender_addresses(self) -> set[str]:
        return {tx.sender for tx in self.submitted}

    def _submit_one(self) -> None:
        entry = self._rng.choice(self.entry_nodes)
        tx = self.factory.transfer(
            self.wallet.fresh_account(prefix="live"),
            gas_price=_price_sample(self._rng, self.median_price, self.sigma),
        )
        self.submitted.append(tx)
        self.network.node(entry).submit_transaction(tx)


SHAPES = {
    "steady": steady,
    "nft-mint-storm": nft_mint_storm,
    "mev-replacement-race": mev_replacement_race,
    "spam-flood": spam_flood,
    "diurnal-load": diurnal_load,
}
