"""Workload-adaptive measurement configuration (Section 6.3).

The mainnet study "proposes workload-adaptive mechanisms to configure
TopoShot for minimal service interruption": the measurement price Y must
sit *below* what miners are currently including (so txC is never the best
candidate and V2 holds) yet *above* the eviction waterline (so txC is not
immediately evicted by organic traffic). Both bounds move with the
workload, so Y is chosen from live observations:

- the inclusion floor: the minimum effective price across recent blocks;
- the pool waterline: a low percentile of the pool's pending prices.

``choose_adaptive_y`` picks a Y under the inclusion floor by a safety
margin, clamped above the waterline; ``AdaptiveYController`` re-estimates
before every measurement round, which is the "we apply the estimation
method before every measurement study and obtain Y dynamically" of
Section 5.2.1 taken to the mainnet's moving fee market.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import MeasurementError
from repro.eth.chain import Chain
from repro.eth.node import Node


@dataclass(frozen=True)
class YDecision:
    """A chosen measurement price and the evidence behind it."""

    y: int
    inclusion_floor: Optional[int]
    pool_waterline: Optional[int]
    blocks_inspected: int

    def summary(self) -> str:
        floor = self.inclusion_floor
        waterline = self.pool_waterline
        return (
            f"Y={self.y} (inclusion floor="
            f"{floor if floor is not None else 'n/a'}, pool waterline="
            f"{waterline if waterline is not None else 'n/a'}, "
            f"{self.blocks_inspected} blocks inspected)"
        )


def inclusion_floor(chain: Chain, window: int = 10) -> Optional[int]:
    """Minimum effective gas price included over the last ``window`` blocks
    (ignoring empty blocks). None when no priced block exists yet."""
    floors = []
    for block in chain.blocks[-window:]:
        price = block.min_included_price()
        if price is not None:
            floors.append(price)
    return min(floors) if floors else None


def pool_waterline(node: Node, percentile: float = 0.1) -> Optional[int]:
    """A low percentile of the node's pending prices: anything priced below
    this is living on borrowed time in the pool."""
    prices = sorted(node.mempool.pending_prices())
    if not prices:
        return None
    index = min(len(prices) - 1, int(percentile * len(prices)))
    return prices[index]


def probe_priority(
    network,
    pairs,
    percentile: float = 0.1,
    endpoint_health: Optional[dict] = None,
):
    """Order probe pairs by endpoint pool waterline, cheapest first.

    The shared re-probe prioritizer (used by the incremental
    :class:`~repro.core.monitor.TopologyMonitor`): a pair's cost is the
    *higher* of its endpoints' waterlines — both pools take the
    measurement flood, so the pricier one binds. Probing low-waterline
    pairs first spends the safe price band where it is widest and defers
    surging pools until the fee market calms. Stable sort, no RNG: the
    order is deterministic given the pool states.

    ``endpoint_health`` (node id -> score in [0, 1], from
    ``ResilientRpcClient.health_report``) optionally demotes pairs whose
    RPC endpoints have been misbehaving: a pair sorts by its *sickest*
    endpoint first, so probes that are likely to come back degraded run
    after the ones the plane can actually answer. Omitted or empty, the
    ordering is exactly the waterline-only one.
    """
    cache: dict = {}

    def node_waterline(node_id: str) -> int:
        value = cache.get(node_id)
        if value is None:
            level = pool_waterline(
                network.node(node_id), percentile=percentile
            )
            value = cache[node_id] = 0 if level is None else level
        return value

    def pair_sickness(pair) -> float:
        if not endpoint_health:
            return 0.0
        return max(
            1.0 - float(endpoint_health.get(pair[0], 1.0)),
            1.0 - float(endpoint_health.get(pair[1], 1.0)),
        )

    return sorted(
        pairs,
        key=lambda pair: (
            pair_sickness(pair),
            max(node_waterline(pair[0]), node_waterline(pair[1])),
        ),
    )


def flood_room(node: Node, flood_bid: int) -> int:
    """How many future transactions bidding ``flood_bid`` the node's pool
    can admit right now — the one pool read behind flood trimming
    (:func:`repro.core.primitive.trim_flood`).

    A future enters a pool through a free slot or by evicting the
    lowest-bidding pending transaction, which must bid *under* it and
    leave more than the policy's floor ``P`` of pending transactions
    behind (``Mempool._offer``'s victim rule). So the pool has room for its
    free slots plus its pending transactions under the flood bid, the
    latter capped by what stands above ``P``. An upper bound, never an
    estimate: an evicted transaction with queued successors demotes its
    tail and only shrinks the pending set, inflow under the flood bid
    turns a free slot into an evictable resident (or evicts one), and
    inflow at or above it takes room away. Once one future is refused for
    want of a victim, every later one at the same bid is refused too.
    """
    pool = node.mempool
    evictable = sum(1 for bid in pool.pending_prices() if bid < flood_bid)
    above_floor = pool.pending_count - pool.policy.eviction_pending_floor
    return pool.free_slots + max(0, min(evictable, above_floor))


def choose_adaptive_y(
    chain: Chain,
    observer: Node,
    margin: float = 0.8,
    window: int = 10,
    percentile: float = 0.1,
    fee_floor: Optional[int] = None,
    replace_bump: float = 0.1,
) -> YDecision:
    """Pick Y = margin * inclusion_floor, clamped above the pool waterline.

    Raises :class:`MeasurementError` when the two constraints cannot be
    satisfied together (floor*margin below the waterline): the fee market
    leaves no safe band and the measurement should wait — exactly the
    condition under which the paper's V1/V2 verification would fail.

    ``fee_floor`` (taken from the observer's network market when omitted)
    adds the live-admission bound: txB at ``(1 - R/2) * Y`` must clear the
    floor, so Y is additionally clamped to
    :func:`repro.eth.fee_market.min_measurement_y`; a clamp that would
    push Y to (or above) the inclusion floor is the same no-safe-band
    condition and raises.
    """
    if not 0 < margin < 1:
        raise MeasurementError("margin must be in (0, 1)")
    if fee_floor is None:
        market = getattr(getattr(observer, "network", None), "fee_market", None)
        if market is not None:
            fee_floor = market.floor_for(observer.sim.now)
    floor = inclusion_floor(chain, window=window)
    waterline = pool_waterline(observer, percentile=percentile)
    fee_bound: Optional[int] = None
    if fee_floor is not None:
        from repro.eth.fee_market import min_measurement_y

        fee_bound = min_measurement_y(fee_floor, replace_bump)
    blocks = min(window, len(chain.blocks))

    if floor is None:
        # No mining signal (testnets before the background workload): fall
        # back to the pool median, the Section 5.2.1 estimator.
        median = observer.mempool.median_pending_price()
        if median is None:
            raise MeasurementError(
                "no inclusion data and an empty pool: cannot choose Y"
            )
        if fee_bound is not None and median < fee_bound:
            median = fee_bound
        return YDecision(
            y=median,
            inclusion_floor=None,
            pool_waterline=waterline,
            blocks_inspected=blocks,
        )

    y = int(floor * margin)
    if waterline is not None and y < waterline:
        raise MeasurementError(
            f"no safe price band: {margin:.0%} of the inclusion floor "
            f"({y}) sits below the pool waterline ({waterline}); wait for "
            "the fee market to widen"
        )
    if fee_bound is not None and y < fee_bound:
        raise MeasurementError(
            f"no safe price band: {margin:.0%} of the inclusion floor "
            f"({y}) sits below the live fee-market admission bound "
            f"({fee_bound}); wait for the surge to pass"
        )
    return YDecision(
        y=y,
        inclusion_floor=floor,
        pool_waterline=waterline,
        blocks_inspected=blocks,
    )


class AdaptiveYController:
    """Re-estimates Y before every round and remembers the decisions."""

    def __init__(
        self,
        chain: Chain,
        observer: Node,
        margin: float = 0.8,
        window: int = 10,
    ) -> None:
        self.chain = chain
        self.observer = observer
        self.margin = margin
        self.window = window
        self.decisions: list[YDecision] = []

    def next_y(self) -> int:
        decision = choose_adaptive_y(
            self.chain, self.observer, margin=self.margin, window=self.window
        )
        self.decisions.append(decision)
        return decision.y

    @property
    def last_decision(self) -> Optional[YDecision]:
        return self.decisions[-1] if self.decisions else None
