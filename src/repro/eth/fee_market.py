"""A live fee market: dynamic floor, surge multiplier, base/tip split.

The animica mempool spec (SNIPPETS.md, ``mempool/fee_market.py``) describes
the market the replacement primitive must keep working against on a busy
chain: the admission *floor* tracks the pool watermark (what the cheapest
buffered traffic pays), a *surge multiplier* raises the *quoted* price for
prompt inclusion as pools approach capacity, and every offered price
decomposes into the protocol *base* fee plus the miner *tip*. TopoShot's
measurement prices ``txB = (1 - R/2) * Y`` sit deliberately low, so a
rising floor is exactly the failure mode Section 6.3's workload-adaptive Y
estimation has to clear — :func:`min_measurement_y` is that clearance,
used by ``core/gas_estimator.py`` and ``core/adaptive.py``.

Admission and quoting are deliberately distinct prices. The *admission
floor* is what a pool will buffer at all: a slightly discounted watermark,
the way Geth's ``--txpool.pricelimit`` plus its eviction economics work —
you may enter near the bottom of the pool; you just become the next
eviction candidate. The *quote* (``floor x surge``) is what the oracle
tells wallets to bid for prompt service. Conflating the two (surging the
admission floor itself) creates a positive feedback loop on a saturated
network: content admitted at the surged floor raises the next watermark,
which surges again — the floor ratchets without bound and starves the
refill traffic the measurement preconditions depend on.

Design constraints, in order:

- **Deterministic.** The market holds no RNG. Its trajectory is a pure
  function of the simulated clock and the sampled pools' contents, both of
  which are seed-deterministic — the fee-market determinism test pins this.
- **Pull-based.** No daemon events: the floor is recomputed lazily when
  queried (rate-limited by ``update_interval`` against the clock), so an
  installed market adds nothing to the event queue and composes with
  :meth:`repro.eth.network.Network.snapshot` (which requires a drained
  queue) without special cases.
- **Opt-in.** A :class:`~repro.eth.mempool.Mempool` only consults the
  market when one has been attached (``Network.install_fee_market``); the
  default path runs the exact seed machine code, which is what keeps the
  golden determinism fingerprints byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import MempoolError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.eth.network import Network
    from repro.eth.node import Node


#: Fraction of the watermark a transaction must bid to be *buffered* at
#: all. Strictly below 1.0 leaves headroom so steady-state refill traffic
#: drawn from the same price distribution keeps clearing the floor (no
#: ratchet).
ADMISSION_DISCOUNT = 0.9
#: Pool fill fraction above which surge pricing engages.
TARGET_OCCUPANCY = 0.8
#: Multiplier applied to the *quote* (not the admission floor) when
#: sampled pools are at 100% occupancy; surge ramps linearly from 1.0 at
#: ``TARGET_OCCUPANCY``.
MAX_SURGE = 4.0
#: Retained ``(time, floor, surge, occupancy)`` samples for post-hoc
#: surge-band verification
#: (:func:`repro.core.noninterference.check_surge_band`).
HISTORY_LIMIT = 4096


@dataclass(frozen=True)
class FeeMarketConfig:
    """Knobs of the live fee market (see ``docs/workloads.md``).

    Parameters
    ----------
    min_floor:
        Absolute admission floor in wei when pools are empty or quiet.
    floor_percentile:
        The pool-watermark percentile the dynamic floor tracks — the same
        "living on borrowed time" quantile as
        :func:`repro.core.adaptive.pool_waterline`.
    update_interval:
        Minimum simulated seconds between floor recomputations (the lazy
        pull cadence).
    """

    min_floor: int = 10**8  # 0.1 gwei
    floor_percentile: float = 0.1
    update_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.min_floor < 0:
            raise MempoolError("min_floor must be non-negative")
        if not 0 <= self.floor_percentile < 1:
            raise MempoolError("floor_percentile must be in [0, 1)")
        if self.update_interval <= 0:
            raise MempoolError("update_interval must be positive")


class FeeMarket:
    """Shared per-network fee market driven by sampled pool watermarks.

    One instance serves every mempool of a network so the admission floor
    is consistent network-wide, the way a public fee oracle is. Bind it to
    sample nodes with :meth:`bind` (``Network.install_fee_market`` does
    this), then query :meth:`floor_for`.
    """

    def __init__(self, config: Optional[FeeMarketConfig] = None) -> None:
        self.config = config or FeeMarketConfig()
        self._sample_nodes: List["Node"] = []
        self._chain = None
        # Current market state. ``floor`` is the admission floor (what a
        # pool buffers); ``quote`` is the surge-priced suggestion for
        # prompt inclusion (floor x surge).
        self.floor: int = self.config.min_floor
        self.quote: int = self.config.min_floor
        self.surge: float = 1.0
        self.occupancy: float = 0.0
        self.updates: int = 0
        # Simulated time of the last recomputation; -inf until the first.
        # Mempool._offer reads it (and ``floor``) directly.
        self.last_update: float = -math.inf
        # Bounded (time, floor, surge, occupancy) trail for the post-hoc
        # surge-band check; floors here are *admission* floors.
        self.history: List[Tuple[float, int, float, float]] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, network: "Network", sample: Optional[Sequence[str]] = None,
             max_samples: int = 8) -> None:
        """Resolve the pools the floor is computed from.

        By default up to ``max_samples`` measurable nodes, evenly spaced
        over the id space — sampling keeps one update O(sample pools), not
        O(network), which is what makes the lazy pull affordable at 50k
        nodes.
        """
        if sample is None:
            ids = network.measurable_node_ids() or network.node_ids
            if len(ids) > max_samples:
                step = len(ids) / max_samples
                sample = [ids[int(i * step)] for i in range(max_samples)]
            else:
                sample = list(ids)
        self._sample_nodes = [network.node(nid) for nid in sample]
        self._chain = network.chain

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def floor_for(self, now: float) -> int:
        """The admission floor at simulated time ``now``.

        Recomputes from the sampled pools at most once per
        ``update_interval``; between updates the last floor holds (a real
        oracle quotes at a cadence too). ``Mempool._offer`` inlines this
        rule, reading ``floor`` while the interval has not lapsed: change
        both together.
        """
        if now - self.last_update >= self.config.update_interval:
            self._recompute(now)
        return self.floor

    def quote_for(self, now: float) -> int:
        """The surge-priced quote for prompt inclusion at ``now``.

        This is what a wallet or workload generator should bid; admission
        only requires :meth:`floor_for`.
        """
        self.floor_for(now)
        return self.quote

    def refresh(self, now: float) -> int:
        """Force a recomputation, bypassing the rate limit.

        Bulk pool mutations at one simulated instant (``prefill_mempools``
        compressing hours of organic traffic into zero simulated seconds)
        would otherwise leave every same-instant query serving the
        pre-mutation floor. Returns the fresh admission floor.
        """
        self._recompute(now)
        return self.floor

    def split(self, price: int) -> Tuple[int, int]:
        """Decompose an offered ``price`` into (base fee, tip).

        The base component is capped at the offered price: a transaction
        bidding below the protocol base fee carries no tip at all (and will
        be rejected by base-fee-enforcing pools anyway).
        """
        base_fee = self._chain.base_fee if self._chain is not None else 0
        base = min(price, base_fee)
        return base, price - base

    def floor_trajectory(
        self, t1: float, t2: float
    ) -> List[Tuple[float, int, float, float]]:
        """History samples with ``t1 <= time <= t2`` (surge-band checks)."""
        return [entry for entry in self.history if t1 <= entry[0] <= t2]

    # ------------------------------------------------------------------
    # Update
    # ------------------------------------------------------------------
    def _recompute(self, now: float) -> None:
        cfg = self.config
        watermarks: List[int] = []
        occupancy_sum = 0.0
        sampled = 0
        for node in self._sample_nodes:
            pool = node.mempool
            capacity = pool.policy.capacity
            if capacity <= 0:
                continue
            sampled += 1
            occupancy_sum += min(1.0, len(pool) / capacity)
            prices = sorted(pool.pending_prices())
            if prices:
                index = min(
                    len(prices) - 1, int(cfg.floor_percentile * len(prices))
                )
                watermarks.append(prices[index])
        occupancy = occupancy_sum / sampled if sampled else 0.0
        # Admission floor: the median sampled watermark (median over
        # samples resists one outlier pool a spam flood just filled),
        # discounted so steady-state refill traffic keeps clearing it,
        # never below the configured minimum.
        if watermarks:
            watermarks.sort()
            watermark = watermarks[len(watermarks) // 2]
            floor = max(cfg.min_floor, int(watermark * ADMISSION_DISCOUNT))
        else:
            floor = cfg.min_floor
        # Surge multiplier: 1.0 up to the target occupancy, then a linear
        # ramp to MAX_SURGE at 100%. Surge prices the *quote*, never the
        # admission floor — see the module docstring for the ratchet this
        # avoids.
        if occupancy > TARGET_OCCUPANCY:
            span = 1.0 - TARGET_OCCUPANCY
            surge = 1.0 + (occupancy - TARGET_OCCUPANCY) / span * (MAX_SURGE - 1.0)
            surge = min(MAX_SURGE, surge)
        else:
            surge = 1.0
        self.occupancy = occupancy
        self.surge = surge
        self.floor = floor
        self.quote = int(floor * surge)
        self.updates += 1
        self.last_update = now
        history = self.history
        history.append((now, self.floor, surge, occupancy))
        if len(history) > HISTORY_LIMIT:
            del history[: len(history) - HISTORY_LIMIT]

    # ------------------------------------------------------------------
    # Snapshot/reset (see repro.eth.network.Network.snapshot)
    # ------------------------------------------------------------------
    def capture_state(self) -> Dict[str, object]:
        return {
            "floor": self.floor,
            "quote": self.quote,
            "surge": self.surge,
            "occupancy": self.occupancy,
            "updates": self.updates,
            "last_update": self.last_update,
            "history": list(self.history),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self.floor = state["floor"]
        self.quote = state.get("quote", state["floor"])
        self.surge = state["surge"]
        self.occupancy = state["occupancy"]
        self.updates = state["updates"]
        self.last_update = state["last_update"]
        self.history = list(state["history"])


def min_measurement_y(floor: int, replace_bump: float) -> int:
    """The smallest measurement price Y whose cheapest probe clears ``floor``.

    The primitive's lowest-priced transaction is ``txB = (1 - R/2) * Y``;
    under a live floor every probe must be admissible, so
    ``Y >= floor / (1 - R/2)`` (rounded up to an exact wei amount).
    """
    denom = 1.0 - replace_bump / 2.0
    if denom <= 0:
        raise MempoolError("replace_bump must be < 2")
    y = int(floor / denom)
    # Round up until (1 - R/2) * y actually clears the floor under the same
    # integer pricing the config builders use.
    while int(y * denom) < floor:
        y += 1
    return y
