"""The non-interference extension (Section 6.3, Appendix C).

A measurement ``P(M, S, C, t1, t2)`` does not interfere with the network
when every block produced in ``[t1, t2 + e]`` (``e`` = mempool expiry,
3 hours on Geth) carries exactly the transactions it would have carried had
the measurement never run. The extension verifies this *a posteriori*
through two conditions:

- **V1**: every block in the window is full (no room for a displaced
  transaction to have been pushed out);
- **V2**: every included transaction bids above the measurement price
  ``Y0`` (the measurement only ever touches transactions at or below
  ``(1+R)·Y0``... so nothing the miner actually wanted was evicted).

Theorem C.2 (blocks identical with and without measurement) is checked
empirically by :func:`compare_worlds` over two deterministic simulation
runs differing only in whether the measurement executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.errors import MeasurementError
from repro.eth.chain import Block, Chain


@dataclass(frozen=True)
class NonInterferenceReport:
    """Outcome of monitoring V1/V2 over a measurement window."""

    t1: float
    t2: float
    expiry: float
    y0: int
    blocks_checked: int
    v1_full_blocks: bool
    v2_prices_above_y0: bool
    violating_blocks_v1: Tuple[int, ...] = field(default_factory=tuple)
    violating_blocks_v2: Tuple[int, ...] = field(default_factory=tuple)

    @property
    def non_interfering(self) -> bool:
        """Both conditions verified: Theorem C.2 applies."""
        return self.v1_full_blocks and self.v2_prices_above_y0

    def summary(self) -> str:
        status = "VERIFIED" if self.non_interfering else "VIOLATED"
        return (
            f"non-interference {status}: {self.blocks_checked} blocks in "
            f"[{self.t1:.0f}, {self.t2 + self.expiry:.0f}]s, "
            f"V1={'ok' if self.v1_full_blocks else self.violating_blocks_v1}, "
            f"V2={'ok' if self.v2_prices_above_y0 else self.violating_blocks_v2}"
        )


def check_conditions(
    chain: Chain,
    t1: float,
    t2: float,
    y0: int,
    expiry: float = 3 * 3600.0,
) -> NonInterferenceReport:
    """Verify V1 and V2 over the blocks produced in ``[t1, t2 + expiry]``."""
    window = chain.blocks_in_window(t1, t2 + expiry)
    v1_violations = tuple(b.number for b in window if not b.is_full)
    v2_violations = tuple(
        b.number
        for b in window
        if b.txs and (b.min_included_price() or 0) <= y0
    )
    return NonInterferenceReport(
        t1=t1,
        t2=t2,
        expiry=expiry,
        y0=y0,
        blocks_checked=len(window),
        v1_full_blocks=not v1_violations,
        v2_prices_above_y0=not v2_violations,
        violating_blocks_v1=v1_violations,
        violating_blocks_v2=v2_violations,
    )


@dataclass(frozen=True)
class SurgeBandReport:
    """Post-hoc check that surge pricing never closed the measurement band.

    Under a live fee market (:mod:`repro.eth.fee_market`) V1/V2 are
    necessary but no longer sufficient evidence that the primitive ran
    cleanly: a surging admission floor could have *rejected* txB at
    ``(1 - R/2) * Y0`` mid-measurement, silently turning a replacement
    probe into a no-op (a false negative, not interference — but a result
    the operator must not trust). This report verifies against the
    market's recorded floor trajectory that every probe price stayed
    admissible throughout ``[t1, t2]``.
    """

    t1: float
    t2: float
    y0: int
    tx_b_price: int
    samples_checked: int
    admissible_throughout: bool
    peak_floor: int = 0
    peak_surge: float = 1.0

    def summary(self) -> str:
        status = "CLEAR" if self.admissible_throughout else "CLOSED"
        return (
            f"surge band {status}: txB at {self.tx_b_price} vs peak floor "
            f"{self.peak_floor} (surge x{self.peak_surge:.2f}) over "
            f"{self.samples_checked} samples in [{self.t1:.0f}, {self.t2:.0f}]s"
        )


def check_surge_band(
    market,
    t1: float,
    t2: float,
    y0: int,
    replace_bump: float = 0.1,
) -> SurgeBandReport:
    """Verify the fee-market floor stayed below every probe price.

    ``market`` is a :class:`repro.eth.fee_market.FeeMarket`; its bounded
    history of (time, floor, surge, occupancy) samples over ``[t1, t2]``
    is compared against the cheapest probe ``txB = (1 - R/2) * Y0``. An
    empty trajectory (market never updated in the window) is vacuously
    clear with zero samples — callers should treat that as "no evidence"
    rather than "verified".
    """
    tx_b = int(y0 * (1.0 - 0.5 * replace_bump))
    trajectory = market.floor_trajectory(t1, t2)
    return SurgeBandReport(
        t1=t1,
        t2=t2,
        y0=y0,
        tx_b_price=tx_b,
        samples_checked=len(trajectory),
        admissible_throughout=all(tx_b >= floor for _, floor, _, _ in trajectory),
        peak_floor=max((f for _, f, _, _ in trajectory), default=0),
        peak_surge=max((s for _, _, s, _ in trajectory), default=1.0),
    )


@dataclass(frozen=True)
class WorldComparison:
    """Block-by-block diff between the measured and hypothetical worlds."""

    blocks_compared: int
    identical: bool
    first_divergence: Optional[int] = None
    missing_in_measured: int = 0
    extra_in_measured: int = 0

    def summary(self) -> str:
        if self.identical:
            return (
                f"worlds identical over {self.blocks_compared} blocks "
                "(Theorem C.2 holds empirically)"
            )
        return (
            f"worlds diverge at block #{self.first_divergence}: "
            f"{self.missing_in_measured} txs missing, "
            f"{self.extra_in_measured} extra in the measured world"
        )


def compare_worlds(
    measured: Sequence[Block],
    hypothetical: Sequence[Block],
    ignore_senders: Optional[set[str]] = None,
) -> WorldComparison:
    """Compare the transaction sets of two block sequences.

    ``ignore_senders`` excludes the measurement's own accounts: Definition
    C.1 is about the *other* users' transactions, and the measurement world
    legitimately contains txA/txC from the measurement EOAs.
    """
    ignore = ignore_senders or set()
    count = min(len(measured), len(hypothetical))
    first_divergence: Optional[int] = None
    missing = extra = 0
    for index in range(count):
        left = {
            tx.hash for tx in measured[index].txs if tx.sender not in ignore
        }
        right = {
            tx.hash for tx in hypothetical[index].txs if tx.sender not in ignore
        }
        if left != right:
            if first_divergence is None:
                first_divergence = measured[index].number
            missing += len(right - left)
            extra += len(left - right)
    return WorldComparison(
        blocks_compared=count,
        identical=first_divergence is None and len(measured) == len(hypothetical),
        first_divergence=first_divergence,
        missing_in_measured=missing,
        extra_in_measured=extra,
    )


@dataclass
class NonInterferenceMonitor:
    """Live monitor: arm before the measurement, verify after.

    Usage::

        monitor = NonInterferenceMonitor(chain, y0=y)
        monitor.start(sim.now)
        ... run the measurement ...
        monitor.stop(sim.now)
        report = monitor.verify()
    """

    chain: Chain
    y0: int
    expiry: float = 3 * 3600.0
    market: Optional[object] = None  # repro.eth.fee_market.FeeMarket
    replace_bump: float = 0.1
    _t1: Optional[float] = None
    _t2: Optional[float] = None

    def start(self, now: float) -> None:
        self._t1 = now

    def stop(self, now: float) -> None:
        self._t2 = now

    def verify(self) -> NonInterferenceReport:
        if self._t1 is None or self._t2 is None:
            raise MeasurementError("monitor must be started and stopped first")
        return check_conditions(
            self.chain, self._t1, self._t2, self.y0, self.expiry
        )

    def verify_surge(self) -> SurgeBandReport:
        """The fee-market companion check (requires ``market``)."""
        if self._t1 is None or self._t2 is None:
            raise MeasurementError("monitor must be started and stopped first")
        if self.market is None:
            raise MeasurementError(
                "verify_surge requires a FeeMarket (pass market=...)"
            )
        return check_surge_band(
            self.market, self._t1, self._t2, self.y0, self.replace_bump
        )
