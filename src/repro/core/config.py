"""Measurement configuration.

Of the paper's primitive ``measureOneLink(A, B, X, Y, Z, R, U)``, the
knobs that vary per target client (Y, Z, R, U) are fields of
:class:`MeasurementConfig`, with the repeat, retry, slot-budget and
hardening settings of Sections 5.3 and 6. X and the other waits of the
primitive are fixed values, so they are the module constants below
(``FLOOD_WAIT`` is X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import MeasurementError, UnsupportedClientError
from repro.eth.policies import GETH, MempoolPolicy
from repro.eth.transaction import gwei

#: ``X``: seconds to wait after planting ``txC`` so it floods the whole
#: network (the paper calibrates X = 10 s; simulated networks flood
#: faster, but the wait stays conservative).
FLOOD_WAIT = 10.0
#: Pause between Steps 2 and 3 of the serial primitive.
SETTLE_WAIT = 2.0
#: Pause before Step 4's check, covering the A->B hop.
PROPAGATION_WAIT = 5.0
#: Parallel p1: wait after seeding all txC transactions.
SEED_WAIT = 3.0
#: Seconds between consecutive per-node configuration packets in the
#: parallel primitive. The paper's source-first ordering leaves a race
#: window (txA broadcasts can reach still-unconfigured sinks); the gap
#: times how fast the window closes, which is what makes recall fall for
#: large groups (Figure 4b).
PARALLEL_SEND_GAP = 0.005
#: Nonce distance guaranteeing flood transactions stay future.
FUTURE_NONCE_GAP = 1_000_000
#: Ambient median price when a run neither sets ``Y`` nor finds a pending
#: transaction to estimate it from.
DEFAULT_GAS_PRICE_Y = gwei(1.0)
#: Simulated seconds to wait before the first probe retry; each further
#: retry doubles the wait (exponential backoff, so a crashed target has
#: time to come back).
RETRY_BACKOFF = 1.0
RETRY_BACKOFF_FACTOR = 2.0
#: Simulated seconds burned when an injection attempt times out (the
#: supernode waits out its RPC deadline before giving up).
SEND_TIMEOUT = 2.0


def retry_delay(attempt: int) -> float:
    """Simulated seconds to wait before probe retry ``attempt``
    (1-based): the uncapped, unjittered geometric ``RETRY_BACKOFF *
    RETRY_BACKOFF_FACTOR**(n-1)``. Never a wall-clock sleep."""
    return RETRY_BACKOFF * RETRY_BACKOFF_FACTOR ** (attempt - 1)


@dataclass(frozen=True)
class MeasurementConfig:
    """All parameters of a TopoShot run.

    Attributes
    ----------
    gas_price_y:
        ``Y`` in wei/gas, or ``None`` to estimate the median pending price
        from the measurement node's own mempool before each run (§5.2.1).
    future_count:
        ``Z``: number of future transactions per eviction flood. Defaults
        to the target policy's capacity ``L`` (the paper uses Z = 5120 on
        Geth, exactly its L).
    replace_bump:
        ``R`` of the target client. ``txA`` is priced at ``(1+R/2)·Y`` and
        ``txB`` at ``(1-R/2)·Y`` so that txA replaces txB
        (bump ``(1+R/2)/(1-R/2) - 1 >= R``) but never txC (bump R/2 < R).
    future_per_account:
        ``U``: future transactions are spread over ``ceil(Z/U)`` accounts.
        ``None`` (unlimited) uses a single account, like the paper does for
        Besu and (almost) Geth.
    repeats:
        Measurements per link; the union of positives is reported (§5.2.3's
        passive recall improvement, 3 in the paper's validation).
    max_retries:
        Extra rounds the one repeat/retry loop
        (:func:`repro.core.primitive.probe_with_repeats`, under serial
        links and ``measurePar`` rounds alike) grants when a still-
        undetected pair reports a *setup failure* (the injection never
        took hold — crashed target, lost packets, send timeout) or an
        ambiguous verdict, after :func:`retry_delay`. Retries do not
        consume repeats; 0 (default) restores the seed behaviour exactly.
        Probe retries only: a crashed shard worker is not retried (its
        shard runs again in the campaign's own process).
    mempool_slots_budget:
        Max mempool slots the measurement may occupy on targets; the paper
        bounds interference with 2000 of 5120 slots and derives the group
        size ``K = budget / N`` from it (§5.3.2). The schedule emits no
        ``measurePar`` round with more edges than this.
    hardened:
        Byzantine-aware verdicts (default on): a positive additionally
        requires the RPC cross-check (``txA`` actually present in the
        sink's pool, Section 6.1), and per-edge evidence — including
        third-party observers of ``txA``, impossible on a conforming
        network — is collected for confidence labelling. On an
        all-honest network this never changes a verdict, so results are
        bit-identical to the unhardened pipeline; disable only to
        demonstrate the degradation (``bench_robustness_adversarial``).
    cross_validate:
        ``n`` of the 1-of-n cross-validation for *suspect* edges (those
        whose evidence shows a broken isolation envelope): each suspect
        is re-probed serially up to ``n`` times and kept as soon as one
        probe confirms direct adjacency (RPC-confirmed positive whose
        sink demonstrated possession to the supernode no later than any
        third party — see ``repro.core.primitive.confirmed_direct``);
        edges no probe confirms move to the measurement's quarantine set.
        0 (default) disables the extra probes — suspects are kept but
        downgraded to ``suspect`` confidence.
    """

    gas_price_y: Optional[int] = None
    future_count: int = GETH.capacity
    replace_bump: float = GETH.replace_bump
    future_per_account: Optional[int] = GETH.future_limit_per_account
    repeats: int = 1
    max_retries: int = 0
    mempool_slots_budget: int = 2000
    hardened: bool = True
    cross_validate: int = 0

    def __post_init__(self) -> None:
        if self.replace_bump <= 0:
            raise UnsupportedClientError(
                "TopoShot requires a target client with R > 0; Nethermind and "
                "Aleth (R = 0) are not measurable (Section 5.1)"
            )
        if self.future_count <= 0:
            raise MeasurementError("future_count Z must be positive")
        if self.repeats <= 0:
            raise MeasurementError("repeats must be positive")
        if self.future_per_account is not None and self.future_per_account <= 0:
            raise MeasurementError("future_per_account U must be positive or None")
        if self.max_retries < 0:
            raise MeasurementError(
                f"max_retries must be >= 0 (0 disables retries), got {self.max_retries}"
            )
        if self.cross_validate < 0:
            raise MeasurementError(
                f"cross_validate must be >= 0 (0 disables), got "
                f"{self.cross_validate}"
            )

    # ------------------------------------------------------------------
    # Derived prices (Section 5.2, Steps 1-3)
    # ------------------------------------------------------------------
    def price_c(self, y: int) -> int:
        """txC price: exactly ``Y``."""
        return y

    def price_a(self, y: int) -> int:
        """txA price: ``(1 + R/2) * Y``."""
        return int(math.ceil(y * (1.0 + 0.5 * self.replace_bump)))

    def price_b(self, y: int) -> int:
        """txB price: ``(1 - R/2) * Y``."""
        return int(math.floor(y * (1.0 - 0.5 * self.replace_bump)))

    def price_future(self, y: int) -> int:
        """Flood (txO) price: ``(1 + R) * Y``."""
        return int(math.ceil(y * (1.0 + self.replace_bump)))

    @property
    def flood_accounts(self) -> int:
        """Number of EOAs used per future flood: ``ceil(Z / U)``."""
        if self.future_per_account is None:
            return 1
        return max(1, math.ceil(self.future_count / self.future_per_account))

    def group_size_for(self, network_size: int) -> int:
        """``K = slots_budget / N`` (Section 5.3.2: "we only use no more
        than 2000 transaction slots"), at least 2. At ``K = budget // N``
        every iteration fits the budget (``K * (N - K) < budget``); where
        only the floor of 2 applies, the schedule cuts what does not
        (:func:`repro.core.schedule.build_schedule`).
        """
        if network_size <= 0:
            raise MeasurementError("network size must be positive")
        return max(2, self.mempool_slots_budget // network_size)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def for_policy(cls, policy: MempoolPolicy, **overrides: object) -> "MeasurementConfig":
        """A configuration matched to a target client policy."""
        if not policy.measurable:
            raise UnsupportedClientError(
                f"client {policy.name!r} has R = 0 and cannot be measured"
            )
        params = {
            "future_count": policy.capacity,
            "replace_bump": policy.replace_bump,
            "future_per_account": policy.future_limit_per_account,
            # Keep the paper's 2000-of-5120 slot-budget ratio at any scale.
            "mempool_slots_budget": max(16, policy.capacity * 2000 // 5120),
        }
        params.update(overrides)  # type: ignore[arg-type]
        return cls(**params)  # type: ignore[arg-type]

    def with_future_count(self, future_count: int) -> "MeasurementConfig":
        """Copy with a different Z (used by the Z sweep of Figure 4a and by
        the pre-processing calibration of Section 5.2.3)."""
        return replace(self, future_count=future_count)

    def with_repeats(self, repeats: int) -> "MeasurementConfig":
        return replace(self, repeats=repeats)

    def with_retries(self, max_retries: int) -> "MeasurementConfig":
        """Copy with retry-with-backoff enabled for setup failures."""
        return replace(self, max_retries=max_retries)

    def with_hardening(self, enabled: bool) -> "MeasurementConfig":
        return replace(self, hardened=enabled)

    def with_cross_validation(self, n: int) -> "MeasurementConfig":
        """Copy with 1-of-``n`` cross-validation of suspect edges enabled."""
        return replace(self, cross_validate=n)

    def with_gas_price(self, y: Optional[int]) -> "MeasurementConfig":
        return replace(self, gas_price_y=y)
