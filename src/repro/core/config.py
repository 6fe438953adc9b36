"""Measurement configuration.

Maps one-to-one onto the knobs of the paper's primitive
``measureOneLink(A, B, X, Y, Z, R, U)`` plus the parallel-schedule and
timing parameters of Sections 5.3 and 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import MeasurementError, UnsupportedClientError
from repro.eth.policies import GETH, MempoolPolicy
from repro.eth.transaction import gwei
from repro.resilience import backoff_delay


@dataclass(frozen=True)
class MeasurementConfig:
    """All parameters of a TopoShot run.

    Attributes
    ----------
    flood_wait:
        ``X``: seconds to wait after planting ``txC`` so it floods the whole
        network (the paper calibrates X = 10 s; our simulated networks
        flood faster, but the default stays conservative).
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
    settle_wait:
        Pause between Steps 2 and 3 of the serial primitive.
    propagation_wait:
        Pause before Step 4's check, covering the A->B hop.
    seed_wait:
        Parallel p1: wait after seeding all txC transactions.
    parallel_send_gap:
        Seconds between consecutive per-node configuration packets in the
        parallel primitive. The paper's source-first ordering leaves a race
        window (txA broadcasts can reach still-unconfigured sinks); the gap
        times how fast the window closes, which is what makes recall fall
        for large groups (Figure 4b).
    repeats:
        Measurements per link; the union of positives is reported (§5.2.3's
        passive recall improvement, 3 in the paper's validation).
    max_retries:
        Extra rounds the one repeat/retry loop
        (:func:`repro.core.primitive.probe_with_repeats`, under serial
        links and ``measurePar`` rounds alike) grants when a still-
        undetected pair reports a *setup failure* (the injection never
        took hold — crashed target, lost packets, send timeout) or an
        ambiguous verdict. Retries do not consume repeats; 0 (default)
        restores the seed behaviour exactly. Probe retries only: a crashed
        shard worker is not retried (its shard runs in the driver).
    retry_backoff:
        Simulated seconds to wait before the first retry; each further
        retry multiplies the wait by ``retry_backoff_factor`` (exponential
        backoff, so a crashed target has time to come back).
    retry_backoff_factor:
        Growth factor of the retry wait (>= 1).
    send_timeout:
        Simulated seconds burned when an injection attempt times out
        (the supernode waits out its RPC deadline before giving up).
    mempool_slots_budget:
        Max mempool slots the measurement may occupy on targets; the paper
        bounds interference with 2000 of 5120 slots and derives the group
        size ``K = budget / N`` from it (§5.3.2). The schedule emits no
        ``measurePar`` round with more edges than this.
    future_nonce_gap:
        Nonce distance guaranteeing flood transactions stay future.
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
        ``n`` of the k-of-n cross-validation for *suspect* edges (those
        whose evidence shows a broken isolation envelope): each suspect
        is re-probed serially up to ``n`` times and kept only if at
        least ``cross_validate_k`` probes confirm direct adjacency
        (RPC-confirmed positive whose sink demonstrated possession to
        the supernode no later than any third party — see
        ``repro.core.primitive.confirmed_direct``); edges failing the bar move
        to the measurement's quarantine set. 0 (default) disables the
        extra probes — suspects are kept but downgraded to ``suspect``
        confidence.
    cross_validate_k:
        Confirming probes required to keep a suspect edge (``k``,
        default 1 — see ``with_cross_validation``).
    """

    flood_wait: float = 10.0
    gas_price_y: Optional[int] = None
    default_gas_price_y: int = gwei(1.0)
    future_count: int = GETH.capacity
    replace_bump: float = GETH.replace_bump
    future_per_account: Optional[int] = GETH.future_limit_per_account
    settle_wait: float = 2.0
    propagation_wait: float = 5.0
    seed_wait: float = 3.0
    parallel_send_gap: float = 0.005
    repeats: int = 1
    max_retries: int = 0
    retry_backoff: float = 1.0
    retry_backoff_factor: float = 2.0
    send_timeout: float = 2.0
    mempool_slots_budget: int = 2000
    future_nonce_gap: int = 1_000_000
    hardened: bool = True
    cross_validate: int = 0
    cross_validate_k: int = 1

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
        if self.retry_backoff < 0:
            raise MeasurementError(
                f"retry_backoff must be a non-negative wait in seconds, got "
                f"{self.retry_backoff}"
            )
        if self.cross_validate < 0:
            raise MeasurementError(
                f"cross_validate must be >= 0 (0 disables), got "
                f"{self.cross_validate}"
            )
        if self.cross_validate_k < 1 or (
            self.cross_validate and self.cross_validate_k > self.cross_validate
        ):
            raise MeasurementError(
                f"cross_validate_k must satisfy 1 <= k <= n, got "
                f"k={self.cross_validate_k} n={self.cross_validate}"
            )
        if self.retry_backoff_factor < 1.0:
            raise MeasurementError(
                f"retry_backoff_factor must be >= 1 (backoff never shrinks), got "
                f"{self.retry_backoff_factor}"
            )
        if self.send_timeout < 0:
            raise MeasurementError(
                f"send_timeout must be a non-negative wait in seconds, got "
                f"{self.send_timeout}"
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

    def with_retries(
        self,
        max_retries: int,
        backoff: Optional[float] = None,
        factor: Optional[float] = None,
    ) -> "MeasurementConfig":
        """Copy with retry-with-backoff enabled for setup failures."""
        updates: dict = {"max_retries": max_retries}
        if backoff is not None:
            updates["retry_backoff"] = backoff
        if factor is not None:
            updates["retry_backoff_factor"] = factor
        return replace(self, **updates)

    def retry_delay(self, attempt: int) -> float:
        """Simulated seconds to wait before probe retry ``attempt``
        (1-based): the uncapped, unjittered geometric ``retry_backoff *
        retry_backoff_factor**(n-1)``. Never a wall-clock sleep."""
        return backoff_delay(
            self.retry_backoff, self.retry_backoff_factor, math.inf, 0.0, attempt, ""
        )

    def with_hardening(self, enabled: bool) -> "MeasurementConfig":
        return replace(self, hardened=enabled)

    def with_cross_validation(
        self, n: int, k: Optional[int] = None
    ) -> "MeasurementConfig":
        """Copy with k-of-n cross-validation of suspect edges enabled.

        ``k`` defaults to 1: a genuine edge only has to win the timing
        race once in ``n`` probes (the race is biased against it — the
        sink must beat *every* third-party observer, and each probe
        redraws per-message latencies), while a relay-chain false
        positive must get lucky at least once against strictly positive
        one-way delays. Raising ``k`` buys more precision at a steep
        recall cost under heavy Byzantine presence.
        """
        if k is None:
            k = 1
        return replace(self, cross_validate=n, cross_validate_k=k)

    def with_gas_price(self, y: Optional[int]) -> "MeasurementConfig":
        return replace(self, gas_price_y=y)
