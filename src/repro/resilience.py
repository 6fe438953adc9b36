"""Failure-handling primitives shared by the RPC client and the job service.

Horizontal module (imports only :mod:`repro.errors`): the simulated
measurement plane (:mod:`repro.eth.rpc`, on simulation time) and the job
supervisor (:mod:`repro.service.supervisor`, on wall time) both need a
circuit breaker, a token bucket and a jittered exponential backoff — each
parameterised by its clock — and neither layer may import the other.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable

from repro.errors import ServiceError

Clock = Callable[[], float]


def backoff_delay(
    base: float,
    factor: float,
    cap: float,
    jitter_frac: float,
    attempt: int,
    key: str,
) -> float:
    """Seconds to wait before retry ``attempt`` (1-based).

    Capped exponential ``min(cap, base * factor**(attempt - 1))`` stretched
    by up to ``jitter_frac``; the jitter draw is seeded by ``key`` alone, so
    a retry schedule replays bit-identically.
    """
    delay = min(cap, base * factor ** (attempt - 1))
    return delay * (1.0 + jitter_frac * random.Random(key).random())


class TokenBucket:
    """Classic leaky token bucket: ``rate`` tokens/s up to ``capacity``.

    ``rate <= 0`` disables the bucket (always full) so operators can turn
    individual throttles off without special-casing call sites.
    """

    __slots__ = ("rate", "capacity", "_tokens", "_last", "_clock")

    def __init__(
        self, rate: float, capacity: float, clock: Clock = time.monotonic
    ) -> None:
        if capacity <= 0 and rate > 0:
            raise ServiceError(
                f"token bucket needs positive capacity, got {capacity}"
            )
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._tokens = float(capacity)
        self._clock = clock
        self._last = clock()

    @property
    def enabled(self) -> bool:
        return self.rate > 0

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._last
        self._last = now
        if elapsed > 0:
            self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)

    def available(self) -> float:
        """Tokens on hand right now (after refill)."""
        if not self.enabled:
            return float("inf")
        self._refill()
        return self._tokens

    def can_take(self, n: float = 1.0) -> bool:
        return self.available() >= n

    def take(self, n: float = 1.0) -> None:
        """Debit ``n`` tokens; caller must have checked :meth:`can_take`."""
        if not self.enabled:
            return
        self._refill()
        self._tokens -= n

    def try_take(self, n: float = 1.0) -> bool:
        if not self.can_take(n):
            return False
        self.take(n)
        return True

    def retry_after(self, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens could be on hand (refill horizon).

        Demands beyond ``capacity`` can never be satisfied; report the
        full-bucket horizon rather than infinity so clients still get a
        finite, honest backoff hint.
        """
        if not self.enabled:
            return 0.0
        self._refill()
        deficit = min(n, self.capacity) - self._tokens
        return max(0.0, deficit / self.rate)


class CircuitBreaker:
    """Classic three-state breaker guarding the worker pool.

    CLOSED counts consecutive infrastructure failures; at
    ``failure_threshold`` it OPENs for ``cooldown`` seconds, during which
    :meth:`allow` is False (jobs are requeued, not burned).  After the
    cooldown one probe attempt is let through (HALF_OPEN): success closes
    the breaker, failure re-opens it for another cooldown.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        clock: Clock = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ServiceError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = int(failure_threshold)
        self.cooldown = float(cooldown)
        self._clock = clock
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_outstanding = False
        self._lock = threading.Lock()
        self.trips_total = 0

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if (
            self._state == self.OPEN
            and self._clock() - self._opened_at >= self.cooldown
        ):
            self._state = self.HALF_OPEN
            self._probe_outstanding = False

    def allow(self) -> bool:
        """May an attempt proceed right now?  HALF_OPEN admits one probe."""
        with self._lock:
            self._maybe_half_open()
            if self._state == self.CLOSED:
                return True
            if self._state == self.HALF_OPEN and not self._probe_outstanding:
                self._probe_outstanding = True
                return True
            return False

    def can_attempt(self) -> bool:
        """Non-claiming view of :meth:`allow`: would an attempt be admitted?

        The dispatch loop uses this to keep jobs queued while the breaker
        is OPEN *or* while a HALF_OPEN probe is already in flight, instead
        of popping jobs that the supervisor would immediately bounce back
        with :class:`CircuitOpen`.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == self.CLOSED:
                return True
            return (
                self._state == self.HALF_OPEN
                and not self._probe_outstanding
            )

    def release_probe(self) -> None:
        """Give back a probe slot claimed by :meth:`allow` without a verdict.

        A probe attempt that ends via deadline or client cancel says
        nothing about pool health; releasing the slot lets the next job
        probe.  Without this the breaker wedges HALF_OPEN forever, with
        ``allow()`` False for every job.
        """
        with self._lock:
            self._probe_outstanding = False

    def retry_after(self) -> float:
        with self._lock:
            self._maybe_half_open()
            if self._state != self.OPEN:
                return 0.0
            return max(
                0.0, self.cooldown - (self._clock() - self._opened_at)
            )

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_outstanding = False
            self._state = self.CLOSED

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == self.HALF_OPEN:
                # The probe failed: straight back to OPEN.
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._probe_outstanding = False
                self.trips_total += 1
            elif (
                self._state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()
                self.trips_total += 1
