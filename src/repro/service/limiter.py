"""Admission control: token buckets, tenant quotas, bounded queues.

Modeled on the animica mempool DoS-limits spec (``mempool/limiter.py``):
per-peer *and* global rate throttles, denominated in two currencies —
jobs/s (the tx/s analogue) and simulated node-seconds/s (the bytes/s
analogue, so few huge jobs cost what many small ones do) — plus bounded
queues that shed load with typed 429-style rejections instead of growing
without bound.

Rejections are *cheap and typed*: :class:`~repro.errors.QueueFull` for
bounded-queue sheds, :class:`~repro.errors.QuotaExceeded` for dry token
buckets, both carrying a ``retry_after`` hint derived from the refill
horizon.  Admission is two-phase (check every bucket, then debit) so a
rejection never burns tokens from a bucket that did have capacity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import QueueFull, QuotaExceeded
from repro.resilience import Clock, TokenBucket


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant fair-use envelope (the animica per-peer caps).

    ``weight`` feeds the scheduler's weighted round-robin drain;
    ``max_queued`` bounds the tenant's queue so one abusive tenant sheds
    its own overload instead of consuming the global queue budget.
    """

    jobs_per_second: float = 2.0
    job_burst: float = 8.0
    node_seconds_per_second: float = 2000.0
    node_seconds_burst: float = 8000.0
    max_queued: int = 32
    weight: int = 1

    def to_dict(self) -> dict:
        return {
            "jobs_per_second": self.jobs_per_second,
            "job_burst": self.job_burst,
            "node_seconds_per_second": self.node_seconds_per_second,
            "node_seconds_burst": self.node_seconds_burst,
            "max_queued": self.max_queued,
            "weight": self.weight,
        }


class _TenantBuckets:
    __slots__ = ("jobs", "node_seconds")

    def __init__(self, quota: TenantQuota, clock: Clock) -> None:
        self.jobs = TokenBucket(quota.jobs_per_second, quota.job_burst, clock)
        self.node_seconds = TokenBucket(
            quota.node_seconds_per_second, quota.node_seconds_burst, clock
        )


class AdmissionController:
    """Decides, per submission, admit vs typed shed.

    Check order is cheapest-reject-first (the animica admission pipeline):
    bounded queues (free), then the global jobs/s throttle, then the
    tenant's jobs/s and node-seconds buckets.  All checks pass before any
    bucket is debited.
    """

    def __init__(
        self,
        default_quota: Optional[TenantQuota] = None,
        tenant_quotas: Optional[Dict[str, TenantQuota]] = None,
        global_jobs_per_second: float = 20.0,
        global_job_burst: float = 40.0,
        max_queued_total: int = 256,
        clock: Clock = time.monotonic,
    ) -> None:
        self.default_quota = default_quota or TenantQuota()
        self._quotas = dict(tenant_quotas or {})
        self._clock = clock
        self._tenants: Dict[str, _TenantBuckets] = {}
        self.global_bucket = TokenBucket(
            global_jobs_per_second, global_job_burst, clock
        )
        self.max_queued_total = int(max_queued_total)
        # Shed/accept accounting, read by the obs pull collector.
        self.admitted_total = 0
        self.rejected: Dict[str, int] = {}

    def quota_for(self, tenant: str) -> TenantQuota:
        return self._quotas.get(tenant, self.default_quota)

    def _buckets_for(self, tenant: str) -> _TenantBuckets:
        buckets = self._tenants.get(tenant)
        if buckets is None:
            buckets = _TenantBuckets(self.quota_for(tenant), self._clock)
            self._tenants[tenant] = buckets
        return buckets

    def _reject(self, reason: str, exc: Exception) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        raise exc

    def admit(
        self,
        tenant: str,
        cost_node_seconds: float,
        queued_total: int,
        queued_for_tenant: int,
    ) -> None:
        """Admit one job or raise a typed 429-style rejection."""
        if queued_total >= self.max_queued_total:
            self._reject(
                "queue_full_global",
                QueueFull(
                    f"service queue is at capacity ({self.max_queued_total} "
                    "jobs); load shed",
                    retry_after=1.0,
                ),
            )
        quota = self.quota_for(tenant)
        if queued_for_tenant >= quota.max_queued:
            self._reject(
                "queue_full_tenant",
                QueueFull(
                    f"tenant {tenant!r} queue is at capacity "
                    f"({quota.max_queued} jobs); load shed",
                    retry_after=1.0,
                ),
            )
        buckets = self._buckets_for(tenant)
        # Two-phase: every bucket must have capacity before any is debited.
        if not self.global_bucket.can_take(1.0):
            self._reject(
                "global_rate",
                QuotaExceeded(
                    "global job-rate throttle exhausted",
                    retry_after=self.global_bucket.retry_after(1.0),
                ),
            )
        if not buckets.jobs.can_take(1.0):
            self._reject(
                "tenant_rate",
                QuotaExceeded(
                    f"tenant {tenant!r} job-rate quota exhausted",
                    retry_after=buckets.jobs.retry_after(1.0),
                ),
            )
        if not buckets.node_seconds.can_take(cost_node_seconds):
            self._reject(
                "tenant_budget",
                QuotaExceeded(
                    f"tenant {tenant!r} node-seconds budget exhausted "
                    f"(job costs {cost_node_seconds:.0f})",
                    retry_after=buckets.node_seconds.retry_after(
                        cost_node_seconds
                    ),
                ),
            )
        self.global_bucket.take(1.0)
        buckets.jobs.take(1.0)
        buckets.node_seconds.take(cost_node_seconds)
        self.admitted_total += 1

    def token_levels(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant remaining tokens, for the metrics collector."""
        levels: Dict[str, Dict[str, float]] = {}
        for tenant, buckets in sorted(self._tenants.items()):
            levels[tenant] = {
                # Disabled buckets report their (infinite) headroom as the
                # configured capacity so the levels stay JSON-serializable.
                "jobs": min(buckets.jobs.available(), buckets.jobs.capacity),
                "node_seconds": min(
                    buckets.node_seconds.available(),
                    buckets.node_seconds.capacity,
                ),
            }
        return levels
