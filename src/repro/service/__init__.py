"""Topology-measurement-as-a-service (``repro.service``).

A long-running, multi-tenant front end over the deterministic sharded
campaign executor (:mod:`repro.core.parallel_exec`): clients submit
measurement jobs over a local JSON/HTTP API and the service supervises
them end to end — admission control with per-tenant token buckets,
weighted-round-robin fairness, retry with exponential backoff under a
circuit breaker, per-job deadlines with shard-granular partial results,
and a crash-safe journal that makes SIGKILL recoverable and SIGTERM a
graceful drain.  See ``docs/service.md`` for the operator story.

Module map:

- :mod:`repro.service.jobs`       job specs, records, lifecycle states
- :mod:`repro.service.limiter`    token buckets, quotas, admission control
- :mod:`repro.service.scheduler`  weighted-round-robin fair drain
- :mod:`repro.service.supervisor` retries, deadlines, stop files (breaker:
                                  :mod:`repro.resilience`)
- :mod:`repro.service.journal`    fsynced JSON-lines write-ahead log
- :mod:`repro.service.server`     asyncio HTTP front end + dispatch on a
                                  :class:`~repro.core.parallel_exec.WorkerPool`
- :mod:`repro.service.client`     stdlib blocking client
"""

from repro.core.parallel_exec import WorkerPool
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.jobs import (
    JobRecord,
    JobSpec,
    KIND_MEASURE,
    KIND_SYNTHETIC,
    node_seconds_cost,
)
from repro.service.journal import JobJournal
from repro.service.limiter import AdmissionController, TenantQuota, TokenBucket
from repro.service.scheduler import FairScheduler
from repro.service.server import MeasurementService, ServiceConfig, run_service
from repro.service.supervisor import JobSupervisor

__all__ = [
    "AdmissionController",
    "FairScheduler",
    "JobJournal",
    "JobRecord",
    "JobSpec",
    "JobSupervisor",
    "KIND_MEASURE",
    "KIND_SYNTHETIC",
    "MeasurementService",
    "ServiceClient",
    "ServiceClientError",
    "ServiceConfig",
    "TenantQuota",
    "TokenBucket",
    "WorkerPool",
    "node_seconds_cost",
    "run_service",
]
