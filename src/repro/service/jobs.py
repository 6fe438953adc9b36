"""Job model for the measurement service: specs, records, lifecycle.

A job walks the supervised lifecycle::

    queued ──> admitted ──> running ──> done
                  ^            │  ├───> failed      (attempts exhausted)
                  │            │  ├───> cancelled   (client request)
                  └────────────┘  └───> timed_out   (deadline; partial result)
                 (requeue: drain or circuit-open)

``queued`` means the job passed admission control and sits in its tenant's
fair-share queue; ``admitted`` means the weighted-round-robin drain picked
it and it is waiting on an executor slot; ``running`` means its attempt
loop owns it and an attempt runs on a worker process of the service's
pool.  Every transition is journaled (:mod:`repro.service.journal`)
so a crashed service recovers each job into a well-defined state.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.errors import BadRequest, ReproError, ServiceError

if TYPE_CHECKING:  # pragma: no cover - imported at call time
    from repro.core.parallel_exec import CampaignSpec

# Lifecycle states (plain strings: they serialize as-is into the journal
# and API payloads).
QUEUED = "queued"
ADMITTED = "admitted"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TIMED_OUT = "timed_out"

STATES = (QUEUED, ADMITTED, RUNNING, DONE, FAILED, CANCELLED, TIMED_OUT)
TERMINAL_STATES = frozenset((DONE, FAILED, CANCELLED, TIMED_OUT))
ACTIVE_STATES = frozenset((QUEUED, ADMITTED, RUNNING))

#: Job kinds shipped with the service. ``measure`` runs a TopoShot campaign
#: on the sharded executor; ``synthetic`` is a deterministic stand-in used
#: by load tests and the smoke suite (and the template for hosting other
#: measurement protocols — DEthna/Ethna — as additional kinds later).
KIND_MEASURE = "measure"
KIND_SYNTHETIC = "synthetic"


def new_job_id(tenant: str) -> str:
    """Unique, journal-stable job id (embeds the tenant for readability)."""
    return f"{tenant}-{uuid.uuid4().hex[:12]}"


@dataclass
class JobSpec:
    """What the client asked for — immutable once admitted.

    ``params`` is kind-specific: for ``measure`` a normalized
    ``{"campaign": CampaignSpec.to_dict(), "workers": N}`` payload, for
    ``synthetic`` the knobs of :func:`repro.service.supervisor.
    _execute_synthetic`.  ``deadline`` is wall-clock seconds from
    submission; ``max_attempts`` bounds the retry-with-backoff loop.
    """

    tenant: str
    kind: str = KIND_MEASURE
    params: Dict[str, object] = field(default_factory=dict)
    deadline: Optional[float] = None
    max_attempts: int = 3
    job_id: str = ""

    def __post_init__(self) -> None:
        if not self.tenant or not str(self.tenant).strip():
            raise ServiceError("job spec needs a non-empty tenant")
        if self.max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ServiceError(
                f"deadline must be positive seconds, got {self.deadline}"
            )
        if not self.job_id:
            self.job_id = new_job_id(self.tenant)

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "kind": self.kind,
            "params": dict(self.params),
            "deadline": self.deadline,
            "max_attempts": self.max_attempts,
            "job_id": self.job_id,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        return cls(
            tenant=str(payload["tenant"]),
            kind=str(payload.get("kind", KIND_MEASURE)),
            params=dict(payload.get("params", {})),
            deadline=payload.get("deadline"),
            max_attempts=int(payload.get("max_attempts", 3)),
            job_id=str(payload.get("job_id", "")),
        )


@dataclass
class JobRecord:
    """One job's full supervised state — the unit the journal persists.

    Timestamps are service wall-clock (``time.monotonic`` of the serving
    process is useless across restarts, so these use ``time.time``-style
    absolute seconds supplied by the service clock).
    """

    spec: JobSpec
    state: str = QUEUED
    attempts: int = 0
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[dict] = None
    error: Optional[dict] = None
    #: True when the result is a shard-granular partial (deadline/cancel
    #: hit mid-campaign); the result payload carries confidence labels.
    partial: bool = False
    #: True when this record was re-admitted by journal recovery.
    recovered: bool = False

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def deadline_at(self) -> Optional[float]:
        if self.spec.deadline is None:
            return None
        return self.submitted_at + self.spec.deadline

    def queue_seconds(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return max(0.0, self.started_at - self.submitted_at)

    def run_seconds(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return max(0.0, self.finished_at - self.started_at)

    def total_seconds(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return max(0.0, self.finished_at - self.submitted_at)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "state": self.state,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "result": self.result,
            "error": self.error,
            "partial": self.partial,
            "recovered": self.recovered,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobRecord":
        state = str(payload.get("state", QUEUED))
        if state not in STATES:
            raise ServiceError(f"unknown job state {state!r} in record")
        return cls(
            spec=JobSpec.from_dict(payload["spec"]),
            state=state,
            attempts=int(payload.get("attempts", 0)),
            submitted_at=float(payload.get("submitted_at", 0.0)),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            result=payload.get("result"),
            error=payload.get("error"),
            partial=bool(payload.get("partial", False)),
            recovered=bool(payload.get("recovered", False)),
        )

    def summary(self) -> dict:
        """The compact API listing view (no result body)."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "kind": self.spec.kind,
            "state": self.state,
            "attempts": self.attempts,
            "partial": self.partial,
            "recovered": self.recovered,
            "error": self.error,
        }


def measure_params(spec: JobSpec) -> Tuple["CampaignSpec", int]:
    """A measure job's campaign and worker count, parsed from ``params``
    — first at submission, so a malformed payload is the client's error (a
    typed 400), not an executor crash retried against the pool breaker."""
    from repro.core.parallel_exec import CampaignSpec

    try:
        campaign = CampaignSpec.from_dict(spec.params["campaign"])
        return campaign, int(spec.params.get("workers", 1))
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise BadRequest(
            f"malformed measure params: {type(exc).__name__}: {exc}"
        ) from exc


def node_seconds_cost(spec: JobSpec) -> float:
    """Admission-time cost estimate in *simulated node-seconds*.

    The tenant budget buckets are denominated in this unit so a tenant
    cannot sidestep a jobs/s limit by submitting few huge campaigns: a
    measure job costs ``n_nodes * repeats`` (the dominant simulation-cost
    driver), a synthetic job its declared step count. Raises
    :class:`~repro.errors.BadRequest` for a malformed measure job.
    """
    if spec.kind == KIND_MEASURE:
        campaign, _ = measure_params(spec)
        return float(max(1, campaign.network.n_nodes) * campaign.repeats)
    if spec.kind == KIND_SYNTHETIC:
        return float(max(1, int(spec.params.get("steps", 1))))
    return 1.0
