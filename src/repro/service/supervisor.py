"""Supervised job execution: retries, deadlines, circuit breaking.

The supervisor's attempt loop runs in a service thread (the asyncio loop
stays responsive); each attempt runs on an :class:`~concurrent.futures.
Executor` — the service's :class:`~repro.core.parallel_exec.WorkerPool` of
forked processes — and the loop waits for it::

    while True:
        breaker.allow() or raise CircuitOpen        # fail fast, requeue
        try: result = pool.submit(kind_executor, record, ctx).result()
        except infra failure:
            breaker.record_failure()
            attempts exhausted -> FAILED (partial result if any)
            else sleep(backoff_delay(attempt)); retry

Cooperative stops (deadline, client cancel, service drain) surface at
**shard boundaries**: the measure executor passes a heartbeat into
``run_campaign``'s per-shard progress hook, so by the time a stop raises,
a shard-granular checkpoint is already durable on disk — which is what
makes a timed-out or drained job resumable and lets it report a partial
result with confidence labels instead of erroring. A stop request is the
job's *stop file* (:meth:`JobSupervisor.request_stop`), the one channel
into the worker; the typed stop comes back as itself (every
``ReproError`` pickles).
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import Executor
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.errors import (
    CircuitOpen,
    JobCancelled,
    JobTimeout,
    ServiceError,
)
from repro.resilience import CircuitBreaker, Clock, backoff_delay
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    KIND_MEASURE,
    KIND_SYNTHETIC,
    TIMED_OUT,
    JobRecord,
    measure_params,
)

# Confidence label attached to partial results (extends the campaign's
# high/cross_validated/suspect/quarantined edge-label vocabulary at the
# whole-result level).
CONFIDENCE_PARTIAL = "partial"
CONFIDENCE_COMPLETE = "complete"


# ----------------------------------------------------------------------
# Cooperative stop plumbing
# ----------------------------------------------------------------------
def _stop_path(state_dir: Path, job_id: str) -> Path:
    """Holds ``cancel`` or ``drain`` once a stop is requested."""
    return Path(state_dir) / f"job-{job_id}.stop"


def _read_stop(path: Path) -> Optional[str]:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


class ExecutionContext:
    """What a kind-executor needs: checkpoint path + a heartbeat.

    Plain data, so it pickles into the worker process that runs the
    attempt. ``heartbeat()`` is the cooperative stop point — kind
    executors call it at every resumable boundary (the measure executor
    wires it into the per-shard progress hook)."""

    def __init__(
        self,
        record: JobRecord,
        state_dir: Path,
        clock: Clock,
        deadline_at: Optional[float],
    ) -> None:
        self.record = record
        self.state_dir = state_dir
        self.clock = clock
        self.deadline_at = deadline_at

    @property
    def checkpoint_path(self) -> Path:
        return self.state_dir / f"job-{self.record.job_id}.ckpt.json"

    def heartbeat(self) -> None:
        """Raise the appropriate stop if one is pending (checkpoint is
        already durable when this is called from a shard boundary)."""
        reason = _read_stop(_stop_path(self.state_dir, self.record.job_id))
        if reason is not None:
            raise JobCancelled(
                f"job {self.record.job_id} "
                + (
                    "requeued by service drain"
                    if reason == "drain"
                    else "cancelled by client"
                ),
                requeue=reason == "drain",
            )
        if self.deadline_at is not None and self.clock() >= self.deadline_at:
            raise JobTimeout(
                f"job {self.record.job_id} exceeded its "
                f"{self.record.spec.deadline:.1f}s deadline"
            )


# ----------------------------------------------------------------------
# Kind executors
# ----------------------------------------------------------------------
def _execute_measure(record: JobRecord, ctx: ExecutionContext) -> dict:
    """Run a TopoShot campaign on the sharded executor, resumably.

    The campaign checkpoint lives under the service state dir keyed by
    job id; any retry or recovery resumes from completed shards, so work
    is never repeated and results are never duplicated.
    """
    from repro.core.parallel_exec import run_campaign

    campaign, workers = measure_params(record.spec)

    ctx.heartbeat()

    def progress(_index: int, _total: int, _result: object) -> None:
        # Called after each shard's checkpoint is written: the safe place
        # to honor deadline/cancel/drain stops.
        ctx.heartbeat()

    measurement = run_campaign(
        campaign,
        workers=workers,
        checkpoint_path=ctx.checkpoint_path,
        resume=ctx.checkpoint_path.exists(),
        progress=progress,
    )
    # Degraded-but-complete: a campaign that survived adverse events
    # reports which pairs are uncovered (NetworkMeasurement.failures).
    summary = _measure_summary(
        measurement,
        CONFIDENCE_PARTIAL if measurement.failures else CONFIDENCE_COMPLETE,
    )
    if measurement.score is not None:
        summary["score"] = str(measurement.score)
    return summary


def _measure_summary(measurement, confidence: str) -> dict:
    """The result record of a measure job, finished or cut short."""
    from repro.io import measurement_to_dict

    return {
        "kind": KIND_MEASURE,
        "confidence": confidence,
        "nodes": len(measurement.node_ids),
        "edges": len(measurement.edges),
        "iterations": measurement.iterations,
        "transactions_sent": measurement.transactions_sent,
        "failure_count": len(measurement.failures),
        "measurement": measurement_to_dict(measurement),
    }


def _measure_partial(record: JobRecord, ctx: ExecutionContext) -> Optional[dict]:
    """Best-effort partial result from the shard checkpoint on disk: the
    completed shards merged into one measurement, reported in the same
    record a finished job returns."""
    from repro.core.parallel_exec import ParallelCheckpoint, merge_shards

    path = ctx.checkpoint_path
    if not path.exists():
        return None
    try:
        checkpoint = ParallelCheckpoint.load(path)
    except Exception:
        return None
    shards = [checkpoint.completed[index] for index in sorted(checkpoint.completed)]
    if not shards:
        return None
    return {
        **_measure_summary(merge_shards(shards), CONFIDENCE_PARTIAL),
        "completed_shards": len(shards),
        "n_shards": checkpoint.n_shards,
        "resumable": True,
    }


def _synthetic_checkpoint(ctx: ExecutionContext) -> Path:
    return ctx.state_dir / f"job-{ctx.record.job_id}.steps.json"


def _execute_synthetic(record: JobRecord, ctx: ExecutionContext) -> dict:
    """Deterministic stand-in workload for load tests and smoke CI.

    Params: ``steps`` (resumable units), ``step_duration`` (wall seconds
    per step), ``fail_attempts`` (the first N attempts raise an injected
    infrastructure failure — the worker-crash simulator).
    """
    from repro.io import atomic_write_text

    params = record.spec.params
    steps = max(1, int(params.get("steps", 1)))
    step_duration = float(params.get("step_duration", 0.0))
    fail_attempts = int(params.get("fail_attempts", 0))

    checkpoint = _synthetic_checkpoint(ctx)
    completed = 0
    if checkpoint.exists():
        try:
            completed = int(
                json.loads(checkpoint.read_text(encoding="utf-8"))[
                    "completed_steps"
                ]
            )
        except (ValueError, KeyError, OSError):
            completed = 0

    if record.attempts <= fail_attempts:
        raise ServiceError(
            f"injected worker failure (attempt {record.attempts} of "
            f"{fail_attempts} failing attempts)"
        )

    for step in range(completed, steps):
        ctx.heartbeat()
        if step_duration:
            time.sleep(step_duration)
        atomic_write_text(
            checkpoint, json.dumps({"completed_steps": step + 1}) + "\n"
        )
    return {
        "kind": KIND_SYNTHETIC,
        "confidence": CONFIDENCE_COMPLETE,
        "steps": steps,
        "resumed_from": completed,
        "payload": params.get("payload"),
        "worker_pid": os.getpid(),
    }


def _synthetic_partial(
    record: JobRecord, ctx: ExecutionContext
) -> Optional[dict]:
    checkpoint = _synthetic_checkpoint(ctx)
    if not checkpoint.exists():
        return None
    try:
        completed = int(
            json.loads(checkpoint.read_text(encoding="utf-8"))[
                "completed_steps"
            ]
        )
    except (ValueError, KeyError, OSError):
        return None
    return {
        "kind": KIND_SYNTHETIC,
        "confidence": CONFIDENCE_PARTIAL,
        "completed_steps": completed,
        "steps": max(1, int(record.spec.params.get("steps", 1))),
        "resumable": True,
    }


#: kind -> (executor, partial-result builder). Additional measurement
#: protocols (DEthna, Ethna — see PAPERS.md) plug in here as new kinds.
JOB_KINDS: Dict[str, tuple] = {
    KIND_MEASURE: (_execute_measure, _measure_partial),
    KIND_SYNTHETIC: (_execute_synthetic, _synthetic_partial),
}


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
#: Each retry's backoff is this many times the one before (up to the cap).
BACKOFF_FACTOR = 2.0


class JobSupervisor:
    """Runs one job's attempt loop to a terminal state (thread context),
    each attempt on ``executor``.

    Backoff between attempts is exponential with deterministic jitter:
    the jitter fraction is drawn from a RNG seeded by ``(job_id, attempt)``
    so a given job's retry schedule is reproducible in tests without any
    global RNG coupling.
    """

    def __init__(
        self,
        state_dir: Path,
        executor: Executor,
        breaker: Optional[CircuitBreaker] = None,
        clock: Clock = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        backoff_base: float = 0.2,
        backoff_max: float = 30.0,
        jitter_frac: float = 0.25,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.executor = executor
        self.breaker = breaker or CircuitBreaker(clock=clock)
        self.clock = clock
        self.sleep = sleep
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self.jitter_frac = float(jitter_frac)
        self.retries_total = 0

    def backoff_delay(self, job_id: str, attempt: int) -> float:
        """The wait before retry ``attempt`` (1-based): exponential with
        deterministic per-(job, attempt) jitter."""
        return backoff_delay(
            self.backoff_base,
            BACKOFF_FACTOR,
            self.backoff_max,
            self.jitter_frac,
            attempt,
            f"{job_id}:{attempt}",
        )

    def request_stop(self, job_id: str, reason: str) -> None:
        """Ask a dispatched job to stop: ``reason`` — ``cancel`` (terminal)
        or ``drain`` (requeue for the next incarnation) — goes into the
        job's stop file, which its worker reads at every heartbeat. Only
        the first reason counts: a drain must not overwrite an earlier
        client cancel (which would requeue a cancelled job)."""
        from repro.io import atomic_write_text

        path = _stop_path(self.state_dir, job_id)
        if not path.exists():
            atomic_write_text(path, reason)

    def clear_stop(self, job_id: str) -> Optional[str]:
        """Remove the job's stop file; returns the reason it held, if any."""
        path = _stop_path(self.state_dir, job_id)
        reason = _read_stop(path)
        path.unlink(missing_ok=True)
        return reason

    def run(self, record: JobRecord) -> JobRecord:
        """Execute ``record`` to a terminal state (mutated in place).

        Raises :class:`CircuitOpen` (requeue) or propagates
        :class:`JobCancelled` with ``requeue=True`` (drain) — every other
        outcome lands in the record as done/failed/cancelled/timed_out.
        """
        kind = record.spec.kind
        if kind not in JOB_KINDS:
            record.error = {
                "type": "unknown_kind",
                "detail": f"no executor registered for job kind {kind!r}",
            }
            record.finished_at = self.clock()
            record.state = FAILED
            return record
        executor, partial_builder = JOB_KINDS[kind]
        ctx = ExecutionContext(
            record=record,
            state_dir=self.state_dir,
            clock=self.clock,
            deadline_at=record.deadline_at(),
        )

        def stopped(state: str, error: dict) -> JobRecord:
            """The one terminal transition of a job that did not finish.
            The state is published last: the API reads the record from
            another thread, and a terminal state means the result is in."""
            record.error = error
            record.result = partial_builder(record, ctx)
            record.partial = record.result is not None
            record.finished_at = self.clock()
            record.state = state
            return record

        while True:
            if not self.breaker.allow():
                raise CircuitOpen(
                    "worker pool circuit breaker is open",
                    retry_after=self.breaker.retry_after(),
                )
            record.attempts += 1
            try:
                result = self.executor.submit(executor, record, ctx).result()
            except JobTimeout as exc:
                # A timeout is no verdict on pool health: free the probe
                # slot this attempt may hold so the breaker cannot wedge
                # HALF_OPEN with a probe that never reports.
                self.breaker.release_probe()
                return stopped(TIMED_OUT, exc.to_dict())
            except JobCancelled as exc:
                self.breaker.release_probe()
                if exc.requeue:
                    raise  # drain: the service journals it back to queued
                return stopped(CANCELLED, exc.to_dict())
            except Exception as exc:
                # Infrastructure failure (worker crash, broken pool,
                # malformed campaign): counts against the breaker and the
                # job's retry budget.
                self.breaker.record_failure()
                detail = f"{type(exc).__name__}: {exc}"
                if record.attempts >= record.spec.max_attempts:
                    return stopped(
                        FAILED,
                        {
                            "type": "attempts_exhausted",
                            "detail": detail,
                            "attempts": record.attempts,
                        },
                    )
                delay = self.backoff_delay(record.job_id, record.attempts)
                if (
                    ctx.deadline_at is not None
                    and self.clock() + delay >= ctx.deadline_at
                ):
                    return stopped(
                        TIMED_OUT,
                        {
                            "type": JobTimeout.code,
                            "detail": (
                                "deadline would pass during retry backoff after: "
                                + detail
                            ),
                        },
                    )
                self.retries_total += 1
                self.sleep(delay)
                continue
            else:
                self.breaker.record_success()
                record.result = result
                record.partial = (
                    result.get("confidence") == CONFIDENCE_PARTIAL
                )
                record.finished_at = self.clock()
                record.state = DONE  # last, as in stopped()
                self._cleanup_checkpoints(ctx)
                return record

    def _cleanup_checkpoints(self, ctx: ExecutionContext) -> None:
        """Completed jobs do not need their resume state any more."""
        for path in (ctx.checkpoint_path, _synthetic_checkpoint(ctx)):
            path.unlink(missing_ok=True)
