"""Supervised job execution: retries, deadlines, circuit breaking.

The supervisor's attempt loop runs in a service thread (the asyncio loop
stays responsive); each attempt runs on an :class:`~concurrent.futures.
Executor` — the service's :class:`WorkerPool` of forked processes — and
the loop waits for it::

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
result with confidence labels instead of erroring. A stop request crosses
into the worker as the job's *stop file*; the typed stop comes back as
itself (every ``ReproError`` pickles).
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeout,
)
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

#: How often the attempt loop, waiting on a worker, passes a new stop
#: request on (a finished attempt is picked up at once, not on this tick).
_STOP_POLL_S = 0.05

#: Exit status of a worker that found its service gone at a heartbeat.
ORPHANED_EXIT = 70


# ----------------------------------------------------------------------
# Cooperative stop plumbing
# ----------------------------------------------------------------------
class CancelToken:
    """Thread-safe stop request carried from the asyncio loop to the
    attempt loop, which hands it to the worker as the job's stop file.
    ``reason`` distinguishes a client cancel (terminal) from a service
    drain (requeue-for-recovery)."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason = ""

    def request(self, reason: str) -> None:
        # First reason wins: a drain broadcast must not overwrite an
        # earlier client cancel (which would requeue a cancelled job).
        if not self._event.is_set():
            self.reason = reason
        self._event.set()

    @property
    def requested(self) -> bool:
        return self._event.is_set()


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
        #: The service process: a worker whose parent it no longer is has
        #: been orphaned by a killed service.
        self.service_pid = os.getpid()

    @property
    def checkpoint_path(self) -> Path:
        return self.state_dir / f"job-{self.record.job_id}.ckpt.json"

    @property
    def stop_path(self) -> Path:
        """Holds ``cancel`` or ``drain`` once a stop is requested."""
        return self.state_dir / f"job-{self.record.job_id}.stop"

    def heartbeat(self) -> None:
        """Raise the appropriate stop if one is pending (checkpoint is
        already durable when this is called from a shard boundary).

        A worker orphaned by a killed service exits here instead of
        writing on: nobody reads its result, and the next incarnation
        resumes the job from the checkpoint just written.
        """
        if os.getpid() != self.service_pid and os.getppid() != self.service_pid:
            os._exit(ORPHANED_EXIT)
        try:
            reason = self.stop_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            reason = None
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
# Worker pool
# ----------------------------------------------------------------------
class WorkerPool(Executor):
    """The service's warm pool: ``size`` forked processes running job
    attempts, one attempt per process at a time.

    :meth:`start` imports the executor modules and then forks every
    worker, so each one starts warm and none is forked from a process that
    already runs job threads. A worker that dies (an OOM kill, a signal)
    breaks a process pool for good; the next submit replaces it, and the
    attempt that saw it break is retried by the supervisor like any other
    infrastructure failure.
    """

    def __init__(self, size: int) -> None:
        self.size = max(1, int(size))
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    def _forked(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Imports the whole campaign stack, which the forks inherit.
            from repro.core.parallel_exec import _die_with_parent, _mp_context

            pool = ProcessPoolExecutor(
                max_workers=self.size,
                mp_context=_mp_context(),
                initializer=_die_with_parent,
                initargs=(os.getpid(),),
            )
            # The fork start method forks every worker on the first submit.
            pool.submit(int).result()
            self._pool = pool
        return self._pool

    def start(self) -> None:
        with self._lock:
            self._forked()

    def submit(self, fn, /, *args, **kwargs) -> Future:
        with self._lock:
            try:
                return self._forked().submit(fn, *args, **kwargs)
            except BrokenExecutor:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
                return self._forked().submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)
                self._pool = None

    def kill(self) -> None:
        """SIGKILL every worker and drop the pool: what the death of the
        service does to it (in-process crash stand-ins use this)."""
        with self._lock:
            if self._pool is not None:
                for process in list(self._pool._processes.values()):
                    process.kill()
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
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
        backoff_factor: float = 2.0,
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
        self.backoff_factor = float(backoff_factor)
        self.backoff_max = float(backoff_max)
        self.jitter_frac = float(jitter_frac)
        self.retries_total = 0

    def backoff_delay(self, job_id: str, attempt: int) -> float:
        """The wait before retry ``attempt`` (1-based): exponential with
        deterministic per-(job, attempt) jitter."""
        return backoff_delay(
            self.backoff_base,
            self.backoff_factor,
            self.backoff_max,
            self.jitter_frac,
            attempt,
            f"{job_id}:{attempt}",
        )

    def run(self, record: JobRecord, cancel: CancelToken) -> JobRecord:
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
        # A stop request an earlier incarnation left behind is not ours.
        ctx.stop_path.unlink(missing_ok=True)

        def stopped(state: str, error: dict) -> JobRecord:
            """The one terminal transition of a job that did not finish.
            The state is published last: the API reads the record from
            another thread, and a terminal state means the result is in."""
            record.error = error
            record.result = partial_builder(record, ctx)
            record.partial = record.result is not None
            record.finished_at = self.clock()
            record.state = state
            ctx.stop_path.unlink(missing_ok=True)
            return record

        while True:
            if not self.breaker.allow():
                raise CircuitOpen(
                    "worker pool circuit breaker is open",
                    retry_after=self.breaker.retry_after(),
                )
            record.attempts += 1
            try:
                result = self._attempt(executor, record, ctx, cancel)
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

    def _attempt(
        self,
        executor: Callable[[JobRecord, ExecutionContext], dict],
        record: JobRecord,
        ctx: ExecutionContext,
        cancel: CancelToken,
    ) -> dict:
        """Run one attempt on ``self.executor`` and wait for it, handing a
        stop request on to the worker as the job's stop file (the worker
        reads it at its next heartbeat)."""
        from repro.io import atomic_write_text

        def pass_stop_on() -> None:
            if cancel.requested and not ctx.stop_path.exists():
                atomic_write_text(ctx.stop_path, cancel.reason)

        pass_stop_on()
        future = self.executor.submit(executor, record, ctx)
        while True:
            try:
                return future.result(timeout=_STOP_POLL_S)
            except FutureTimeout:
                pass_stop_on()

    def _cleanup_checkpoints(self, ctx: ExecutionContext) -> None:
        """Completed jobs do not need their resume state any more."""
        for path in (
            ctx.checkpoint_path,
            ctx.stop_path,
            _synthetic_checkpoint(ctx),
        ):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
