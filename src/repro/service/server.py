"""The measurement service: asyncio HTTP front end + supervised dispatch.

``MeasurementService`` is a long-running process that accepts topology
measurement jobs over a local JSON/HTTP API, admits them through the
token-bucket :class:`~repro.service.limiter.AdmissionController`, queues
them in the weighted-round-robin
:class:`~repro.service.scheduler.FairScheduler`, and executes them on a
warm pool of ``max_concurrent`` forked worker processes
(:class:`~repro.core.parallel_exec.WorkerPool`) under the retrying,
circuit-broken :class:`~repro.service.supervisor.JobSupervisor`, whose
attempt loops wait on the pool from one thread per running job.  Every
state transition
is journaled to a fsynced JSON-lines WAL so a SIGKILL recovers cleanly,
and SIGTERM drains gracefully: running jobs stop at their next shard
checkpoint and are requeued (journaled) for the next incarnation.

API (all JSON; content-type headers are accepted but not required)::

    POST /v1/jobs              submit    -> 202 {"job": ...}
    GET  /v1/jobs              list      -> 200 {"jobs": [...summaries]}
    GET  /v1/jobs/{id}         inspect   -> 200 {"job": ...}
    GET  /v1/jobs/{id}?wait=S  hold      -> 200 {"job": ...} once the job's
                                            terminal state is journaled, or
                                            after S seconds, or at drain
    POST /v1/jobs/{id}/cancel  cancel    -> 202 {"job": ...}
    GET  /v1/metrics           stats     -> 200 {"service": ..., "obs": ...}
    GET  /v1/healthz           liveness  -> 200 {"status": "ok"|"draining"}

Typed failures map to HTTP-ish statuses via ``ServiceError.http_status``
(429 quota/queue sheds with ``retry_after`` hints, 503 while draining).
A ``wait`` that is negative, not finite or not a number is a 400 and
holds nothing; ``wait=0`` (or no ``wait``) answers at once.
The HTTP layer is a deliberately minimal hand-rolled parser over
``asyncio.start_server`` — the service binds loopback for a single
operator, not the open internet, and the repository admits no new
dependencies.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union
from urllib.parse import parse_qs

from repro.core.parallel_exec import WorkerPool
from repro.errors import (
    BadRequest,
    CircuitOpen,
    JobCancelled,
    NotFound,
    ServiceError,
)
from repro.obs import NULL, Observability, wiring
from repro.resilience import CircuitBreaker
from repro.service.jobs import (
    ACTIVE_STATES,
    ADMITTED,
    CANCELLED,
    FAILED,
    QUEUED,
    RUNNING,
    STATES,
    JobRecord,
    JobSpec,
    node_seconds_cost,
)
from repro.service.journal import JobJournal
from repro.service.limiter import AdmissionController, TenantQuota
from repro.service.scheduler import FairScheduler
from repro.service.supervisor import JOB_KINDS, JobSupervisor

PathLike = Union[str, Path]

#: How long the dispatch loop naps when there is nothing to do (it is
#: also woken eagerly by submissions and completions).
_IDLE_TICK = 0.05

#: Largest request body accepted (a measure job's campaign JSON is a few kB).
MAX_BODY_BYTES = 1 << 20


@dataclass
class ServiceConfig:
    """Everything an operator can tune, JSON-loadable for ``cli serve``."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in endpoint.json
    state_dir: PathLike = "service-state"
    max_concurrent: int = 2
    max_running_per_tenant: int = 2
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    tenant_quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    global_jobs_per_second: float = 20.0
    global_job_burst: float = 40.0
    max_queued_total: int = 256
    breaker_failure_threshold: int = 5
    breaker_cooldown: float = 5.0
    backoff_base: float = 0.2
    backoff_max: float = 30.0
    journal_fsync: bool = True
    #: Terminal records kept in memory per tenant; older ones are evicted
    #: (0 disables). An evicted job_id is no longer idempotency-protected.
    max_terminal_records_per_tenant: int = 512
    #: Journal appends between automatic compactions (0 disables): bounds
    #: WAL growth over a long service lifetime, not just at startup.
    journal_compact_interval: int = 4096

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceConfig":
        payload = dict(payload)
        if "default_quota" in payload:
            payload["default_quota"] = TenantQuota(**payload["default_quota"])
        if "tenant_quotas" in payload:
            payload["tenant_quotas"] = {
                tenant: TenantQuota(**quota)
                for tenant, quota in payload["tenant_quotas"].items()
            }
        return cls(**payload)


class MeasurementService:
    """Supervised, multi-tenant measurement-job service (one event loop).

    All mutable scheduling state (queues, records, token buckets) is owned
    by the asyncio loop; a running job's attempt loop (in a thread, via
    ``asyncio.to_thread``) only touches its own :class:`JobRecord` and the
    supervisor, and the campaign itself runs in a worker process of the
    service's :class:`WorkerPool`, forked by :meth:`start`.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        obs: Observability = NULL,
    ) -> None:
        self.config = config or ServiceConfig()
        self.obs = obs
        self.clock = time.time
        self.state_dir = Path(self.config.state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        quotas = self.config.tenant_quotas
        self.admission = AdmissionController(
            default_quota=self.config.default_quota,
            tenant_quotas=quotas,
            global_jobs_per_second=self.config.global_jobs_per_second,
            global_job_burst=self.config.global_job_burst,
            max_queued_total=self.config.max_queued_total,
        )
        self.scheduler = FairScheduler(
            weight_of=lambda tenant: self.admission.quota_for(tenant).weight,
            max_running_per_tenant=self.config.max_running_per_tenant,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown=self.config.breaker_cooldown,
        )
        self.workers = WorkerPool(self.config.max_concurrent)
        self.supervisor = JobSupervisor(
            state_dir=self.state_dir,
            executor=self.workers,
            breaker=self.breaker,
            clock=self.clock,
            backoff_base=self.config.backoff_base,
            backoff_max=self.config.backoff_max,
        )
        self.journal: Optional[JobJournal] = None
        self.records: Dict[str, JobRecord] = {}
        self.recovered_jobs = 0
        self.skipped_journal_lines = 0
        self.evicted_records_total = 0
        self.compactions_total = 0
        self._appends_at_compact = 0
        self._running: Dict[str, int] = {}  # tenant -> executing jobs
        self._tasks: Set[asyncio.Task] = set()
        # job_id -> set when the job's terminal state is journaled (loop
        # thread only); held GETs wait on it.
        self._finished: Dict[str, asyncio.Event] = {}
        # Connection tasks of held GETs: shutdown lets them finish answering.
        self._holding: Set[asyncio.Task] = set()
        self._slots = 0
        self._wake: Optional[asyncio.Event] = None
        self._stopping = False
        self._drained = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher: Optional[asyncio.Task] = None
        wiring.instrument_service(obs, self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> Path:
        return self.state_dir / "journal.jsonl"

    @property
    def endpoint_path(self) -> Path:
        return self.state_dir / "endpoint.json"

    def _recover(self) -> None:
        """Replay the WAL: keep terminal results, requeue in-flight jobs."""
        replayed, skipped = JobJournal.replay(self.journal_path)
        self.skipped_journal_lines = skipped
        for record in replayed.values():
            if record.state in ACTIVE_STATES:
                record.state = QUEUED
                record.recovered = True
                if record.spec.kind not in JOB_KINDS:
                    record.state = FAILED
                    record.error = {
                        "type": "unknown_kind",
                        "detail": (
                            "journal recovery found no executor for kind "
                            f"{record.spec.kind!r}"
                        ),
                    }
                    record.finished_at = self.clock()
                else:
                    self.scheduler.push(record)
                    self.recovered_jobs += 1
            self.records[record.job_id] = record
        self.journal = JobJournal(self.journal_path, fsync=self.config.journal_fsync)
        if replayed:
            # One line per job again; the requeued states are now durable.
            self.journal.compact(self.records.values())
        self._appends_at_compact = self.journal.appends_total

    async def start(self) -> None:
        """Fork the worker pool, recover state, bind the socket, start
        dispatching. The fork comes first: workers inherit no journal,
        listening socket or job thread."""
        self.workers.start()
        self._wake = asyncio.Event()
        self._recover()
        self._slots = self.workers.size
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        self.host, self.port = host, int(port)
        from repro.io import atomic_write_text

        atomic_write_text(
            self.endpoint_path,
            json.dumps(
                {
                    "host": self.host,
                    "port": self.port,
                    "url": f"http://{self.host}:{self.port}",
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        if self.obs.enabled:
            self.obs.emit(
                self.clock(), "service.started", self.port, self.recovered_jobs
            )

    def request_shutdown(self) -> None:
        """Signal-handler entry: begin the graceful drain (every dispatched
        job gets a ``drain`` stop file, every held GET is answered)."""
        if not self._stopping:
            self._stopping = True
            for record in self.records.values():
                if record.state in (ADMITTED, RUNNING):
                    self.supervisor.request_stop(record.job_id, "drain")
            for event in self._finished.values():
                event.set()
            self._finished.clear()
            if self._wake is not None:
                self._wake.set()

    async def shutdown(self) -> None:
        """Drain: stop intake, checkpoint running jobs, journal the queue,
        close the worker pool."""
        self.request_shutdown()
        if self._dispatcher is not None:
            await self._dispatcher
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        self.workers.shutdown()
        # Journal still-queued jobs in their queued state: the next
        # incarnation recovers and finishes them.
        for record in self.scheduler.drain_all():
            self._journal(record)
        if self._server is not None:
            self._server.close()
            # Released by request_shutdown: they are only writing now.
            if self._holding:
                await asyncio.gather(*self._holding, return_exceptions=True)
            await self._server.wait_closed()
        if self.journal is not None:
            self.journal.close()
        try:
            self.endpoint_path.unlink()
        except FileNotFoundError:
            pass
        self._drained.set()
        if self.obs.enabled:
            self.obs.emit(self.clock(), "service.stopped", len(self.records))

    async def serve_forever(self) -> None:
        """Run until SIGTERM/SIGINT, then drain gracefully."""
        await self.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-Unix
                pass
        while not self._stopping:
            await asyncio.sleep(_IDLE_TICK)
        await self.shutdown()

    # ------------------------------------------------------------------
    # Submission / cancellation (called from the request handlers)
    # ------------------------------------------------------------------
    def submit(self, payload: dict) -> Tuple[JobRecord, bool]:
        """Admit one job; returns ``(record, created)``.

        Resubmitting an existing ``job_id`` is idempotent: the stored
        record is returned unchanged (``created=False``), which is what
        lets clients retry submissions after a crash without duplicating
        work or results.
        """
        try:
            spec = JobSpec.from_dict(payload)
        except (KeyError, TypeError, ValueError, ServiceError) as exc:
            raise BadRequest(f"malformed job spec: {exc}") from exc
        existing = self.records.get(spec.job_id)
        if existing is not None:
            return existing, False
        if spec.kind not in JOB_KINDS:
            raise BadRequest(
                f"unknown job kind {spec.kind!r}; "
                f"available: {sorted(JOB_KINDS)}"
            )
        # Costing a measure job parses its campaign: a malformed one is a
        # BadRequest here, before anything is admitted, journaled or run.
        self.admission.admit(
            spec.tenant,
            node_seconds_cost(spec),
            self.scheduler.queued_total(),
            self.scheduler.queued_for(spec.tenant),
        )
        record = JobRecord(spec=spec, submitted_at=self.clock())
        self.records[record.job_id] = record
        self._journal(record)
        self.scheduler.push(record)
        if self._wake is not None:
            self._wake.set()
        return record, True

    def cancel(self, job_id: str) -> JobRecord:
        record = self.records.get(job_id)
        if record is None:
            raise NotFound(f"unknown job id {job_id!r}")
        if record.state in (ADMITTED, RUNNING):
            # Popped (executor perhaps not started yet) or running: the
            # job's attempt loop finishes the transition.
            self.supervisor.request_stop(job_id, "cancel")
        elif self.scheduler.remove(job_id) is not None:
            self._cancel_unrun(record)
            self._enforce_retention()
        return record

    def _cancel_unrun(self, record: JobRecord) -> None:
        """End a job that is out of the queue and not running as cancelled."""
        record.state = CANCELLED
        record.error = JobCancelled("cancelled while queued").to_dict()
        record.finished_at = self.clock()
        self._journal(record)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        while not self._stopping:
            dispatched = False
            # can_attempt() also pauses dispatch while a HALF_OPEN probe
            # is in flight — popping more jobs then would only bounce
            # them straight back via CircuitOpen.
            if self._slots > 0 and self.breaker.can_attempt():
                record = self.scheduler.pop(self._running)
                if record is not None:
                    self._slots -= 1
                    self._admit_for_run(record)
                    task = asyncio.create_task(self._run_job(record))
                    self._tasks.add(task)
                    task.add_done_callback(self._tasks.discard)
                    dispatched = True
            if not dispatched:
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=_IDLE_TICK)
                except asyncio.TimeoutError:
                    pass
                self._wake.clear()

    def _admit_for_run(self, record: JobRecord) -> None:
        """Bookkeeping that must happen synchronously with scheduler.pop.

        The tenant's running count exists before the event loop yields, so
        a single dispatch pass popping several jobs can never overfill
        ``max_running_per_tenant`` (the scheduler would otherwise see a
        stale running map). A stop file an earlier incarnation left behind
        is not this run's: it goes before a cancel can land.
        """
        self.supervisor.clear_stop(record.job_id)
        self._running[record.tenant] = self._running.get(record.tenant, 0) + 1

    async def _run_job(self, record: JobRecord) -> None:
        record.state = RUNNING
        record.started_at = self.clock()
        self._journal(record)
        requeue_front = False
        try:
            await asyncio.to_thread(self.supervisor.run, record)
        except CircuitOpen:
            # Fail fast without burning the job: back to the queue head.
            record.state = QUEUED
            requeue_front = True
        except JobCancelled as exc:
            if not exc.requeue:  # pragma: no cover - defensive
                raise
            # Service drain: the job checkpointed at a shard boundary and
            # goes back to queued for the next incarnation.
            record.state = QUEUED
            requeue_front = True
        finally:
            count = self._running.get(record.tenant, 1) - 1
            if count > 0:
                self._running[record.tenant] = count
            else:
                self._running.pop(record.tenant, None)
            self._slots += 1
            stop = self.supervisor.clear_stop(record.job_id)
            if requeue_front and stop == "cancel":
                # Cancelled while dispatched, then bounced by the breaker
                # before any attempt read the stop: it ends here.
                self._cancel_unrun(record)
            else:
                self._journal(record)
                if requeue_front and not self._stopping:
                    self.scheduler.push(record, front=True)
            if self._wake is not None:
                self._wake.set()
        if record.terminal:
            self._observe_completion(record)
            self._enforce_retention()

    def _journal(self, record: JobRecord) -> None:
        """Append the record's state; a terminal one wakes its held GETs.

        Every terminal transition reaches this line on the loop thread
        (the supervisor thread only sets ``record.state``), which is what
        makes setting an ``asyncio.Event`` here safe."""
        if self.journal is not None:
            self.journal.append(record)
        if record.terminal:
            event = self._finished.pop(record.job_id, None)
            if event is not None:
                event.set()

    def _enforce_retention(self) -> None:
        """Bound memory and disk over a long service lifetime.

        Evicts the oldest terminal records beyond the per-tenant cap
        (active jobs are never touched) and compacts the journal to one
        line per surviving job once enough appends have accumulated since
        the last rewrite — without this, ``records`` and the WAL grow
        forever under sustained traffic.
        """
        limit = self.config.max_terminal_records_per_tenant
        if limit > 0:
            by_tenant: Dict[str, List[JobRecord]] = {}
            for record in self.records.values():
                if record.terminal:
                    by_tenant.setdefault(record.tenant, []).append(record)
            for terminal in by_tenant.values():
                if len(terminal) <= limit:
                    continue
                terminal.sort(key=lambda r: r.finished_at or 0.0)
                for record in terminal[: len(terminal) - limit]:
                    del self.records[record.job_id]
                    self.evicted_records_total += 1
        interval = self.config.journal_compact_interval
        if (
            self.journal is not None
            and interval > 0
            and self.journal.appends_total - self._appends_at_compact
            >= interval
        ):
            self.journal.compact(self.records.values())
            self._appends_at_compact = self.journal.appends_total
            self.compactions_total += 1

    def _observe_completion(self, record: JobRecord) -> None:
        if not self.obs.enabled:
            return
        for metric, seconds in (
            (wiring.SERVICE_QUEUE_SECONDS, record.queue_seconds()),
            (wiring.SERVICE_RUN_SECONDS, record.run_seconds()),
            (wiring.SERVICE_TOTAL_SECONDS, record.total_seconds()),
        ):
            if seconds is not None:
                self.obs.metrics.histogram(
                    metric, labels={"tenant": record.tenant}
                ).observe(seconds)
        self.obs.emit(
            self.clock(),
            "service.job_finished",
            record.job_id,
            record.tenant,
            record.state,
            record.attempts,
            record.partial,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``/v1/metrics`` service body (and the obs pull source)."""
        by_state = {state: 0 for state in STATES}
        for record in self.records.values():
            by_state[record.state] += 1
        # Queued records live in the scheduler, not double-counted above
        # (they are in self.records too; the counts are consistent).
        return {
            "draining": self._stopping,
            "queued": self.scheduler.queued_total(),
            "queued_by_tenant": self.scheduler.depths(),
            "running": sum(self._running.values()),
            "running_by_tenant": dict(sorted(self._running.items())),
            "jobs_by_state": by_state,
            "jobs_total": len(self.records),
            "recovered_jobs": self.recovered_jobs,
            "evicted_records_total": self.evicted_records_total,
            "admitted_total": self.admission.admitted_total,
            "rejected": dict(sorted(self.admission.rejected.items())),
            "tokens": self.admission.token_levels(),
            "breaker": {
                "state": self.breaker.state,
                "trips_total": self.breaker.trips_total,
                "retry_after": self.breaker.retry_after(),
            },
            "retries_total": self.supervisor.retries_total,
            "journal": {
                "path": str(self.journal_path),
                "appends_total": (
                    self.journal.appends_total if self.journal else 0
                ),
                "compactions_total": self.compactions_total,
                "skipped_lines_on_recovery": self.skipped_journal_lines,
            },
        }

    # ------------------------------------------------------------------
    # HTTP front end
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._handle_request(reader)
        except ServiceError as exc:
            status, payload = exc.http_status, {"error": exc.to_dict()}
        except Exception as exc:  # noqa: BLE001 - boundary of the server
            status, payload = 500, {
                "error": {"type": "internal", "detail": f"{type(exc).__name__}: {exc}"}
            }
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reasons = {
            200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable", 504: "Gateway Timeout",
        }
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, dict]:
        request_line = await reader.readline()
        parts = request_line.decode("ascii", "replace").split()
        if len(parts) < 2:
            raise BadRequest("malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("ascii", "replace").partition(":")
            headers[key.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            raise BadRequest(
                f"Content-Length must be an integer in [0, {MAX_BODY_BYTES}], "
                f"got {declared[:32]!r}"
            )
        raw = await reader.readexactly(length) if length else b""
        if raw:
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise BadRequest(f"request body is not JSON: {exc}") from exc
        else:
            body = {}
        return await self._route(method, path, body)

    async def _route(self, method: str, path: str, body: dict) -> Tuple[int, dict]:
        route, _, query = path.partition("?")
        segments = [s for s in route.split("/") if s]
        if segments[:1] != ["v1"]:
            return 404, {"error": {"type": "not_found", "detail": path}}
        tail = segments[1:]
        if tail == ["healthz"] and method == "GET":
            return 200, {"status": "draining" if self._stopping else "ok"}
        if tail == ["metrics"] and method == "GET":
            payload: dict = {"service": self.stats()}
            if self.obs.enabled:
                payload["obs"] = self.obs.snapshot()
            return 200, payload
        if tail == ["jobs"]:
            if method == "POST":
                if self._stopping:
                    return 503, {
                        "error": {
                            "type": "draining",
                            "detail": "service is draining; "
                            "resubmit to the next incarnation",
                        }
                    }
                record, created = self.submit(body)
                return (202 if created else 200), {"job": record.to_dict()}
            if method == "GET":
                return 200, {
                    "jobs": [
                        record.summary() for record in self.records.values()
                    ]
                }
            return 405, {"error": {"type": "method_not_allowed", "detail": method}}
        if len(tail) >= 2 and tail[0] == "jobs":
            job_id = tail[1]
            if len(tail) == 3 and tail[2] == "cancel" and method == "POST":
                return 202, {"job": self.cancel(job_id).to_dict()}
            if len(tail) == 2 and method == "GET":
                hold = _hold_seconds(query)
                record = self.records.get(job_id)
                if record is None:
                    return 404, {
                        "error": {"type": "not_found", "detail": job_id}
                    }
                if hold > 0:
                    await self._hold(record, hold)
                return 200, {"job": record.to_dict()}
        return 404, {"error": {"type": "not_found", "detail": path}}

    async def _hold(self, record: JobRecord, seconds: float) -> None:
        """Return once ``record``'s terminal state is journaled, ``seconds``
        pass, or the service drains — whichever is first.

        A record already terminal (the supervisor thread publishes the
        state before the loop journals it) and a draining service do not
        hold at all."""
        if record.terminal or self._stopping:
            return
        event = self._finished.setdefault(record.job_id, asyncio.Event())
        task = asyncio.current_task()
        self._holding.add(task)
        task.add_done_callback(self._holding.discard)
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(event.wait(), seconds)


def _hold_seconds(query: str) -> float:
    """The ``wait`` query parameter in seconds (0 when absent)."""
    values = parse_qs(query, keep_blank_values=True).get("wait")
    if not values:
        return 0.0
    try:
        seconds = float(values[-1])
    except ValueError:
        seconds = math.nan
    if not (math.isfinite(seconds) and seconds >= 0):
        raise BadRequest(
            "wait must be a finite number of seconds >= 0, "
            f"got {values[-1][:32]!r}"
        )
    return seconds


def run_service(
    config: Optional[ServiceConfig] = None, obs: Observability = NULL
) -> None:
    """Blocking entry point used by ``repro.cli serve``."""
    service = MeasurementService(config=config, obs=obs)
    asyncio.run(service.serve_forever())
