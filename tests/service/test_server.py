"""End-to-end service tests over the real HTTP API.

Each test runs a real :class:`MeasurementService` on an ephemeral loopback
port inside ``asyncio.run`` and drives it with the blocking
:class:`ServiceClient` from a worker thread — the same transport and
client production uses.  Journal fsync is disabled for speed (crash-safety
of the fsync itself is covered in ``test_journal.py``).
"""

import asyncio
import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.service import (
    MeasurementService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    TenantQuota,
)
from repro.service.server import MAX_BODY_BYTES


@contextlib.asynccontextmanager
async def service(tmp_path, **overrides):
    overrides.setdefault("journal_fsync", False)
    config = ServiceConfig(state_dir=tmp_path, **overrides)
    svc = MeasurementService(config)
    await svc.start()
    client = ServiceClient.from_state_dir(tmp_path)
    try:
        yield svc, client
    finally:
        if not svc._drained.is_set():
            await svc.shutdown()


async def hard_kill(svc):
    """SIGKILL stand-in: stop all service coroutines without any of the
    drain/journal-closing courtesy of shutdown(); the worker pool dies
    with the service."""
    svc._stopping = True
    if svc._dispatcher is not None:
        svc._dispatcher.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await svc._dispatcher
    svc.workers.kill()
    if svc._tasks:
        await asyncio.gather(*list(svc._tasks), return_exceptions=True)
    svc._server.close()
    await svc._server.wait_closed()
    svc._drained.set()  # suppress the context manager's graceful path


def submit_sync(client, **kwargs):
    kwargs.setdefault("kind", "synthetic")
    kwargs.setdefault("params", {"steps": 1})
    return client.submit(**kwargs)


class TestRoundTrip:
    def test_submit_wait_result(self, tmp_path):
        async def main():
            async with service(tmp_path) as (_svc, client):
                job = await asyncio.to_thread(
                    submit_sync, client, tenant="alice",
                    params={"steps": 2, "payload": "hello"},
                )
                assert job["state"] == "queued"
                done = await asyncio.to_thread(
                    client.wait, job["spec"]["job_id"], 20
                )
                assert done["state"] == "done"
                assert done["result"]["payload"] == "hello"
                assert done["result"]["confidence"] == "complete"

        asyncio.run(main())

    def test_resubmission_is_idempotent(self, tmp_path):
        async def main():
            async with service(tmp_path) as (_svc, client):
                first = await asyncio.to_thread(
                    submit_sync, client, tenant="a", job_id="a-fixed"
                )
                await asyncio.to_thread(client.wait, "a-fixed", 20)
                again = await asyncio.to_thread(
                    submit_sync, client, tenant="a", job_id="a-fixed"
                )
                # Same record, no second execution: the completed result
                # is returned as-is.
                assert again["spec"]["job_id"] == first["spec"]["job_id"]
                assert again["state"] == "done"
                jobs = await asyncio.to_thread(client.jobs)
                assert len(jobs) == 1

        asyncio.run(main())

    def test_client_errors_are_400_and_404_not_500(self, tmp_path):
        async def main():
            async with service(tmp_path) as (_svc, client):
                # Unknown job kind: the client's fault, a typed 400.
                with pytest.raises(ServiceClientError) as excinfo:
                    await asyncio.to_thread(
                        client.submit, "a", "no-such-kind", {}
                    )
                assert excinfo.value.status == 400
                assert excinfo.value.error_type == "bad_request"
                # Malformed spec (empty tenant) is a 400 too.
                with pytest.raises(ServiceClientError) as excinfo:
                    await asyncio.to_thread(
                        client.submit, "", "synthetic", {"steps": 1}
                    )
                assert excinfo.value.status == 400
                # Unknown job ids: 404 on inspect and on cancel alike.
                with pytest.raises(ServiceClientError) as excinfo:
                    await asyncio.to_thread(client.job, "missing-id")
                assert excinfo.value.status == 404
                with pytest.raises(ServiceClientError) as excinfo:
                    await asyncio.to_thread(client.cancel, "missing-id")
                assert excinfo.value.status == 404
                assert excinfo.value.error_type == "not_found"

        asyncio.run(main())

    @pytest.mark.parametrize(
        "declared",
        ["abc", "-5", str(MAX_BODY_BYTES + 1)],
        ids=["text", "negative", "huge"],
    )
    def test_bad_content_length_is_a_400_and_the_server_keeps_answering(
        self, tmp_path, declared
    ):
        """A Content-Length that is no integer, negative, or above the body
        cap is the client's fault — a typed 400, never ``internal`` — and
        the next request on a fresh connection is served as usual."""

        async def main():
            async with service(tmp_path) as (_svc, client):
                reader, writer = await asyncio.open_connection(client.host, client.port)
                writer.write(
                    b"POST /v1/jobs HTTP/1.1\r\n"
                    + f"Content-Length: {declared}\r\n\r\n".encode("ascii")
                )
                await writer.drain()
                response = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                head, _, body = response.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400 Bad Request")
                error = json.loads(body)["error"]
                assert error["type"] == "bad_request"
                assert "Content-Length" in error["detail"]
                assert await asyncio.to_thread(client.healthz) == {"status": "ok"}

        asyncio.run(main())

    def test_healthz_and_metrics(self, tmp_path):
        async def main():
            async with service(tmp_path) as (_svc, client):
                health = await asyncio.to_thread(client.healthz)
                assert health == {"status": "ok"}
                metrics = await asyncio.to_thread(client.metrics)
                stats = metrics["service"]
                assert stats["queued"] == 0
                assert stats["breaker"]["state"] == "closed"
                assert "rejected" in stats

        asyncio.run(main())

    def test_obs_enabled_round_trip(self, tmp_path):
        """With a live Observability the service must emit lifecycle
        events and expose the obs snapshot — the NULL default no-ops
        these paths, so they need their own coverage."""
        from repro.obs import Observability

        async def main():
            obs = Observability()
            config = ServiceConfig(state_dir=tmp_path, journal_fsync=False)
            svc = MeasurementService(config, obs=obs)
            await svc.start()
            client = ServiceClient.from_state_dir(tmp_path)
            try:
                job = await asyncio.to_thread(submit_sync, client, tenant="a")
                await asyncio.to_thread(
                    client.wait, job["spec"]["job_id"], 20
                )
                metrics = await asyncio.to_thread(client.metrics)
                assert "obs" in metrics
            finally:
                await svc.shutdown()
            kinds = [record[1] for record in obs.events.records()]
            assert "service.started" in kinds
            assert "service.job_finished" in kinds
            assert "service.stopped" in kinds

        asyncio.run(main())

    def test_cancel_queued_job(self, tmp_path):
        async def main():
            # One slot, occupied by a slow job: the second stays queued.
            async with service(tmp_path, max_concurrent=1) as (_svc, client):
                slow = await asyncio.to_thread(
                    submit_sync, client, tenant="a",
                    params={"steps": 100, "step_duration": 0.02},
                )
                queued = await asyncio.to_thread(
                    submit_sync, client, tenant="a"
                )
                job_id = queued["spec"]["job_id"]
                await asyncio.sleep(0.2)
                await asyncio.to_thread(client.cancel, job_id)
                record = await asyncio.to_thread(client.wait, job_id, 10)
                assert record["state"] == "cancelled"
                await asyncio.to_thread(
                    client.cancel, slow["spec"]["job_id"]
                )
                slow_final = await asyncio.to_thread(
                    client.wait, slow["spec"]["job_id"], 10
                )
                # Running job stopped cooperatively at a step boundary,
                # reporting a resumable partial.
                assert slow_final["state"] == "cancelled"
                assert slow_final["result"]["confidence"] == "partial"

        asyncio.run(main())


def _campaign_payload(**changes):
    from repro.core.parallel_exec import CampaignSpec
    from repro.netgen.ethereum import NetworkSpec

    payload = CampaignSpec(network=NetworkSpec(n_nodes=8, seed=1)).to_dict()
    payload.update(changes)
    return payload


MALFORMED_CAMPAIGNS = {
    "unknown key": {"campaign": _campaign_payload(gremlin=1)},
    "missing network": {
        "campaign": {
            k: v for k, v in _campaign_payload().items() if k != "network"
        }
    },
    "behaviors summing past 1": {
        "campaign": _campaign_payload(
            behaviors={"censor": 0.7, "spoof_relay": 0.7}
        )
    },
    "no campaign at all": {"workers": 1},
    "workers not a number": {"campaign": _campaign_payload(), "workers": "many"},
}


class TestMeasureJobs:
    @pytest.mark.parametrize("shape", sorted(MALFORMED_CAMPAIGNS))
    def test_malformed_campaign_is_a_400_not_a_worker_failure(
        self, tmp_path, shape
    ):
        """A bad campaign payload is the client's error: refused at submit
        with nothing journaled or run — not retried against the worker-pool
        breaker, where two of them could shut every tenant out."""

        async def main():
            async with service(tmp_path, breaker_failure_threshold=2) as (
                svc,
                client,
            ):
                for _ in range(3):
                    with pytest.raises(ServiceClientError) as excinfo:
                        await asyncio.to_thread(
                            client.submit, "mallory", "measure",
                            MALFORMED_CAMPAIGNS[shape],
                        )
                    assert excinfo.value.status == 400
                    assert excinfo.value.error_type == "bad_request"
                assert svc.records == {}
                assert svc.journal.appends_total == 0
                assert svc.breaker.state == "closed"
                assert svc.breaker.trips_total == 0
                assert svc.admission.admitted_total == 0
                # The pool still serves everybody else.
                job = await asyncio.to_thread(submit_sync, client, tenant="alice")
                done = await asyncio.to_thread(
                    client.wait, job["spec"]["job_id"], 20
                )
                assert done["state"] == "done"

        asyncio.run(main())

    def test_full_zoo_job_returns_the_librarys_edges(self, tmp_path):
        """One spec, every executor: the payload the sharded runner takes is
        the payload a service job carries."""
        from repro.core.parallel_exec import run_campaign
        from repro.io import measurement_to_dict
        from tests.core.test_parallel_exec import full_zoo_spec

        spec = full_zoo_spec()

        async def main():
            async with service(tmp_path) as (_svc, client):
                job = await asyncio.to_thread(
                    client.submit, "alice", "measure",
                    {"campaign": spec.to_dict(), "workers": 1},
                )
                return await asyncio.to_thread(
                    client.wait, job["spec"]["job_id"], 120
                )

        done = asyncio.run(main())
        assert done["state"] == "done"
        assert done["result"]["measurement"] == measurement_to_dict(
            run_campaign(spec, workers=1)
        )


def _long_campaign(seed: int):
    """A measure job of ~1.5 s in eight shards: long enough to stop mid-run."""
    from repro.core.parallel_exec import CampaignSpec
    from repro.netgen.ethereum import NetworkSpec

    return CampaignSpec(
        network=NetworkSpec(n_nodes=32, seed=seed), n_shards=8, repeats=2
    )


def _library(spec) -> dict:
    from repro.core.parallel_exec import run_campaign
    from repro.io import measurement_to_dict

    return measurement_to_dict(run_campaign(spec))


def _measure(spec) -> dict:
    return {"campaign": spec.to_dict(), "workers": 1}


def _completed_shards(state_dir, job_id) -> int:
    try:
        checkpoint = json.loads(
            (Path(state_dir) / f"job-{job_id}.ckpt.json").read_text(encoding="utf-8")
        )
    except (FileNotFoundError, ValueError):
        return 0
    return len(checkpoint["completed"])


async def _until_shards(state_dir, job_id, count=1, timeout=60.0) -> None:
    deadline = time.monotonic() + timeout
    while _completed_shards(state_dir, job_id) < count:
        assert time.monotonic() < deadline, f"{job_id}: no shard checkpointed"
        await asyncio.sleep(0.01)


class TestWorkerProcesses:
    """Job attempts run on the service's forked worker pool."""

    def test_concurrent_jobs_run_in_different_worker_processes(self, tmp_path):
        async def main():
            async with service(tmp_path, max_concurrent=2) as (_svc, client):
                jobs = [
                    await asyncio.to_thread(
                        submit_sync, client, tenant=tenant,
                        params={"steps": 5, "step_duration": 0.05},
                    )
                    for tenant in ("a", "b")
                ]
                return [
                    await asyncio.to_thread(client.wait, job["spec"]["job_id"], 30)
                    for job in jobs
                ]

        records = asyncio.run(main())
        pids = {record["result"]["worker_pid"] for record in records}
        assert len(pids) == 2
        assert os.getpid() not in pids

    def test_a_worker_killed_by_the_os_costs_the_pool_not_the_service(
        self, tmp_path
    ):
        """A dead worker breaks a process pool for good; the next attempt
        runs on a freshly forked one."""

        async def main():
            async with service(tmp_path) as (_svc, client):
                first = await asyncio.to_thread(submit_sync, client, tenant="a")
                first = await asyncio.to_thread(client.wait, first["spec"]["job_id"], 30)
                os.kill(first["result"]["worker_pid"], signal.SIGKILL)
                second = await asyncio.to_thread(submit_sync, client, tenant="a")
                return await asyncio.to_thread(client.wait, second["spec"]["job_id"], 30)

        record = asyncio.run(main())
        assert record["state"] == "done", record

    def test_two_measure_jobs_run_at_once_and_return_the_librarys_results(
        self, tmp_path
    ):
        """Their run windows overlap, so they ran in two worker processes
        (a worker runs one attempt at a time); each result is the one the
        library computes in this process."""
        from repro.core.parallel_exec import CampaignSpec
        from repro.netgen.ethereum import NetworkSpec

        specs = [
            CampaignSpec(network=NetworkSpec(n_nodes=24, seed=seed), n_shards=4)
            for seed in (3, 4)
        ]

        async def main():
            async with service(tmp_path, max_concurrent=2) as (_svc, client):
                jobs = [
                    await asyncio.to_thread(
                        client.submit, tenant, "measure", _measure(spec)
                    )
                    for tenant, spec in zip(("a", "b"), specs)
                ]
                return [
                    await asyncio.to_thread(client.wait, job["spec"]["job_id"], 120)
                    for job in jobs
                ]

        records = asyncio.run(main())
        assert [record["state"] for record in records] == ["done", "done"]
        assert max(r["started_at"] for r in records) < min(
            r["finished_at"] for r in records
        )
        for record, spec in zip(records, specs):
            assert record["result"]["measurement"] == _library(spec)

    def test_client_cancel_of_a_running_measure_job_stops_at_a_shard_boundary(
        self, tmp_path
    ):
        async def main():
            async with service(tmp_path) as (_svc, client):
                await asyncio.to_thread(
                    client.submit, "alice", "measure",
                    _measure(_long_campaign(5)), job_id="alice-cancel",
                )
                await _until_shards(tmp_path, "alice-cancel")
                await asyncio.to_thread(client.cancel, "alice-cancel")
                return await asyncio.to_thread(client.wait, "alice-cancel", 60)

        record = asyncio.run(main())
        assert record["state"] == "cancelled"
        assert record["error"]["type"] == "job_cancelled"
        assert record["partial"]
        result = record["result"]
        assert result["confidence"] == "partial"
        assert 1 <= result["completed_shards"] < result["n_shards"] == 8
        assert not (tmp_path / "job-alice-cancel.stop").exists()

    def test_drain_requeues_and_the_next_incarnation_resumes_to_the_librarys_result(
        self, tmp_path
    ):
        spec = _long_campaign(6)

        async def main():
            async with service(tmp_path) as (svc, client):
                await asyncio.to_thread(
                    client.submit, "alice", "measure", _measure(spec),
                    job_id="alice-drain",
                )
                await _until_shards(tmp_path, "alice-drain")
                await svc.shutdown()  # the SIGTERM handler calls this
            drained = _completed_shards(tmp_path, "alice-drain")
            async with service(tmp_path) as (svc2, client2):
                assert svc2.recovered_jobs == 1
                return drained, await asyncio.to_thread(
                    client2.wait, "alice-drain", 120
                )

        drained, record = asyncio.run(main())
        assert 1 <= drained < 8  # stopped mid-job, at a shard boundary
        assert record["state"] == "done" and record["recovered"]
        assert record["result"]["measurement"] == _library(spec)

    def test_deadline_expiring_in_the_worker_times_out_with_a_partial(
        self, tmp_path
    ):
        """Two shards of the job are on disk (an earlier incarnation ran
        them); the worker's first heartbeat finds the deadline passed and
        the partial result carries those two shards."""
        from repro.core.parallel_exec import ParallelCheckpoint, run_campaign

        spec = _long_campaign(7)
        path = tmp_path / "job-alice-late.ckpt.json"
        run_campaign(spec, checkpoint_path=path)
        checkpoint = ParallelCheckpoint.load(path)
        checkpoint.completed = {i: checkpoint.completed[i] for i in (0, 1)}
        checkpoint.save(path)

        async def main():
            async with service(tmp_path) as (_svc, client):
                await asyncio.to_thread(
                    client.submit, "alice", "measure", _measure(spec),
                    deadline=0.001, job_id="alice-late",
                )
                return await asyncio.to_thread(client.wait, "alice-late", 60)

        record = asyncio.run(main())
        assert record["state"] == "timed_out"
        assert record["error"]["type"] == "job_timeout"
        assert record["partial"]
        assert record["result"]["completed_shards"] == 2
        assert record["result"]["confidence"] == "partial"

    def test_drain_raised_in_the_worker_reaches_run_job_as_a_requeue(self, tmp_path):
        """The worker raises ``JobCancelled(requeue=True)`` at its first
        heartbeat; it crosses the pool as itself, so ``_run_job`` puts the
        job back at the head of the queue instead of cancelling it."""

        async def main():
            config = ServiceConfig(state_dir=tmp_path, journal_fsync=False)
            svc = MeasurementService(config)
            await svc.start()
            svc._slots = 0  # the test dispatches by hand
            try:
                record, _ = svc.submit(
                    {"tenant": "a", "kind": "synthetic",
                     "params": {"steps": 3}, "job_id": "a-requeue"}
                )
                popped = svc.scheduler.pop(svc._running)
                svc._admit_for_run(popped)
                svc.supervisor.request_stop(popped.job_id, "drain")
                await svc._run_job(popped)
                return record, svc.scheduler.queued_total()
            finally:
                await svc.shutdown()

        record, queued = asyncio.run(main())
        assert record.state == "queued"
        assert record.attempts == 1 and record.error is None
        assert queued == 1
        assert not (tmp_path / "job-a-requeue.steps.json").exists()


class TestOverloadShedding:
    def test_rate_quota_sheds_with_typed_429(self, tmp_path):
        async def main():
            quota = TenantQuota(jobs_per_second=0.001, job_burst=2.0)
            async with service(tmp_path, default_quota=quota) as (_svc, client):
                for _ in range(2):
                    await asyncio.to_thread(submit_sync, client, tenant="a")
                with pytest.raises(ServiceClientError) as excinfo:
                    await asyncio.to_thread(submit_sync, client, tenant="a")
                assert excinfo.value.status == 429
                assert excinfo.value.error_type == "quota_exceeded"
                assert excinfo.value.retry_after > 0
                # Another tenant is unaffected.
                await asyncio.to_thread(submit_sync, client, tenant="b")
                stats = (await asyncio.to_thread(client.metrics))["service"]
                assert stats["rejected"] == {"tenant_rate": 1}

        asyncio.run(main())

    def test_bounded_tenant_queue_sheds_queue_full(self, tmp_path):
        async def main():
            quota = TenantQuota(
                jobs_per_second=1000.0, job_burst=1000.0, max_queued=1
            )
            async with service(
                tmp_path, default_quota=quota, max_concurrent=1,
                global_jobs_per_second=1000.0, global_job_burst=1000.0,
            ) as (_svc, client):
                await asyncio.to_thread(
                    submit_sync, client, tenant="a",
                    params={"steps": 100, "step_duration": 0.02},
                )
                await asyncio.sleep(0.2)  # first job now running
                await asyncio.to_thread(submit_sync, client, tenant="a")
                with pytest.raises(ServiceClientError) as excinfo:
                    await asyncio.to_thread(submit_sync, client, tenant="a")
                assert excinfo.value.error_type == "queue_full"
                assert excinfo.value.status == 429

        asyncio.run(main())

    def test_draining_service_rejects_submissions(self, tmp_path):
        async def main():
            async with service(tmp_path) as (svc, client):
                svc.request_shutdown()
                with pytest.raises(ServiceClientError) as excinfo:
                    await asyncio.to_thread(submit_sync, client, tenant="a")
                assert excinfo.value.status == 503
                health = await asyncio.to_thread(client.healthz)
                assert health == {"status": "draining"}

        asyncio.run(main())


class TestFairness:
    def test_honest_tenant_not_starved_by_abusive_one(self, tmp_path):
        async def main():
            quota = TenantQuota(
                jobs_per_second=1000.0, job_burst=1000.0, max_queued=100
            )
            async with service(
                tmp_path, default_quota=quota, max_concurrent=1,
                global_jobs_per_second=1000.0, global_job_burst=1000.0,
            ) as (_svc, client):
                abuser_ids = []
                for _ in range(10):
                    job = await asyncio.to_thread(
                        submit_sync, client, tenant="abuser",
                        params={"steps": 1, "step_duration": 0.02},
                    )
                    abuser_ids.append(job["spec"]["job_id"])
                honest = await asyncio.to_thread(
                    submit_sync, client, tenant="honest",
                    params={"steps": 1, "step_duration": 0.02},
                )
                done = await asyncio.to_thread(
                    client.wait, honest["spec"]["job_id"], 30
                )
                abuser_records = [
                    await asyncio.to_thread(client.job, job_id)
                    for job_id in abuser_ids
                ]
                finished_before_honest = sum(
                    1
                    for record in abuser_records
                    if record["finished_at"] is not None
                    and record["finished_at"] <= done["finished_at"]
                )
                # Round-robin: the honest job (submitted 11th) is served
                # after at most a rotation's worth of abusive jobs, not
                # after all ten.
                assert finished_before_honest <= 3

        asyncio.run(main())


class TestCrashRecovery:
    def test_sigkill_recovers_every_journaled_job(self, tmp_path):
        async def main():
            # Incarnation 1: one job completes, two are queued when the
            # process dies (dispatch frozen to keep them queued).
            async with service(tmp_path) as (svc, client):
                done_job = await asyncio.to_thread(
                    submit_sync, client, tenant="a"
                )
                await asyncio.to_thread(
                    client.wait, done_job["spec"]["job_id"], 20
                )
                svc._slots = 0  # freeze dispatch: next submissions stay queued
                queued_ids = []
                for n in range(2):
                    job = await asyncio.to_thread(
                        submit_sync, client, tenant="a", job_id=f"a-q{n}"
                    )
                    queued_ids.append(job["spec"]["job_id"])
                await hard_kill(svc)

            # Incarnation 2: replay recovers both queued jobs, keeps the
            # finished result, and duplicates nothing.
            async with service(tmp_path) as (svc2, client2):
                assert svc2.recovered_jobs == 2
                for job_id in queued_ids:
                    record = await asyncio.to_thread(client2.wait, job_id, 20)
                    assert record["state"] == "done"
                    assert record["recovered"]
                old = await asyncio.to_thread(
                    client2.job, done_job["spec"]["job_id"]
                )
                assert old["state"] == "done"
                jobs = await asyncio.to_thread(client2.jobs)
                assert len(jobs) == 3  # no duplicated, no lost jobs

        asyncio.run(main())

    def test_sigterm_drains_running_job_to_checkpoint(self, tmp_path):
        async def main():
            async with service(tmp_path) as (svc, client):
                job = await asyncio.to_thread(
                    submit_sync, client, tenant="a", job_id="a-drain",
                    params={"steps": 200, "step_duration": 0.02},
                )
                await asyncio.sleep(0.4)  # several steps checkpoint
                await svc.shutdown()  # the SIGTERM handler calls this

            async with service(tmp_path) as (svc2, client2):
                assert svc2.recovered_jobs == 1
                record = await asyncio.to_thread(
                    client2.job, job["spec"]["job_id"]
                )
                assert record["recovered"]
                # Resumes from the drain checkpoint, not from scratch.
                final = await asyncio.to_thread(
                    client2.wait, job["spec"]["job_id"], 60
                )
                assert final["state"] == "done"
                assert final["result"]["resumed_from"] > 0

        asyncio.run(main())


def _serve(state_dir) -> subprocess.Popen:
    """``cli serve`` as its own process, found through its endpoint file."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )}
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--state-dir", str(state_dir), "--no-fsync"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60
    while not (Path(state_dir) / "endpoint.json").exists():
        assert process.poll() is None, "cli serve exited"
        assert time.monotonic() < deadline, "cli serve never bound"
        time.sleep(0.02)
    return process


def _stat(pid: int):
    """``(state, ppid)`` from ``/proc``, or None once the pid is gone."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return fields[0], int(fields[1])


def _children(pid: int):
    return [
        int(entry.name)
        for entry in Path("/proc").iterdir()
        if entry.name.isdigit() and (_stat(int(entry.name)) or ("", 0))[1] == pid
    ]


def _running(pid: int) -> bool:
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"  # a zombie has exited


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigkilled_cli_serve_leaves_no_worker_and_its_restart_finishes_every_job(
    tmp_path,
):
    specs = {"a-kill0": _long_campaign(11), "a-kill1": _long_campaign(12)}
    serve = _serve(tmp_path)
    workers = []
    try:
        client = ServiceClient.from_state_dir(tmp_path)
        for job_id, spec in specs.items():
            client.submit("a", "measure", _measure(spec), job_id=job_id)
        asyncio.run(_until_shards(tmp_path, "a-kill0"))
        workers = _children(serve.pid)
        assert len(workers) == 2  # the pool: max_concurrent processes
        serve.send_signal(signal.SIGKILL)
        serve.wait(timeout=30)
        deadline = time.monotonic() + 30
        while any(_running(pid) for pid in workers):
            assert time.monotonic() < deadline, "a worker outlived its service"
            time.sleep(0.02)
    finally:
        if serve.poll() is None:
            serve.kill()
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
    (tmp_path / "endpoint.json").unlink()  # the dead incarnation's

    restarted = _serve(tmp_path)
    try:
        client = ServiceClient.from_state_dir(tmp_path)
        records = {job_id: client.wait(job_id, 120) for job_id in specs}
        listed = client.jobs()
    finally:
        restarted.send_signal(signal.SIGTERM)
        restarted.wait(timeout=60)
    assert len(listed) == len(specs)
    for job_id, spec in specs.items():
        assert records[job_id]["state"] == "done", records[job_id]
        assert records[job_id]["recovered"]
        assert records[job_id]["result"]["measurement"] == _library(spec)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigkilled_sharded_campaign_leaves_no_shard_worker():
    """The shard pool of ``run_campaign(workers=2)`` — a ``measure
    --workers 2`` run, or a service job's own pool — dies with its driver
    instead of blocking on its task queue for good."""
    src = str(Path(repro.__file__).resolve().parents[1])
    driver = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "measure", "--nodes", "32",
         "--seed", "3", "--repeats", "2", "--workers", "2"],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2:
            assert driver.poll() is None, "the campaign ended before forking"
            assert time.monotonic() < deadline, "no shard pool forked"
            workers = _children(driver.pid)
            time.sleep(0.01)
        driver.send_signal(signal.SIGKILL)
        driver.wait(timeout=30)
        deadline = time.monotonic() + 30
        while any(_running(pid) for pid in workers):
            assert time.monotonic() < deadline, "a shard worker outlived its driver"
            time.sleep(0.02)
    finally:
        if driver.poll() is None:
            driver.kill()
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigkilled_cli_serve_leaves_no_shard_worker_of_its_jobs(tmp_path):
    """A ``"workers": 2`` measure job forks its shard pool from its service
    worker. SIGKILL the service while those shards run: every process below
    it dies, two levels down, because each is killed with its parent."""
    serve = _serve(tmp_path)
    family = []
    try:
        client = ServiceClient.from_state_dir(tmp_path)
        client.submit(
            "a", "measure",
            {"campaign": _long_campaign(13).to_dict(), "workers": 2},
            job_id="a-nested",
        )
        deadline = time.monotonic() + 60
        shard_workers = []
        while len(shard_workers) < 2:
            assert serve.poll() is None, "cli serve exited"
            assert time.monotonic() < deadline, "no shard pool forked"
            shard_workers = [
                pid for worker in _children(serve.pid) for pid in _children(worker)
            ]
            time.sleep(0.01)
        family = _children(serve.pid) + shard_workers
        serve.send_signal(signal.SIGKILL)
        serve.wait(timeout=30)
        deadline = time.monotonic() + 30
        while any(_running(pid) for pid in family):
            assert time.monotonic() < deadline, "a process outlived its service"
            time.sleep(0.02)
    finally:
        if serve.poll() is None:
            serve.kill()
        for pid in family:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


class TestDispatchBookkeeping:
    def test_single_dispatch_pass_respects_tenant_running_cap(self, tmp_path):
        """Regression: the running count must be visible to scheduler.pop
        within one dispatch pass, not only once each _run_job task has
        started — otherwise one tenant's burst fills every slot."""

        async def main():
            quota = TenantQuota(
                jobs_per_second=1000.0, job_burst=1000.0, max_queued=100
            )
            async with service(
                tmp_path, max_concurrent=4, max_running_per_tenant=1,
                default_quota=quota,
                global_jobs_per_second=1000.0, global_job_burst=1000.0,
            ) as (svc, client):
                svc._slots = 0  # freeze dispatch so all three jobs queue up
                for n in range(3):
                    await asyncio.to_thread(
                        submit_sync, client, tenant="a", job_id=f"a-{n}",
                        params={"steps": 20, "step_duration": 0.01},
                    )
                svc._slots = 4  # thaw: one pass now sees three queued jobs
                svc._wake.set()
                peak = 0
                for _ in range(20):
                    await asyncio.sleep(0.02)
                    peak = max(peak, svc._running.get("a", 0))
                assert peak <= 1
                for n in range(3):
                    record = await asyncio.to_thread(client.wait, f"a-{n}", 30)
                    assert record["state"] == "done"

        asyncio.run(main())

    def test_cancel_admitted_job_is_honored(self, tmp_path):
        """Regression: a cancel landing between scheduler.pop and the
        _run_job task starting must not be silently dropped."""

        async def main():
            config = ServiceConfig(state_dir=tmp_path, journal_fsync=False)
            svc = MeasurementService(config)
            record, created = svc.submit(
                {
                    "tenant": "a",
                    "kind": "synthetic",
                    "params": {"steps": 3},
                    "job_id": "a-admitted",
                }
            )
            assert created
            # Emulate the dispatcher's synchronous pop -> admit sequence.
            popped = svc.scheduler.pop(svc._running)
            assert popped is record
            assert popped.state == "admitted"
            svc._admit_for_run(popped)
            svc.cancel("a-admitted")  # lands while ADMITTED
            assert (tmp_path / "job-a-admitted.stop").read_text() == "cancel"
            try:
                await svc._run_job(popped)
            finally:
                await svc.shutdown()  # closes the pool the attempt forked
            assert record.state == "cancelled"
            assert record.error["type"] == "job_cancelled"
            assert not (tmp_path / "job-a-admitted.stop").exists()

        asyncio.run(main())

    def test_cancel_of_an_admitted_job_survives_a_breaker_bounce(self, tmp_path):
        """Regression: the breaker opens between pop and run, so the job is
        bounced back to the queue before any attempt reads its stop file;
        the cancel it was acknowledged must end it instead of the job
        running to completion later."""

        async def main():
            config = ServiceConfig(state_dir=tmp_path, journal_fsync=False)
            svc = MeasurementService(config)
            record, _ = svc.submit(
                {"tenant": "a", "kind": "synthetic", "params": {"steps": 3},
                 "job_id": "a-bounced"}
            )
            popped = svc.scheduler.pop(svc._running)
            svc._admit_for_run(popped)
            svc.cancel("a-bounced")  # 202 to the client
            for _ in range(config.breaker_failure_threshold):
                svc.breaker.record_failure()
            try:
                await svc._run_job(popped)
            finally:
                await svc.shutdown()
            return record, svc.scheduler.queued_total()

        record, queued = asyncio.run(main())
        assert record.state == "cancelled"
        assert record.error["type"] == "job_cancelled"
        assert record.attempts == 0
        assert queued == 0
        assert not (tmp_path / "job-a-bounced.stop").exists()

    def test_a_stale_stop_file_is_removed_when_the_job_is_popped(self, tmp_path):
        """A dead incarnation's cancel is not this run's."""

        async def main():
            async with service(tmp_path) as (svc, client):
                svc._slots = 0  # freeze dispatch
                await asyncio.to_thread(submit_sync, client, tenant="a", job_id="a-stale")
                (tmp_path / "job-a-stale.stop").write_text("cancel", encoding="utf-8")
                svc._slots = 1
                svc._wake.set()
                return await asyncio.to_thread(client.wait, "a-stale", 30)

        record = asyncio.run(main())
        assert record["state"] == "done", record


class TestRetention:
    def test_terminal_records_and_journal_stay_bounded(self, tmp_path):
        async def main():
            async with service(
                tmp_path,
                max_terminal_records_per_tenant=2,
                journal_compact_interval=6,
            ) as (svc, client):
                for n in range(6):
                    await asyncio.to_thread(
                        submit_sync, client, tenant="a", job_id=f"a-{n}"
                    )
                    await asyncio.to_thread(client.wait, f"a-{n}", 20)
                stats = (await asyncio.to_thread(client.metrics))["service"]
                # Only the two newest terminal records survive.
                assert stats["jobs_total"] == 2
                assert stats["evicted_records_total"] == 4
                assert stats["journal"]["compactions_total"] >= 1
                jobs = await asyncio.to_thread(client.jobs)
                assert sorted(j["job_id"] for j in jobs) == ["a-4", "a-5"]
                # An evicted job id reads as 404 now.
                with pytest.raises(ServiceClientError) as excinfo:
                    await asyncio.to_thread(client.job, "a-0")
                assert excinfo.value.status == 404
                # The journal itself was compacted to the survivors.
                lines = [
                    line
                    for line in svc.journal_path.read_text(
                        encoding="utf-8"
                    ).splitlines()
                    if line.strip()
                ]
                assert len(lines) <= 2 + 3 * 2  # survivors + a few appends

        asyncio.run(main())


class TestDeadlines:
    def test_deadline_times_out_with_partial_result(self, tmp_path):
        async def main():
            async with service(tmp_path) as (_svc, client):
                job = await asyncio.to_thread(
                    submit_sync, client, tenant="a",
                    params={"steps": 1000, "step_duration": 0.01},
                    deadline=0.5,
                )
                record = await asyncio.to_thread(
                    client.wait, job["spec"]["job_id"], 30
                )
                assert record["state"] == "timed_out"
                assert record["partial"]
                assert record["result"]["confidence"] == "partial"
                assert 0 < record["result"]["completed_steps"] < 1000
                assert record["error"]["type"] == "job_timeout"

        asyncio.run(main())
