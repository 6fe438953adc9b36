"""Supervised execution: circuit breaker, retries, deadlines, partials.

The attempt loop is driven on a thread executor so a fake clock can stand
in for wall time; it is the same submit-and-wait code the service runs on
its worker processes.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import CircuitOpen
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    TIMED_OUT,
    JobRecord,
    JobSpec,
)
from repro.resilience import CircuitBreaker
from repro.service.supervisor import JobSupervisor


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _job(tenant="t", params=None, **spec_kwargs) -> JobRecord:
    spec = JobSpec(
        tenant=tenant, kind="synthetic", params=params or {}, **spec_kwargs
    )
    return JobRecord(spec=spec)


ATTEMPTS = ThreadPoolExecutor(max_workers=2, thread_name_prefix="attempt")


def _supervisor(tmp_path, clock=None, **kwargs):
    sleeps = []
    supervisor = JobSupervisor(
        state_dir=tmp_path,
        executor=ATTEMPTS,
        clock=clock or FakeClock(),
        sleep=sleeps.append,
        **kwargs,
    )
    return supervisor, sleeps


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown=10.0, clock=clock)
        assert breaker.allow()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(10.0)
        assert breaker.trips_total == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_admits_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()        # the probe
        assert not breaker.allow()    # but only one
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips_total == 2

    def test_release_probe_reopens_the_half_open_slot(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()       # probe claimed
        assert not breaker.allow()   # slot taken
        breaker.release_probe()      # probe ended without a verdict
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()       # next job may probe

    def test_can_attempt_does_not_claim_the_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0, clock=clock)
        assert breaker.can_attempt()          # CLOSED
        breaker.record_failure()
        assert not breaker.can_attempt()      # OPEN
        clock.advance(5.0)
        assert breaker.can_attempt()          # HALF_OPEN, slot free...
        assert breaker.can_attempt()          # ...and repeated checks
        assert breaker.allow()                # don't consume the probe
        assert not breaker.can_attempt()      # probe now in flight


class TestBackoff:
    def test_schedule_is_deterministic_per_job(self, tmp_path):
        supervisor, _ = _supervisor(tmp_path)
        first = [supervisor.backoff_delay("job-x", n) for n in (1, 2, 3)]
        second = [supervisor.backoff_delay("job-x", n) for n in (1, 2, 3)]
        assert first == second
        # Different jobs jitter differently.
        assert first != [supervisor.backoff_delay("job-y", n) for n in (1, 2, 3)]

    def test_exponential_envelope_with_bounded_jitter(self, tmp_path):
        supervisor, _ = _supervisor(tmp_path)
        for attempt in (1, 2, 3, 4):
            base = min(30.0, 0.2 * (2.0 ** (attempt - 1)))
            delay = supervisor.backoff_delay("j", attempt)
            assert base <= delay <= base * 1.25

    def test_backoff_caps_at_maximum(self, tmp_path):
        supervisor, _ = _supervisor(tmp_path, backoff_max=1.0)
        assert supervisor.backoff_delay("j", 50) <= 1.25


class TestRunLifecycle:
    def test_success_first_try(self, tmp_path):
        supervisor, sleeps = _supervisor(tmp_path)
        record = _job(params={"steps": 3})
        supervisor.run(record)
        assert record.state == DONE
        assert record.attempts == 1
        assert record.result["steps"] == 3
        assert not record.partial
        assert sleeps == []

    def test_retries_until_success_with_deterministic_backoff(self, tmp_path):
        supervisor, sleeps = _supervisor(tmp_path)
        record = _job(params={"steps": 1, "fail_attempts": 2}, max_attempts=5)
        supervisor.run(record)
        assert record.state == DONE
        assert record.attempts == 3
        assert sleeps == [
            supervisor.backoff_delay(record.job_id, 1),
            supervisor.backoff_delay(record.job_id, 2),
        ]
        assert supervisor.retries_total == 2

    def test_attempts_exhausted_fails_with_typed_error(self, tmp_path):
        supervisor, sleeps = _supervisor(tmp_path)
        record = _job(params={"steps": 1, "fail_attempts": 99}, max_attempts=2)
        supervisor.run(record)
        assert record.state == FAILED
        assert record.attempts == 2
        assert record.error["type"] == "attempts_exhausted"
        assert len(sleeps) == 1  # max_attempts=2 means one backoff wait

    def test_completed_job_cleans_its_checkpoints(self, tmp_path):
        supervisor, _ = _supervisor(tmp_path)
        record = _job(params={"steps": 2})
        supervisor.run(record)
        assert not list(tmp_path.glob(f"job-{record.job_id}*"))

    def test_unknown_kind_fails_immediately(self, tmp_path):
        supervisor, _ = _supervisor(tmp_path)
        record = JobRecord(spec=JobSpec(tenant="t", kind="measure"))
        record.spec.kind = "no-such-kind"  # bypass registry-aware callers
        supervisor.run(record)
        assert record.state == FAILED
        assert record.error["type"] == "unknown_kind"


class TestDeadlines:
    def test_expired_deadline_times_out_with_partial(self, tmp_path):
        clock = FakeClock(100.0)
        supervisor, _ = _supervisor(tmp_path, clock=clock)
        record = _job(params={"steps": 10}, deadline=5.0)
        record.submitted_at = 0.0  # deadline passed long ago
        # A previous incarnation completed 4 steps: the timeout must
        # surface them as a confidence-labeled partial result.
        (tmp_path / f"job-{record.job_id}.steps.json").write_text(
            json.dumps({"completed_steps": 4}), encoding="utf-8"
        )
        supervisor.run(record)
        assert record.state == TIMED_OUT
        assert record.error["type"] == "job_timeout"
        assert record.partial
        assert record.result["confidence"] == "partial"
        assert record.result["completed_steps"] == 4
        assert record.result["resumable"]

    def test_backoff_that_would_cross_deadline_times_out(self, tmp_path):
        clock = FakeClock(0.0)
        supervisor, sleeps = _supervisor(
            tmp_path, clock=clock, backoff_base=100.0, backoff_max=100.0
        )
        record = _job(
            params={"steps": 1, "fail_attempts": 5},
            deadline=50.0,
            max_attempts=5,
        )
        record.submitted_at = 0.0
        supervisor.run(record)
        # Retrying would sleep past the deadline: time out now rather
        # than waste the wait.
        assert record.state == TIMED_OUT
        assert sleeps == []


class TestCancellation:
    def test_client_cancel_is_terminal(self, tmp_path):
        supervisor, _ = _supervisor(tmp_path)
        record = _job(params={"steps": 3})
        supervisor.request_stop(record.job_id, "cancel")
        supervisor.run(record)
        assert record.state == CANCELLED
        assert record.error["type"] == "job_cancelled"

    def test_drain_cancel_propagates_for_requeue(self, tmp_path):
        from repro.errors import JobCancelled

        supervisor, _ = _supervisor(tmp_path)
        record = _job(params={"steps": 3})
        supervisor.request_stop(record.job_id, "drain")
        with pytest.raises(JobCancelled) as excinfo:
            supervisor.run(record)
        assert excinfo.value.requeue
        assert not record.terminal

    def test_only_the_first_stop_reason_counts(self, tmp_path):
        """A drain after a client cancel must not requeue the job."""
        supervisor, _ = _supervisor(tmp_path)
        record = _job(params={"steps": 3})
        supervisor.request_stop(record.job_id, "cancel")
        supervisor.request_stop(record.job_id, "drain")
        supervisor.run(record)
        assert record.state == CANCELLED
        assert supervisor.clear_stop(record.job_id) == "cancel"
        assert supervisor.clear_stop(record.job_id) is None


class TestBreakerIntegration:
    def test_open_breaker_raises_circuit_open(self, tmp_path):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=30.0, clock=clock)
        breaker.record_failure()
        supervisor, _ = _supervisor(tmp_path, breaker=breaker)
        record = _job(params={"steps": 1})
        with pytest.raises(CircuitOpen) as excinfo:
            supervisor.run(record)
        assert excinfo.value.retry_after > 0
        assert not record.terminal

    def test_failures_feed_the_breaker(self, tmp_path):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, cooldown=30.0, clock=clock)
        supervisor, _ = _supervisor(tmp_path, breaker=breaker)
        record = _job(params={"steps": 1, "fail_attempts": 99}, max_attempts=2)
        supervisor.run(record)
        assert record.state == FAILED
        assert breaker.state == CircuitBreaker.OPEN

    def _half_open_breaker(self, clock):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        return breaker

    def test_timed_out_probe_does_not_wedge_the_breaker(self, tmp_path):
        """Regression: a HALF_OPEN probe job ending via JobTimeout must
        release its probe slot — else allow() is False for every job
        forever and the service stops executing until restart."""
        clock = FakeClock(100.0)
        breaker = self._half_open_breaker(clock)
        supervisor, _ = _supervisor(tmp_path, clock=clock, breaker=breaker)
        record = _job(params={"steps": 10}, deadline=5.0)
        record.submitted_at = 0.0  # deadline long past: first heartbeat raises
        supervisor.run(record)
        assert record.state == TIMED_OUT
        assert breaker.can_attempt()
        # The pool itself is fine: the next job probes and closes it.
        healthy = _job(params={"steps": 1})
        supervisor.run(healthy)
        assert healthy.state == DONE
        assert breaker.state == CircuitBreaker.CLOSED

    def test_cancelled_probe_does_not_wedge_the_breaker(self, tmp_path):
        clock = FakeClock(100.0)
        breaker = self._half_open_breaker(clock)
        supervisor, _ = _supervisor(tmp_path, clock=clock, breaker=breaker)
        record = _job(params={"steps": 3})
        supervisor.request_stop(record.job_id, "cancel")
        supervisor.run(record)
        assert record.state == CANCELLED
        assert breaker.can_attempt()

    def test_drained_probe_does_not_wedge_the_breaker(self, tmp_path):
        from repro.errors import JobCancelled

        clock = FakeClock(100.0)
        breaker = self._half_open_breaker(clock)
        supervisor, _ = _supervisor(tmp_path, clock=clock, breaker=breaker)
        record = _job(params={"steps": 3})
        supervisor.request_stop(record.job_id, "drain")
        with pytest.raises(JobCancelled):
            supervisor.run(record)
        assert breaker.can_attempt()

