"""Worker-crash resilience of the sharded executor.

Covers the pool retry loop in :func:`repro.core.parallel_exec.run_campaign`:
the deterministic exponential backoff schedule, recovery when a crashed
shard succeeds on retry, the in-process fallback once the retry budget is
exhausted, and checkpoint-verified resume when the driver dies mid-retry.

Crash injection is a monkeypatched ``_worker_run_shard``: the pool uses a
fork multiprocessing context, so worker processes inherit the patched
module attribute, and cross-process coordination happens through
``O_CREAT|O_EXCL`` marker files in a directory passed via the environment
(both survive the fork).
"""

import os
from pathlib import Path

import pytest

import repro.core.parallel_exec as parallel_exec
from repro.core.parallel_exec import (
    CampaignSpec,
    ParallelCheckpoint,
    run_campaign,
)
from repro.netgen.ethereum import NetworkSpec

_REAL_WORKER = parallel_exec._worker_run_shard
_ENV_DIR = "TOPOSHOT_RETRY_TEST_DIR"


def _spec(**overrides):
    defaults = dict(
        network=NetworkSpec(n_nodes=10, seed=7),
        prefill=False,
        n_shards=4,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def _always_crash(*_args, **_kwargs):
    raise RuntimeError("injected worker crash")


def _crash_once_per_shard(payload, fingerprint, index, *rest):
    """First execution of each shard crashes; retries run the real worker.

    ``O_CREAT|O_EXCL`` makes the crashed-marker claim atomic across the
    pool's processes; the run log appends one byte per real execution so
    tests can assert a shard ran exactly N times.
    """
    base = Path(os.environ[_ENV_DIR])
    try:
        fd = os.open(base / f"crashed-{index}", os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        pass
    else:
        os.close(fd)
        raise RuntimeError(f"injected first-attempt crash for shard {index}")
    with open(base / f"ran-{index}", "ab") as handle:
        handle.write(b"x")
    return _REAL_WORKER(payload, fingerprint, index, *rest)


def _run_count(base: Path, index: int) -> int:
    runlog = base / f"ran-{index}"
    return runlog.stat().st_size if runlog.exists() else 0


@pytest.fixture()
def sleeps(monkeypatch):
    """Record (instead of performing) the retry loop's backoff waits."""
    recorded = []
    monkeypatch.setattr(parallel_exec.time, "sleep", recorded.append)
    return recorded


class TestRetryBackoff:
    def test_crashed_shards_recover_on_retry(self, monkeypatch, tmp_path, sleeps):
        baseline = run_campaign(_spec(), workers=1)
        monkeypatch.setenv(_ENV_DIR, str(tmp_path))
        monkeypatch.setattr(
            parallel_exec, "_worker_run_shard", _crash_once_per_shard
        )
        result = run_campaign(_spec(max_retries=2), workers=2)
        # Every shard crashed exactly once, then succeeded on the retry
        # pool, so exactly one backoff wait happened: the base 1.0s.
        assert sleeps == [1.0]
        assert all(
            (tmp_path / f"crashed-{index}").exists() for index in range(4)
        )
        assert all(_run_count(tmp_path, index) == 1 for index in range(4))
        # The recovered run is bit-identical to the uncrashed baseline.
        assert result.edges == baseline.edges
        assert result.transactions_sent == baseline.transactions_sent
        assert result.failures == baseline.failures
        assert str(result.score) == str(baseline.score)

    def test_backoff_schedule_is_deterministic(self, monkeypatch, sleeps):
        """max_retries=2 with permanently crashing workers waits exactly
        [base, base*factor] = [1.0, 2.0] before giving up on the pool."""
        monkeypatch.setattr(parallel_exec, "_worker_run_shard", _always_crash)
        run_campaign(_spec(max_retries=2), workers=2)
        assert sleeps == [1.0, 2.0]

    def test_inprocess_fallback_after_max_retries(self, monkeypatch, sleeps):
        baseline = run_campaign(_spec(), workers=1)
        monkeypatch.setattr(parallel_exec, "_worker_run_shard", _always_crash)
        result = run_campaign(_spec(max_retries=1), workers=2)
        # One retry round, then the driver's replica runs the shards
        # itself: the campaign completes with no shard_error failures.
        assert sleeps == [1.0]
        assert result.failures == baseline.failures
        assert result.edges == baseline.edges
        assert str(result.score) == str(baseline.score)

    def test_zero_retries_falls_back_immediately(self, monkeypatch, sleeps):
        baseline = run_campaign(_spec(), workers=1)
        monkeypatch.setattr(parallel_exec, "_worker_run_shard", _always_crash)
        result = run_campaign(_spec(), workers=2)  # default max_retries=0
        assert sleeps == []
        assert result.edges == baseline.edges


class TestResumeMidRetry:
    def test_driver_death_mid_retry_resumes_from_checkpoint(
        self, monkeypatch, tmp_path, sleeps
    ):
        """Driver dies after two shards of a retry round; the restarted
        campaign verifies the checkpoint and re-runs only the missing
        shards, landing on the bit-identical result."""
        baseline = run_campaign(_spec(), workers=1)
        checkpoint_path = tmp_path / "campaign.ckpt.json"
        markers = tmp_path / "markers"
        markers.mkdir()
        monkeypatch.setenv(_ENV_DIR, str(markers))
        monkeypatch.setattr(
            parallel_exec, "_worker_run_shard", _crash_once_per_shard
        )

        class DriverDied(Exception):
            pass

        recorded = []

        def die_after_two(index, _total, _result):
            recorded.append(index)
            if len(recorded) == 2:
                raise DriverDied()

        with pytest.raises(DriverDied):
            run_campaign(
                _spec(max_retries=1),
                workers=2,
                checkpoint_path=checkpoint_path,
                progress=die_after_two,
            )
        checkpoint = ParallelCheckpoint.load(checkpoint_path)
        assert sorted(checkpoint.completed) == sorted(recorded)
        assert len(checkpoint.completed) == 2

        resumed = run_campaign(
            _spec(max_retries=1),
            workers=2,
            checkpoint_path=checkpoint_path,
            resume=True,
        )
        # The checkpointed shards were not executed again (one run across
        # both incarnations).  The other shards may have executed in pool
        # workers before the driver died without being recorded — those
        # legitimately run again on resume.
        assert all(
            _run_count(markers, index) == 1 for index in checkpoint.completed
        )
        assert all(_run_count(markers, index) >= 1 for index in range(4))
        assert resumed.edges == baseline.edges
        assert resumed.transactions_sent == baseline.transactions_sent
        assert str(resumed.score) == str(baseline.score)
        assert resumed.failures == baseline.failures
