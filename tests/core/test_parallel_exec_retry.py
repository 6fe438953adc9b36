"""The sharded executor's fork pool: inherited worlds, failed workers.

:func:`repro.core.parallel_exec.run_campaign` forks its
:class:`~repro.core.parallel_exec.WorkerPool` once the driver's replica is
built, so every shard worker inherits that world instead of building its
own; a shard whose worker fails runs in the driver, and a killed driver
takes its workers with it.

Crash injection is a monkeypatched ``_run_inherited_shard`` (or
``build_world`` / ``CampaignReplica.run_shard`` for counting): the pool
forks, so worker processes inherit the patched attributes, and
cross-process bookkeeping happens through marker files in a directory
passed via the environment (both survive the fork).
"""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
import repro.core.parallel_exec as parallel_exec
from repro.core.parallel_exec import (
    CampaignReplica,
    CampaignSpec,
    ParallelCheckpoint,
    run_campaign,
)
from repro.netgen.ethereum import NetworkSpec
from tests.service.test_server import _children, _running

_REAL_WORKER = parallel_exec._run_inherited_shard
_REAL_BUILD = parallel_exec.build_world
_REAL_RUN_SHARD = CampaignReplica.run_shard
_ENV_DIR = "TOPOSHOT_POOL_TEST_DIR"


def _spec(**overrides):
    defaults = dict(
        network=NetworkSpec(n_nodes=10, seed=7),
        prefill=False,
        n_shards=4,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def _note(name: str, text: str) -> None:
    """Append ``text`` to marker ``name`` (small appends are atomic)."""
    with open(Path(os.environ[_ENV_DIR]) / name, "a", encoding="utf-8") as handle:
        handle.write(text)


def _notes(base: Path, name: str) -> list:
    path = base / name
    return path.read_text(encoding="utf-8").split() if path.exists() else []


def _always_crash(shard, *_args):
    _note("crashed", f"{os.getpid()}:{shard.index}\n")
    raise RuntimeError("injected worker crash")


def _die(*_args):
    os._exit(1)  # what an OOM kill looks like to the pool


def _crash_once_per_shard(shard, *rest):
    """First execution of each shard crashes; later ones run the real
    worker. ``O_CREAT|O_EXCL`` makes the claim atomic across processes."""
    base = Path(os.environ[_ENV_DIR])
    try:
        fd = os.open(base / f"crashed-{shard.index}", os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return _REAL_WORKER(shard, *rest)
    os.close(fd)
    raise RuntimeError(f"injected first-attempt crash for shard {shard.index}")


def _counted_build(spec):
    _note("builds", f"{os.getpid()}\n")
    return _REAL_BUILD(spec)


def _counted_run_shard(self, shard, *args):
    _note(f"ran-{shard.index}", "x ")
    return _REAL_RUN_SHARD(self, shard, *args)


@pytest.fixture()
def markers(monkeypatch, tmp_path):
    monkeypatch.setenv(_ENV_DIR, str(tmp_path))
    return tmp_path


class TestInheritedWorld:
    def test_shard_workers_inherit_the_world(self, monkeypatch, markers):
        """``workers=2`` builds the world once, in the driver: the workers
        fork from its replica instead of rebuilding it."""
        baseline = run_campaign(_spec(), workers=1)
        monkeypatch.setattr(parallel_exec, "build_world", _counted_build)
        result = run_campaign(_spec(), workers=2)
        assert _notes(markers, "builds") == [str(os.getpid())]
        assert result.edges == baseline.edges
        assert result.transactions_sent == baseline.transactions_sent
        assert str(result.score) == str(baseline.score)


class TestFailedWorkers:
    def test_a_failed_shard_runs_in_the_driver(self, monkeypatch, markers):
        baseline = run_campaign(_spec(), workers=1)
        monkeypatch.setattr(parallel_exec, "_run_inherited_shard", _always_crash)
        result = run_campaign(_spec(), workers=2)
        crashes = [note.split(":") for note in _notes(markers, "crashed")]
        # Every shard failed once, in a worker; the driver ran each one.
        assert sorted(int(index) for _, index in crashes) == [0, 1, 2, 3]
        assert str(os.getpid()) not in {pid for pid, _ in crashes}
        assert result.failures == baseline.failures
        assert result.edges == baseline.edges
        assert str(result.score) == str(baseline.score)

    def test_a_killed_worker_costs_its_shards_not_the_campaign(self, monkeypatch):
        """A dead worker breaks the pool; every shard it left unfinished
        runs in the driver."""
        baseline = run_campaign(_spec(), workers=1)
        monkeypatch.setattr(parallel_exec, "_run_inherited_shard", _die)
        result = run_campaign(_spec(), workers=2)
        assert result.failures == baseline.failures
        assert result.edges == baseline.edges
        assert str(result.score) == str(baseline.score)


class TestResumeMidRetry:
    def test_driver_death_mid_retry_resumes_from_checkpoint(
        self, monkeypatch, tmp_path, markers
    ):
        """Driver dies after two shards (both run in the driver after
        their workers crashed); the restarted campaign verifies the
        checkpoint and re-runs only the missing shards, landing on the
        bit-identical result."""
        baseline = run_campaign(_spec(), workers=1)
        checkpoint_path = tmp_path / "campaign.ckpt.json"
        monkeypatch.setattr(
            parallel_exec, "_run_inherited_shard", _crash_once_per_shard
        )
        monkeypatch.setattr(CampaignReplica, "run_shard", _counted_run_shard)

        class DriverDied(Exception):
            pass

        recorded = []

        def die_after_two(index, _total, _result):
            recorded.append(index)
            if len(recorded) == 2:
                raise DriverDied()

        with pytest.raises(DriverDied):
            run_campaign(
                _spec(),
                workers=2,
                checkpoint_path=checkpoint_path,
                progress=die_after_two,
            )
        checkpoint = ParallelCheckpoint.load(checkpoint_path)
        assert sorted(checkpoint.completed) == sorted(recorded)
        assert len(checkpoint.completed) == 2

        resumed = run_campaign(
            _spec(), workers=2, checkpoint_path=checkpoint_path, resume=True
        )
        # The checkpointed shards were not executed again (one run across
        # both incarnations).  The other shards may have executed in pool
        # workers before the driver died without being recorded — those
        # legitimately run again on resume.
        runs = {index: len(_notes(markers, f"ran-{index}")) for index in range(4)}
        assert all(runs[index] == 1 for index in checkpoint.completed)
        assert all(count >= 1 for count in runs.values())
        assert resumed.edges == baseline.edges
        assert resumed.transactions_sent == baseline.transactions_sent
        assert str(resumed.score) == str(baseline.score)
        assert resumed.failures == baseline.failures


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigkilled_parallel_map_sweep_leaves_no_worker():
    """``benchmarks.harness.parallel_map`` runs on the same pool, so a
    killed ``REPRO_BENCH_WORKERS=2`` sweep takes its workers with it
    instead of leaving them to finish (and then block) on their own."""
    src = str(Path(repro.__file__).resolve().parents[1])
    root = str(Path(__file__).resolve().parents[2])
    driver = subprocess.Popen(
        [sys.executable, "-c",
         "import time; from benchmarks.harness import parallel_map; "
         "parallel_map(time.sleep, [60, 60])"],
        cwd=root,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, root]),
             "REPRO_BENCH_WORKERS": "2"},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2:
            assert driver.poll() is None, "the sweep ended before forking"
            assert time.monotonic() < deadline, "no sweep pool forked"
            workers = _children(driver.pid)
            time.sleep(0.01)
        driver.send_signal(signal.SIGKILL)
        driver.wait(timeout=30)
        deadline = time.monotonic() + 30
        while any(_running(pid) for pid in workers):
            assert time.monotonic() < deadline, "a sweep worker outlived its driver"
            time.sleep(0.02)
    finally:
        if driver.poll() is None:
            driver.kill()
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
