"""Checkpoint atomic-write hygiene: fsync-before-rename + orphan cleanup.

A checkpoint is only worth its bytes if a crash at *any* instant leaves a
readable file. These tests simulate the two classic failure windows:

- kill between tmp write and rename → the old checkpoint must survive and
  the orphaned ``.tmp`` must be reaped on the next resume;
- power cut after rename → the rename must only ever expose fsynced bytes
  (fsync ordered strictly before the rename).
"""

import json
import os

import pytest

from repro.core.parallel_exec import ParallelCheckpoint, ShardResult
from repro.core.results import NetworkMeasurement
from repro.errors import CheckpointError
from repro.io import atomic_write_text, cleanup_orphan_tmp


def _parallel_checkpoint(completed=1):
    return ParallelCheckpoint(
        fingerprint="f" * 64,
        n_shards=4,
        completed={
            index: ShardResult(
                index=index,
                start=index,
                stop=index + 1,
                measurement=NetworkMeasurement(node_ids=["a", "b", "c"]),
            )
            for index in range(completed)
        },
    )


class TestFsyncBeforeRename:
    def test_tmp_file_is_fsynced_before_replace(self, tmp_path, monkeypatch):
        order = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            order.append("fsync")
            return real_fsync(fd)

        def spy_replace(src, dst):
            order.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        atomic_write_text(tmp_path / "ckpt.json", "{}\n")
        # File fsync strictly precedes the rename; the trailing fsync is
        # the directory entry.
        assert order[0] == "fsync"
        assert "replace" in order
        assert order.index("fsync") < order.index("replace")

    def test_parallel_checkpoint_save_goes_through_atomic_writer(
        self, tmp_path, monkeypatch
    ):
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1]
        )
        path = tmp_path / "parallel.ckpt.json"
        _parallel_checkpoint().save(path)
        assert fsyncs
        assert not path.with_suffix(path.suffix + ".tmp").exists()


class TestCrashSimulation:
    def test_kill_before_rename_preserves_old_checkpoint(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "campaign.ckpt.json"
        _parallel_checkpoint(completed=3).save(path)

        # Crash in the rename window: tmp written, rename never happened.
        def exploding_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            _parallel_checkpoint(completed=4).save(path)
        monkeypatch.undo()

        # The orphan is on disk, the committed checkpoint is intact.
        tmp = path.with_suffix(path.suffix + ".tmp")
        assert tmp.exists()
        restored = ParallelCheckpoint.load(path)
        assert sorted(restored.completed) == [0, 1, 2]
        # load() reaped the orphan as part of resume hygiene.
        assert not tmp.exists()

    def test_parallel_load_reaps_orphan_tmp(self, tmp_path, monkeypatch):
        path = tmp_path / "parallel.ckpt.json"
        _parallel_checkpoint().save(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text("{torn partial json", encoding="utf-8")

        restored = ParallelCheckpoint.load(path)
        assert restored.n_shards == 4
        assert not tmp.exists()

    def test_orphan_cleanup_is_idempotent(self, tmp_path):
        path = tmp_path / "x.json"
        assert cleanup_orphan_tmp(path) is False
        path.with_suffix(path.suffix + ".tmp").write_text("junk")
        assert cleanup_orphan_tmp(path) is True
        assert cleanup_orphan_tmp(path) is False

    def test_torn_checkpoint_itself_still_errors_cleanly(self, tmp_path):
        # The atomic writer makes this unreachable in practice, but a
        # hand-truncated file must still fail typed, not with a stack of
        # JSON internals.
        path = tmp_path / "campaign.ckpt.json"
        path.write_text('{"format_version": 2, "fingerprint":', encoding="utf-8")
        with pytest.raises(CheckpointError):
            ParallelCheckpoint.load(path)

    def test_atomic_write_round_trips_content(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, json.dumps({"k": 1}) + "\n")
        assert json.loads(path.read_text()) == {"k": 1}
