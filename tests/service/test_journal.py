"""Crash-safety of the JSON-lines job journal: replay, torn tails, compaction."""

import json
import os

from repro.service.jobs import DONE, QUEUED, RUNNING, JobRecord, JobSpec
from repro.service.journal import JobJournal


def _record(job_id: str, state: str = QUEUED, tenant: str = "t") -> JobRecord:
    return JobRecord(
        spec=JobSpec(tenant=tenant, kind="synthetic", job_id=job_id),
        state=state,
    )


class TestAppendReplay:
    def test_replay_returns_last_record_per_job(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.append(_record("j1", QUEUED))
        journal.append(_record("j2", QUEUED))
        journal.append(_record("j1", RUNNING))
        journal.append(_record("j1", DONE))
        journal.close()
        records, skipped = JobJournal.replay(path)
        assert skipped == 0
        assert records["j1"].state == DONE
        assert records["j2"].state == QUEUED

    def test_replay_preserves_first_submission_order(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        for job_id in ("c", "a", "b"):
            journal.append(_record(job_id))
        journal.append(_record("c", DONE))  # later transition of the first job
        journal.close()
        records, _ = JobJournal.replay(path)
        assert list(records) == ["c", "a", "b"]

    def test_appends_are_fsynced(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        journal = JobJournal(tmp_path / "journal.jsonl", fsync=True)
        journal.append(_record("j1"))
        assert synced, "append must fsync before reporting durability"
        journal.close()

    def test_missing_journal_replays_empty(self, tmp_path):
        records, skipped = JobJournal.replay(tmp_path / "nope.jsonl")
        assert records == {}
        assert skipped == 0


class TestTornTail:
    def test_torn_final_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.append(_record("j1", DONE))
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v":1,"record":{"spec":{"tenant"')  # crash mid-append
        records, skipped = JobJournal.replay(path)
        assert skipped == 1
        assert records["j1"].state == DONE

    def test_append_after_a_torn_only_journal_replays(self, tmp_path):
        """A crash during the very first append leaves nothing to replay, so
        recovery does not compact; the next incarnation's append must still
        start on a line of its own."""
        path = tmp_path / "journal.jsonl"
        path.write_text('{"v":1,"record":{"spec":{"tenant"', encoding="utf-8")
        journal = JobJournal(path)
        journal.append(_record("j1", QUEUED))
        journal.close()
        records, skipped = JobJournal.replay(path)
        assert skipped == 1
        assert records["j1"].state == QUEUED

    def test_garbage_line_in_the_middle_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.append(_record("j1"))
        journal.close()
        content = path.read_text(encoding="utf-8")
        path.write_text(
            content.split("\n")[0] + "\nnot json at all\n", encoding="utf-8"
        )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"v": 1, "record": _record("j2").to_dict()}) + "\n"
            )
        records, skipped = JobJournal.replay(path)
        assert skipped == 1
        assert set(records) == {"j1", "j2"}


class TestCompaction:
    def test_compact_collapses_to_one_line_per_job(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        for state in (QUEUED, RUNNING, DONE):
            journal.append(_record("j1", state))
        journal.append(_record("j2", QUEUED))
        assert len(path.read_text().splitlines()) == 4
        kept = journal.compact()
        assert kept == 2
        assert len(path.read_text().splitlines()) == 2
        records, _ = JobJournal.replay(path)
        assert records["j1"].state == DONE

    def test_journal_stays_appendable_after_compaction(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.append(_record("j1", DONE))
        journal.compact()
        journal.append(_record("j2", QUEUED))
        journal.close()
        records, _ = JobJournal.replay(path)
        assert set(records) == {"j1", "j2"}

    def test_compact_leaves_no_tmp_file(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.append(_record("j1"))
        journal.compact()
        journal.close()
        assert not (tmp_path / "journal.jsonl.tmp").exists()
