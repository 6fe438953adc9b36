"""Crash-safe job journal: an append-only JSON-lines write-ahead log.

Every job-state transition is appended as one JSON line and fsynced, so
after a SIGKILL the journal replays to the exact last durable state of
every job: terminal jobs keep their results, in-flight jobs are recovered
into ``queued`` and resume from their shard checkpoints.  The file is
append-only during operation; :meth:`JobJournal.compact` rewrites it
atomically (tmp + fsync + rename, the same discipline as the campaign
checkpoints) to one line per job.

Torn-tail tolerance: appends are fsynced, so at most the final line can
be torn by a crash mid-append.  Replay skips unparsable lines rather than
refusing the whole journal — losing one un-fsynced transition is the
defined contract, losing the journal is not.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.errors import ServiceError
from repro.service.jobs import JobRecord

PathLike = Union[str, Path]

JOURNAL_VERSION = 1


class JobJournal:
    """Append-only WAL of :class:`~repro.service.jobs.JobRecord` states."""

    def __init__(self, path: PathLike, fsync: bool = True) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._handle = open(self.path, "a", encoding="utf-8")
        if self._handle.tell():
            # A crash mid-append leaves an unterminated last line; end it,
            # or the next append is glued onto it and lost on replay.
            with open(self.path, "rb") as tail:
                tail.seek(-1, os.SEEK_END)
                if tail.read(1) != b"\n":
                    self._handle.write("\n")
        self.appends_total = 0

    def append(self, record: JobRecord) -> None:
        """Durably append one state transition (one JSON line)."""
        if self._handle.closed:
            raise ServiceError("journal is closed")
        line = json.dumps(
            {"v": JOURNAL_VERSION, "record": record.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        self._handle.write(line + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self.appends_total += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            self._handle.close()

    # ------------------------------------------------------------------
    # Replay / compaction
    # ------------------------------------------------------------------
    @staticmethod
    def replay(path: PathLike) -> Tuple[Dict[str, JobRecord], int]:
        """Last durable record per job, in first-submission order.

        Returns ``(records, skipped_lines)``; ``skipped_lines`` counts
        unparsable entries (a torn tail after a crash mid-append).
        """
        latest: Dict[str, JobRecord] = {}
        order: list = []
        skipped = 0
        journal = Path(path)
        if not journal.exists():
            return {}, skipped
        with open(journal, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    record = JobRecord.from_dict(payload["record"])
                except (
                    json.JSONDecodeError,
                    KeyError,
                    TypeError,
                    ValueError,
                    ServiceError,
                ):
                    skipped += 1
                    continue
                if record.job_id not in latest:
                    order.append(record.job_id)
                latest[record.job_id] = record
        return {job_id: latest[job_id] for job_id in order}, skipped

    def compact(self, records: Optional[Iterable[JobRecord]] = None) -> int:
        """Atomically rewrite the journal to one line per job.

        With ``records=None`` the journal compacts to its own replay.
        Returns the number of records kept.  The live append handle is
        re-opened on the new file.
        """
        from repro.io import atomic_write_text, cleanup_orphan_tmp

        if records is None:
            replayed, _ = self.replay(self.path)
            records = list(replayed.values())
        else:
            records = list(records)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._handle.close()
        cleanup_orphan_tmp(self.path)
        lines = [
            json.dumps(
                {"v": JOURNAL_VERSION, "record": record.to_dict()},
                sort_keys=True,
                separators=(",", ":"),
            )
            for record in records
        ]
        atomic_write_text(self.path, "".join(line + "\n" for line in lines))
        self._handle = open(self.path, "a", encoding="utf-8")
        return len(records)
