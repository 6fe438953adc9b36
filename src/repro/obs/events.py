"""Ring-buffered structured event log: the one record of what a run did.

The engine (one ``event`` per executed callback, when attached with
``log_events=True``), the transport (``drop``), the fault injector
(``fault``) and the campaign, monitor and service layers all append here:

- records are **plain tuples** ``(time, kind, *fields)`` — no string
  formatting at the recording site, fields stay typed until export;
- the buffer is a **ring**: beyond ``capacity`` the *oldest* records are
  overwritten (an operator wants the most recent window; a test that
  needs the whole story sizes the log and asserts ``dropped == 0``);
- ``recorded`` counts every append ever made, so the overwritten share is
  always visible (``dropped``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ObservabilityError

EventRecord = Tuple  # (time, kind, *fields)

DEFAULT_CAPACITY = 65536


class EventLog:
    """Bounded, overwrite-oldest log of tuple-shaped events."""

    __slots__ = ("capacity", "recorded", "_buffer", "_start")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ObservabilityError(
                f"event log capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.recorded = 0
        self._buffer: List[EventRecord] = []
        self._start = 0

    def append(self, time: float, kind: str, *fields: object) -> None:
        """Record one event; the hot path builds one tuple, nothing else."""
        record = (time, kind) + fields
        buffer = self._buffer
        if len(buffer) < self.capacity:
            buffer.append(record)
        else:
            buffer[self._start] = record
            self._start = (self._start + 1) % self.capacity
        self.recorded += 1

    @property
    def dropped(self) -> int:
        """How many records have been overwritten by newer ones."""
        return self.recorded - len(self._buffer)

    def records(self) -> List[EventRecord]:
        """Retained records, oldest first."""
        if self._start == 0:
            return list(self._buffer)
        return self._buffer[self._start :] + self._buffer[: self._start]

    def filter(self, kind: Optional[str] = None) -> List[EventRecord]:
        """Retained records of one kind (or all), oldest first."""
        if kind is None:
            return self.records()
        return [record for record in self.records() if record[1] == kind]

    def clear(self) -> None:
        self._buffer.clear()
        self._start = 0
        self.recorded = 0

    def to_dicts(self) -> List[Dict[str, object]]:
        """JSON-friendly view: ``{"time", "kind", "fields"}`` per record."""
        return [
            {"time": record[0], "kind": record[1], "fields": list(record[2:])}
            for record in self.records()
        ]

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[EventRecord]:
        return iter(self.records())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventLog(retained={len(self._buffer)}, recorded={self.recorded}, "
            f"capacity={self.capacity})"
        )
