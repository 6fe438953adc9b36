"""Structured tracing for simulations.

The tracer collects ``(time, kind, detail)`` records. Tests use it to assert
fine-grained propagation behaviour (e.g. "node B never forwarded txO"), and
the examples use it to narrate what the measurement did.

The tracer's ``detail`` is a pre-formatted string and a bounded tracer
drops the *newest* records once full — both right for deterministic tests
that replay from t=0 and read the head of the story. For operator-facing
telemetry (typed fields, keep the most *recent* window) use
:class:`repro.obs.EventLog` instead; see ``docs/observability.md``.

:class:`EngineProfiler` is the wall-clock sibling: attach one with
``sim.attach_profiler()`` and read ``profiler.report()`` after a run to see
whether a campaign is bound by transaction pushes, announcements, flush
batching, or fault machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One trace line: simulation time, a record kind, and free-form detail."""

    time: float
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.time:10.4f}] {self.kind:<14} {self.detail}"


class Tracer:
    """Append-only trace buffer with simple filtering helpers."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.records: List[TraceRecord] = []
        self.capacity = capacity
        self.dropped = 0

    def record(self, time: float, kind: str, detail: str) -> None:
        """Append a record; beyond ``capacity``, drop and count."""
        if self.capacity is not None and len(self.records) >= self.capacity:
            self.dropped += 1
            return
        self.records.append(TraceRecord(time, kind, detail))

    def filter(self, kind: Optional[str] = None, contains: str = "") -> List[TraceRecord]:
        """Records matching a kind and/or a substring of the detail."""
        return [
            r
            for r in self.records
            if (kind is None or r.kind == kind) and contains in r.detail
        ]

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


class EngineProfiler:
    """Aggregate wall-clock callback cost per event-label category.

    The category of an event is its label up to the first ``:`` (labels
    look like ``Transactions:a->b`` or ``flush:node-3``); unlabeled events
    land in ``<unlabeled>``. The engine feeds ``account()`` from its run
    loop, so attaching a profiler implicitly turns event labels on (see
    :attr:`repro.sim.engine.Simulator.wants_labels`).
    """

    UNLABELED = "<unlabeled>"

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def account(self, label: str, elapsed: float) -> None:
        """Record one executed callback of ``elapsed`` wall seconds."""
        category = label.partition(":")[0] or self.UNLABELED
        self.seconds[category] = self.seconds.get(category, 0.0) + elapsed
        self.counts[category] = self.counts.get(category, 0) + 1

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    @property
    def total_events(self) -> int:
        return sum(self.counts.values())

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Per-category ``{seconds, events}`` map (JSON-friendly)."""
        return {
            category: {
                "seconds": self.seconds[category],
                "events": self.counts[category],
            }
            for category in self.seconds
        }

    def report(self, top: Optional[int] = None) -> str:
        """Human-readable table, most expensive category first."""
        total = self.total_seconds or 1.0
        rows = sorted(self.seconds.items(), key=lambda kv: -kv[1])
        if top is not None:
            rows = rows[:top]
        lines = [f"{'category':<28} {'events':>10} {'seconds':>10} {'share':>7}"]
        for category, seconds in rows:
            lines.append(
                f"{category:<28} {self.counts[category]:>10} "
                f"{seconds:>10.3f} {seconds / total:>6.1%}"
            )
        lines.append(
            f"{'total':<28} {self.total_events:>10} {self.total_seconds:>10.3f}"
        )
        return "\n".join(lines)

    def clear(self) -> None:
        self.seconds.clear()
        self.counts.clear()
