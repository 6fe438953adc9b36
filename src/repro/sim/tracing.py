"""Wall-clock profiling for simulations.

:class:`EngineProfiler` aggregates callback cost per event-label category:
attach one with ``sim.attach_profiler()`` and read ``profiler.report()``
after a run to see whether a campaign is bound by transaction pushes,
announcements, flush batching, or fault machinery. What a simulation *did*
is recorded in one place, the :class:`repro.obs.EventLog` (see
``docs/observability.md``).
"""

from __future__ import annotations

from typing import Dict, Optional


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
