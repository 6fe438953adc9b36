"""Unified observability: typed metrics + structured events for the stack.

One :class:`Observability` object bundles a
:class:`~repro.obs.metrics.MetricsRegistry` and an
:class:`~repro.obs.events.EventLog` behind a single enabled/disabled
switch.  The design contract, relied on by every instrumented module:

- **disabled is free.**  :data:`NULL` (the module-wide disabled instance)
  has ``enabled`` false and a pre-bound no-op ``emit``; push sites guard on
  ``obs.enabled`` before they touch ``obs.metrics``, and hot paths are
  wired *pull-style* (collectors read counters the simulation already
  keeps), so a run without observability executes the identical code it
  did before this layer existed.
- **enabled is cheap.**  Push sites fire only on cold events (faults,
  campaign iterations, drops); everything per-message/per-event is
  harvested at :meth:`Observability.snapshot`/export time.
- **never perturbs determinism.**  No RNG stream, no simulated-time event,
  no iteration over unordered containers feeds back into the simulation.

Typical operator wiring::

    from repro.obs import Observability
    from repro.obs.export import write_metrics

    obs = Observability()
    shot = TopoShot.attach(network, obs=obs)      # wires the whole stack
    shot.measure_network()
    write_metrics(obs.metrics, "campaign.prom")   # Prometheus text format

Exporters (JSON-lines, Prometheus, CSV) live in :mod:`repro.obs.export`;
the metric catalog and stack wiring in :mod:`repro.obs.wiring`; the
documentation is ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.events import DEFAULT_CAPACITY, EventLog
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs import wiring  # noqa: F401 - the catalog every registry reads

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL",
    "Observability",
]


def _noop(*_args: object, **_kwargs: object) -> None:
    """Shared pre-bound sink for disabled observability."""


class Observability:
    """Metrics registry + event log behind one switch.

    ``emit`` is pre-bound in ``__init__``: the enabled instance's ``emit``
    *is* ``EventLog.append`` (no wrapper frame), the disabled instance's is
    a shared no-op.  Instruments have no such stand-in: a site that pushes
    to ``metrics`` checks ``enabled`` first, which also skips building the
    arguments.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
        enabled: bool = True,
        event_capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.enabled = enabled
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else EventLog(event_capacity)
        self.emit = self.events.append if enabled else _noop

    @classmethod
    def disabled(cls) -> "Observability":
        return cls(enabled=False, event_capacity=1)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Collect everything into one JSON-friendly payload."""
        return {
            "metrics": self.metrics.snapshot(),
            "events": {
                "recorded": self.events.recorded,
                "retained": len(self.events),
                "dropped": self.events.dropped,
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return (
            f"Observability({state}, metrics={len(self.metrics)}, "
            f"events={len(self.events)})"
        )


#: Shared disabled instance: the default value of every ``obs`` hook in the
#: stack. Modules call ``NULL.emit(...)``-shaped code paths only on cold
#: branches, and ``NULL`` makes those calls free.
NULL = Observability.disabled()
