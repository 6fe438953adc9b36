"""Simulator state capture/restore for the snapshot/reset layer.

A :class:`SimulatorSnapshot` freezes everything the engine itself
contributes to determinism: the clock, the monotone sequence counter that
breaks heap ties, the executed-event count, and the exact state of every
named RNG stream. Restoring puts the engine back to that instant so a
subsequent run draws the same sequence numbers and random numbers as the
first one did — the property the parallel executor relies on to make
"restore then run shard" bit-identical to "fresh build then run shard".

Snapshots are only taken at quiescent instants (empty event queue); callers
drain the queue with ``network.settle()`` first. Capturing mid-flight would
have to serialize arbitrary queued callbacks/closures, which is neither
possible in general nor needed for the campaign workflow.

One sharp edge: reading the next value of ``itertools.count`` consumes it,
so capture replaces ``sim._seq`` with a fresh ``count`` starting at the
observed value — a net no-op for the live run, as long as nobody holds a
reference to the old counter across a capture or restore (the transport
reads ``sim._seq`` once per pass).

The profiler and the event log are deliberately *not* part of the
snapshot: they are observers of execution, not inputs to it, and resetting
them would silently discard operator-requested diagnostics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from repro.errors import SnapshotError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


@dataclass
class SimulatorSnapshot:
    """Frozen engine state: clock, tie-break counter, RNG stream states."""

    now: float
    seq: int
    executed: int
    rng: Tuple[int, Dict[str, object]]


def capture_simulator(sim: "Simulator") -> SimulatorSnapshot:
    """Capture the engine's deterministic state at a quiescent instant.

    Raises :class:`SnapshotError` if any events (daemon or not) are still
    queued — run ``sim.run()`` / ``network.settle()`` to drain first.

    Side effect: ``sim._seq`` is replaced by an equivalent counter (same
    next value), so nothing may hold a reference to it across this call.
    """
    if sim._queue:
        raise SnapshotError(
            f"cannot snapshot with {len(sim._queue)} events still queued; "
            "drain the simulation (network.settle()) first"
        )
    seq_value = next(sim._seq)
    sim._seq = itertools.count(seq_value)
    return SimulatorSnapshot(
        now=sim._now,
        seq=seq_value,
        executed=sim._executed,
        rng=sim.rng.capture(),
    )


def restore_simulator(sim: "Simulator", snapshot: SimulatorSnapshot) -> None:
    """Rewind the engine to a captured instant.

    Pending events are discarded, the clock and sequence counter rewind to
    their captured values, and every RNG stream is put back to its captured
    state in place (streams created after the capture are re-seeded as a
    fresh registry would have seeded them). Discarded event handles are
    cancelled first: a holder cancelling one later must not release a
    pending count the rewound engine no longer carries.

    As with capture, ``sim._seq`` is replaced.
    """
    for entry in sim._queue:
        if len(entry) == 3:
            entry[2].cancel()
    sim._queue.clear()
    sim._non_daemon_pending = 0
    sim._now = snapshot.now
    sim._seq = itertools.count(snapshot.seq)
    sim._executed = snapshot.executed
    sim.rng.restore(snapshot.rng)
