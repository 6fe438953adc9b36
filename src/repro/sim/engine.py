"""Core discrete-event simulation loop.

The simulator maintains a heap of plain ``(time, seq, event)`` tuples so
heap ordering is decided by C-level tuple comparison instead of a generated
dataclass ``__lt__``. The sequence number makes ordering total and
deterministic: two events scheduled for the same instant fire in the order
they were scheduled, and the payload :class:`Event` is never compared.

Typical usage::

    sim = Simulator(seed=42)
    sim.schedule(1.5, lambda: print("fires at t=1.5"))
    sim.run()

For a breakdown of where callback time goes, attach an
:class:`~repro.sim.tracing.EngineProfiler` via :meth:`Simulator.attach_profiler`.
For operator-facing metrics and a bounded structured event log, attach a
:class:`~repro.obs.Observability` via :meth:`Simulator.attach_observability`.
The runtime invariant checker (:mod:`repro.sim.invariants`) rides the same
zero-cost attach pattern one layer up, on the network's pre-bound delivery
callback — an engine without it installed executes byte-identical code.

:meth:`Simulator.run` pauses Python's cyclic garbage collector for the
length of the run. No campaign creates cyclic garbage, inside a run or
between runs: reference counting frees everything it drops
(``tests/sim/test_no_cyclic_garbage.py`` is the law). So the collector's
walks over the world and the heap of in-flight messages find nothing and
are pure cost. The pause is process-wide: another thread that allocates
during a run gets no automatic collection until the run ends.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.errors import ScheduleInPastError, SimulationError
from repro.sim.rng import RngRegistry
from repro.sim.tracing import EngineProfiler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import EventLog, Observability


class Event:
    """A scheduled callback.

    The heap entry carrying an event is ``(time, seq, event)``; the event
    object itself is just the mutable payload. ``cancelled`` events are
    popped and discarded. ``daemon`` events (fault-injection processes,
    periodic maintenance) run normally but do not keep an open-ended
    :meth:`Simulator.run` alive: once only daemon events remain the
    simulation is considered quiescent. A queued non-daemon event holds one
    unit of its simulator's pending count through ``_pending_sim``;
    :meth:`cancel` or the pop that fires it — whichever comes first —
    releases the unit and clears the reference.

    Not every heap entry carries an :class:`Event`: fire-and-forget
    callbacks from :meth:`Simulator.push_entries` are stored as plain
    ``(time, seq, callback, args, label)`` 5-tuples with no handle at all.
    The two shapes share one heap — ``(time, seq)`` prefixes are unique,
    so ordering never compares the payloads.

    A ``label`` may be either a string or a *lazy* 3-tuple ``(kind,
    from_id, to_id)``; the engine formats the tuple as
    ``f"{kind}:{from_id}->{to_id}"`` only at the instant an attached
    profiler or event log observes it. The transport queues roughly
    one labelled entry per simulated message, so skipping the f-string in
    the (default) unobserved case is a measurable share of campaign time.
    """

    __slots__ = (
        "time",
        "seq",
        "callback",
        "args",
        "label",
        "cancelled",
        "daemon",
        "_pending_sim",
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple = (),
        label: str = "",
        daemon: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.label = label
        self.cancelled = False
        self.daemon = daemon
        self._pending_sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped.

        A cancelled event stops counting as pending work at once, not when
        its heap entry finally surfaces: otherwise an open-ended run would
        keep firing daemon events up to the dead entry's time.
        """
        self.cancelled = True
        sim = self._pending_sim
        if sim is not None:
            self._pending_sim = None
            sim._non_daemon_pending -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            flag
            for flag, on in (("d", self.daemon), ("x", self.cancelled))
            if on
        )
        return f"Event(t={self.time:.6f}, seq={self.seq}, {self.label!r}{flags})"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the :class:`~repro.sim.rng.RngRegistry`. Every
        stochastic component derives its own named stream from this seed.

    Two sinks observe execution: a profiler (:meth:`attach_profiler`) and
    an event log (:meth:`attach_observability` with ``log_events=True``).
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        # The clock as a callable that runs no Python frame (a C-level
        # getattr), for callers that read it per offer or per call.
        self.clock: Callable[[], float] = partial(getattr, self, "_now")
        # Entries are (time, seq, Event) or (time, seq, callback, args,
        # label) — see Event's docstring.
        self._queue: list[Tuple] = []
        self._seq = itertools.count()
        self._executed = 0
        self._non_daemon_pending = 0
        self.rng = RngRegistry(seed)
        self.seed = seed
        self.profiler: Optional[EngineProfiler] = None
        self.event_log: Optional["EventLog"] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    @property
    def executed_events(self) -> int:
        """Number of events executed so far."""
        return self._executed

    @property
    def wants_labels(self) -> bool:
        """Whether event labels are observable (profiler or event log
        attached).

        Hot callers use this to skip building label strings nobody reads:
        with ~1 message per event, the f-string per send is a measurable
        share of the unobserved hot path.
        """
        return self.profiler is not None or self.event_log is not None

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def attach_profiler(
        self, profiler: Optional[EngineProfiler] = None
    ) -> EngineProfiler:
        """Attach (and return) a profiler timing every executed callback.

        Wall-clock cost is aggregated by label category (the part before
        the first ``:``), so a run breaks down into ``Transactions``,
        ``NewPooledTransactionHashes``, ``flush``, ``fault`` ... buckets.
        Profiling only observes wall time; simulation order and the
        simulated clock are unaffected.
        """
        if profiler is None:
            profiler = EngineProfiler()
        self.profiler = profiler
        return profiler

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_observability(
        self, obs: Optional["Observability"] = None, log_events: bool = False
    ) -> "Observability":
        """Attach (and return) an observability bundle for this simulator.

        Registers a pull collector mirroring the engine's clock and event
        counters into ``obs.metrics`` (read only at export time, zero
        per-event cost).  With ``log_events=True`` the engine additionally
        appends one ``(time, "event", label)`` tuple per executed event to
        ``obs.events``, bounded by the log's capacity. With the network's
        fault and drop records in the same bundle, that log is the whole
        story of a run.
        """
        from repro.obs import Observability
        from repro.obs.wiring import instrument_simulator

        if obs is None:
            obs = Observability()
        instrument_simulator(obs, self)
        if log_events and obs.enabled:
            self.event_log = obs.events
        return obs

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        label: str = "",
        daemon: bool = False,
        args: Tuple = (),
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which the caller may ``cancel()``.
        Raises :class:`ScheduleInPastError` for negative delays. ``daemon``
        events never keep an open-ended :meth:`run` going on their own.
        ``args`` lets hot paths avoid allocating a closure per message.
        """
        if delay < 0:
            raise ScheduleInPastError(
                f"cannot schedule {delay:.6f}s in the past (now={self._now:.6f})"
            )
        when = self._now + delay
        event = Event(when, next(self._seq), callback, args, label, daemon)
        heapq.heappush(self._queue, (when, event.seq, event))
        if not daemon:
            event._pending_sim = self
            self._non_daemon_pending += 1
        return event

    def push_entries(self, entries: list) -> None:
        """Fire-and-forget scheduling for the per-message hot path.

        ``entries`` is a list of fully formed heap 5-tuples ``(time, seq,
        callback, args, label)`` with strictly positive-offset times and
        sequence numbers drawn from this simulator's counter (``_seq``,
        read afresh for each list: snapshots replace the object). Each counts as a non-daemon event, but no :class:`Event`
        handle exists, so use it only for what is never cancelled:
        transport deliveries are the canonical case (roughly one entry per
        simulated message, the single most frequent allocation in a
        campaign). One call queues a whole transport pass with one
        pending-counter update.
        """
        queue = self._queue
        push = heapq.heappush
        for entry in entries:
            push(queue, entry)
        self._non_daemon_pending += len(entries)

    def schedule_at(
        self,
        when: float,
        callback: Callable[..., None],
        label: str = "",
        daemon: bool = False,
        args: Tuple = (),
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``when``.

        ``daemon`` is threaded through to :meth:`schedule`: a recurring
        daemon process that reschedules itself via ``schedule_at`` must not
        morph into a non-daemon event (that would keep open-ended
        :meth:`run`/settle loops alive forever).
        """
        return self.schedule(when - self._now, callback, label, daemon, args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next non-cancelled event.

        Returns ``False`` when the queue is exhausted, ``True`` otherwise.
        """
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            when = entry[0]
            if len(entry) != 3:
                # Fire-and-forget call entry: never daemon, never cancelled.
                self._non_daemon_pending -= 1
                callback, args, label = entry[2], entry[3], entry[4]
            else:
                event = entry[2]
                if event.cancelled:
                    continue
                if not event.daemon:
                    event._pending_sim = None
                    self._non_daemon_pending -= 1
                callback, args, label = event.callback, event.args, event.label
            if when < self._now:
                raise SimulationError(
                    f"event at t={when} popped after clock t={self._now}"
                )
            self._now = when
            self._observed(when, label, callback, args)
            self._executed += 1
            return True
        return False

    def _observed(self, when: float, label, callback, args: Tuple) -> None:
        """Run one callback under whichever sinks are attached.

        The one place a label is read: transport entries carry a lazy
        ``(kind, from, to)`` tuple, formatted here — byte-identical to the
        eager f-string — and fed to the event log and the profiler alike.
        """
        if label.__class__ is tuple:
            label = "%s:%s->%s" % label
        if self.event_log is not None:
            self.event_log.append(when, "event", label)
        profiler = self.profiler
        if profiler is not None:
            start = perf_counter()
            callback(*args)
            profiler.account(label, perf_counter() - start)
        else:
            callback(*args)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        ``until`` is an absolute simulation time; events scheduled beyond it
        stay queued and the clock is advanced exactly to ``until``.

        An open-ended run (``until=None``) stops once only daemon events
        remain queued — otherwise a recurring fault-injection process would
        keep ``settle()`` from ever returning. A bounded run executes daemon
        events up to ``until`` like any other event.

        The cyclic garbage collector is off while the run lasts (see the
        module docstring). A run that finds it on turns it off and turns it
        back on at every exit, a raising callback included; a nested run,
        or one whose caller turned it off, finds it off and leaves it so.
        """
        # This is the hottest loop in the repo; it is deliberately flat,
        # with the common path (plain event, no profiler/event log, no bound)
        # touching only local names and C-level tuple/heap operations.
        # ``executed`` stays local and is folded into ``self._executed``
        # once on the way out (every exit path runs the finally) instead
        # of paying an attribute store per event.
        queue = self._queue
        heappop = heapq.heappop
        observed = self.wants_labels
        executed = 0
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            while queue:
                if max_events is not None and executed >= max_events:
                    return
                if until is None and self._non_daemon_pending <= 0:
                    return
                head = queue[0]
                if len(head) != 3:
                    # Fire-and-forget call entry (the per-message hot
                    # case): never daemon, never cancelled, so no payload
                    # checks.
                    when = head[0]
                    if until is not None and when > until:
                        self._now = max(self._now, until)
                        return
                    heappop(queue)
                    self._non_daemon_pending -= 1
                    if when < self._now:
                        raise SimulationError(
                            f"event at t={when} popped after clock t={self._now}"
                        )
                    self._now = when
                    if observed:
                        self._observed(when, head[4], head[2], head[3])
                    else:
                        head[2](*head[3])
                    executed += 1
                    continue
                event = head[2]
                if event.cancelled:
                    # cancel() already released the pending count, so
                    # dropping the dead entry changes nothing the checks
                    # at the top of the loop look at.
                    heappop(queue)
                    continue
                when = head[0]
                if until is not None and when > until:
                    self._now = max(self._now, until)
                    return
                heappop(queue)
                if not event.daemon:
                    event._pending_sim = None
                    self._non_daemon_pending -= 1
                if when < self._now:
                    raise SimulationError(
                        f"event at t={when} popped after clock t={self._now}"
                    )
                self._now = when
                if observed:
                    self._observed(when, event.label, event.callback, event.args)
                else:
                    event.callback(*event.args)
                executed += 1
            if until is not None:
                self._now = max(self._now, until)
        finally:
            self._executed += executed
            if paused:
                gc.enable()

    def run_for(self, duration: float, max_events: Optional[int] = None) -> None:
        """Run the simulation for ``duration`` seconds of simulated time."""
        self.run(until=self._now + duration, max_events=max_events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.3f}, pending={len(self._queue)}, "
            f"executed={self._executed})"
        )
