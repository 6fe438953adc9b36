"""Tests for the discrete-event engine."""

import gc

import pytest

from repro.errors import ScheduleInPastError, SimulationError
from repro.eth.account import Wallet
from repro.eth.network import Network, fully_connect
from repro.eth.transaction import TransactionFactory, gwei
from repro.sim.engine import Simulator
from repro.sim.snapshot import capture_simulator, restore_simulator
from repro.sim.tracing import EngineProfiler


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_event_fires_at_scheduled_time(self, sim):
        fired = []
        sim.schedule(1.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.5]

    def test_events_fire_in_chronological_order(self, sim):
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self, sim):
        order = []
        for name in "abcde":
            sim.schedule(1.0, lambda n=name: order.append(n))
        sim.run()
        assert order == list("abcde")

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ScheduleInPastError):
            sim.schedule(-0.1, lambda: None)

    def test_zero_delay_allowed(self, sim):
        fired = []
        sim.schedule(0.0, lambda: fired.append(True))
        sim.run()
        assert fired == [True]

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(2.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]

    def test_nested_scheduling_from_callback(self, sim):
        order = []

        def outer():
            order.append(("outer", sim.now))
            sim.schedule(1.0, lambda: order.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == [("outer", 1.0), ("inner", 2.0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(True))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()
        assert sim.executed_events == 0

    def test_cancelled_event_does_not_delay_quiescence(self, sim):
        """Regression: the cancelled entry counted as pending work until it
        was popped, so an open-ended run fired daemon ticks up to its time."""
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule(1.0, tick, daemon=True)

        sim.schedule(1.0, tick, daemon=True)
        sim.schedule(100.0, lambda: None).cancel()
        sim.run(max_events=500)
        assert ticks == []
        assert sim.now == 0.0

    def test_double_cancel_releases_pending_once(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.schedule(5.0, lambda: fired.append("work"))
        sim.run()
        assert fired == ["work"]

    @pytest.mark.parametrize("drive", ["run", "step"])
    def test_cancel_after_firing_releases_nothing(self, sim, drive):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("first"))
        sim.schedule(5.0, lambda: fired.append("work"))
        if drive == "run":
            sim.run(until=2.0)
        else:
            sim.step()
        event.cancel()  # PeriodicProcess.stop() from inside its own tick
        sim.run()
        assert fired == ["first", "work"]

    def test_cancel_after_restore_releases_nothing(self, sim):
        snapshot = capture_simulator(sim)
        stale = sim.schedule(1.0, lambda: None)
        restore_simulator(sim, snapshot)
        stale.cancel()
        fired = []
        sim.schedule(5.0, lambda: fired.append("work"))
        sim.run()
        assert fired == ["work"]


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.schedule(5.0, lambda: fired.append("late"))
        sim.run(until=2.0)
        assert fired == ["early"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["early", "late"]

    def test_run_for_advances_relative_duration(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run_for(0.5)
        assert sim.now == 0.5
        sim.run_for(1.0)
        assert sim.now == 1.5
        assert sim.executed_events == 1

    def test_run_until_advances_clock_even_without_events(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_max_events_bound(self, sim):
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=3)
        assert sim.executed_events == 3

    def test_step_returns_false_on_empty_queue(self, sim):
        assert sim.step() is False

    def test_executed_events_counter(self, sim):
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        sim.run()
        assert sim.executed_events == 3
        assert sim.pending_events == 0

    def test_clock_never_goes_backwards(self, sim):
        times = []
        for delay in (5.0, 1.0, 3.0, 1.0, 2.0):
            sim.schedule(delay, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)


class TestDeterminism:
    def test_same_seed_same_rng_draws(self):
        a = Simulator(seed=1).rng.stream("x").random()
        b = Simulator(seed=1).rng.stream("x").random()
        assert a == b

    def test_different_seed_different_draws(self):
        a = Simulator(seed=1).rng.stream("x").random()
        b = Simulator(seed=2).rng.stream("x").random()
        assert a != b

    def test_tracer_records_when_enabled(self):
        sim = Simulator(seed=0)
        obs = sim.attach_observability(log_events=True)
        sim.schedule(1.0, lambda: None, label="hello")
        sim.run()
        assert obs.events.filter("event") == [(1.0, "event", "hello")]


class TestScheduleAtDaemon:
    """Regression tests: ``schedule_at`` used to drop the ``daemon`` flag."""

    def test_schedule_at_threads_daemon_flag(self, sim):
        event = sim.schedule_at(2.0, lambda: None, daemon=True)
        assert event.daemon is True

    def test_schedule_at_daemon_does_not_block_quiescence(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("work"))
        sim.schedule_at(5.0, lambda: fired.append("daemon"), daemon=True)
        sim.run()
        # The open-ended run stops once only daemon events remain; before
        # the fix the t=5 event counted as regular work and executed.
        assert fired == ["work"]
        assert sim.now == 1.0

    def test_recurring_daemon_rescheduled_at_absolute_time(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule_at(sim.now + 1.0, tick, daemon=True)

        sim.schedule_at(1.0, tick, daemon=True)
        sim.schedule(2.5, lambda: ticks.append("work"))
        # max_events bounds the damage if the regression ever returns: a
        # daemon process that loses its flag on reschedule would keep the
        # open-ended run alive and tick forever.
        sim.run(max_events=50)
        assert ticks == [1.0, 2.0, "work"]

    def test_schedule_at_passes_args(self, sim):
        seen = []
        sim.schedule_at(1.0, lambda a, b: seen.append((a, b)), args=(1, 2))
        sim.run()
        assert seen == [(1, 2)]


class TestEngineProfiler:
    def test_profiler_accounts_by_label_category(self, sim):
        profiler = sim.attach_profiler()
        sim.schedule(1.0, lambda: None, "flush:n1")
        sim.schedule(2.0, lambda: None, "flush:n2")
        sim.schedule(3.0, lambda: None, "Transactions:a->b")
        sim.schedule(4.0, lambda: None)
        sim.run()
        assert profiler.total_events == 4
        stats = profiler.as_dict()
        assert stats["flush"]["events"] == 2
        assert stats["Transactions"]["events"] == 1
        assert stats[profiler.UNLABELED]["events"] == 1
        assert all(entry["seconds"] >= 0.0 for entry in stats.values())

    def test_report_lists_categories(self, sim):
        profiler = sim.attach_profiler()
        sim.schedule(1.0, lambda: None, "flush:n1")
        sim.run()
        report = profiler.report()
        assert "flush" in report
        assert "total" in report

    def test_detach_profiler_stops_accounting(self, sim):
        profiler = sim.attach_profiler()
        sim.schedule(1.0, lambda: None, "flush:n1")
        sim.run()
        sim.profiler = None
        sim.schedule(1.0, lambda: None, "flush:n2")
        sim.run()
        assert profiler.total_events == 1

    def test_wants_labels_follows_attachments(self, sim):
        assert not sim.wants_labels
        sim.attach_profiler()
        assert sim.wants_labels
        sim.profiler = None
        assert not sim.wants_labels


class TestObservedDispatch:
    """step() and run() feed both sinks through one routine."""

    @staticmethod
    def _observe(drive):
        wallet, factory = Wallet("obs"), TransactionFactory()
        network = Network(seed=7)
        for name in "abcde":
            network.create_node(name)
        fully_connect(network, "abcde")
        sim = network.sim
        obs = sim.attach_observability(log_events=True)
        profiler = sim.attach_profiler(EngineProfiler())
        for index, name in enumerate("ace"):
            network.node(name).submit_transaction(
                factory.transfer(wallet.fresh_account(), gas_price=gwei(2.0) + index)
            )
        sim.schedule(0.5, lambda: None)  # unlabeled Event entry
        sim.schedule(0.01, lambda: None, "never:fires").cancel()
        drive(sim)
        return (
            obs.events.records(),
            profiler.counts,
            sim.executed_events,
            sim.now,
        )

    def test_step_and_run_observe_identically(self):
        def stepped(sim):
            while sim.step():
                pass

        by_step = self._observe(stepped)
        by_run = self._observe(Simulator.run)
        assert by_step == by_run
        logged, counts, executed, _ = by_run
        # Both sinks saw every executed event, with the same formatted label
        # (transport tuples, flush strings and the unlabeled event alike).
        assert len(logged) == sum(counts.values()) == executed
        assert {label.partition(":")[0] or EngineProfiler.UNLABELED
                for _, _, label in logged} == set(counts)
        assert {"Transactions", "flush", "Status", EngineProfiler.UNLABELED} <= set(
            counts
        )
        assert "never" not in counts


def push_call(sim, delay, callback, label="", args=()):
    """One fire-and-forget call entry, the way the transport queues them."""
    sim.push_entries([(sim.now + delay, next(sim._seq), callback, args, label)])


class TestScheduleCall:
    """Fire-and-forget call entries (what ``push_entries`` queues) must
    interleave exactly with Event entries."""

    def test_orders_with_regular_events(self, sim):
        order = []
        sim.schedule(2.0, lambda: order.append("event"))
        push_call(sim, 1.0, order.append, args=("early",))
        push_call(sim, 2.0, order.append, args=("tied-later",))
        sim.run()
        # The tie at t=2.0 resolves by scheduling order (seq), not by shape.
        assert order == ["early", "event", "tied-later"]

    def test_counts_as_non_daemon(self, sim):
        fired = []
        sim.schedule(1.0, lambda: None, daemon=True)
        push_call(sim, 5.0, fired.append, args=("late",))
        sim.run()  # open-ended: must not quiesce before the call entry
        assert fired == ["late"]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self, sim):
        # push_entries trusts its caller's times (transport latency is
        # checked positive where it is sampled); an entry in the past is
        # still refused, by the clock guard of the pop that reaches it.
        sim.schedule(1.0, lambda: push_call(sim, -0.1, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_step_handles_call_entries(self, sim):
        order = []
        push_call(sim, 1.0, order.append, args=("a",))
        sim.schedule(2.0, lambda: order.append("b"))
        assert sim.step()
        assert order == ["a"] and sim.now == 1.0
        assert sim.step()
        assert not sim.step()
        assert order == ["a", "b"]

    def test_traced_and_profiled_like_events(self, sim):
        obs = sim.attach_observability(log_events=True)
        profiler = sim.attach_profiler()
        push_call(sim, 1.0, lambda: None, "deliver:a->b")
        sim.run()
        assert obs.events.records() == [(1.0, "event", "deliver:a->b")]
        assert profiler.as_dict()["deliver"]["events"] == 1

    def test_cancelled_event_then_call_entry_runs(self, sim):
        order = []
        handle = sim.schedule(1.0, lambda: order.append("cancelled"))
        push_call(sim, 2.0, order.append, args=("call",))
        handle.cancel()
        sim.run()
        assert order == ["call"]


@pytest.fixture
def collector_on():
    """Start with the cyclic collector on and leave it as it was found."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


@pytest.fixture
def collector_off():
    """Start with the cyclic collector off and leave it as it was found."""
    was = gc.isenabled()
    gc.disable()
    yield
    (gc.enable if was else gc.disable)()


class TestCollectorPause:
    """``run`` keeps the cyclic collector off while callbacks run and hands
    it back as it found it on every exit; ``step`` never touches it."""

    def _seen(self, sim, delay=1.0):
        """What ``gc.isenabled()`` reads inside a callback ``delay`` from now."""
        seen = []
        sim.schedule(delay, lambda: seen.append(gc.isenabled()))
        return seen

    def test_drained_run(self, sim, collector_on):
        seen = self._seen(sim)
        sim.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_run_until(self, sim, collector_on):
        seen = self._seen(sim)
        self._seen(sim, delay=5.0)
        sim.run(until=2.0)
        assert seen == [False] and sim.pending_events == 1
        assert gc.isenabled()

    def test_max_events(self, sim, collector_on):
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=1)
        assert sim.executed_events == 1
        assert gc.isenabled()

    def test_raising_callback(self, sim, collector_on):
        def boom():
            assert not gc.isenabled()
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert gc.isenabled()

    def test_nested_run_leaves_it_to_the_outer_run(self, sim, collector_on):
        inner = Simulator(seed=1)
        after_inner = []
        inner_seen = self._seen(inner)

        def drive_inner():
            inner.run()
            after_inner.append(gc.isenabled())

        sim.schedule(1.0, drive_inner)
        sim.run()
        assert inner_seen == [False]
        assert after_inner == [False]
        assert gc.isenabled()

    def test_nested_run_on_the_same_simulator(self, sim, collector_on):
        after_inner = []

        def drive_inner():
            sim.run(until=sim.now + 1.0)
            after_inner.append(gc.isenabled())

        sim.schedule(1.0, drive_inner)
        sim.schedule(1.5, lambda: None)
        sim.run()
        assert after_inner == [False]
        assert gc.isenabled()

    def test_caller_who_turned_it_off_keeps_it_off(self, sim, collector_off):
        seen = self._seen(sim)
        sim.run()
        assert seen == [False]
        assert not gc.isenabled()

    def test_caller_who_turned_it_off_keeps_it_off_after_a_raise(
        self, sim, collector_off
    ):
        sim.schedule(1.0, lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            sim.run()
        assert not gc.isenabled()

    def test_step_never_toggles_it(self, sim, collector_on):
        seen = self._seen(sim)
        push_call(sim, 2.0, lambda: seen.append(gc.isenabled()))
        assert sim.step() and sim.step()
        assert seen == [True, True]
        assert gc.isenabled()
        gc.disable()
        seen_off = self._seen(sim)
        assert sim.step()
        assert seen_off == [False]
        assert not gc.isenabled()
