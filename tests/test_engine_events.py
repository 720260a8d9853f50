"""Unit tests for the event queue and simulator kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EventQueue, SimulationError, Simulator


class TestEventQueue:
    def test_empty_queue_pops_none(self):
        q = EventQueue()
        assert q.pop() is None
        assert not q
        assert len(q) == 0

    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(3.0, lambda: fired.append(3))
        q.push(1.0, lambda: fired.append(1))
        q.push(2.0, lambda: fired.append(2))
        while (e := q.pop()) is not None:
            e.action()
        assert fired == [1, 2, 3]

    def test_fifo_among_same_time(self):
        q = EventQueue()
        fired = []
        for i in range(10):
            q.push(5.0, lambda i=i: fired.append(i))
        while (e := q.pop()) is not None:
            e.action()
        assert fired == list(range(10))

    def test_priority_beats_insertion_order(self):
        q = EventQueue()
        fired = []
        q.push(5.0, lambda: fired.append("late"), priority=1)
        q.push(5.0, lambda: fired.append("early"), priority=0)
        while (e := q.pop()) is not None:
            e.action()
        assert fired == ["early", "late"]

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        fired = []
        handle = q.push(1.0, lambda: fired.append("cancelled"))
        q.push(2.0, lambda: fired.append("kept"))
        handle.cancel()
        while (e := q.pop()) is not None:
            e.action()
        assert fired == ["kept"]

    def test_push_carries_args(self):
        q = EventQueue()
        fired = []
        q.push(1.0, lambda *a: fired.append(a), "x", 2, priority=1)
        event = q.pop()
        event.action(*event.args)
        assert fired == [("x", 2)]
        assert (event.time, event.priority) == (1.0, 1)

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        handle.cancel()
        assert q.peek_time() == 2.0


class TestSimulator:
    def test_run_advances_time(self):
        sim = Simulator()
        fired = []
        sim.at(5.0, lambda: fired.append(sim.now))
        sim.at(7.5, lambda: fired.append(sim.now))
        end = sim.run()
        assert fired == [5.0, 7.5]
        assert end == 7.5

    def test_after_is_relative(self):
        sim = Simulator()
        times = []
        sim.at(10.0, lambda: sim.after(2.5, lambda: times.append(sim.now)))
        sim.run()
        assert times == [12.5]

    def test_at_and_after_pass_positional_args(self):
        sim = Simulator()
        fired = []
        sim.at(2.0, lambda a, b: fired.append((sim.now, a, b)), "at", 1)
        sim.after(1.0, lambda a, b: fired.append((sim.now, a, b)), "after", 2)
        sim.at(3.0, fired.append, ("no", "unpack"))
        sim.run()
        assert fired == [(1.0, "after", 2), (2.0, "at", 1), ("no", "unpack")]

    def test_priority_is_keyword_only(self):
        sim = Simulator()
        fired = []
        # A positional value after the action is an argument, never a
        # priority: both events keep priority 0 and fire FIFO.
        sim.at(1.0, fired.append, 1)
        sim.at(1.0, fired.append, 0)
        sim.after(1.0, fired.append, "first", priority=-1)
        sim.run()
        assert fired == ["first", 1, 0]

    def test_cancelled_head_with_until(self):
        sim = Simulator()
        fired = []
        head = sim.at(1.0, fired.append, "cancelled")
        sim.at(3.0, fired.append, "late")
        head.cancel()
        assert sim.run(until=2.0) == 2.0
        assert fired == []
        assert sim.events_processed == 0
        assert sim.pending_events == 1  # the cancelled head was discarded
        sim.run()
        assert fired == ["late"]
        assert sim.events_processed == 1

    def test_cancelled_head_with_max_events(self):
        sim = Simulator()
        fired = []
        handles = [sim.at(float(t), fired.append, t) for t in range(5)]
        handles[0].cancel()
        handles[2].cancel()
        sim.run(max_events=2)
        # Cancelled events do not spend the budget.
        assert fired == [1, 3]
        assert sim.events_processed == 2
        assert sim.now == 3.0
        sim.run(max_events=0)
        assert fired == [1, 3]
        sim.run()
        assert fired == [1, 3, 4]
        assert sim.events_processed == 3

    def test_scheduling_in_past_raises(self):
        sim = Simulator()
        sim.at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(5.0, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda: None)

    def test_run_until_time_limit(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.at(t, lambda t=t: fired.append(t))
        sim.run(until=2.5)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.5
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_stop_from_event(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: (fired.append(1), sim.stop()))
        sim.at(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        sim.run()
        assert fired == [1, 2]

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in range(5):
            sim.at(float(t), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_run_until_idle_detects_livelock(self):
        sim = Simulator()

        def reschedule():
            sim.after(1.0, reschedule)

        sim.at(0.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)

    def test_reset(self):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0

    def test_deterministic_cascades(self):
        """Two identical simulations interleave identically."""

        def build():
            sim = Simulator()
            log = []

            def spawn(depth):
                log.append((sim.now, depth))
                if depth < 3:
                    sim.after(1.0, lambda: spawn(depth + 1))
                    sim.after(1.0, lambda: spawn(depth + 1))

            sim.at(0.0, lambda: spawn(0))
            sim.run()
            return log

        assert build() == build()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5).map(float),
                          st.integers(-2, 2)),
                max_size=40))
def test_pop_order_is_time_priority_insertion(schedule):
    """Random ``(time, priority)`` schedules fire in ``(time, priority,
    insertion)`` order, each with its own args unchanged."""
    sim = Simulator()
    fired = []
    for index, (time, priority) in enumerate(schedule):
        sim.at(time, lambda *args: fired.append(args), index, (time, priority),
               priority=priority)
    sim.run()
    expected = sorted(((t, p, i) for i, (t, p) in enumerate(schedule)))
    assert fired == [(i, (t, p)) for t, p, i in expected]
    assert sim.events_processed == len(schedule)
