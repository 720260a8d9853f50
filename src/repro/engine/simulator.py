"""Discrete-event simulator kernel.

All network simulations in this package run on :class:`Simulator`.  Time is
measured in nanoseconds (float); components that think in clock cycles
convert via their chip configuration.  The kernel is deliberately small:
an event heap, a current time, and a run loop with step/time limits.

Actions are scheduled as ``action, *args`` and fired as ``action(*args)``,
so hot paths schedule bound methods with their arguments instead of
allocating a closure per event.  ``priority`` is keyword-only.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from .events import Event, EventQueue


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.at(5.0, fired.append, "a")
        >>> _ = sim.after(2.0, lambda: fired.append(sim.now))
        >>> sim.run()
        5.0
        >>> fired
        [2.0, 'a']
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        # Scheduling and the run loop work on the queue's heap directly.
        self._heap = self._queue.heap
        self._counter = self._queue.counter
        self._now = 0.0
        self._events_processed = 0
        self._running = False
        self._stop_requested = False

    # ------------------------------------------------------------------
    # Time and scheduling.
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def at(self, time: float, action: Callable[..., None], *args: Any,
           priority: int = 0) -> Event:
        """Schedule ``action(*args)`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} ns; now is {self._now} ns")
        seq = next(self._counter)
        event = Event(time, priority, seq, action, args)
        heappush(self._heap, (time, priority, seq, event))
        return event

    def after(self, delay: float, action: Callable[..., None], *args: Any,
              priority: int = 0) -> Event:
        """Schedule ``action(*args)`` ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self._now + delay
        seq = next(self._counter)
        event = Event(time, priority, seq, action, args)
        heappush(self._heap, (time, priority, seq, event))
        return event

    # ------------------------------------------------------------------
    # Run loop.
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Process a single event.  Returns False when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        self._now = event.time
        self._events_processed += 1
        event.action(*event.args)
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or event budget.

        Returns the simulation time when the loop stopped.  Cancelled
        events at the head of the queue are discarded without counting
        against ``max_events`` or ``events_processed``.
        """
        self._running = True
        self._stop_requested = False
        heap = self._heap
        first = self._events_processed
        try:
            while heap and not self._stop_requested:
                time, __, __, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if until is not None and time > until:
                    self._now = until
                    break
                if (max_events is not None
                        and self._events_processed - first >= max_events):
                    break
                heappop(heap)
                self._now = time
                self._events_processed += 1
                event.action(*event.args)
        finally:
            self._running = False
        return self._now

    def run_until_idle(self, max_events: int = 50_000_000) -> float:
        """Run to completion with a safety budget against livelock."""
        end = self.run(max_events=max_events)
        if self._queue.peek_time() is not None:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events")
        return end

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stop_requested = True

    def reset(self) -> None:
        self._queue.clear()
        self._now = 0.0
        self._events_processed = 0
