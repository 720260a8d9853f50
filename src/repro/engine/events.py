"""Event heap for the discrete-event simulation kernel.

Heap entries are plain tuples ``(time, priority, seq, event)``, so every
heap comparison runs in C on the leading floats and ints.  ``seq`` comes
from one monotonically increasing counter and is unique per entry, which
makes the order total: ties on ``(time, priority)`` fall back to
scheduling order (FIFO), and two entries never compare their ``event``
field.  Determinism therefore never depends on how events would compare,
which keeps every simulation in this package fully reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A scheduled callback and its cancel handle.

    Attributes:
        time: Simulation time (ns in this package) at which to fire.
        priority: Lower fires first among same-time events.
        seq: Tie-breaker preserving scheduling order.
        action: Callable run as ``action(*args)`` when the event fires.
        args: Positional arguments for ``action``.
        cancelled: Cancelled events are skipped when popped.
    """

    __slots__ = ("time", "priority", "seq", "action", "args", "cancelled")

    def __init__(self, time: float, priority: int, seq: int,
                 action: Callable[..., None], args: Tuple[Any, ...] = ()
                 ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:
        return (f"Event(time={self.time!r}, priority={self.priority!r}, "
                f"seq={self.seq!r}, action={self.action!r}, "
                f"cancelled={self.cancelled!r})")


class EventQueue:
    """A deterministic min-heap of ``(time, priority, seq, event)`` entries.

    :class:`~repro.engine.simulator.Simulator` pushes and pops on
    ``heap`` and draws from ``counter`` directly, keeping its per-event
    path free of method calls; both must follow the entry layout above.
    """

    def __init__(self) -> None:
        self.heap: List[Tuple[float, int, int, Event]] = []
        self.counter = itertools.count()

    def __len__(self) -> int:
        return len(self.heap)

    def __bool__(self) -> bool:
        return bool(self.heap)

    def push(self, time: float, action: Callable[..., None], *args: Any,
             priority: int = 0) -> Event:
        """Schedule ``action(*args)`` at absolute ``time``; returns a cancel
        handle."""
        seq = next(self.counter)
        event = Event(time, priority, seq, action, args)
        heapq.heappush(self.heap, (time, priority, seq, event))
        return event

    def pop(self) -> Optional[Event]:
        """Pop the next non-cancelled event, or None if the queue drains."""
        heap = self.heap
        while heap:
            event = heapq.heappop(heap)[3]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without removing it."""
        heap = self.heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if heap:
            return heap[0][0]
        return None

    def clear(self) -> None:
        self.heap.clear()
