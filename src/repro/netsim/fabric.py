"""Links and the router base class for the flit-level simulator.

A :class:`Link` models one physical connection (an on-chip mesh channel or
an off-chip SERDES slice): it owns the serialization resource (one packet
at a time, ``num_flits`` flit-times each) and a per-VC credit pool sized to
the eight-flit input queues of the downstream router (Section III-B).

A :class:`Router` receives packets on input ports, charges its pipeline
latency, asks its subclass for a routing decision, and forwards on the
chosen output link.  Flow control is credit-based virtual cut-through:
a packet consumes downstream credits when it starts on a link and returns
them when it leaves the downstream router's input queue.

An idle link is a few slots: its per-VC send queues are created on first
use, queue entries are plain ``(packet, upstream_link, upstream_vc)``
tuples, and routers are themselves the links' delivery callables, so a
large machine builds no closure, deque or record per channel.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..engine.simulator import Simulator
from .packet import Packet


class FabricError(RuntimeError):
    """Raised on wiring or routing bugs."""


#: Queue entry: the packet plus the upstream link (and its VC) owed the
#: packet's credits once this link accepts it; ``None`` for injection.
_Entry = Tuple[Packet, Optional["Link"], int]

#: The dead-VC set of every link with no dead VC; :meth:`Link.fail_vc`
#: replaces it with the link's own set instead of mutating it.
_NO_DEAD_VCS: frozenset = frozenset()


class Link:
    """A point-to-point channel with credits and a serialization resource.

    Each virtual channel has its own send queue; the serialization
    resource arbitrates round-robin over the VCs whose head packet has
    downstream credits.  The per-VC queues matter for correctness, not
    just fairness: a VC blocked on credits must not stall the others, or
    the dateline VC discipline of the torus routing
    (:mod:`repro.routing`) could deadlock behind a single shared FIFO.

    Attributes:
        name: Debug name.
        latency_ns: Propagation delay after serialization completes
            (wire + SERDES for off-chip; 0 for on-chip).
        ser_ns_per_flit: Serialization time per flit.
        vcs: Number of virtual channels.
        credit_flits: Input-queue depth per VC at the receiver.
        deliver: Called as ``deliver(packet, vc, link)`` on arrival; a
            :class:`Router` is such a callable.
        in_port: The receiving router's input port for this link.
    """

    __slots__ = ("_sim", "name", "latency_ns", "ser_ns_per_flit", "vcs",
                 "_credits", "_deliver", "in_port", "_busy_until", "_queues",
                 "_queued", "_next_vc", "failed", "_dead_vcs", "packets_sent",
                 "flits_sent", "_sent_by_vc", "busy_ns", "monitor")

    def __init__(self, sim: Simulator, name: str, latency_ns: float,
                 ser_ns_per_flit: float, vcs: int, credit_flits: int,
                 deliver: Callable[[Packet, int, "Link"], None],
                 in_port: str = "") -> None:
        self._sim = sim
        self.name = name
        self.latency_ns = latency_ns
        self.ser_ns_per_flit = ser_ns_per_flit
        self.vcs = vcs
        self._credits = [credit_flits] * vcs
        self._deliver = deliver
        self.in_port = in_port
        self._busy_until = 0.0
        # A VC's deque is created by its first send; None tests false
        # wherever an empty queue would.
        self._queues: List[Optional[Deque[_Entry]]] = [None] * vcs
        self._queued = 0  # packets across all of _queues
        self._next_vc = 0  # round-robin arbitration pointer
        self.failed = False
        self._dead_vcs = _NO_DEAD_VCS
        self.packets_sent = 0
        self.flits_sent = 0
        self._sent_by_vc: Optional[List[int]] = None  # first dispatch
        self.busy_ns = 0.0
        # Observability (repro.observe): a LinkMonitor when the owning
        # machine is observed, else None — the unobserved hot path pays
        # only these None checks.
        self.monitor = None

    @property
    def packets_sent_by_vc(self) -> List[int]:
        """Packets dispatched per VC (zeros before the first dispatch)."""
        if self._sent_by_vc is None:
            return [0] * self.vcs
        return self._sent_by_vc

    def send(self, packet: Packet, vc: int, upstream: Optional["Link"] = None,
             upstream_vc: int = 0) -> None:
        """Queue ``packet`` for transmission on ``vc``.

        ``upstream`` is the link the packet arrived on: it gets the
        packet's credits back on ``upstream_vc`` when this link accepts
        the packet, freeing its slot in the router's input queue.
        """
        if not 0 <= vc < self.vcs:
            raise FabricError(f"{self.name}: VC {vc} out of range")
        queue = self._queues[vc]
        if queue is None:
            queue = self._queues[vc] = deque()
        queue.append((packet, upstream, upstream_vc))
        self._queued += 1
        if self.monitor is not None:
            self.monitor.on_enqueue(self._sim.now, packet, vc)
        self._dispatch()

    def return_credits(self, vc: int, flits: int) -> None:
        """Downstream freed input-queue space; retry blocked sends."""
        self._credits[vc] += flits
        self._dispatch()

    def _eligible_vc(self) -> Optional[int]:
        """The next VC (round-robin) whose head packet has credits.

        Scans ``_next_vc .. vcs-1`` then ``0 .. _next_vc-1``; a pointer
        equal to ``vcs`` therefore scans from 0, so callers may advance it
        without wrapping.
        """
        if not self._queued:
            return None
        queues = self._queues
        credits = self._credits
        dead = self._dead_vcs
        start = self._next_vc
        for vc in range(start, self.vcs):
            queue = queues[vc]
            if (queue and credits[vc] >= queue[0][0].num_flits
                    and not (dead and vc in dead)):
                return vc
        for vc in range(start):
            queue = queues[vc]
            if (queue and credits[vc] >= queue[0][0].num_flits
                    and not (dead and vc in dead)):
                return vc
        return None

    def _eligible_count(self) -> int:
        """How many VCs could dispatch right now (monitor bookkeeping)."""
        count = 0
        for vc in range(self.vcs):
            if vc in self._dead_vcs:
                continue
            queue = self._queues[vc]
            if queue and self._credits[vc] >= queue[0][0].num_flits:
                count += 1
        return count

    def _blocked_vcs(self) -> List[int]:
        """VCs with queued packets that cannot dispatch (monitor bookkeeping).

        A VC is blocked when its head packet lacks downstream credits (or
        the VC is dead) — the per-VC detail the stall-attribution tap
        records.  Only computed when a monitor is attached, so unobserved
        dispatch never pays for it.
        """
        blocked = []
        for vc in range(self.vcs):
            queue = self._queues[vc]
            if not queue:
                continue
            if vc in self._dead_vcs or self._credits[vc] < queue[0][0].num_flits:
                blocked.append(vc)
        return blocked

    def _dispatch(self) -> None:
        if self.failed:
            # A dead channel holds its queued sends indefinitely (no
            # events, so an open-loop run simply drains around it); a
            # later restore() re-dispatches whatever is stranded.
            return
        now = self._sim.now
        monitor = self.monitor
        while True:
            vc = self._eligible_vc()
            if vc is None:
                # Every queued VC is blocked on credits (or empty).
                if monitor is not None and self.queued:
                    monitor.on_stall(now, self._blocked_vcs())
                return
            if self._busy_until > now:
                # Channel busy: retry when it frees.
                self._sim.at(self._busy_until, self._dispatch)
                return
            self._next_vc = vc + 1  # _eligible_vc wraps vcs to 0
            conflicts = (self._eligible_count() - 1
                         if monitor is not None else 0)
            packet, upstream, upstream_vc = self._queues[vc].popleft()
            self._queued -= 1
            flits = packet.num_flits
            self._credits[vc] -= flits
            ser = flits * self.ser_ns_per_flit
            start = now
            self._busy_until = start + ser
            self.busy_ns += ser
            self.packets_sent += 1
            self.flits_sent += flits
            sent_by_vc = self._sent_by_vc
            if sent_by_vc is None:
                sent_by_vc = self._sent_by_vc = [0] * self.vcs
            sent_by_vc[vc] += 1
            if upstream is not None:
                # Accepted: the packet leaves the upstream input queue.
                upstream.return_credits(upstream_vc, flits)
            arrival = self._busy_until + self.latency_ns
            if monitor is not None:
                monitor.on_transmit(start, packet, vc, self._busy_until,
                                    arrival, conflicts)
            self._sim.at(arrival, self._deliver, packet, vc, self)

    @property
    def queued(self) -> int:
        return self._queued

    # -- fault injection (repro.faults) -----------------------------------

    def fail(self) -> None:
        """Kill the channel: stop dispatching and withdraw all credits.

        Queued and future sends are accepted but held; credit probes
        (:meth:`vc_credits`) read zero so adaptive choosers route away.
        """
        self.failed = True

    def restore(self) -> None:
        """Revive a failed channel and re-dispatch stranded sends."""
        if not self.failed:
            return
        self.failed = False
        self._dispatch()

    def fail_vc(self, vc: int) -> None:
        """Kill one virtual channel; the others keep flowing."""
        if not 0 <= vc < self.vcs:
            raise FabricError(f"{self.name}: VC {vc} out of range")
        self._dead_vcs = self._dead_vcs | {vc}

    def restore_vc(self, vc: int) -> None:
        self._dead_vcs = self._dead_vcs - {vc}
        self._dispatch()

    # -- per-VC visibility (adaptive routing's credit/occupancy probe) ----

    def vc_credits(self, vc: int) -> int:
        """Downstream input-queue credits currently held for ``vc``.

        A failed link (or a dead VC) reads zero: the adaptive chooser's
        headroom test then rejects it without fault-specific logic.
        """
        if self.failed or vc in self._dead_vcs:
            return 0
        return self._credits[vc]

    def queued_on(self, vc: int) -> int:
        """Packets waiting locally on ``vc``'s send queue."""
        queue = self._queues[vc]
        return len(queue) if queue else 0

    def queued_flits_on(self, vc: int) -> int:
        """Flits waiting locally on ``vc``'s send queue.

        ``vc_credits(vc) - queued_flits_on(vc)`` is the headroom the
        per-hop adaptive chooser (:mod:`repro.routing.escape`) scores:
        credits not yet spoken for by packets already committed to the
        VC.
        """
        queue = self._queues[vc]
        if not queue:
            return 0
        return sum(entry[0].num_flits for entry in queue)


class Router:
    """Base class: pipeline delay, subclass routing, credit bookkeeping.

    Subclasses implement :meth:`route` returning either
    ``("link", out_port, out_vc)`` or ``("local", sink_name, None)``;
    local sinks are registered callbacks (endpoint delivery).

    A router is the delivery callable of the links that feed it: each
    such link carries the router's input port as ``Link.in_port``.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self._sim = sim
        self.name = name
        self._out: Dict[str, Link] = {}
        self._sinks: Dict[str, Callable[[Packet], None]] = {}
        self.packets_routed = 0

    # -- wiring ----------------------------------------------------------

    def add_output(self, port: str, link: Link) -> None:
        if port in self._out:
            raise FabricError(f"{self.name}: duplicate output port {port}")
        self._out[port] = link

    def add_sink(self, port: str, handler: Callable[[Packet], None]) -> None:
        if port in self._sinks:
            raise FabricError(f"{self.name}: duplicate sink {port}")
        self._sinks[port] = handler

    def output(self, port: str) -> Link:
        try:
            return self._out[port]
        except KeyError:
            raise FabricError(
                f"{self.name}: no output port {port!r}; "
                f"have {sorted(self._out)}") from None

    def output_or_none(self, port: str) -> Optional[Link]:
        """The link wired to ``port``, or ``None`` before wiring.

        For observers (statistics, congestion probes) that must tolerate
        partially wired fabrics without the FabricError of
        :meth:`output`.
        """
        return self._out.get(port)

    # -- pipeline ---------------------------------------------------------

    def pipeline_ns(self, packet: Packet, in_port: str) -> float:
        """Pipeline latency charged on arrival; subclasses override."""
        return 0.0

    def __call__(self, packet: Packet, vc: int, link: Link) -> None:
        """Link delivery: ``packet`` arrives on ``link``'s input port."""
        self.receive(packet, vc, link.in_port, link)

    def receive(self, packet: Packet, vc: int, in_port: str,
                from_link: Optional[Link]) -> None:
        """Entry point for packets from a link or local injection.

        ``from_link`` (``None`` for injection) is owed the packet's
        credits on ``vc`` once the packet leaves this router.
        """
        delay = self.pipeline_ns(packet, in_port)
        self._sim.after(delay, self._forward, packet, vc, in_port, from_link)

    def _forward(self, packet: Packet, vc: int, in_port: str,
                 from_link: Optional[Link]) -> None:
        self.packets_routed += 1
        if packet.hop_log is not None:
            packet.log_hop(f"{self.name}[{in_port}]")
        target, port, out_vc = self.route(packet, vc, in_port)
        if target == "local":
            if from_link is not None:
                from_link.return_credits(vc, packet.num_flits)
            handler = self._sinks.get(port)
            if handler is None:
                raise FabricError(f"{self.name}: no sink {port!r}")
            handler(packet)
            return
        link = self.output(port)
        link.send(packet, out_vc if out_vc is not None else vc,
                  from_link, vc)

    # -- routing (subclass responsibility) --------------------------------

    def route(self, packet: Packet, vc: int,
              in_port: str) -> Tuple[str, str, Optional[int]]:
        raise NotImplementedError
