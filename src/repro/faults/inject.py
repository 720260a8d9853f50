"""Applies a fault schedule to a built machine.

The injector translates :class:`~repro.faults.schedule.FaultEvent`
records into concrete actions on the machine's channel
:class:`~repro.netsim.fabric.Link` objects (``fail`` / ``restore`` /
``fail_vc``) and mirrors every action into the machine's
:class:`~repro.faults.state.FaultState` so the reroute adviser and the
fence engine see a consistent picture.  Events at ``time_ns <= 0`` are
applied synchronously during machine construction; later events (and
flap restores) become ordinary simulator events, so timed faults
interleave deterministically with traffic.
"""

from __future__ import annotations

from typing import List, Tuple

from ..topology.torus import Coord
from .schedule import FaultEvent, FaultSchedule, cable_links, router_links

__all__ = ["FaultInjector"]

Direction = Tuple[int, int]


class FaultInjector:
    """Owns the lifecycle of one machine's fault schedule."""

    def __init__(self, machine, schedule: FaultSchedule) -> None:
        self.machine = machine
        self.schedule = schedule
        self.applied_events: List[FaultEvent] = []

    def apply(self) -> None:
        """Arm the whole schedule (called once at machine build)."""
        sim = self.machine.sim
        for event in self.schedule:
            if event.time_ns <= 0:
                self._apply_event(event)
            else:
                sim.at(event.time_ns, self._apply_event, event)
            if event.kind == "flap":
                sim.at(event.restore_ns, self._restore_event, event)

    # ------------------------------------------------------------------

    def _event_links(self, event: FaultEvent) -> List[Tuple[Coord, Direction]]:
        torus = self.machine.torus
        if event.kind == "dead-router":
            return router_links(torus, event.node)
        return cable_links(torus, event.node, event.axis)

    def _apply_event(self, event: FaultEvent) -> None:
        state = self.machine.fault_state
        if event.kind == "dead-router":
            state.kill_node(self.machine.torus.normalize(event.node))
        for owner, direction in self._event_links(event):
            for slice_index in (0, 1):
                link = self.machine.channel_link(owner, direction,
                                                 slice_index)
                if event.kind == "dead-vc":
                    link.fail_vc(event.vc)
                    state.kill_vc(owner, direction, slice_index, event.vc)
                else:
                    link.fail()
                    state.kill_channel(owner, direction, slice_index)
        self.applied_events.append(event)

    def _restore_event(self, event: FaultEvent) -> None:
        state = self.machine.fault_state
        for owner, direction in self._event_links(event):
            for slice_index in (0, 1):
                link = self.machine.channel_link(owner, direction,
                                                 slice_index)
                link.restore()
                state.revive_channel(owner, direction, slice_index)
