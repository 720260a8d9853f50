"""Tests for links (credits, serialization) and the router base class."""

import gc
from collections import Counter

import pytest

from repro.engine import Simulator
from repro.netsim import (
    CoreAddress,
    MachineConfig,
    NetworkMachine,
    Packet,
    PacketKind,
    TrafficClass,
)
from repro.netsim.fabric import FabricError, Link, Router


def make_packet(num_flits=1):
    return Packet(kind=PacketKind.COUNTED_WRITE,
                  traffic_class=TrafficClass.REQUEST,
                  src_node=(0, 0, 0), dst_node=(1, 0, 0),
                  src_core=CoreAddress(0, 0, 0),
                  dst_core=CoreAddress(0, 0, 0),
                  num_flits=num_flits)


class TestLink:
    def test_delivers_after_serialization_and_latency(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", latency_ns=5.0, ser_ns_per_flit=1.0,
                    vcs=2, credit_flits=8,
                    deliver=lambda p, v, l: arrivals.append((sim.now, v)))
        sim.at(0.0, lambda: link.send(make_packet(num_flits=2), 1))
        sim.run()
        assert arrivals == [(7.0, 1)]  # 2 flits x 1 ns + 5 ns

    def test_serialization_is_exclusive(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", latency_ns=0.0, ser_ns_per_flit=2.0,
                    vcs=1, credit_flits=64,
                    deliver=lambda p, v, l: arrivals.append(sim.now))
        def send_two():
            link.send(make_packet(), 0)
            link.send(make_packet(), 0)
        sim.at(0.0, send_two)
        sim.run()
        assert arrivals == [2.0, 4.0]  # back-to-back, not overlapped

    def test_vc_range_checked(self):
        sim = Simulator()
        link = Link(sim, "l", 0.0, 1.0, vcs=2, credit_flits=8,
                    deliver=lambda p, v, l: None)
        with pytest.raises(FabricError):
            link.send(make_packet(), 5)

    def test_credits_block_and_release(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", latency_ns=0.0, ser_ns_per_flit=1.0,
                    vcs=1, credit_flits=2,
                    deliver=lambda p, v, l: arrivals.append(sim.now))
        def send_three():
            for __ in range(3):
                link.send(make_packet(num_flits=1), 0)
        sim.at(0.0, send_three)
        sim.run()
        # Only two packets fit the downstream queue.
        assert len(arrivals) == 2
        assert link.queued == 1
        # Downstream frees one slot: the third proceeds.
        link.return_credits(0, 1)
        sim.run()
        assert len(arrivals) == 3

    def test_round_robin_prevents_vc_starvation(self):
        """A continuously backlogged VC must not starve a low-rate VC.

        Pins the PR-3 arbitration rebuild: with per-VC queues and
        round-robin arbitration, a low-rate VC's head packet is served
        within two serialization slots of arriving (the packet already
        in service, then its own slot) no matter how deep the other
        VC's backlog is.  A shared FIFO would park it behind the entire
        backlog (~40 slots here).
        """
        sim = Simulator()
        deliveries = []
        link = Link(sim, "l", latency_ns=0.0, ser_ns_per_flit=1.0,
                    vcs=2, credit_flits=64,
                    deliver=lambda p, v, l: deliveries.append((sim.now, v)))

        def backlog():
            for __ in range(40):
                link.send(make_packet(), 0)

        sim.at(0.0, backlog)
        enqueued = []

        def trickle():
            enqueued.append(sim.now)
            link.send(make_packet(), 1)

        for i in range(8):
            sim.at(5.0 * i, trickle)
        sim.run()
        vc1_times = [t for t, vc in deliveries if vc == 1]
        assert len(vc1_times) == 8
        for t_in, t_out in zip(enqueued, vc1_times):
            assert t_out <= t_in + 2.0 + 1e-9
        # ... while the backlogged VC keeps making progress in between.
        vc0_before_last = sum(1 for t, vc in deliveries
                              if vc == 0 and t < vc1_times[-1])
        assert vc0_before_last >= 8

    def test_stats(self):
        sim = Simulator()
        link = Link(sim, "l", 0.0, 1.5, vcs=1, credit_flits=8,
                    deliver=lambda p, v, l: None)
        sim.at(0.0, lambda: link.send(make_packet(num_flits=2), 0))
        sim.run()
        assert link.packets_sent == 1
        assert link.flits_sent == 2
        assert link.busy_ns == pytest.approx(3.0)

    def test_untouched_vc_allocates_no_queue(self):
        sim = Simulator()
        link = Link(sim, "l", 0.0, 1.0, vcs=3, credit_flits=8,
                    deliver=lambda p, v, l: None)
        assert link.packets_sent_by_vc == [0, 0, 0]
        sim.at(0.0, lambda: link.send(make_packet(num_flits=2), 1))
        sim.run()
        assert link.packets_sent_by_vc == [0, 1, 0]
        for vc in (0, 2):
            assert link._queues[vc] is None
            assert link.queued_on(vc) == 0
            assert link.queued_flits_on(vc) == 0
            assert link.vc_credits(vc) == 8
        assert link.queued_on(1) == 0 and link.vc_credits(1) == 6

    def test_fail_vc_leaves_sibling_links_live(self):
        """Links share one empty dead-VC set; failing a VC on one link
        must not kill that VC anywhere else."""
        sim = Simulator()
        arrivals = []
        failed = Link(sim, "a", 0.0, 1.0, vcs=2, credit_flits=8,
                      deliver=lambda p, v, l: None)
        sibling = Link(sim, "b", 0.0, 1.0, vcs=2, credit_flits=8,
                       deliver=lambda p, v, l: arrivals.append((sim.now, v)))
        failed.fail_vc(0)
        assert failed.vc_credits(0) == 0 and failed.vc_credits(1) == 8
        assert sibling.vc_credits(0) == 8 and sibling.vc_credits(1) == 8
        sim.at(0.0, lambda: sibling.send(make_packet(), 0))
        sim.run()
        assert arrivals == [(1.0, 0)]
        failed.restore_vc(0)
        assert failed.vc_credits(0) == 8


class _StubRouter(Router):
    def __init__(self, sim, name, decision, latency=1.0):
        super().__init__(sim, name)
        self._decision = decision
        self._latency = latency

    def pipeline_ns(self, packet, in_port):
        return self._latency

    def route(self, packet, vc, in_port):
        return self._decision


class TestRouter:
    def test_local_sink_delivery(self):
        sim = Simulator()
        got = []
        router = _StubRouter(sim, "r", ("local", "gc0", None))
        router.add_sink("gc0", got.append)
        packet = make_packet()
        sim.at(0.0, lambda: router.receive(packet, 0, "inject", None))
        sim.run()
        assert got == [packet]
        assert router.packets_routed == 1

    def test_missing_sink_raises(self):
        sim = Simulator()
        router = _StubRouter(sim, "r", ("local", "nope", None))
        sim.at(0.0, lambda: router.receive(make_packet(), 0, "inject", None))
        with pytest.raises(FabricError):
            sim.run()

    def test_missing_output_raises(self):
        sim = Simulator()
        router = _StubRouter(sim, "r", ("link", "U+", 0))
        sim.at(0.0, lambda: router.receive(make_packet(), 0, "inject", None))
        with pytest.raises(FabricError):
            sim.run()

    def test_duplicate_wiring_rejected(self):
        sim = Simulator()
        router = _StubRouter(sim, "r", ("local", "gc0", None))
        link = Link(sim, "l", 0.0, 1.0, 1, 8, lambda p, v, l: None)
        router.add_output("U+", link)
        with pytest.raises(FabricError):
            router.add_output("U+", link)
        router.add_sink("gc0", lambda p: None)
        with pytest.raises(FabricError):
            router.add_sink("gc0", lambda p: None)

    def test_pipeline_latency_charged(self):
        sim = Simulator()
        times = []
        router = _StubRouter(sim, "r", ("local", "gc0", None), latency=3.5)
        router.add_sink("gc0", lambda p: times.append(sim.now))
        sim.at(1.0, lambda: router.receive(make_packet(), 0, "inject", None))
        sim.run()
        assert times == [4.5]

    def test_credits_returned_upstream_on_delivery(self):
        sim = Simulator()
        router = _StubRouter(sim, "r", ("local", "gc0", None))
        router.add_sink("gc0", lambda p: None)
        link = Link(sim, "up", 0.0, 1.0, vcs=1, credit_flits=1,
                    deliver=lambda p, v, l: router.receive(p, v, "in", l))
        def send_two():
            link.send(make_packet(), 0)
            link.send(make_packet(), 0)
        sim.at(0.0, send_two)
        sim.run()
        # Second packet required the first's credit to come back.
        assert link.packets_sent == 2

    def test_credit_returns_when_downstream_link_accepts(self):
        """In a two-link chain the upstream credit comes back when the
        downstream link accepts the packet, not when the packet arrives
        at the router between them, and it comes back exactly once."""
        sim = Simulator()
        arrivals = []
        delivered = []

        class Recording(_StubRouter):
            def pipeline_ns(self, packet, in_port):
                arrivals.append((sim.now, in_port))
                return 1.0

        router = Recording(sim, "r", ("link", "out", 0))
        up = Link(sim, "up", 0.0, 1.0, vcs=1, credit_flits=1,
                  deliver=router, in_port="in")
        down = Link(sim, "down", 0.0, 1.0, vcs=1, credit_flits=1,
                    deliver=lambda p, v, l: delivered.append(sim.now))
        router.add_output("out", down)

        def send_two():
            up.send(make_packet(), 0)
            up.send(make_packet(), 0)

        sim.at(0.0, send_two)
        sim.run()
        # The first packet is accepted downstream at 2.0, which frees
        # the upstream credit for the second; the second reaches the
        # router at 3.0 but waits on the downstream link's credit.
        assert arrivals == [(1.0, "in"), (3.0, "in")]
        assert delivered == [3.0]
        assert down.queued == 1
        assert up.vc_credits(0) == 0
        sim.at(10.0, lambda: down.return_credits(0, 1))
        sim.run()
        assert delivered == [3.0, 11.0]
        assert up.vc_credits(0) == 1


def test_machine_build_creates_no_queues_or_closures():
    """A built machine holds no per-VC deque and no per-link closure:
    queues appear on first send, and routers are the links' delivery
    callables."""
    config = MachineConfig(dims=(2, 2, 2), chip_cols=6, chip_rows=6)
    NetworkMachine(config=config)  # warm imports and shared caches
    gc.collect()
    before = Counter(type(obj).__name__ for obj in gc.get_objects())
    machine = NetworkMachine(config=config)
    after = Counter(type(obj).__name__ for obj in gc.get_objects())
    assert len(machine.chips) == 8
    for kind in ("deque", "function", "cell"):
        assert after[kind] - before[kind] <= 0, kind
