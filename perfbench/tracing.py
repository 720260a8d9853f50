"""The traced pass: spans at public layer entry points, plus a sampler.

:class:`Tracer` wraps each public entry point in :data:`ENTRY_POINTS`
with a span that records its host duration; a span's self time is its
duration minus the time its child spans cover.  Inside the engine's run
loop the event-callback layers (netsim, routing, topology, traffic,
fence, workload) call one another with no public boundary between them,
so a statistical sampler apportions each span's self time: every
millisecond of process CPU time (``SIGPROF``) it charges the innermost
frame that belongs to a ``repro`` subsystem
(:func:`repro.observe.profile.subsystem_of`).  At roughly a microsecond
per sample this costs far less than a deterministic profiler, so the
traced timings stay close to the untraced ones.

Sweep grid points run in worker processes forked from the traced
process; they inherit the wrappers, write their totals to ``workdir``
after every task, and :meth:`Tracer.collect_workers` merges them.

Counts are read where the work happens: engine events around
``Simulator.run``, links and routers of each machine right after its
build, GC collections through ``gc.callbacks``.  Build memory comes from
``tracemalloc`` only while :attr:`Tracer.trace_memory` is set, because it
slows allocation threefold; callers measure it on a separate build.
Every patched attribute is restored on exit.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import os
import signal
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.netsim.fabric import Link, Router
from repro.netsim.packet import TrafficClass
from repro.observe.profile import subsystem_of

#: (module, attribute path, span name).  The span name's first component
#: is the layer charged when no sample landed inside the span.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.netsim.machine", "NetworkMachine.__init__", "netsim.build"),
    ("repro.netsim.machine", "NetworkMachine.plan_request_route",
     "routing.plan"),
    ("repro.engine.simulator", "Simulator.run", "engine.run"),
    ("repro.traffic.openloop", "OpenLoopHarness.run", "traffic.run"),
    ("repro.fence.engine", "FenceEngine.barrier_latency", "fence.barrier"),
    ("repro.workload.phases", "PhaseLoopHarness.run", "workload.run"),
    ("repro.md.engine", "MdEngine.water", "md.setup"),
    ("repro.md.engine", "MdEngine.run", "md.run"),
    ("repro.fullsim.speedup", "evaluate_system", "compression.price"),
    ("repro.runner.execute", "run_sweep", "runner.sweep"),
    ("repro.runner.cache", "ResultCache.put", "runner.cache_put"),
    ("repro.observe.ledger", "RunLedger.record_run", "runner.ledger"),
    ("repro.runner.experiment", "Experiment.run", "runner.task"),
)

SAMPLE_INTERVAL_S = 0.001

_OWN_DIR = str(Path(__file__).resolve().parent)


def resolve(module_name: str, path: str) -> Tuple[object, str]:
    """The object owning an entry point's attribute, and the attribute."""
    owner: object = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


def layer_of(frame) -> str:
    """The layer of the innermost repro frame at or above ``frame``."""
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename.startswith(_OWN_DIR):
            return "trace"
        subsystem = subsystem_of(filename)
        if subsystem is not None:
            return subsystem.partition(".")[2] or subsystem
        frame = frame.f_back
    return "other"


class Tracer:
    """Installs the traced pass's wrappers; use as a context manager."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = Path(workdir)
        self._pid = os.getpid()
        self._patches: List[Tuple[object, str, object]] = []
        self._old_handler = None
        self._flushes = 0
        #: Measure each build's peak memory with tracemalloc.
        self.trace_memory = False
        self._reset()

    def _reset(self) -> None:
        #: span name -> [count, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        #: "span|layer" -> samples taken while that span was innermost
        self.samples: Dict[str, int] = {}
        self.sums: Dict[str, float] = {}
        self.maxes: Dict[str, float] = {}
        # Open spans: [name, start, seconds covered by children].
        self._stack: List[list] = []
        self._machines: List[tuple] = []
        self._seen: set = set()
        self._gc_start: Optional[float] = None
        # The process these totals belong to; a forked worker resets.
        self._owner = os.getpid()

    # ------------------------------------------------------------------
    # Install / uninstall.
    # ------------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module_name, path, span in ENTRY_POINTS:
            owner, attr = resolve(module_name, path)
            raw = vars(owner)[attr]
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(raw, span))
        gc.callbacks.append(self._on_gc)
        self._old_handler = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old_handler)
        gc.callbacks.remove(self._on_gc)
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _wrap(self, raw: object, span: str) -> object:
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._span(span, raw.__func__))
        return self._span(span, raw)

    def _span(self, name: str, fn: Callable) -> Callable:
        before, after = self._hooks(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            frame = [name, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                elapsed = time.perf_counter() - frame[1]
                entry = tracer.spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += elapsed
            if after:
                # Hook work is the tracer's own: hide it from the parent.
                start = time.perf_counter()
                after(args, result, token)
                if tracer._stack:
                    tracer._stack[-1][2] += time.perf_counter() - start
            return result

        return wrapper

    def _hooks(self, name: str):
        return {
            "netsim.build": (self._build_started, self._build_done),
            "engine.run": (lambda args: args[0].events_processed,
                           self._engine_done),
            "md.run": (None, lambda args, result, token: self._add(
                "md.snapshots", len(result))),
            "runner.task": (self._task_started, self._task_done),
        }.get(name, (None, None))

    # ------------------------------------------------------------------
    # Hooks.
    # ------------------------------------------------------------------

    def _add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0) + value

    def _max(self, key: str, value: float) -> None:
        self.maxes[key] = max(self.maxes.get(key, 0), value)

    def _build_started(self, args) -> None:
        if self.trace_memory:
            tracemalloc.start()

    def _build_done(self, args, result, token) -> None:
        if self.trace_memory:
            __, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            self._max("netsim.build_peak_mb", peak / 2**20)
        machine = args[0]
        objects = gc.get_objects()
        self._max("gc.tracked_objects", len(objects))
        links, routers = [], []
        for obj in objects:
            if isinstance(obj, (Link, Router)) and id(obj) not in self._seen:
                self._seen.add(id(obj))
                (links if isinstance(obj, Link) else routers).append(obj)
        del objects
        self._machines.append((machine, links, routers))

    def _engine_done(self, args, result, events_before: int) -> None:
        self._add("engine.events", args[0].events_processed - events_before)

    def _task_started(self, args) -> None:
        if os.getpid() != self._owner:
            # First task in a forked worker: drop the coordinator's state
            # copied by fork and start this process's own sampler.
            self._reset()
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                             SAMPLE_INTERVAL_S)

    def _task_done(self, args, result, token) -> None:
        if os.getpid() == self._pid:
            return
        self._flushes += 1
        path = self.workdir / f"trace-{os.getpid()}-{self._flushes}.json"
        path.write_text(json.dumps(self.snapshot()))
        self._reset()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self._add("gc.s", time.perf_counter() - self._gc_start)
            self._add("gc.collections", 1)
            self._gc_start = None

    def _on_sample(self, signum, frame) -> None:
        if self._stack:
            key = f"{self._stack[-1][0]}|{layer_of(frame)}"
            self.samples[key] = self.samples.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals so far, with every built machine's counters folded in."""
        for machine, links, routers in self._machines:
            self._add("netsim.links", len(links))
            self._add("netsim.link.packets",
                      sum(link.packets_sent for link in links))
            self._add("netsim.link.flits",
                      sum(link.flits_sent for link in links))
            self._add("netsim.link.busy_ns",
                      sum(link.busy_ns for link in links))
            self._add("netsim.link.span_ns", len(links) * machine.sim.now)
            self._add("netsim.router.hops",
                      sum(router.packets_routed for router in routers))
            self._add("netsim.channel_flits", machine.total_channel_flits())
            self._add("traffic.injected",
                      machine.injected_counts()[TrafficClass.REQUEST])
        self._machines.clear()
        return {"spans": self.spans, "samples": self.samples,
                "sums": self.sums, "maxes": self.maxes}

    def collect_workers(self) -> int:
        """Merge and delete the totals forked workers wrote; their count."""
        paths = sorted(self.workdir.glob("trace-*.json"))
        for path in paths:
            state = json.loads(path.read_text())
            path.unlink()
            for name, (count, total, own) in state["spans"].items():
                entry = self.spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += total
                entry[2] += own
            for key, count in state["samples"].items():
                self.samples[key] = self.samples.get(key, 0) + count
            for key, value in state["sums"].items():
                self._add(key, value)
            for key, value in state["maxes"].items():
                self._max(key, value)
        return len(paths)


#: Spans that build the simulated system; their time is set-up time
#: (``netsim.build_s``, ``setup_s``), kept out of the layers' self time.
SETUP_SPANS = ("netsim.build", "md.setup")


def layer_self_s(state: dict) -> Dict[str, float]:
    """Each layer's self time outside set-up: span self time split by its
    samples."""
    by_span: Dict[str, Dict[str, int]] = {}
    for key, count in state["samples"].items():
        span, __, layer = key.partition("|")
        by_span.setdefault(span, {})[layer] = count
    layers: Dict[str, float] = {}
    for span, (__, ___, own) in state["spans"].items():
        if span in SETUP_SPANS:
            continue
        counts = by_span.get(span) or {span.partition(".")[0]: 1}
        total = sum(counts.values())
        for layer, count in counts.items():
            layers[layer] = layers.get(layer, 0.0) + own * count / total
    return layers
