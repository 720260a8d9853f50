"""The benchmark's metric definitions, the single source for names and units.

``BENCHMARK.json`` at the repository root repeats the name, unit and
better-direction of every metric here (a self-test keeps the two in
step).  What the JSON file cannot hold lives here: which end-to-end
metric each per-layer metric should move, on which workload, and the
workload where it should stay put.  A change that claims a gain on one
layer is judged against these predictions.

Host time is always named as host time (``*_s``); simulated statistics
are checked by the result digest, never timed.
"""

from __future__ import annotations

import re
from typing import Dict, NamedTuple

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


class EndToEnd(NamedTuple):
    unit: str
    better: str
    bound: float
    meaning: str


class PerLayer(NamedTuple):
    unit: str
    better: str
    moves: str      # the end-to-end metric and workload it should move
    still_on: str   # the workload where it should not move


END_TO_END: Dict[str, EndToEnd] = {
    "setup_s": EndToEnd(
        "s", "lower", 0.25,
        "host seconds to build the simulated system before its first "
        "event (median of several set-ups)"),
    "run_s": EndToEnd(
        "s", "lower", 0.25,
        "host seconds from the first event to the result"),
    "wall_s": EndToEnd(
        "s", "lower", 0.25,
        "host seconds for the whole workload: setup_s + run_s (the cold "
        "sweep alone for the sweep workload)"),
    "sim_ns_per_s": EndToEnd(
        "ns/s", "higher", 0.25,
        "simulated nanoseconds of modelled machine time per host second "
        "of run_s"),
    "peak_rss_mb": EndToEnd(
        "MB", "lower", 0.1,
        "peak resident memory of the workload's process and its workers"),
}

_OPEN = "open-uniform-64"
_FENCE = "fence-512"
_WATER = "water-inz"
_SWEEP = "sweep-tornado-jobs2"

PER_LAYER: Dict[str, PerLayer] = {
    "engine.events": PerLayer(
        "count", "lower", f"run_s on {_OPEN}", _WATER),
    "engine.events_per_s": PerLayer(
        "1/s", "higher", f"run_s on {_OPEN}", _WATER),
    "engine.ns_per_event": PerLayer(
        "ns", "lower", f"run_s on {_OPEN}", _WATER),
    "engine.self_s": PerLayer(
        "s", "lower", f"run_s on {_OPEN}", _WATER),
    "gc.s": PerLayer(
        "s", "lower", f"setup_s and wall_s on {_FENCE}", _WATER),
    "gc.collections": PerLayer(
        "count", "lower", f"setup_s and wall_s on {_FENCE}", _WATER),
    "gc.tracked_objects": PerLayer(
        "count", "lower", f"setup_s and wall_s on {_FENCE}", _WATER),
    "netsim.build_s": PerLayer(
        "s", "lower", f"setup_s on {_FENCE}", _WATER),
    "netsim.build_peak_mb": PerLayer(
        "MB", "lower", f"setup_s and peak_rss_mb on {_FENCE}", _WATER),
    "netsim.links": PerLayer(
        "count", "lower", f"setup_s and peak_rss_mb on {_FENCE}", _WATER),
    "netsim.channel_flits": PerLayer(
        "count", "lower", f"run_s on {_OPEN}", _WATER),
    "netsim.channel_flits_per_s": PerLayer(
        "1/s", "higher", f"run_s on {_OPEN}", _WATER),
    "netsim.link.packets": PerLayer(
        "count", "lower", f"run_s on {_OPEN}", _FENCE),
    "netsim.link.flits": PerLayer(
        "count", "lower", f"run_s on {_OPEN}", _FENCE),
    "netsim.link.busy_share": PerLayer(
        "ratio", "higher", f"run_s on {_OPEN}", _FENCE),
    "netsim.router.hops": PerLayer(
        "count", "lower", f"run_s on {_OPEN}", _FENCE),
    "netsim.self_s": PerLayer(
        "s", "lower", f"run_s on {_OPEN}", _FENCE),
    "netsim.ns_per_hop": PerLayer(
        "ns", "lower", f"run_s on {_OPEN}", _FENCE),
    "routing.plans": PerLayer(
        "count", "lower", f"run_s on {_OPEN}, wall_s on {_SWEEP}", _WATER),
    "routing.self_s": PerLayer(
        "s", "lower", f"run_s on {_OPEN}, wall_s on {_SWEEP}", _WATER),
    "topology.self_s": PerLayer(
        "s", "lower", f"run_s on {_OPEN}, wall_s on {_SWEEP}", _WATER),
    "traffic.injected": PerLayer(
        "count", "higher", f"run_s on {_OPEN}, wall_s on {_SWEEP}", _WATER),
    "traffic.self_s": PerLayer(
        "s", "lower", f"run_s on {_OPEN}, wall_s on {_SWEEP}", _WATER),
    "fence.barriers": PerLayer(
        "count", "higher", f"run_s on {_FENCE}", _OPEN),
    "fence.barrier_s": PerLayer(
        "s", "lower", f"run_s on {_FENCE}", _OPEN),
    "fence.self_s": PerLayer(
        "s", "lower", f"run_s on {_FENCE}", _OPEN),
    "workload.self_s": PerLayer(
        "s", "lower", f"wall_s on {_SWEEP}", _OPEN),
    "md.step_s": PerLayer(
        "s", "lower", f"run_s on {_WATER}", _OPEN),
    "md.self_s": PerLayer(
        "s", "lower", f"run_s on {_WATER}", _OPEN),
    "compression.price_s": PerLayer(
        "s", "lower", f"run_s on {_WATER}", _OPEN),
    "compression.self_s": PerLayer(
        "s", "lower", f"run_s on {_WATER}", _OPEN),
    "compression.pcache_hit_rate": PerLayer(
        "ratio", "higher", f"run_s on {_WATER}", _OPEN),
    "runner.parallel_efficiency": PerLayer(
        "ratio", "higher", f"wall_s on {_SWEEP}", _OPEN),
    "runner.worker_busy_s": PerLayer(
        "s", "lower", f"wall_s on {_SWEEP}", _OPEN),
    "runner.cache_put_s": PerLayer(
        "s", "lower", f"wall_s on {_SWEEP}", _OPEN),
    "runner.cache_hit_rerun_s": PerLayer(
        "s", "lower", f"wall_s on {_SWEEP}", _OPEN),
    "runner.ledger_s": PerLayer(
        "s", "lower", f"wall_s on {_SWEEP}", _OPEN),
    "trace.overhead": PerLayer(
        "ratio", "lower", "none: traced run_s over untraced run_s", "-"),
}
