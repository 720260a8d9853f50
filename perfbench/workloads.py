"""The benchmark's workloads, each split into a timed set-up and run.

Every workload drives the simulator only through public calls, and
composes them so that building the simulated system (``setup``) can be
timed apart from simulating it (``run``).  The composition must return
byte-identical results to the registered surface it decomposes
(``surface``); the self-tests pin that.

All machine, traffic and workload seeds derive from the one benchmark
seed (:func:`params`).  Each workload run is one operation, except the
sweep, where each grid point is one.  An operation fails when its result
misses the pinned digest (at :data:`DEFAULT_SEED` only), breaks a
seed-independent invariant, or raises.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.analysis.fits import fit_latency_vs_hops
from repro.engine.seeding import derive_seed
from repro.fence.engine import FenceEngine, FencePattern
from repro.fence.surface import measure_fence_curve
from repro.fullsim import speedup
from repro.fullsim.surface import COMPRESSED_LABELS, evaluate_water_system
from repro.fullsim.traffic import FULL
from repro.md import Decomposition, MdEngine
from repro.netsim import surface as netsim_surface
from repro.netsim.config import MachineConfig
from repro.observe.ledger import RunLedger, ledger_dir
from repro.runner import execute
from repro.runner.cache import ResultCache, canonical_json
from repro.runner.experiment import Sweep
from repro.runner.experiments import BUILTIN_SWEEPS
from repro.runner.grid import ParameterGrid
from repro.traffic.openloop import OpenLoopHarness
from repro.traffic.patterns import make_pattern
from repro.traffic.surface import measure_load_point

#: The seed whose result digests are pinned in :data:`PINNED_DIGESTS`.
DEFAULT_SEED = 0

#: Worker processes of the sweep workload (``run_sweep --jobs 2``).
SWEEP_JOBS = 2


@dataclass
class Outcome:
    """What one run returns: per-operation results and evidence."""

    #: One canonical JSON-able result per operation, in order.
    results: List[object]
    #: Simulated nanoseconds of modelled machine time the run covered.
    sim_ns: float
    #: Extra evidence for the checks and the per-layer metrics.
    detail: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Every parameter of the run, seeds derived from the benchmark seed.
    params: Callable[[int], dict]
    #: Builds the simulated system; timed as ``setup_s``.
    setup: Callable[[dict], object]
    #: Simulates from the first event to the result; timed as ``run_s``.
    run: Callable[[dict, object, Path], Outcome]
    #: The registered surface the composed set-up + run must equal.
    surface: Callable[[dict], List[object]]
    #: Seed-independent invariants: one problem (or None) per operation.
    invariants: Callable[[Outcome], List[Optional[str]]]
    #: False when the set-up is measured beside the workload, not in it.
    setup_in_wall: bool = True
    #: Operations one run counts (one per sweep grid point).
    operations: Callable[[dict], int] = lambda p: 1


def digest(result: object) -> str:
    """SHA-256 of a result's canonical JSON."""
    return hashlib.sha256(canonical_json(result).encode("utf-8")).hexdigest()


def _machine(dims, chip_cols: int, chip_rows: int, seed: int, routing: str):
    return netsim_surface.build_machine(config=MachineConfig(
        dims=tuple(dims), chip_cols=chip_cols, chip_rows=chip_rows,
        seed=seed, routing=routing))


# ---------------------------------------------------------------------------
# open-uniform-64: measure_load_point on a 4x4x4 torus.
# ---------------------------------------------------------------------------

def _open_params(seed: int) -> dict:
    return {
        "dims": (4, 4, 4), "chip_cols": 6, "chip_rows": 6,
        "pattern": "uniform", "routing": "randomized-minimal",
        "offered_load": 0.5,
        "machine_seed": derive_seed(seed, "open-uniform-64", "machine"),
        "traffic_seed": derive_seed(seed, "open-uniform-64", "traffic"),
        # A 30 ns burst, then a drain that outlasts the ~235 ns worst
        # latency.  Steady state would need a warm-up past that latency,
        # ~15 s of host time per iteration; short iterations let each
        # benchmark run take the median of many.
        "warmup_ns": 0.0, "measure_ns": 30.0, "drain_ns": 300.0,
    }


def _open_setup(p: dict) -> OpenLoopHarness:
    machine = _machine(p["dims"], p["chip_cols"], p["chip_rows"],
                       p["machine_seed"], p["routing"])
    return OpenLoopHarness(
        machine, make_pattern(p["pattern"], machine.torus),
        p["offered_load"], seed=p["traffic_seed"],
        warmup_ns=p["warmup_ns"], measure_ns=p["measure_ns"],
        drain_ns=p["drain_ns"])


def _open_run(p: dict, harness: OpenLoopHarness, workdir: Path) -> Outcome:
    result = harness.run().to_dict()
    return Outcome([result], harness.machine.sim.now)


def _open_invariants(outcome: Outcome) -> List[Optional[str]]:
    in_flight = outcome.results[0]["in_flight_at_end"]
    return [f"{in_flight} packets in flight at end" if in_flight else None]


# ---------------------------------------------------------------------------
# fence-512: the scaling-512-fence point, measure_fence_curve on 8x8x8.
# ---------------------------------------------------------------------------

FENCE_PATTERN = FencePattern.GC_TO_GC


def _fence_params(seed: int) -> dict:
    return {
        "dims": (8, 8, 8), "chip_cols": 6, "chip_rows": 6,
        "seed": derive_seed(seed, "fence-512", "machine"),
        "hops": [1, 2, 4, 8, 12], "request_vcs": 1, "slices": 1,
    }


def _fence_setup(p: dict) -> FenceEngine:
    machine = _machine(p["dims"], p["chip_cols"], p["chip_rows"], p["seed"],
                       "randomized-minimal")
    return FenceEngine(machine, request_vcs=p["request_vcs"],
                       slices=p["slices"])


def _fence_run(p: dict, engine: FenceEngine, workdir: Path) -> Outcome:
    latencies = {h: float(engine.barrier_latency(h, FENCE_PATTERN))
                 for h in p["hops"]}
    line = fit_latency_vs_hops(latencies)
    machine = engine.machine
    result = {
        "num_nodes": machine.torus.dims.num_nodes,
        "pattern": FENCE_PATTERN.value,
        "copies_per_direction": engine.copies_per_direction,
        "latencies": {str(h): ns for h, ns in sorted(latencies.items())},
        "fit": {
            "fixed_ns": float(line.fixed_ns),
            "per_hop_ns": float(line.per_hop_ns),
            "r_squared": float(line.r_squared),
        },
    }
    return Outcome([result], machine.sim.now)


def _fence_invariants(outcome: Outcome) -> List[Optional[str]]:
    r_squared = outcome.results[0]["fit"]["r_squared"]
    return [None if abs(r_squared - 1.0) < 1e-9
            else f"fence fit r^2 {r_squared!r} is not 1"]


# ---------------------------------------------------------------------------
# water-inz: evaluate_water_system, INZ + particle-cache pricing (Fig 9).
# ---------------------------------------------------------------------------

def _water_params(seed: int) -> dict:
    return {
        "n_atoms": 4096, "steps": 7,
        "seed": derive_seed(seed, "water-inz", "md"),
        "node_dims": (2, 2, 2), "pcache_warmup_steps": 3,
    }


def _water_setup(p: dict) -> MdEngine:
    return MdEngine.water(p["n_atoms"], seed=p["seed"])


def _water_run(p: dict, engine: MdEngine, workdir: Path) -> Outcome:
    snapshots = engine.run(p["steps"])
    decomposition = Decomposition(box=engine.system.box,
                                  node_dims=tuple(p["node_dims"]))
    system = speedup.evaluate_system(
        snapshots, decomposition, engine.field.cutoff,
        pcache_warmup_steps=p["pcache_warmup_steps"])
    hit_rates = system.outcomes[FULL.label].pcache_hit_rates
    result = {
        "n_atoms": p["n_atoms"],
        "steps": p["steps"],
        "num_nodes": system.num_nodes,
        "configs": {
            label: {"total_bits": int(outcome.total_bits),
                    "mean_step_ns": float(outcome.mean_step_ns)}
            for label, outcome in system.outcomes.items()
        },
        "reductions": {label: float(system.traffic_reduction(label))
                       for label in COMPRESSED_LABELS},
        "speedups": {label: float(system.speedup(config=label))
                     for label in COMPRESSED_LABELS},
        "pcache_hit_rate": hit_rates[-1] if hit_rates else 0.0,
        "pcache_hit_rates": hit_rates,
    }
    # The priced time steps of every configuration are modelled time.
    sim_ns = sum(outcome.mean_step_ns * len(outcome.breakdowns)
                 for outcome in system.outcomes.values())
    return Outcome([result], sim_ns)


def _water_invariants(outcome: Outcome) -> List[Optional[str]]:
    bad = {label: value
           for label, value in outcome.results[0]["reductions"].items()
           if not 0.0 < value < 1.0}
    return [f"traffic reductions outside (0, 1): {bad}" if bad else None]


# ---------------------------------------------------------------------------
# sweep-tornado-jobs2: the registered phase-loop-tornado sweep.
# ---------------------------------------------------------------------------

REGISTERED_SWEEP = BUILTIN_SWEEPS["phase-loop-tornado"]


def sweep_for(p: dict) -> Sweep:
    """The registered sweep with ``p`` overriding its grid entries."""
    (axes,) = REGISTERED_SWEEP.grid.subgrids()
    return Sweep(REGISTERED_SWEEP.experiment, ParameterGrid({**axes, **p}),
                 label=REGISTERED_SWEEP.label)


def _sweep_params(seed: int) -> dict:
    return {
        "machine_seed": derive_seed(seed, "sweep-tornado-jobs2", "machine"),
        "workload_seed": derive_seed(seed, "sweep-tornado-jobs2",
                                     "workload"),
    }


def _sweep_setup(p: dict) -> list:
    # The machines every grid point builds in its worker before its
    # first event, built here so their set-up can be timed alone.
    return [_machine(point["dims"], point["chip_cols"], point["chip_rows"],
                     point["machine_seed"], point["routing"])
            for point in sweep_for(p).grid]


def _sweep_run(p: dict, machines: list, workdir: Path) -> Outcome:
    sweep = sweep_for(p)
    cache = ResultCache(workdir / "cache")
    ledger = RunLedger(ledger_dir(cache.root), rev="perfbench")
    cold = execute.run_sweep(sweep, jobs=SWEEP_JOBS, cache=cache,
                             ledger=ledger)
    sim_ns = sum(iteration["iteration_ns"] for run in cold.runs
                 for iteration in run.result["iterations"])
    return Outcome([run.record() for run in cold.runs], sim_ns,
                   {"sweep": sweep, "cache": cache, "ledger": ledger,
                    "cold": cold})


def _sweep_invariants(outcome: Outcome) -> List[Optional[str]]:
    detail = outcome.detail
    start = time.perf_counter()
    warm = execute.run_sweep(detail["sweep"], jobs=SWEEP_JOBS,
                             cache=detail["cache"], ledger=detail["ledger"])
    detail["warm_s"] = time.perf_counter() - start
    records = detail["ledger"].records()
    problems: List[Optional[str]] = []
    for index, cold in enumerate(outcome.results):
        found = []
        if index >= len(warm.runs):
            found.append("missing from the warm rerun")
        else:
            if not warm.runs[index].cached:
                found.append("warm rerun missed the cache")
            if canonical_json(warm.runs[index].record()) != canonical_json(
                    cold):
                found.append("warm rerun differs from the cold sweep")
        cached = [record["cached"] for record in records
                  if record["grid_index"] == index]
        if cached != [False, True]:
            found.append(f"ledger holds {cached} for this point, "
                         "expected one cold and one warm record")
        problems.append("; ".join(found) or None)
    return problems


def _sweep_surface(p: dict) -> List[object]:
    return [run.record() for run in execute.run_sweep(sweep_for(p)).runs]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "open-uniform-64",
        "flit core at 64 nodes below saturation: engine, links, VC "
        "arbitration, routing and injection dominate host time",
        _open_params, _open_setup, _open_run,
        lambda p: [measure_load_point(**p)], _open_invariants),
    Workload(
        "fence-512",
        "the paper's network fence at 512 nodes: bound by machine build, "
        "GC and memory, with near-empty queues",
        _fence_params, _fence_setup, _fence_run,
        lambda p: [measure_fence_curve(**p)], _fence_invariants),
    Workload(
        "water-inz",
        "MD plus INZ and particle-cache pricing (Fig 9); runs no network "
        "events, so flit-core changes should leave it unchanged",
        _water_params, _water_setup, _water_run,
        lambda p: [evaluate_water_system(**p)], _water_invariants),
    Workload(
        "sweep-tornado-jobs2",
        "phase-loop-tornado through run_sweep --jobs 2, cache, ledger and "
        "warm rerun: the only path through runner, workload and routers",
        _sweep_params, _sweep_setup, _sweep_run, _sweep_surface,
        _sweep_invariants, setup_in_wall=False,
        operations=lambda p: len(sweep_for(p).grid)),
)}

#: Result digests at :data:`DEFAULT_SEED`, one per operation, produced by
#: the registered surfaces (which the composed paths must equal).
PINNED_DIGESTS: Dict[str, List[str]] = {
    "open-uniform-64": [
        "db3b434bf43381474f6bc148d82a981f7d7ab8074e6df365a6ac12b212fc26b6",
    ],
    "fence-512": [
        "7e4cc646361b0e1c00a9943c77b6715899566286afa30a98a37f2c8f7c7c27e0",
    ],
    "water-inz": [
        "b7e63a84c62fcabbd1bc4e72e8df1e1d54580589d98e50866f25b28e96592430",
    ],
    "sweep-tornado-jobs2": [
        "1bb0e5b489546230cf69f040f7652c59496802b2adf9729040cb9223ae95d95e",
        "372410b10db65c0b0398914f709e94f09882319ca3f6923e663223bd345e3d06",
        "55b49931c9de7a13f2dacba075c21a81e288edfa6e8850e4f1c5fdcf94552091",
        "2f1c63118f50ff5a687d3fb1cea90c587591845b63e037e36f20ee55e1444b1d",
        "d7e58cc7b61be2d48e367c594350b5536045ce1c75910deb0aacb4f5d85672c7",
    ],
}


def check(workload: Workload, seed: int,
          outcome: Outcome) -> List[Optional[str]]:
    """One problem (or None) per operation of ``outcome``."""
    problems = workload.invariants(outcome)
    if seed == DEFAULT_SEED:
        pinned = PINNED_DIGESTS[workload.name]
        for index, result in enumerate(outcome.results):
            got = digest(result)
            want = pinned[index] if index < len(pinned) else None
            if got != want:
                problems[index] = "; ".join(filter(None, [
                    problems[index],
                    f"digest {got[:16]} differs from pinned "
                    f"{(want or 'none')[:16]}"]))
    return problems
