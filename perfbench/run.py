"""Layered simulator benchmark: one command, every workload, checked results.

Usage (from the repository root)::

    python3 perfbench/run.py                      # every workload, table
    python3 perfbench/run.py --workload fence-512 --seed 3 --seconds 25
    python3 perfbench/run.py --workload water-inz --trace 1

``--trace 0`` times each workload with nothing patched and prints the
end-to-end metrics.  ``--trace 1`` runs one traced pass in a child
process (:mod:`perfbench.tracing`) plus one untraced reference run here,
and prints the per-layer metrics, including ``trace.overhead``.  Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The simulator is imported from ``src/`` beside this directory; without
it the benchmark exits with status 2 before printing any result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups timed per run at least; setup_s is their median.
MIN_SETUPS = 3

#: Iterations in a run from which the first is dropped as warm-up.
WARMUP_AFTER = 4


def _log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; workers count through RUSAGE_CHILDREN.
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def iterate(workload, params: dict, seed: int, workdir: Path):
    """Set up, run and check once in a fresh directory under ``workdir``.

    Returns ``((setup_s, run_s), outcome, problems)``; the first two are
    None when the workload raised, and then every operation failed.
    """
    from perfbench.workloads import check

    gc.collect()
    scratch = Path(tempfile.mkdtemp(dir=workdir))
    try:
        start = time.perf_counter()
        state = workload.setup(params)
        built = time.perf_counter()
        outcome = workload.run(params, state, scratch)
        done = time.perf_counter()
        del state
        problems = check(workload, seed, outcome)
    except Exception:
        _log(f"{workload.name} raised:\n{traceback.format_exc()}")
        return None, None, [f"{workload.name} raised"] * workload.operations(
            params)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return (built - start, done - built), outcome, problems


def _report(problems: List[Optional[str]], name: str) -> int:
    failed = [problem for problem in problems if problem]
    for problem in failed:
        _log(f"{name}: FAILED {problem}")
    return len(failed)


def measure(workload, seed: int, seconds: float,
            workdir: Path) -> Tuple[Dict[str, float], int, int]:
    """Untraced end-to-end metrics: medians over the iterations run."""
    params = workload.params(seed)
    setups: List[float] = []
    runs: List[float] = []
    rates: List[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        timings, outcome, problems = iterate(workload, params, seed, workdir)
        attempted += len(problems)
        failed += _report(problems, workload.name)
        if timings is not None:
            setup_s, run_s = timings
            setups.append(setup_s)
            runs.append(run_s)
            rates.append(outcome.sim_ns / run_s)
        del outcome
        last = time.perf_counter() - began
        # Start another iteration only if it should end within the budget.
        if timings is None or (time.perf_counter() - start + last
                               > seconds):
            break
    if len(runs) >= WARMUP_AFTER:
        # The first iteration also pays one-off costs such as heap growth.
        del setups[0], runs[0], rates[0]
    while timings is not None and len(setups) < MIN_SETUPS:
        gc.collect()
        began = time.perf_counter()
        state = workload.setup(params)
        setups.append(time.perf_counter() - began)
        del state
    gc.collect()
    metrics: Dict[str, float] = {}
    if runs:
        setup_s, run_s = statistics.median(setups), statistics.median(runs)
        metrics = {
            "setup_s": setup_s,
            "run_s": run_s,
            "wall_s": setup_s + run_s if workload.setup_in_wall else run_s,
            "sim_ns_per_s": statistics.median(rates),
        }
    metrics["peak_rss_mb"] = _peak_rss_mb()
    _log(f"{workload.name}: {len(runs)} iteration(s), "
         f"{len(setups)} set-up(s), {time.perf_counter() - start:.1f} s")
    return metrics, attempted, failed


def traced_pass(workload, params: dict, seed: int, workdir: Path) -> dict:
    """One traced iteration (call in a fresh process): per-layer metrics."""
    from perfbench import tracing
    from perfbench.workloads import SWEEP_JOBS, digest

    with tracing.Tracer(workdir) as tracer:
        timings, outcome, problems = iterate(workload, params, seed, workdir)
        if timings is None:
            return {"problems": problems}
        workers = tracer.collect_workers()
        state = json.loads(json.dumps(tracer.snapshot()))
        # Build memory from one more set-up, so that tracemalloc's cost
        # stays out of every timing above.
        gc.collect()
        tracer.trace_memory = True
        workload.setup(params)
        state["maxes"]["netsim.build_peak_mb"] = tracer.maxes.get(
            "netsim.build_peak_mb", 0.0)
    if "cold" in outcome.detail and not workers:
        raise RuntimeError("no traced worker reported; the sweep's process "
                           "pool must fork from the traced process")
    run_s = timings[1]
    spans, sums, maxes = state["spans"], state["sums"], state["maxes"]
    layers = tracing.layer_self_s(state)

    def span(name: str, index: int = 1) -> float:
        return spans.get(name, [0, 0.0, 0.0])[index]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    events = sums.get("engine.events", 0)
    hops = sums.get("netsim.router.hops", 0)
    snapshots = sums.get("md.snapshots", 0)
    detail = outcome.detail
    busy = sum(run.elapsed_s for run in detail["cold"].runs) \
        if "cold" in detail else 0.0
    metrics = {
        "engine.events": events,
        "engine.events_per_s": ratio(events, span("engine.run")),
        "engine.ns_per_event": ratio(layers.get("engine", 0.0) * 1e9,
                                     events),
        "engine.self_s": layers.get("engine", 0.0),
        "gc.s": sums.get("gc.s", 0.0),
        "gc.collections": sums.get("gc.collections", 0),
        "gc.tracked_objects": maxes.get("gc.tracked_objects", 0),
        "netsim.build_s": span("netsim.build"),
        "netsim.build_peak_mb": maxes.get("netsim.build_peak_mb", 0.0),
        "netsim.links": sums.get("netsim.links", 0),
        "netsim.channel_flits": sums.get("netsim.channel_flits", 0),
        "netsim.channel_flits_per_s": ratio(
            sums.get("netsim.channel_flits", 0), run_s),
        "netsim.link.packets": sums.get("netsim.link.packets", 0),
        "netsim.link.flits": sums.get("netsim.link.flits", 0),
        "netsim.link.busy_share": ratio(sums.get("netsim.link.busy_ns", 0.0),
                                        sums.get("netsim.link.span_ns", 0.0)),
        "netsim.router.hops": hops,
        "netsim.self_s": layers.get("netsim", 0.0),
        "netsim.ns_per_hop": ratio(layers.get("netsim", 0.0) * 1e9, hops),
        "routing.plans": span("routing.plan", 0),
        "routing.self_s": layers.get("routing", 0.0),
        "topology.self_s": layers.get("topology", 0.0),
        "traffic.injected": sums.get("traffic.injected", 0),
        "traffic.self_s": layers.get("traffic", 0.0),
        "fence.barriers": span("fence.barrier", 0),
        "fence.barrier_s": span("fence.barrier"),
        "fence.self_s": layers.get("fence", 0.0),
        "workload.self_s": layers.get("workload", 0.0),
        "md.step_s": ratio(span("md.run"), snapshots),
        "md.self_s": layers.get("md", 0.0),
        "compression.price_s": span("compression.price"),
        "compression.self_s": layers.get("compression", 0.0),
        "compression.pcache_hit_rate": outcome.results[0].get(
            "pcache_hit_rate", 0.0),
        "runner.parallel_efficiency": ratio(busy, SWEEP_JOBS * run_s),
        "runner.worker_busy_s": busy,
        "runner.cache_put_s": span("runner.cache_put"),
        "runner.cache_hit_rerun_s": detail.get("warm_s", 0.0),
        "runner.ledger_s": span("runner.ledger"),
    }
    return {"problems": problems, "run_s": run_s, "metrics": metrics,
            "digests": [digest(result) for result in outcome.results]}


def measure_traced(workload, seed: int,
                   workdir: Path) -> Tuple[Dict[str, float], int, int]:
    """Per-layer metrics: a traced child process, then an untraced run."""
    from perfbench.workloads import digest

    params = workload.params(seed)
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload.name, "--seed", str(seed), "--traced-pass"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    traced = (json.loads(child.stdout.strip().splitlines()[-1])
              if child.returncode == 0 and child.stdout.strip() else None)
    if traced is None:
        _log(f"traced pass exited with status {child.returncode}")
        traced = {"problems": ["traced pass failed"]
                  * workload.operations(params)}
    timings, outcome, problems = iterate(workload, params, seed, workdir)
    traced_problems = traced["problems"]
    if timings is not None and "digests" in traced:
        # The traced result must equal the untraced one, operation by op.
        for index, result in enumerate(outcome.results):
            if traced["digests"][index] != digest(result):
                traced_problems[index] = (traced_problems[index]
                                          or "traced result differs")
    attempted = len(problems) + len(traced_problems)
    failed = (_report(problems, workload.name)
              + _report(traced_problems, f"{workload.name} (traced)"))
    metrics = dict(traced.get("metrics", {}))
    if timings is not None and "run_s" in traced:
        metrics["trace.overhead"] = traced["run_s"] / timings[1]
    return metrics, attempted, failed


def result_line(metrics: Dict[str, float], units: Dict[str, str],
                attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory is its own."""
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS

    units = {name: spec.unit
             for name, spec in {**END_TO_END, **PER_LAYER}.items()}
    combined: Dict[str, float] = {}
    combined_units: Dict[str, str] = {}
    attempted = failed = 0
    rows = []
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            _log(f"{name} exited with status {child.returncode}")
            attempted += 1
            failed += 1
            continue
        report = json.loads(lines[-1])
        attempted += report["attempted"]
        failed += report["failed"]
        for metric, entry in report["metrics"].items():
            combined[f"{name}.{metric}"] = entry["value"]
            combined_units[f"{name}.{metric}"] = units[metric]
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "failed/attempted",
                     f"{report['failed']}/{report['attempted']}", ""))
    for name, metric, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:22} {metric:28} {shown:>14} {unit}")
    print(result_line(combined, combined_units, attempted, failed))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed; every input derives from it")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring budget per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced pass")
    parser.add_argument("--traced-pass", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        _log(f"simulator sources not found under {SRC}")
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        _log(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(WORKLOADS)} or all")
        return 2
    workload = WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.traced_pass:
            print(json.dumps(traced_pass(
                workload, workload.params(args.seed), args.seed, workdir)))
            return 0
        if args.trace:
            metrics, attempted, failed = measure_traced(workload, args.seed,
                                                        workdir)
            specs = PER_LAYER
        else:
            metrics, attempted, failed = measure(workload, args.seed,
                                                 args.seconds, workdir)
            specs = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {name: spec.unit for name, spec in specs.items()}
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {units[name]}")
    print(result_line(metrics, units, attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
