"""Self-tests of the benchmark harness, on reduced workload sizes.

These never run the benchmark itself: each workload is shrunk through
its parameters (:data:`SMALL`) so the whole file takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from perfbench import run, tracing
from perfbench.metrics import END_TO_END, NAME_RE, PER_LAYER
from perfbench.workloads import (
    DEFAULT_SEED,
    PINNED_DIGESTS,
    WORKLOADS,
    canonical_json,
    check,
    digest,
    sweep_for,
)

ROOT = Path(__file__).resolve().parent.parent

#: Parameter overrides that keep each workload's code path but shrink it.
SMALL = {
    "open-uniform-64": {"dims": (2, 2, 2), "warmup_ns": 100.0,
                        "measure_ns": 100.0, "drain_ns": 200.0},
    "fence-512": {"dims": (2, 2, 2), "hops": [1, 2, 3]},
    "water-inz": {"n_atoms": 256, "steps": 5},
    "sweep-tornado-jobs2": {"dims": (4, 1, 1), "messages_per_node": 4,
                            "window": 2,
                            "routing": ["fixed-xyz", "adaptive-escape"]},
}


def small_params(name: str, seed: int = 5) -> dict:
    return {**WORKLOADS[name].params(seed), **SMALL[name]}


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    """One small untraced iteration of every workload."""
    workdir = tmp_path_factory.mktemp("perfbench")
    results = {}
    for name, workload in WORKLOADS.items():
        timings, outcome, problems = run.iterate(
            workload, small_params(name), 5, workdir)
        assert timings is not None, name
        results[name] = (outcome, problems)
    return results


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in [*END_TO_END, *PER_LAYER, *WORKLOADS]:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == {
        name: (m.unit, m.better, m.bound) for name, m in END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == {
        name: (m.unit, m.better) for name, m in PER_LAYER.items()}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert set(PINNED_DIGESTS) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_derived_seed_follows_the_benchmark_seed(name):
    workload = WORKLOADS[name]
    first, second = workload.params(0), workload.params(1)
    seeds = [key for key in first if "seed" in key]
    assert seeds
    for key in seeds:
        assert first[key] != second[key], key
        assert workload.params(0)[key] == first[key]
    # Nothing else in the inputs depends on the seed.
    assert {k: v for k, v in first.items() if k not in seeds} == {
        k: v for k, v in second.items() if k not in seeds}


def test_sweep_grid_carries_the_derived_seeds():
    params = WORKLOADS["sweep-tornado-jobs2"].params(3)
    for point in sweep_for(params).grid:
        assert point["machine_seed"] == params["machine_seed"]
        assert point["workload_seed"] == params["workload_seed"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_composed_path_matches_registered_surface(name, outcomes):
    outcome, problems = outcomes[name]
    assert problems == [None] * len(outcome.results)
    surface = WORKLOADS[name].surface(small_params(name))
    assert canonical_json(outcome.results) == canonical_json(surface)


PERTURB = {
    "open-uniform-64": lambda r: r.update(in_flight_at_end=3),
    "fence-512": lambda r: r["fit"].update(r_squared=0.97),
    "water-inz": lambda r: r["reductions"].update(inz=1.5),
}


@pytest.mark.parametrize("name", sorted(PERTURB))
def test_perturbed_result_trips_the_check(name, outcomes, monkeypatch):
    workload = WORKLOADS[name]
    outcome = dataclasses.replace(
        outcomes[name][0],
        results=json.loads(canonical_json(outcomes[name][0].results)))
    monkeypatch.setitem(PINNED_DIGESTS, name,
                        [digest(result) for result in outcome.results])
    assert check(workload, DEFAULT_SEED, outcome) == [None]
    PERTURB[name](outcome.results[0])
    assert "digest" in check(workload, DEFAULT_SEED, outcome)[0]
    # The seed-independent invariant catches it at any other seed too.
    assert check(workload, DEFAULT_SEED + 1, outcome)[0]


def test_sweep_perturbation_trips_the_check(tmp_path):
    workload = WORKLOADS["sweep-tornado-jobs2"]
    outcome = workload.run(small_params(workload.name), None, tmp_path)
    outcome.results[1]["result"]["mean_iteration_ns"] += 1.0
    problems = check(workload, DEFAULT_SEED + 1, outcome)
    assert problems[0] is None
    assert "warm rerun differs" in problems[1]


def test_traced_pass_equals_untraced_and_restores_patches(tmp_path):
    originals = [vars(owner)[attr] for owner, attr in (
        tracing.resolve(module, path)
        for module, path, __ in tracing.ENTRY_POINTS)]
    for name in ("open-uniform-64", "sweep-tornado-jobs2"):
        workload = WORKLOADS[name]
        params = small_params(name)
        traced = run.traced_pass(workload, params, 5, tmp_path)
        __, untraced, ___ = run.iterate(workload, params, 5, tmp_path)
        assert traced["digests"] == [digest(r) for r in untraced.results]
        assert set(traced["metrics"]) == set(PER_LAYER) - {"trace.overhead"}
        assert traced["metrics"]["engine.events"] > 0
        assert traced["metrics"]["netsim.self_s"] > 0
    assert traced["metrics"]["runner.worker_busy_s"] > 0
    assert not list(tmp_path.glob("trace-*.json"))
    restored = [vars(owner)[attr] for owner, attr in (
        tracing.resolve(module, path)
        for module, path, __ in tracing.ENTRY_POINTS)]
    assert all(a is b for a, b in zip(originals, restored))
