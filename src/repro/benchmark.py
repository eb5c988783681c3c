"""Backend wall-clock benchmark: the grid behind ``python -m repro bench``.

Unlike the E1-E10 harnesses (which regenerate the paper's *message* series),
this benchmark measures the one thing the paper's cost model ignores:
wall-clock.  Every grid point runs the same seeded scenario under every
timed backend, asserts the results are field-identical (rounds, messages,
token learnings, ``TC(E)``), and records the speedup of the fast path over
the reference engine.

Living inside the package (rather than only in ``benchmarks/``) makes the
perf trajectory reproducible from the installed entry point::

    repro bench --quick --output BENCH.json
    repro bench --quick --min-speedup 5      # CI perf-regression gate

``--min-speedup`` guards the bitset fast path: it fails (exit 1) unless the
flooding entry with the largest ``n`` in the executed grid is at least that
many times faster than the reference engine — the canary that the staged
round kernel has not silently lost its fast path.

All measurements are routed through a :class:`repro.obs.MetricsRegistry`
whose snapshot rides along in the payload (``payload["metrics"]``), so bench
output and trace files share one vocabulary.  Two further opt-ins:

* ``--track-memory`` records the ``tracemalloc`` allocation peak of the grid
  into the ``memory.peak_bytes`` gauge;
* ``--max-obs-overhead`` runs :func:`obs_overhead_entry` — an untraced run
  vs a run with a *disabled* tracer handed through the full plumbing on the
  gate scenario — and fails unless the slowdown stays under the given
  percent, guarding the tracing layer's "disabled means free" promise.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.backends import get_backend
from repro.backends.differential import diff_results
from repro.obs.metrics import MetricsRegistry, track_peak_memory
from repro.scenarios import (
    ScenarioSpec,
    materialize,
    record_from_result,
    repetition_seed,
)

#: Environment variable naming a results store the reference records are
#: merged into (matches ``benchmarks.helpers.BENCH_STORE_ENV``).
BENCH_STORE_ENV = "REPRO_BENCH_STORE"

#: The backends every grid point is timed under; the first is ground truth.
BACKENDS: Tuple[str, ...] = ("reference", "bitset")


def _flooding_spec(num_nodes: int, rounds_per_token: int = 8) -> ScenarioSpec:
    """Flooding with k = n over a static random graph.

    The paper-default phase length of n rounds makes the grid quadratic in
    wall-clock without changing the per-round work being measured; 8 rounds
    per phase completes every phase on these dense graphs and keeps the
    reference runs CI-sized.
    """
    return ScenarioSpec(
        problem="single-source",
        problem_params={"num_nodes": num_nodes, "num_tokens": num_nodes},
        algorithm="flooding",
        algorithm_params={"rounds_per_token": rounds_per_token},
        adversary="static-random",
        adversary_params={"num_nodes": num_nodes, "edge_probability": 0.25},
        name=f"bench-flooding-n{num_nodes}-k{num_nodes}",
    )


def _single_source_spec(num_nodes: int, num_tokens: int) -> ScenarioSpec:
    return ScenarioSpec(
        problem="single-source",
        problem_params={"num_nodes": num_nodes, "num_tokens": num_tokens},
        algorithm="single-source",
        adversary="churn",
        adversary_params={"changes_per_round": 2},
        name=f"bench-single-source-n{num_nodes}-k{num_tokens}",
    )


def _spanning_tree_spec(num_nodes: int, num_tokens: int) -> ScenarioSpec:
    return ScenarioSpec(
        problem="single-source",
        problem_params={"num_nodes": num_nodes, "num_tokens": num_tokens},
        algorithm="spanning-tree",
        adversary="static-random",
        adversary_params={"num_nodes": num_nodes, "edge_probability": 0.25},
        name=f"bench-spanning-tree-n{num_nodes}-k{num_tokens}",
    )


def benchmark_grid(quick: bool) -> List[ScenarioSpec]:
    """The benchmark grid; ``quick`` is the CI-sized subset.

    Both grids include flooding at n=128 — the scenario the perf-regression
    gate (``--min-speedup``) is pinned to.
    """
    if quick:
        return [
            _flooding_spec(128),
            _single_source_spec(24, 32),
            _spanning_tree_spec(24, 24),
        ]
    return [
        _flooding_spec(64),
        _flooding_spec(128),
        _single_source_spec(64, 96),
        _spanning_tree_spec(64, 64),
    ]


def bench_store():
    """The :class:`~repro.results.RunStore` named by ``REPRO_BENCH_STORE``."""
    path = os.environ.get(BENCH_STORE_ENV)
    if not path:
        return None
    from repro.results import RunStore

    return RunStore(path)


def run_entry(spec: ScenarioSpec, store=None, *, repeat: int = 1) -> Dict[str, Any]:
    """Time one scenario under every backend and diff against the reference.

    Both backends run with ``keep_trace=False`` (the memory-shedding mode)
    so the comparison measures execution, not trace storage.  With
    ``repeat > 1`` the best of ``repeat`` timings is kept per backend, which
    damps scheduler and allocator noise on small grid points.
    """
    seed = repetition_seed(spec, 0)
    timings: Dict[str, float] = {}
    results = {}
    for backend_name in BACKENDS:
        backend = get_backend(backend_name)
        best = float("inf")
        for _ in range(max(1, repeat)):
            scenario = materialize(spec)
            start = time.perf_counter()
            result = backend.run(
                scenario.problem,
                scenario.algorithm,
                scenario.adversary,
                seed=seed,
                max_rounds=spec.max_rounds,
                keep_trace=False,
            )
            best = min(best, time.perf_counter() - start)
        timings[backend_name] = best
        results[backend_name] = result
    reference = results[BACKENDS[0]]
    differences: List[str] = []
    for backend_name in BACKENDS[1:]:
        differences.extend(
            difference.field
            for difference in diff_results(
                reference, results[backend_name], compare_graphs=False
            )
        )
    if store is not None:
        store.add([record_from_result(spec, 0, seed, reference)])
    reference_seconds = timings[BACKENDS[0]]
    return {
        "scenario": spec.label,
        "algorithm": spec.algorithm,
        "adversary": spec.adversary,
        "n": spec.problem_params["num_nodes"],
        "k": spec.problem_params.get(
            "num_tokens", spec.problem_params["num_nodes"]
        ),
        "completed": reference.completed,
        "rounds": reference.rounds,
        "total_messages": reference.total_messages,
        "seconds": {name: round(value, 4) for name, value in timings.items()},
        "speedup": {
            name: round(reference_seconds / timings[name], 2)
            for name in BACKENDS[1:]
        },
        "equal": not differences,
        "differences": differences,
    }


def speedup_gate(
    entries: Sequence[Dict[str, Any]], min_speedup: float
) -> Tuple[bool, str]:
    """Check the flooding-at-largest-n bitset speedup against a floor.

    Returns ``(passed, message)``; no flooding entry in the grid also fails,
    so a silently shrunken grid cannot green-light the gate.
    """
    flooding = [entry for entry in entries if entry["algorithm"] == "flooding"]
    if not flooding:
        return False, "speedup gate: no flooding entry in the executed grid"
    entry = max(flooding, key=lambda e: e["n"])
    observed = entry["speedup"].get("bitset", 0.0)
    message = (
        f"speedup gate: bitset {observed}x vs reference on {entry['scenario']} "
        f"(required >= {min_speedup}x)"
    )
    return observed >= min_speedup, message


# ---------------------------------------------------------------------------
# Sweep benchmark: serial bitset vs the vectorized batch backend
# ---------------------------------------------------------------------------

#: The backends timed per sweep entry; the first is ground truth.
SWEEP_BACKENDS: Tuple[str, ...] = ("bitset", "batch")


def _sweep_flooding_spec(num_nodes: int, repetitions: int) -> ScenarioSpec:
    spec = _flooding_spec(num_nodes)
    return ScenarioSpec(
        **{
            **spec.to_dict(),
            "repetitions": repetitions,
            "name": f"sweep-flooding-n{num_nodes}-k{num_nodes}-r{repetitions}",
        }
    )


def _sweep_one_shot_spec(num_nodes: int, repetitions: int) -> ScenarioSpec:
    return ScenarioSpec(
        problem="random-placement",
        problem_params={"num_nodes": num_nodes, "num_tokens": num_nodes // 2},
        algorithm="one-shot-flooding",
        adversary="churn",
        adversary_params={"changes_per_round": 4},
        repetitions=repetitions,
        name=f"sweep-one-shot-n{num_nodes}-k{num_nodes // 2}-r{repetitions}",
    )


def _sweep_naive_unicast_spec(num_nodes: int, repetitions: int) -> ScenarioSpec:
    k = (num_nodes * 3) // 4
    return ScenarioSpec(
        problem="multi-source",
        problem_params={"num_nodes": num_nodes, "num_tokens": k, "num_sources": 4},
        algorithm="naive-unicast",
        adversary="churn",
        adversary_params={"changes_per_round": 2},
        repetitions=repetitions,
        name=f"sweep-naive-unicast-n{num_nodes}-k{k}-r{repetitions}",
    )


def sweep_grid(quick: bool) -> List[ScenarioSpec]:
    """The multi-repetition sweep grid; ``quick`` is the CI-sized subset.

    Both grids cover one cell per algorithm with a batch program — the
    bulk-vectorized flooding, one-shot-flooding and naive-unicast, which
    win on large lockstep rounds — and include the 32-repetition flooding
    sweep at n=128, the scenario the batch perf gate
    (``--min-batch-speedup``) is pinned to.  Every other algorithm's
    groups run on the serial bitset program, so there is nothing to time.
    """
    grid = [
        _sweep_flooding_spec(128, 32),
        _sweep_one_shot_spec(64, 16),
        _sweep_naive_unicast_spec(32, 16),
    ]
    if quick:
        return grid
    return [
        _sweep_flooding_spec(64, 32),
        *grid,
        _sweep_one_shot_spec(96, 32),
    ]


def run_sweep_entry(spec: ScenarioSpec, *, repeat: int = 1) -> Dict[str, Any]:
    """Time all repetitions of one spec serially (bitset) and batched.

    The serial side executes each repetition exactly the way the scenario
    runner would — fresh materialization per repetition, per-repetition
    seed — so the measured speedup is the real sweep-level win.  Both sides
    run with ``keep_trace=False`` and every repetition is diffed
    field-by-field.

    Timing trials are *interleaved* (serial, batch, serial, batch, ...)
    rather than run as two back-to-back blocks: on a noisy box, load drift
    during an all-serial-then-all-batch measurement lands entirely on one
    side and skews the ratio, while paired trials sample the same
    conditions.  Each side still reports its best-of-``repeat``.
    """
    from repro.batch.backend import BatchBackend

    repetitions = list(range(spec.repetitions))
    seeds = [repetition_seed(spec, repetition) for repetition in repetitions]
    serial_backend = get_backend("bitset")
    batch_backend = BatchBackend()
    serial_best = float("inf")
    batch_best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        serial_results = []
        for seed in seeds:
            scenario = materialize(spec)
            serial_results.append(
                serial_backend.run(
                    scenario.problem,
                    scenario.algorithm,
                    scenario.adversary,
                    seed=seed,
                    max_rounds=spec.max_rounds,
                    keep_trace=False,
                )
            )
        serial_best = min(serial_best, time.perf_counter() - start)

        start = time.perf_counter()
        batch_results = batch_backend.run_batch(
            spec, repetitions, keep_trace=False
        )
        batch_best = min(batch_best, time.perf_counter() - start)

    differences: List[str] = []
    for repetition, (serial, batch) in enumerate(zip(serial_results, batch_results)):
        differences.extend(
            f"rep{repetition}:{difference.field}"
            for difference in diff_results(serial, batch, compare_graphs=False)
        )
    return {
        "scenario": spec.label,
        "algorithm": spec.algorithm,
        "adversary": spec.adversary,
        "n": spec.problem_params["num_nodes"],
        "k": spec.problem_params.get(
            "num_tokens", spec.problem_params["num_nodes"]
        ),
        "repetitions": spec.repetitions,
        "completed": all(result.completed for result in serial_results),
        "rounds": max(result.rounds for result in serial_results),
        "total_messages": sum(result.total_messages for result in serial_results),
        "seconds": {
            "bitset": round(serial_best, 4),
            "batch": round(batch_best, 4),
        },
        "speedup": {"batch": round(serial_best / batch_best, 2)},
        "equal": not differences,
        "differences": differences,
    }


def batch_speedup_gate(
    entries: Sequence[Dict[str, Any]], min_speedup: float
) -> Tuple[bool, str]:
    """Gate every sweep entry, then the flooding-at-largest-n floor.

    Two checks, both mandatory:

    * **every** entry must show a batch speedup of at least 1.0x — any
      cell where the vectorized backend lost to the serial loop fails the
      gate loudly, naming the entry (no averaging across the grid);
    * the flooding sweep at the largest ``n`` must additionally clear
      ``min_speedup``.
    """
    slow = [
        entry for entry in entries if entry["speedup"].get("batch", 0.0) < 1.0
    ]
    if slow:
        worst = min(slow, key=lambda e: e["speedup"].get("batch", 0.0))
        return False, (
            f"batch speedup gate: {len(slow)} of {len(entries)} entries below "
            f"1.0x — worst is {worst['scenario']} at "
            f"{worst['speedup'].get('batch', 0.0)}x (every swept cell must "
            f"beat the serial loop)"
        )
    flooding = [entry for entry in entries if entry["algorithm"] == "flooding"]
    if not flooding:
        return False, "batch speedup gate: no flooding sweep in the executed grid"
    entry = max(flooding, key=lambda e: e["n"])
    observed = entry["speedup"].get("batch", 0.0)
    message = (
        f"batch speedup gate: all {len(entries)} entries >= 1.0x; batch "
        f"{observed}x vs serial bitset on {entry['scenario']} "
        f"(required >= {min_speedup}x)"
    )
    return observed >= min_speedup, message


def parallel_group_entry(
    *, workers: int = 2, repeat: int = 1
) -> Dict[str, Any]:
    """Wall-clock of whole batch groups fanned out to a worker pool.

    Executes a four-cell vectorizable flooding grid (each cell = one batch
    group of 16 repetitions) twice through the ``RunSet`` streaming path:
    once in-process (``workers=1``, the serial-group baseline) and once
    through the process pool (one ``run_batch`` payload per group).  Wall-clock includes pool startup — that is what a user pays —
    and ``cpu_count`` rides along so single-core readings (where the pool
    can only add overhead) are interpretable.  Records must be identical
    between the two paths.
    """
    from repro.api import Experiment

    def grid():
        return (
            Experiment.grid(
                algorithm="flooding",
                adversary="static-random",
                num_nodes=[48, 64, 80, 96],
                num_tokens=32,
            )
            .backend("batch")
            .seeds(16)
        )

    serial_best = float("inf")
    parallel_best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        serial_records = grid().run(workers=1).records()
        serial_best = min(serial_best, time.perf_counter() - start)

        start = time.perf_counter()
        parallel_records = grid().run(workers=workers).records()
        parallel_best = min(parallel_best, time.perf_counter() - start)

    return {
        "grid": "flooding static-random n=[48,64,80,96] k=32 x16 reps",
        "cells": len(serial_records),
        "groups": 4,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "seconds": {
            "serial_groups": round(serial_best, 4),
            "parallel_groups": round(parallel_best, 4),
        },
        "speedup": {"parallel": round(serial_best / parallel_best, 2)},
        "equal": serial_records == parallel_records,
    }


def _record_entry_metrics(
    registry: MetricsRegistry, prefix: str, entry: Dict[str, Any]
) -> None:
    """Fold one grid entry into the registry's counters and histograms."""
    registry.counter(f"{prefix}.entries").inc()
    if not entry["equal"]:
        registry.counter(f"{prefix}.mismatches").inc()
    for backend_name, seconds in entry["seconds"].items():
        registry.histogram(f"{prefix}.seconds.{backend_name}").observe(seconds)
    for backend_name, speedup in entry["speedup"].items():
        registry.histogram(f"{prefix}.speedup.{backend_name}").observe(speedup)


def run_sweep_benchmark(
    *,
    quick: bool = False,
    repeat: int = 1,
    progress=None,
    registry: Optional[MetricsRegistry] = None,
    track_memory: bool = False,
) -> Dict[str, Any]:
    """Run the sweep grid and return the batch-trajectory payload.

    Measurements land in ``registry`` (one is created when not given) and
    its snapshot rides along as ``payload["metrics"]``; ``track_memory``
    additionally records the tracemalloc allocation peak of the whole grid.
    """
    if registry is None:
        registry = MetricsRegistry()
    entries = []

    def _run_grid() -> None:
        for spec in sweep_grid(quick):
            entry = run_sweep_entry(spec, repeat=repeat)
            entries.append(entry)
            _record_entry_metrics(registry, "bench.sweep", entry)
            if progress is not None:
                status = "ok" if entry["equal"] else f"MISMATCH: {entry['differences']}"
                progress(
                    f"{entry['scenario']}: n={entry['n']} k={entry['k']} "
                    f"reps={entry['repetitions']} bitset={entry['seconds']['bitset']}s "
                    f"batch={entry['seconds']['batch']}s "
                    f"({entry['speedup']['batch']}x) [{status}]"
                )

    if track_memory:
        with track_peak_memory(registry):
            _run_grid()
    else:
        _run_grid()
    parallel = parallel_group_entry(repeat=repeat)
    registry.histogram("bench.sweep.parallel_speedup").observe(
        parallel["speedup"]["parallel"]
    )
    if progress is not None:
        progress(
            f"parallel groups: {parallel['groups']} groups x "
            f"{parallel['cells'] // parallel['groups']} reps, serial "
            f"{parallel['seconds']['serial_groups']}s vs "
            f"{parallel['workers']} workers "
            f"{parallel['seconds']['parallel_groups']}s "
            f"({parallel['speedup']['parallel']}x on "
            f"{parallel['cpu_count']} cpus) "
            f"[{'ok' if parallel['equal'] else 'MISMATCH'}]"
        )
    return {
        "benchmark": "batch-sweeps",
        "grid": "quick" if quick else "full",
        "backends": list(SWEEP_BACKENDS),
        "entries": entries,
        "parallel_groups": parallel,
        "metrics": registry.snapshot(),
    }


def run_benchmark(
    *,
    quick: bool = False,
    repeat: int = 1,
    store=None,
    progress=None,
    registry: Optional[MetricsRegistry] = None,
    track_memory: bool = False,
) -> Dict[str, Any]:
    """Run the grid and return the trajectory payload.

    Measurements land in ``registry`` (one is created when not given) and
    its snapshot rides along as ``payload["metrics"]``; ``track_memory``
    additionally records the tracemalloc allocation peak of the whole grid.
    """
    if registry is None:
        registry = MetricsRegistry()
    entries = []

    def _run_grid() -> None:
        for spec in benchmark_grid(quick):
            entry = run_entry(spec, store=store, repeat=repeat)
            entries.append(entry)
            _record_entry_metrics(registry, "bench", entry)
            if progress is not None:
                speedups = ", ".join(
                    f"{name} {entry['speedup'][name]}x" for name in BACKENDS[1:]
                )
                status = "ok" if entry["equal"] else f"MISMATCH: {entry['differences']}"
                progress(
                    f"{entry['scenario']}: n={entry['n']} k={entry['k']} "
                    f"rounds={entry['rounds']} reference={entry['seconds']['reference']}s "
                    f"({speedups}) [{status}]"
                )

    if track_memory:
        with track_peak_memory(registry):
            _run_grid()
    else:
        _run_grid()
    return {
        "benchmark": "backends",
        "grid": "quick" if quick else "full",
        "backends": list(BACKENDS),
        "entries": entries,
        "metrics": registry.snapshot(),
    }


# ---------------------------------------------------------------------------
# Observability overhead: the "disabled tracing is free" gate
# ---------------------------------------------------------------------------


def obs_overhead_entry(*, repeat: int = 3) -> Dict[str, Any]:
    """Measure what a disabled tracer costs on the bitset fast path.

    Runs the perf-gate scenario (flooding at n=128) three ways per trial:

    * ``plain`` — no tracer argument at all (the pre-observability call);
    * ``disabled`` — ``NULL_TRACER`` handed through the whole plumbing
      (backend kwarg, kernel construction, the per-run ``enabled`` check),
      which must select the same uninstrumented round loop;
    * ``noop`` — a :class:`~repro.obs.NullTracer` forced *enabled*, paying
      span creation and context entry per stage while every span is free.

    ``overhead_pct`` (``disabled`` vs ``plain``) is what the gate checks:
    the promise that tracing you did not ask for costs nothing.  If the
    kernel ever loses its dual-loop structure and starts opening spans
    unconditionally, the disabled run inherits the ``noop`` cost (~5% at
    this grid point) and the gate trips.  ``noop_overhead_pct`` rides along
    as the informational ceiling.  Best-of-``max(repeat, 3)`` per side
    damps scheduler noise; trials interleave all three sides so drift hits
    them equally.
    """
    from repro.obs.tracing import NULL_TRACER, NullTracer

    spec = _flooding_spec(128)
    seed = repetition_seed(spec, 0)
    backend = get_backend("bitset")
    forced = NullTracer(enabled=True)
    trials = max(repeat, 3)
    best = {"plain": float("inf"), "disabled": float("inf"), "noop": float("inf")}
    results: Dict[str, Any] = {}
    sides = (("plain", {}), ("disabled", {"tracer": NULL_TRACER}), ("noop", {"tracer": forced}))
    for _ in range(trials):
        for side, kwargs in sides:
            scenario = materialize(spec)
            start = time.perf_counter()
            results[side] = backend.run(
                scenario.problem,
                scenario.algorithm,
                scenario.adversary,
                seed=seed,
                max_rounds=spec.max_rounds,
                keep_trace=False,
                **kwargs,
            )
            best[side] = min(best[side], time.perf_counter() - start)
    differences = [
        f"{side}:{difference.field}"
        for side in ("disabled", "noop")
        for difference in diff_results(
            results["plain"], results[side], compare_graphs=False
        )
    ]
    return {
        "scenario": spec.label,
        "backend": "bitset",
        "trials": trials,
        "seconds": {side: round(value, 4) for side, value in best.items()},
        "overhead_pct": round((best["disabled"] / best["plain"] - 1.0) * 100.0, 2),
        "noop_overhead_pct": round((best["noop"] / best["plain"] - 1.0) * 100.0, 2),
        "equal": not differences,
        "differences": differences,
    }


def obs_overhead_gate(
    entry: Dict[str, Any], max_overhead_pct: float
) -> Tuple[bool, str]:
    """Check an :func:`obs_overhead_entry` result against a ceiling.

    Also fails when any traced run diverged from the plain one — a tracer
    must never change results, only observe them.
    """
    observed = entry["overhead_pct"]
    message = (
        f"obs overhead gate: disabled tracer {observed:+.2f}% vs untraced on "
        f"{entry['scenario']} (allowed <= {max_overhead_pct}%; "
        f"enabled no-op spans {entry['noop_overhead_pct']:+.2f}%)"
    )
    if not entry["equal"]:
        return False, message + f" [MISMATCH: {entry['differences']}]"
    return observed <= max_overhead_pct, message
