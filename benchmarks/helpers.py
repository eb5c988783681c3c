"""Shared helpers for the benchmark harnesses.

Every benchmark module regenerates one of the paper's evaluation artifacts
(the E1-E10 experiment index).  Benchmarks describe their configurations as
:class:`repro.scenarios.ScenarioSpec` objects and execute them through the
Scenario API, so the same (problem, algorithm, adversary) triples can be
re-run from the CLI (``python -m repro sweep``) or serialized to JSON.  The
helpers here run executions, fit scaling exponents and print the regenerated
tables so that ``pytest benchmarks/ --benchmark-only`` produces both timing
numbers and the paper-shaped series.

Benchmark trajectories persist through the results warehouse: set
``REPRO_BENCH_STORE=<dir>`` and every spec-driven execution is also recorded
in a :class:`repro.results.RunStore` there, so ``python -m repro analyze
$REPRO_BENCH_STORE --bounds`` reproduces the printed series from the same
records the library's own pipeline writes.  Ingestion is idempotent;
re-running a benchmark adds nothing new.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.experiments import fit_power_law
from repro.analysis.reporting import format_table
from repro.core.engine import run_execution
from repro.core.problem import DisseminationProblem
from repro.core.result import ExecutionResult
from repro.results import RunStore
from repro.scenarios import ScenarioSpec, run_scenario
from repro.scenarios.runner import record_from_result, repetition_seed

#: Environment variable naming the benchmark run-store directory.
BENCH_STORE_ENV = "REPRO_BENCH_STORE"

_BENCH_STORES: Dict[str, RunStore] = {}


def bench_store() -> Optional[RunStore]:
    """The benchmark run store, or ``None`` when persistence is not enabled.

    One :class:`RunStore` is kept per path so repeated per-repetition calls
    do not re-open the manifest each time.
    """
    path = os.environ.get(BENCH_STORE_ENV)
    if not path:
        return None
    if path not in _BENCH_STORES:
        _BENCH_STORES[path] = RunStore(path)
    return _BENCH_STORES[path]


def run_spec_once(
    spec: ScenarioSpec, repetition: int = 0, store: Optional[RunStore] = None
) -> ExecutionResult:
    """Run one repetition of a scenario spec and return the full result.

    The run's record is merged into ``store`` (default: the
    ``REPRO_BENCH_STORE`` store) so benchmark trajectories flow through the
    same records-out path as CLI sweeps.
    """
    result = run_scenario(spec, repetition=repetition)
    store = store if store is not None else bench_store()
    if store is not None:
        seed = repetition_seed(spec, repetition)
        store.add([record_from_result(spec, repetition, seed, result)])
    return result


def run_once(
    problem_factory: Callable[[], DisseminationProblem],
    algorithm_factory: Callable[[], object],
    adversary_factory: Callable[[], object],
    seed: int = 0,
    max_rounds: Optional[int] = None,
) -> ExecutionResult:
    """Run a single execution from factories (for components the registries
    cannot express, e.g. adversaries replaying a precomputed schedule)."""
    return run_execution(
        problem_factory(),
        algorithm_factory(),
        adversary_factory(),
        seed=seed,
        max_rounds=max_rounds,
    )


def print_section(title: str, table: str) -> None:
    """Print a titled table (captured by pytest, shown with ``-s`` or on failure)."""
    banner = "=" * len(title)
    print(f"\n{title}\n{banner}\n{table}\n")


def scaling_row(xs: Sequence[float], ys: Sequence[float], label: str) -> List[object]:
    """A table row with the fitted power-law exponent of ``ys`` against ``xs``."""
    exponent, _ = fit_power_law(xs, ys)
    return [label, f"{exponent:.2f}"]


def summary_table(rows: Sequence[Dict[str, object]], columns: Sequence[str]) -> str:
    """Format dictionaries as a table using a fixed column order."""
    return format_table(columns, [[row.get(column, "") for column in columns] for row in rows])
