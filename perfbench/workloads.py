"""The benchmark's workloads: the repository's paper experiments, from a seed.

Each workload is an :class:`repro.Experiment` built from the scenario
shapes of one experiment harness in ``benchmarks/`` — same problem,
algorithm, adversary and parameter couplings — with every base seed taken
from the benchmark's ``--seed``, so one seed always yields the same inputs.
Only the repetition count is the benchmark's own: it sizes one pass.

* ``single-source`` — E3 of ``benchmarks/bench_single_source.py``
  (Theorem 3.1): Algorithm 1 with k = 2n for n in {8, 12, 16, 24} under
  churn of 3 and 4 changes per round at edge probability 0.3.  Each
  repetition group runs in-process as one vectorized batch-kernel pass.
  It runs with one worker: ``run(workers>1)`` needs a
  ``multiprocessing.Pool``, whose locks are POSIX semaphores in
  ``/dev/shm``, outside the checkout the benchmark may write to.
* ``table1`` — E1 of ``benchmarks/bench_table1.py`` (Table 1): the
  Oblivious-Multi-Source algorithm (Algorithm 2, forced two-phase) at
  n = 18 over k in {12, 18, 36, 72}, s = min(n - 2, k) sources, on the
  rewiring-regular expander of degree 6 with a 200-round schedule.  The
  harness's 4000-round cap is left at the program's default: with fresh
  inputs every pass, about one k = 72 cell in a thousand needs more
  rounds.  Groups run in-process on the batch backend's per-lane replay.
* ``lower-bound`` — E2 of ``benchmarks/bench_lower_bound.py`` (Section 2):
  naive flooding with k = n random-placement tokens for n in
  {8, 12, 16, 20} against the strongly adaptive free-edge adversary.
  Adaptive adversaries cannot run in lockstep lanes, so every cell runs
  serially and the batch path is bypassed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

def single_source(repro: Any, seed: int) -> Any:
    specs: List[Any] = [
        repro.ScenarioSpec(
            problem="single-source",
            problem_params={"num_nodes": n, "num_tokens": 2 * n},
            algorithm="single-source",
            adversary="churn",
            adversary_params={"changes_per_round": churn, "edge_probability": 0.3},
            seed=seed,
            name="E3-single-source-under-churn",
        )
        for n in (8, 12, 16, 24)
        for churn in (3, 4)
    ]
    return repro.Experiment.from_specs(specs).seeds(12)


def table1(repro: Any, seed: int) -> Any:
    n = 18
    specs: List[Any] = [
        repro.ScenarioSpec(
            problem="multi-source",
            problem_params={"num_nodes": n, "num_sources": min(n - 2, k), "num_tokens": k, "seed": seed},
            algorithm="oblivious",
            algorithm_params={"force_two_phase": True, "center_probability": 0.2},
            adversary="rewiring-regular",
            adversary_params={"num_nodes": n, "num_rounds": 200, "degree": 6, "seed": seed},
            seed=seed,
            name="E1-table1-oblivious",
        )
        for k in (12, 18, 36, 72)
    ]
    return repro.Experiment.from_specs(specs).seeds(8)


def lower_bound(repro: Any, seed: int) -> Any:
    specs: List[Any] = [
        repro.ScenarioSpec(
            problem="random-placement",
            problem_params={"num_nodes": n, "num_tokens": n, "seed": seed},
            algorithm="flooding",
            adversary="lower-bound",
            seed=seed,
            name="E2-flooding-vs-lower-bound",
        )
        for n in (8, 12, 16, 20)
    ]
    return repro.Experiment.from_specs(specs).seeds(2)


#: Workload name -> builder ``(repro_module, seed) -> Experiment``.
WORKLOADS: Dict[str, Callable[[Any, int], Any]] = {
    "single-source": single_source,
    "table1": table1,
    "lower-bound": lower_bound,
}
