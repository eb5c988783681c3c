"""Legacy experiment runner plus record aggregation and scaling fits.

.. deprecated::
    :class:`ExperimentRunner` predates the declarative Scenario API and is
    kept as a thin shim for existing callers.  New code should describe
    experiments as :class:`repro.scenarios.ScenarioSpec` objects and run
    them with :class:`repro.scenarios.ScenarioRunner`, which adds JSON
    serialization, grid sweeps and multiprocessing fan-out.

The analysis helpers remain first-class:

* :func:`aggregate_records` averages records sharing the same parameters;
* :func:`fit_power_law` fits ``y ≈ c · x^α`` on a measured series so the
  *shape* of a bound (the exponent α) can be compared against the paper.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from statistics import mean
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.problem import DisseminationProblem
from repro.core.result import ExecutionResult
from repro.core.state import require_numpy
from repro.utils.rng import derive_seed
from repro.utils.validation import ConfigurationError, require_positive_int

ProblemFactory = Callable[[], DisseminationProblem]
AlgorithmFactory = Callable[[], object]
AdversaryFactory = Callable[[], object]


@dataclass(frozen=True)
class ExperimentRecord:
    """One execution's headline numbers plus the sweep parameters that produced it."""

    params: Dict[str, object]
    completed: bool
    rounds: int
    total_messages: int
    amortized_messages: float
    topological_changes: int
    adversary_competitive: float
    amortized_adversary_competitive: float
    token_learnings: int

    @classmethod
    def from_result(
        cls, result: ExecutionResult, params: Optional[Mapping[str, object]] = None
    ) -> "ExperimentRecord":
        """Build a record from an :class:`ExecutionResult`."""
        merged: Dict[str, object] = dict(result.summary())
        if params:
            merged.update(params)
        return cls(
            params=merged,
            completed=result.completed,
            rounds=result.rounds,
            total_messages=result.total_messages,
            amortized_messages=result.amortized_messages(),
            topological_changes=result.topological_changes,
            adversary_competitive=result.adversary_competitive_messages(),
            amortized_adversary_competitive=result.amortized_adversary_competitive_messages(),
            token_learnings=result.token_learnings(),
        )


class ExperimentRunner:
    """Runs repeated executions of one configuration with derived seeds.

    .. deprecated::
        Use :class:`repro.scenarios.ScenarioRunner` with
        :class:`repro.scenarios.ScenarioSpec` instead; this class remains a
        thin factory-based shim over the same execution path.
    """

    def __init__(self, base_seed: int = 0):
        warnings.warn(
            "ExperimentRunner is deprecated; describe experiments as "
            "repro.scenarios.ScenarioSpec and run them with "
            "repro.scenarios.ScenarioRunner, or use the fluent "
            "repro.Experiment pipeline (grid/seeds/store/run/aggregate)",
            DeprecationWarning,
            stacklevel=2,
        )
        self._base_seed = base_seed

    def run(
        self,
        problem_factory: ProblemFactory,
        algorithm_factory: AlgorithmFactory,
        adversary_factory: AdversaryFactory,
        *,
        repetitions: int = 1,
        max_rounds: Optional[int] = None,
        params: Optional[Mapping[str, object]] = None,
        label: str = "",
    ) -> List[ExperimentRecord]:
        """Run ``repetitions`` independent executions and return their records."""
        from repro.scenarios.runner import execute

        require_positive_int(repetitions, "repetitions")
        records: List[ExperimentRecord] = []
        for repetition in range(repetitions):
            seed = derive_seed(self._base_seed, label, repetition)
            result = execute(
                problem_factory(),
                algorithm_factory(),
                adversary_factory(),
                seed=seed,
                max_rounds=max_rounds,
            )
            merged_params = dict(params or {})
            merged_params["repetition"] = repetition
            records.append(ExperimentRecord.from_result(result, merged_params))
        return records

    def sweep(
        self,
        configurations: Sequence[Mapping[str, object]],
        build: Callable[
            [Mapping[str, object]], Tuple[ProblemFactory, AlgorithmFactory, AdversaryFactory]
        ],
        *,
        repetitions: int = 1,
        max_rounds: Optional[int] = None,
        label: str = "sweep",
    ) -> List[ExperimentRecord]:
        """Run every configuration of a parameter sweep."""
        records: List[ExperimentRecord] = []
        for index, configuration in enumerate(configurations):
            problem_factory, algorithm_factory, adversary_factory = build(configuration)
            records.extend(
                self.run(
                    problem_factory,
                    algorithm_factory,
                    adversary_factory,
                    repetitions=repetitions,
                    max_rounds=max_rounds,
                    params=dict(configuration),
                    label=f"{label}-{index}",
                )
            )
        return records


def aggregate_records(
    records: Iterable[ExperimentRecord],
    group_by: Sequence[str],
    metrics: Sequence[str] = (
        "total_messages",
        "amortized_messages",
        "rounds",
        "topological_changes",
        "amortized_adversary_competitive",
    ),
) -> List[Dict[str, object]]:
    """Average the given metrics over records sharing the same group-by key."""
    groups: Dict[Tuple, List[ExperimentRecord]] = {}
    for record in records:
        key = tuple(record.params.get(name) for name in group_by)
        groups.setdefault(key, []).append(record)
    def sort_key(key: Tuple) -> Tuple:
        # Sort numeric parts numerically and everything else lexicographically.
        return tuple(
            (0, part) if isinstance(part, (int, float)) and not isinstance(part, bool)
            else (1, str(part))
            for part in key
        )

    rows: List[Dict[str, object]] = []
    for key in sorted(groups, key=sort_key):
        group = groups[key]
        row: Dict[str, object] = {name: value for name, value in zip(group_by, key)}
        row["runs"] = len(group)
        row["completed"] = all(record.completed for record in group)
        for metric in metrics:
            row[metric] = mean(getattr(record, metric) for record in group)
        rows.append(row)
    return rows


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Fit ``y ≈ c · x^α`` by least squares in log-log space; returns ``(α, c)``.

    Needs numpy (the ``repro[fast]`` extra); without it this raises
    :class:`~repro.utils.validation.ConfigurationError`.
    """
    if len(xs) != len(ys):
        raise ConfigurationError("xs and ys must have the same length")
    if len(xs) < 2:
        raise ConfigurationError("at least two points are needed for a power-law fit")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ConfigurationError("power-law fitting requires strictly positive data")
    np = require_numpy("power-law fitting")
    log_x = np.log(np.asarray(xs, dtype=float))
    log_y = np.log(np.asarray(ys, dtype=float))
    exponent, intercept = np.polyfit(log_x, log_y, 1)
    return float(exponent), float(np.exp(intercept))


def scaling_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """The fitted power-law exponent α of ``y`` against ``x``."""
    exponent, _ = fit_power_law(xs, ys)
    return exponent
