"""The fluent Experiment API: one composable pipeline from grid to report.

This module is the single high-level front door over the three subsystems
that previously had to be stitched together by hand (or via CLI pipes):
:mod:`repro.scenarios` (specs, registries, execution),
:mod:`repro.results` (store, aggregation, bound comparison) and
:mod:`repro.backends` (execution engines).  The whole run → store →
aggregate → compare → report loop is one lazily-evaluated expression::

    from repro import Experiment

    report = (
        Experiment.grid(algorithm="flooding", adversary="static-random",
                        num_nodes=[32, 64, 128], num_tokens=64)
        .seeds(10)
        .backend("bitset")
        .store(".repro-store")
        .run(workers=8)
        .aggregate(by=["n"])
        .compare(bounds=True)
        .report("md")
    )

Every stage returns a typed handle that can also be consumed directly:

* :meth:`Experiment.plan` → :class:`ExperimentPlan` — the expanded
  scenario×repetition cells, split into cached and pending;
* :meth:`Experiment.run` / :meth:`ExperimentPlan.run` → :class:`RunSet` —
  iterable, **streaming** records as executions complete;
* :meth:`RunSet.aggregate` → :class:`Aggregate` — grouped statistic rows;
* :meth:`Aggregate.compare` → :class:`Comparison` — paper-bound verdicts
  plus the full markdown report.

**Incremental runs.**  With a bound store (:meth:`Experiment.store`), the
plan phase consults the :class:`~repro.results.store.RunStore` and skips
every scenario×repetition cell whose record already exists — keyed by
``scenario_key`` (which embeds the base seed, hence the derived
per-repetition seed) plus the repetition index and the current record
schema version.  Enlarging a grid or raising the seed count therefore only
executes the delta, while the :class:`RunSet` still yields the *complete*
record set (cached + fresh), so aggregates and reports are byte-identical
to a cold full run.

**Engine choice.**  Consecutive pending cells of the same spec form one
group, and :func:`execute_group` — behind the in-process path and the
worker pool alike — picks the engine for it.  When the
spec names the default backend, a vectorizable group (the algorithm has a
batch program, the adversary is oblivious, numpy is installed) runs
through the vectorized batch backend (:mod:`repro.batch`) in one pass,
and any other group runs cell by cell on the ``bitset`` engine.  A spec
naming any other backend runs on it.  Records are field-identical either
way and always carry the spec as written.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.backends import BACKEND_REGISTRY, DEFAULT_BACKEND
from repro.obs.logs import get_logger
from repro.results.aggregate import (
    DEFAULT_GROUP_BY,
    DEFAULT_METRICS,
    aggregate as _aggregate,
    aggregate_columns,
)
from repro.results.records import SCHEMA_VERSION, RunRecord, coerce_record
from repro.results.store import RunStore, open_source
from repro.scenarios.registry import (
    ADVERSARY_REGISTRY,
    ALGORITHM_REGISTRY,
    PROBLEM_REGISTRY,
)
from repro.scenarios.runner import (
    record_from_result,
    repetition_seed,
    run_scenario,
)
from repro.scenarios.spec import _TOP_LEVEL_SWEEP_FIELDS, ScenarioSpec, sweep
from repro.utils.validation import ConfigurationError, ReproError

if TYPE_CHECKING:
    from repro.obs.events import ProgressEvent

__all__ = [
    "Aggregate",
    "Comparison",
    "Experiment",
    "ExperimentError",
    "ExperimentPlan",
    "PlanCell",
    "RunSet",
    "execute_cell",
    "execute_group",
    "execute_group_payload",
    "group_payloads",
    "load_runs",
    "vectorizable_group",
]

#: Path-like accepted wherever a store directory is named.
StorePath = Union[str, "RunStore"]

#: One JSON-ready run record (the runner's currency).
Record = Dict[str, Any]

#: Execution metadata riding alongside each fresh record (never stored):
#: ``{"backend", "seconds", "stage_seconds"}``.
CellMeta = Dict[str, Any]

#: A progress-event observer callback.
Observer = Callable[["ProgressEvent"], None]

logger = get_logger(__name__)

_numpy_fallback_warned = False


class ExperimentError(ReproError):
    """Raised when a pipeline stage is used inconsistently at run time."""


def _normalize_dimension_key(key: str) -> str:
    """Bare non-spec-field keys are shorthand for problem parameters."""
    if "." in key or key in _TOP_LEVEL_SWEEP_FIELDS:
        return key
    return f"problem.{key}"


def _is_dimension(value: Any) -> bool:
    """Lists, tuples and ranges sweep; every other value configures."""
    return isinstance(value, (list, tuple, range))


@dataclass(frozen=True)
class Experiment:
    """An immutable, lazily-evaluated description of a batch of scenarios.

    Build one with :meth:`grid` (keyword dimensions), :meth:`from_spec`
    (one base spec plus an optional grid) or :meth:`from_specs` (an
    explicit, already-expanded batch).  Every fluent method returns a new
    ``Experiment``; nothing executes until :meth:`plan` or :meth:`run` —
    and because planning re-reads the bound store, the *same* experiment
    object can be run repeatedly, executing only what is missing each time.
    """

    _base: Optional[ScenarioSpec] = None
    _grid: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    _explicit: Optional[Tuple[ScenarioSpec, ...]] = None
    _store_path: Optional[str] = None
    _extensions: Tuple[str, ...] = ()
    _observers: Tuple[Observer, ...] = ()
    _collect_timings: bool = False

    # -- construction ------------------------------------------------------

    @classmethod
    def grid(
        cls,
        dimensions: Optional[Mapping[str, Any]] = None,
        **kwargs: Any,
    ) -> "Experiment":
        """Build an experiment from keyword dimensions.

        Keys are spec fields (``problem``, ``algorithm``, ``adversary``,
        ``backend``, ``seed``, ...), dotted parameter paths
        (``"adversary.changes_per_round"`` — via the ``dimensions``
        mapping, since dots cannot appear in keyword names) or bare problem
        parameters (``num_nodes`` → ``problem.num_nodes``).  A list, tuple
        or range value becomes a swept grid dimension; any other value
        configures the base scenario::

            Experiment.grid(algorithm="flooding", adversary="static-random",
                            num_nodes=[32, 64, 128], num_tokens=64)
        """
        overlap = sorted(set(dimensions or {}) & set(kwargs))
        if overlap:
            raise ConfigurationError(
                f"grid key(s) {overlap} passed both in the dimensions mapping "
                f"and as keyword arguments; pass each once"
            )
        merged: Dict[str, Any] = dict(dimensions or {})
        merged.update(kwargs)
        spec_fields: Dict[str, Any] = {}
        params: Dict[str, Dict[str, Any]] = {"problem": {}, "algorithm": {}, "adversary": {}}
        grid: Dict[str, List[Any]] = {}
        seen: Dict[str, str] = {}  # normalized key -> raw spelling
        for raw_key, value in merged.items():
            if not isinstance(raw_key, str) or not raw_key:
                raise ConfigurationError(f"grid keys must be non-empty strings, got {raw_key!r}")
            key = _normalize_dimension_key(raw_key)
            if key in seen:
                # E.g. a dotted "problem.num_nodes" in the mapping plus a
                # bare num_nodes kwarg: one would silently win — refuse.
                raise ConfigurationError(
                    f"grid keys {seen[key]!r} and {raw_key!r} both address "
                    f"{key!r}; pass it once"
                )
            seen[key] = raw_key
            if _is_dimension(value):
                values = list(value)
                if not values:
                    raise ConfigurationError(f"grid dimension {raw_key!r} has no values")
                grid[key] = values
            elif key in _TOP_LEVEL_SWEEP_FIELDS:
                spec_fields[key] = value
            else:
                section, _, param = key.partition(".")
                if section not in params or not param:
                    raise ConfigurationError(
                        f"invalid grid key {raw_key!r}: use a spec field "
                        f"{_TOP_LEVEL_SWEEP_FIELDS}, a dotted parameter path or a "
                        f"bare problem parameter"
                    )
                params[section][param] = value
        base = ScenarioSpec(
            problem=spec_fields.pop("problem", "single-source"),
            algorithm=spec_fields.pop("algorithm", "single-source"),
            adversary=spec_fields.pop("adversary", "churn"),
            problem_params=params["problem"],
            algorithm_params=params["algorithm"],
            adversary_params=params["adversary"],
            **spec_fields,
        )
        return cls(_base=base, _grid=tuple((key, tuple(values)) for key, values in grid.items()))

    @classmethod
    def from_spec(
        cls,
        spec: ScenarioSpec,
        grid: Optional[Mapping[str, Sequence[Any]]] = None,
    ) -> "Experiment":
        """Wrap one base spec, optionally crossed with a sweep grid."""
        if not isinstance(spec, ScenarioSpec):
            raise ConfigurationError(f"expected a ScenarioSpec, got {type(spec).__name__}")
        dims = tuple(
            (_normalize_dimension_key(key), tuple(values))
            for key, values in (grid or {}).items()
        )
        return cls(_base=spec, _grid=dims)

    @classmethod
    def from_specs(cls, specs: Iterable[ScenarioSpec]) -> "Experiment":
        """Wrap an explicit, already-expanded batch of specs (the CLI path).

        No grid expansion or parameter autofill is applied: the given specs
        run exactly as written.
        """
        batch = tuple(specs)
        for spec in batch:
            if not isinstance(spec, ScenarioSpec):
                raise ConfigurationError(f"expected a ScenarioSpec, got {type(spec).__name__}")
        if not batch:
            raise ConfigurationError("an experiment needs at least one spec")
        return cls(_explicit=batch)

    # -- fluent configuration ---------------------------------------------

    def _map_specs(self, transform: Any) -> "Experiment":
        if self._explicit is not None:
            return replace(self, _explicit=tuple(transform(spec) for spec in self._explicit))
        return replace(self, _base=transform(self._base))

    def seeds(self, seeds: Union[int, Iterable[int]]) -> "Experiment":
        """Repetition count (``.seeds(10)``) or explicit base seeds to sweep.

        An integer sets ``repetitions`` — repetition ``r`` derives its seed
        from the scenario content, so growing the count later only executes
        the new repetitions.  An iterable of integers sweeps the base
        ``seed`` field instead (one repetition per listed seed).
        """
        if isinstance(seeds, bool):
            raise ConfigurationError(f"seeds must be an int or ints, got {seeds!r}")
        if isinstance(seeds, int):
            return self._map_specs(lambda spec: replace(spec, repetitions=seeds))
        values = list(seeds)
        if not values or any(isinstance(v, bool) or not isinstance(v, int) for v in values):
            raise ConfigurationError(f"seeds must be a non-empty list of ints, got {values!r}")
        return self.vary("seed", values)

    def backend(self, name: str) -> "Experiment":
        """Select the execution backend (an execution detail — never reseeds)."""
        return self._map_specs(lambda spec: replace(spec, backend=name))

    def configure(
        self,
        *,
        problem: Optional[Mapping[str, Any]] = None,
        algorithm: Optional[Mapping[str, Any]] = None,
        adversary: Optional[Mapping[str, Any]] = None,
        **spec_fields: Any,
    ) -> "Experiment":
        """Merge component parameters and/or replace spec fields."""
        return self._map_specs(
            lambda spec: spec.with_params(
                problem=problem, algorithm=algorithm, adversary=adversary, **spec_fields
            )
        )

    def vary(self, key: str, values: Sequence[Any]) -> "Experiment":
        """Add (or replace) one swept grid dimension."""
        if self._explicit is not None:
            raise ExperimentError(
                "cannot add grid dimensions to an experiment built from explicit "
                "specs; use Experiment.grid or Experiment.from_spec"
            )
        values = list(values)
        if not values:
            raise ConfigurationError(f"grid dimension {key!r} has no values")
        key = _normalize_dimension_key(key)
        dims = [(k, v) for k, v in self._grid if k != key]
        dims.append((key, tuple(values)))
        return replace(self, _grid=tuple(dims))

    def store(self, path: StorePath) -> "Experiment":
        """Bind a run-store directory: runs persist into it and re-runs skip
        every cell it already holds."""
        if isinstance(path, RunStore):
            path = str(path.path)
        return replace(self, _store_path=str(path))

    def extensions(self, *modules: str) -> "Experiment":
        """Modules to import in worker processes (third-party registrations)."""
        for module in modules:
            if not isinstance(module, str) or not module:
                raise ConfigurationError(
                    f"extensions must be importable module names, got {module!r}"
                )
        return replace(self, _extensions=self._extensions + tuple(modules))

    def observe(self, *callbacks: Observer, timings: bool = False) -> "Experiment":
        """Register progress-event observers (see :mod:`repro.obs.events`).

        While the resulting :class:`RunSet` streams, each callback receives
        typed ``CellStarted``/``CellCompleted``/``CellCached`` events in
        plan order plus one final ``RunFinished`` — the hook behind the
        CLI's live progress line and ``--trace`` files.  With
        ``timings=True`` every fresh cell additionally runs under a
        per-stage timing tracer, so its ``CellCompleted.stage_seconds``
        breaks the run down by kernel stage (commit/adversary/delivery/
        accounting).  Timings ride on the events only; stored records are
        byte-identical with or without observation.
        """
        for callback in callbacks:
            if not callable(callback):
                raise ConfigurationError(
                    f"observers must be callables, got {callback!r}"
                )
        return replace(
            self,
            _observers=self._observers + tuple(callbacks),
            _collect_timings=self._collect_timings or timings,
        )

    # -- evaluation --------------------------------------------------------

    def specs(self) -> List[ScenarioSpec]:
        """The expanded, validated scenario batch (deterministic order).

        Registry names (problem, algorithm, adversary, backend) are
        validated here — before anything executes — so typos fail fast with
        a did-you-mean suggestion.  Adversaries that require ``num_nodes``
        inherit it from the problem dimensions unless set explicitly.
        """
        if self._explicit is not None:
            batch = list(self._explicit)
        else:
            if self._base is None:
                raise ExperimentError("empty experiment: build one with Experiment.grid(...)")
            batch = sweep(self._base, {key: list(values) for key, values in self._grid})
            batch = [self._autofill_adversary_nodes(spec) for spec in batch]
        for spec in batch:
            self._validate_spec(spec)
        return batch

    @staticmethod
    def _autofill_adversary_nodes(spec: ScenarioSpec) -> ScenarioSpec:
        entry = ADVERSARY_REGISTRY.get(spec.adversary)
        if "num_nodes" in spec.adversary_params:
            return spec
        requires_nodes = any(
            info.name == "num_nodes" and info.required for info in entry.parameters()
        )
        nodes = spec.problem_params.get("num_nodes")
        if requires_nodes and nodes is not None:
            return spec.with_params(adversary={"num_nodes": nodes})
        return spec

    @staticmethod
    def _validate_spec(spec: ScenarioSpec) -> None:
        PROBLEM_REGISTRY.get(spec.problem)
        ALGORITHM_REGISTRY.get(spec.algorithm)
        ADVERSARY_REGISTRY.get(spec.adversary)
        BACKEND_REGISTRY.get(spec.backend)

    def plan(self) -> "ExperimentPlan":
        """Expand the grid into scenario×repetition cells and split them
        into cached (already in the bound store, current schema) and
        pending (to execute).  Re-planning re-reads the store, so a plan
        always reflects the store's state *now*.
        """
        store = RunStore(self._store_path) if self._store_path is not None else None
        cells: List[PlanCell] = []
        for spec in self.specs():
            stored: Mapping[int, RunRecord] = {}
            if store is not None:
                stored = store.repetitions_present(
                    spec.scenario_key(), schema_version=SCHEMA_VERSION
                )
            for repetition in range(spec.repetitions):
                record = stored.get(repetition)
                # scenario_key excludes execution-detail fields, but one of
                # them — max_rounds — changes the *result*: a record produced
                # under a different round cap does not satisfy this cell.
                if (
                    record is not None
                    and record.spec.get("max_rounds") != spec.max_rounds
                ):
                    record = None
                cells.append(
                    PlanCell(
                        spec=spec,
                        repetition=repetition,
                        seed=repetition_seed(spec, repetition),
                        cached_record=record.to_dict() if record is not None else None,
                    )
                )
        return ExperimentPlan(
            cells=tuple(cells),
            store=store,
            extensions=self._extensions,
            observers=self._observers,
            collect_timings=self._collect_timings,
        )

    def run(self, workers: int = 1) -> "RunSet":
        """Plan and execute: cached cells are read back, pending cells run
        (optionally across worker processes) and persist through the store
        as they complete.  The returned :class:`RunSet` streams records in
        deterministic batch order."""
        return self.plan().run(workers=workers)


@dataclass(frozen=True)
class PlanCell:
    """One scenario×repetition execution slot of a plan."""

    spec: ScenarioSpec
    repetition: int
    seed: int
    cached_record: Optional[Record] = None

    @property
    def cached(self) -> bool:
        """Whether the bound store already holds this cell's record."""
        return self.cached_record is not None


@dataclass(frozen=True)
class ExperimentPlan:
    """The expanded cells of an experiment, ready to execute.

    Consume it directly (iterate the cells, inspect :attr:`pending` /
    :attr:`cached`) or call :meth:`run` to execute the pending delta.
    """

    cells: Tuple[PlanCell, ...]
    store: Optional[RunStore] = None
    extensions: Tuple[str, ...] = ()
    observers: Tuple[Observer, ...] = ()
    collect_timings: bool = False

    def __iter__(self) -> Iterator[PlanCell]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def pending(self) -> List[PlanCell]:
        """Cells that must execute (no stored record under the current schema)."""
        return [cell for cell in self.cells if not cell.cached]

    @property
    def cached(self) -> List[PlanCell]:
        """Cells satisfied by the bound store."""
        return [cell for cell in self.cells if cell.cached]

    def specs(self) -> List[ScenarioSpec]:
        """The distinct specs of the plan, in batch order."""
        seen: List[ScenarioSpec] = []
        for cell in self.cells:
            if not seen or seen[-1] != cell.spec:
                seen.append(cell.spec)
        return seen

    def describe(self) -> Dict[str, int]:
        """Counts for logging: total / pending / cached cells and scenarios."""
        return {
            "cells": len(self.cells),
            "pending": len(self.pending),
            "cached": len(self.cached),
            "scenarios": len(self.specs()),
        }

    def run(self, workers: int = 1) -> "RunSet":
        """Execute the pending cells; see :meth:`Experiment.run`."""
        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
            raise ConfigurationError(f"workers must be a positive int, got {workers!r}")
        return RunSet(plan=self, workers=workers)


def _cell_tracer(collect_timings: bool):
    if not collect_timings:
        return None
    from repro.obs.tracing import TimingTracer

    return TimingTracer()


def execute_cell(
    spec: ScenarioSpec, repetition: int, collect_timings: bool = False
) -> Tuple[Record, CellMeta]:
    """Run one plan cell on ``spec.backend`` exactly as written.

    Given a spec and a repetition index it derives the repetition seed,
    runs the scenario and returns ``(record, meta)`` where ``meta`` is
    ``{"backend", "seconds", "stage_seconds"}`` — execution metadata that
    rides with the record but is never stored.  Sweeps go through
    :func:`execute_group` instead, which picks the engine per group.
    """
    return _run_cell(spec, spec, repetition, collect_timings)


def _run_cell(
    spec: ScenarioSpec,
    run_as: ScenarioSpec,
    repetition: int,
    collect_timings: bool,
) -> Tuple[Record, CellMeta]:
    """Run ``run_as`` (``spec`` on some backend); the record keeps ``spec``."""
    tracer = _cell_tracer(collect_timings)
    started = time.perf_counter()
    result = run_scenario(run_as, repetition, tracer=tracer)
    meta: CellMeta = {
        "backend": run_as.backend,
        "seconds": time.perf_counter() - started,
        "stage_seconds": result.timings,
    }
    record = record_from_result(
        spec, repetition, repetition_seed(spec, repetition), result
    )
    return record, meta


def vectorizable_group(spec: ScenarioSpec, count: int) -> bool:
    """Whether ``count`` pending repetitions of one spec should run batched.

    Multi-repetition groups of vectorizable scenarios are dispatched to the
    vectorized batch backend automatically — it produces field-identical
    records, only faster.  An explicit ``.backend("bitset")`` (or any other
    non-default backend) opts out; a missing numpy keeps a group that would
    vectorize on the serial path (with a once-per-process warning, since it
    silently costs wall-clock).
    """
    if count < 2 or spec.backend not in ("reference", "batch"):
        return False
    # Imported here: the engines load when a sweep first runs a group, not
    # when a plan is made.
    from repro.batch.backend import can_vectorize_spec
    from repro.core.state import numpy_available

    # Ask numpy only for a group that would vectorize: for any other group
    # the import costs time and the missing extra changes nothing.
    if not can_vectorize_spec(spec):
        return False
    if not numpy_available():
        global _numpy_fallback_warned
        if not _numpy_fallback_warned:
            _numpy_fallback_warned = True
            logger.warning(
                "numpy is not installed; multi-repetition sweeps run serially "
                "(install the repro[fast] extra to vectorize them)"
            )
        return False
    return True


def execute_group(
    spec: ScenarioSpec,
    repetitions: Sequence[int],
    collect_timings: bool = False,
) -> List[Tuple[Record, CellMeta]]:
    """Run a same-spec repetition group on the engine picked for it.

    The unit of work behind the in-process path and the ``RunSet`` worker
    pool, and the one place a sweep cell's engine is chosen:

    * a vectorizable group (:func:`vectorizable_group`) runs all
      repetitions as lockstep lanes of one batch kernel;
    * any other group whose spec names the default backend runs cell by
      cell on ``bitset``, which runs each algorithm's native fast program;
    * a spec naming any other backend runs on that backend.

    Every validated engine produces field-identical results, so each
    record carries the caller's spec unchanged (``spec.backend``
    included); ``meta["backend"]`` names the engine that ran.  The
    outcome list is in repetition order.
    """
    if vectorizable_group(spec, len(repetitions)):
        from repro.backends import BatchBackend

        tracer = _cell_tracer(collect_timings)
        started = time.perf_counter()
        results = BatchBackend().run_batch(spec, list(repetitions), tracer=tracer)
        # Lockstep lanes share the wall clock; an even split keeps the
        # per-cell seconds summing back to the group's true cost.
        lane_seconds = (time.perf_counter() - started) / len(repetitions)
        outcomes: List[Tuple[Record, CellMeta]] = []
        for repetition, result in zip(repetitions, results):
            meta: CellMeta = {
                "backend": "batch",
                "seconds": lane_seconds,
                "stage_seconds": result.timings,
            }
            outcomes.append(
                (
                    record_from_result(
                        spec, repetition, repetition_seed(spec, repetition), result
                    ),
                    meta,
                )
            )
        return outcomes
    run_as = (
        replace(spec, backend="bitset") if spec.backend == DEFAULT_BACKEND else spec
    )
    return [
        _run_cell(spec, run_as, repetition, collect_timings)
        for repetition in repetitions
    ]


def _work_units(
    pending: Sequence["PlanCell"],
) -> Iterator[Tuple[ScenarioSpec, Tuple[int, ...]]]:
    """Split pending cells, in plan order, into units for :func:`execute_group`.

    A vectorizable group of one spec's repetitions stays whole (one batch
    kernel pass); every other cell is a unit of its own, so its record is
    stored before the next cell runs.  Plan order is spec-major, so
    consecutive grouping recovers exactly the pending repetitions of each
    grid cell.
    """
    import itertools

    for spec, group in itertools.groupby(pending, key=lambda cell: cell.spec):
        repetitions = tuple(cell.repetition for cell in group)
        if vectorizable_group(spec, len(repetitions)):
            yield spec, repetitions
        else:
            for repetition in repetitions:
                yield spec, (repetition,)


def _execute_pending(
    pending: Sequence["PlanCell"], collect_timings: bool = False
) -> Iterator[Tuple[Record, CellMeta]]:
    """Execute pending cells in plan order, one work unit at a time."""
    for spec, repetitions in _work_units(pending):
        yield from execute_group(spec, repetitions, collect_timings)


#: A picklable same-spec repetition group:
#: ``(spec_json, repetitions, extension_modules, collect_timings)``.
GroupPayload = Tuple[str, Tuple[int, ...], Tuple[str, ...], bool]


def execute_group_payload(payload: GroupPayload) -> List[Tuple[Record, CellMeta]]:
    """Worker entry point: rebuild the spec and run a repetition group.

    Picklable by module path, so ``RunSet``'s process pool ships groups as
    :data:`GroupPayload` tuples; a worker runs all lanes of a vectorizable
    grid cell in one batch-kernel pass while other groups occupy other
    cores.
    """
    spec_json, repetitions, extension_modules, collect_timings = payload
    for module_name in extension_modules:
        importlib.import_module(module_name)
    return execute_group(
        ScenarioSpec.from_json(spec_json), list(repetitions), collect_timings
    )


def group_payloads(
    pending: Sequence["PlanCell"],
    extensions: Tuple[str, ...],
    collect_timings: bool,
) -> List[GroupPayload]:
    """Pack pending cells into worker tasks, one per work unit.

    Vectorizable groups travel whole (one ``run_batch`` per worker task);
    everything else ships as single-cell groups so the pool still spreads
    serial cells across cores.  Flattening the per-task outcome lists in
    task order reproduces plan order exactly.
    """
    return [
        (spec.to_json(), repetitions, extensions, collect_timings)
        for spec, repetitions in _work_units(pending)
    ]


class RunSet:
    """The (lazily produced) records of one experiment run.

    Iterating a fresh ``RunSet`` *executes* it: records stream out in
    deterministic batch order as cells complete — cached cells are yielded
    from the store, pending cells run (in-process or across workers) and
    persist through the store the moment they finish, so partial progress
    survives interruption.  After one full pass the records are held in
    memory and every later iteration (or :meth:`records`,
    :meth:`aggregate`, :meth:`report`) replays them without re-executing.
    """

    def __init__(
        self,
        plan: Optional[ExperimentPlan] = None,
        *,
        workers: int = 1,
        records: Optional[Iterable[Record]] = None,
    ) -> None:
        if (plan is None) == (records is None):
            raise ConfigurationError("RunSet needs exactly one of plan= or records=")
        self._plan = plan
        self._workers = workers
        self._records: Optional[List[Record]] = None
        #: Progress of an in-flight (or abandoned) streaming pass: records
        #: for the plan-order prefix of cells handled so far.  An abandoned
        #: iterator's work is kept — the next pass replays it and resumes.
        self._collected: List[Record] = []
        self._active: Optional[Iterator[Record]] = None
        self._executed = 0
        self._stored = 0
        #: The validated records of a records-built set, handed to
        #: aggregation and reports so that nothing parses them again.
        self._run_records: Optional[List[RunRecord]] = None
        if records is not None:
            self._run_records = [coerce_record(record) for record in records]
            self._records = [record.to_dict() for record in self._run_records]

    @classmethod
    def from_records(
        cls, records: Iterable[Union[Record, Any]]
    ) -> "RunSet":
        """Wrap already-available records (a JSONL file, stdin, a query)."""
        return cls(records=records)

    # -- execution / iteration --------------------------------------------

    def __iter__(self) -> Iterator[Record]:
        if self._records is not None:
            return iter(self._records)
        if self._active is not None:
            # Supersede a partially consumed earlier iterator explicitly —
            # close() runs its cleanup now, on every Python implementation,
            # instead of waiting for garbage collection.  Its progress is
            # kept in _collected and replayed, never re-executed.
            self._active.close()  # type: ignore[attr-defined]
            self._active = None
        iterator = self._execute()
        self._active = iterator
        return iterator

    def _execute(self) -> Iterator[Record]:
        from repro.obs.events import RunFinished

        started = time.perf_counter()
        # Replay the progress an abandoned earlier pass already made;
        # those cells executed (and persisted) once and are not re-run —
        # and their events are not re-emitted.
        for record in list(self._collected):
            yield record
        yield from self._stream(start=len(self._collected))
        plan = self._plan
        assert plan is not None
        if plan.observers:
            self._notify(
                RunFinished(
                    cells=len(plan.cells),
                    executed=self._executed,
                    cached=len(self._collected) - self._executed,
                    seconds=time.perf_counter() - started,
                )
            )
        self._records = list(self._collected)

    def _notify(self, event: ProgressEvent) -> None:
        assert self._plan is not None
        for observer in self._plan.observers:
            observer(event)

    def _stream(self, start: int = 0) -> Iterator[Record]:
        plan = self._plan
        assert plan is not None
        remaining = plan.cells[start:]
        pending = [cell for cell in remaining if not cell.cached]
        workers = min(self._workers, len(pending)) if pending else 1
        try:
            if workers <= 1:
                yield from self._interleave(
                    remaining,
                    _execute_pending(pending, plan.collect_timings),
                    start=start,
                )
            else:
                payloads = group_payloads(
                    pending, plan.extensions, plan.collect_timings
                )
                workers = min(workers, len(payloads))
                # Imported here, not at module level: only a parallel run
                # needs it, and it would cost every fresh ``import repro``.
                import multiprocessing

                with multiprocessing.Pool(processes=workers) as pool:
                    # imap (not imap_unordered) keeps batch order, which keeps
                    # parallel output byte-identical to the serial path.  Each
                    # task is one batch group; flattening its outcome list in
                    # task order restores the per-cell plan order.
                    task_results = pool.imap(
                        execute_group_payload, payloads, chunksize=1
                    )
                    yield from self._interleave(
                        remaining,
                        (
                            outcome
                            for outcomes in task_results
                            for outcome in outcomes
                        ),
                        start=start,
                    )
        finally:
            # Shard appends are durable per record; the manifest index is
            # deferred to one write per stream (reopening a store whose
            # stream crashed repairs the index from the shards).
            if plan.store is not None:
                plan.store.flush()

    def _interleave(
        self,
        cells: Sequence[PlanCell],
        fresh: Iterator[Tuple[Record, CellMeta]],
        start: int = 0,
    ) -> Iterator[Record]:
        from repro.obs.events import CellCached, CellCompleted, CellStarted

        plan = self._plan
        assert plan is not None
        observers = plan.observers
        total = len(plan.cells)
        for offset, cell in enumerate(cells):
            index = start + offset
            if cell.cached:
                record = cell.cached_record  # type: ignore[assignment]
                if observers:
                    self._notify(
                        CellCached(
                            index=index,
                            total=total,
                            scenario=cell.spec.label,
                            repetition=cell.repetition,
                        )
                    )
            else:
                if observers:
                    self._notify(
                        CellStarted(
                            index=index,
                            total=total,
                            scenario=cell.spec.label,
                            repetition=cell.repetition,
                            backend=cell.spec.backend,
                        )
                    )
                record, meta = next(fresh)
                self._executed += 1
                if plan.store is not None:
                    # replace=True: a cell is only pending when the store has
                    # no *valid* record for it — but a stale one (old schema,
                    # different round cap) may occupy the identity and must
                    # be superseded, not silently skipped.  The manifest
                    # write is deferred to the end of the stream.
                    added, _ = plan.store.add(
                        [record], replace=True, save_manifest=False
                    )
                    self._stored += added
                if observers:
                    self._notify(
                        CellCompleted(
                            index=index,
                            total=total,
                            scenario=cell.spec.label,
                            repetition=cell.repetition,
                            backend=meta["backend"],
                            seconds=meta["seconds"],
                            completed=record["completed"],
                            rounds=record["rounds"],
                            total_messages=record["total_messages"],
                            stage_seconds=meta["stage_seconds"],
                        )
                    )
            self._collected.append(record)
            yield record

    # -- materialized views ------------------------------------------------

    def records(self) -> List[Record]:
        """All records (cached + executed), materializing if needed."""
        if self._records is None:
            for _ in iter(self):
                pass
        assert self._records is not None
        return list(self._records)

    def __len__(self) -> int:
        return len(self.records())

    @property
    def executed_count(self) -> int:
        """How many cells actually executed (0 on a fully cached re-run)."""
        self.records()
        return self._executed

    @property
    def cached_count(self) -> int:
        """How many cells were satisfied from the bound store."""
        self.records()
        return len(self._records or []) - self._executed

    @property
    def stored_count(self) -> int:
        """How many fresh records the bound store accepted."""
        self.records()
        return self._stored

    @property
    def completed(self) -> bool:
        """Whether every execution disseminated all tokens in time."""
        return all(record["completed"] for record in self.records())

    # -- pipeline ----------------------------------------------------------

    def aggregate(
        self,
        by: Optional[Sequence[str]] = None,
        metrics: Optional[Sequence[str]] = None,
    ) -> "Aggregate":
        """Group-by statistical summary of the records."""
        return Aggregate(
            self._run_records if self._run_records is not None else self.records(),
            group_by=tuple(by) if by is not None else DEFAULT_GROUP_BY,
            metrics=tuple(metrics) if metrics is not None else DEFAULT_METRICS,
        )

    def compare(self, bounds: bool = True, *, x_axis: str = "n") -> "Comparison":
        """Shortcut for ``.aggregate().compare(...)``."""
        return self.aggregate().compare(bounds, x_axis=x_axis)

    def report(
        self,
        fmt: str = "md",
        *,
        by: Optional[Sequence[str]] = None,
        metrics: Optional[Sequence[str]] = None,
        x_axis: str = "n",
        title: str = "Results report",
    ) -> str:
        """The full paper-vs-measured report document."""
        return self.aggregate(by=by, metrics=metrics).report(
            fmt, x_axis=x_axis, title=title
        )


class Aggregate:
    """Grouped statistic rows over a record set (lazily computed)."""

    def __init__(
        self,
        records: Sequence[Union[Record, RunRecord]],
        *,
        group_by: Sequence[str] = DEFAULT_GROUP_BY,
        metrics: Sequence[str] = DEFAULT_METRICS,
    ) -> None:
        self._records = list(records)
        self._group_by = tuple(group_by)
        self._metrics = tuple(metrics)
        self._rows: Optional[List[Dict[str, Any]]] = None

    @property
    def group_by(self) -> Tuple[str, ...]:
        """The grouping axes."""
        return self._group_by

    @property
    def metrics(self) -> Tuple[str, ...]:
        """The summarized metrics."""
        return self._metrics

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """One summary row per group (mean/median/stddev/CI per metric)."""
        if self._rows is None:
            self._rows = _aggregate(self._records, self._group_by, self._metrics)
        return list(self._rows)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def table(
        self,
        fmt: str = "md",
        *,
        statistics: Sequence[str] = ("mean", "ci_low", "ci_high"),
    ) -> str:
        """Render the rows as a text / markdown / CSV / JSON table."""
        from repro.results.report import rows_to_table

        return rows_to_table(
            self.rows,
            aggregate_columns(self._group_by, self._metrics, statistics=statistics),
            fmt,
        )

    def compare(self, bounds: bool = True, *, x_axis: str = "n") -> "Comparison":
        """Join the measured scaling against the paper's closed-form bounds."""
        return Comparison(
            self._records,
            group_by=self._group_by,
            metrics=self._metrics,
            x_axis=x_axis,
            with_bounds=bounds,
        )

    def report(
        self, fmt: str = "md", *, x_axis: str = "n", title: str = "Results report"
    ) -> str:
        """The full report without an explicit compare step."""
        return self.compare(x_axis=x_axis).report(fmt, title=title)


class Comparison:
    """Paper-bound verdicts over a record set, plus the final report."""

    def __init__(
        self,
        records: Sequence[Union[Record, RunRecord]],
        *,
        group_by: Sequence[str] = DEFAULT_GROUP_BY,
        metrics: Sequence[str] = DEFAULT_METRICS,
        x_axis: str = "n",
        with_bounds: bool = True,
    ) -> None:
        self._records = list(records)
        self._group_by = tuple(group_by)
        self._metrics = tuple(metrics)
        self._x_axis = x_axis
        self._with_bounds = with_bounds
        self._rows: Optional[List[Dict[str, Any]]] = None

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """One verdict row per algorithm with a registered bound."""
        if not self._with_bounds:
            return []
        if self._rows is None:
            from repro.results.compare import compare_to_bounds

            self._rows = compare_to_bounds(self._records, x_axis=self._x_axis)
        return list(self._rows)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def table(self, fmt: str = "md") -> str:
        """The verdict table (raises if no algorithm has a registered bound)."""
        if not self._with_bounds:
            raise ConfigurationError(
                "this comparison was built with bounds=False and has no "
                "verdicts to render; build it with compare(bounds=True)"
            )
        rows = self.rows  # cached: the log-log fits run once per Comparison
        if not rows:
            raise ConfigurationError(
                "no algorithm in these records has a registered bound; "
                "see repro.results.compare.register_bound"
            )
        from repro.results.report import COMPARISON_COLUMNS, rows_to_table

        return rows_to_table(rows, COMPARISON_COLUMNS, fmt)

    def report(self, fmt: str = "md", *, title: str = "Results report") -> str:
        """The full document: inventory, aggregates, verdicts, Table 1.

        With ``bounds=False`` the bound-comparison sections (including the
        regenerated Table 1) are omitted.
        """
        if fmt != "md":
            raise ConfigurationError(
                f"the full report is a markdown document (got fmt={fmt!r}); "
                f"use .table(fmt=...) for csv/json/text tables"
            )
        from repro.results.report import render_report

        return render_report(
            self._records,
            group_by=self._group_by,
            metrics=self._metrics,
            x_axis=self._x_axis,
            title=title,
            with_bounds=self._with_bounds,
        )


def load_runs(source: Union[str, "RunStore"]) -> RunSet:
    """A :class:`RunSet` over an existing JSONL file or run-store directory.

    The entry point for analyzing records produced elsewhere — it plugs
    straight into the same ``.aggregate(...).compare(...).report(...)``
    pipeline an :class:`Experiment` run returns.
    """
    if isinstance(source, RunStore):
        return RunSet.from_records(source.records())
    return RunSet.from_records(open_source(source))
