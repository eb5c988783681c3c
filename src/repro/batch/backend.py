"""The ``batch`` execution backend: vectorized multi-repetition dispatch.

:class:`BatchBackend` is the third registered :class:`~repro.backends.base.
EngineBackend`.  Its defining operation is :meth:`BatchBackend.run_batch`:
run *all* pending repetitions of one grid cell at once through a
:class:`~repro.batch.engine.BatchKernel` — one shared problem, one numpy
knowledge cube, per-lane adversaries and RNG streams — and return one
:class:`~repro.core.result.ExecutionResult` per repetition, field-identical
to running each repetition serially.

Vectorization requires two things of a scenario: the algorithm must expose a
batch program (:meth:`~repro.algorithms.base.TokenForwardingAlgorithm.
batch_program_factory`) and the adversary must be oblivious (lockstep lanes
never build round observations).  Everything else — adaptive adversaries,
algorithms without a batch program — still runs under this backend, falling
back per lane to the bitset fast-path kernel, so :meth:`supports` accepts
every scenario.

The backend needs numpy (the ``repro[fast]`` extra) even for the fallback
path: asking for ``batch`` without numpy is a configuration error with an
install hint, not a silent downgrade.
"""

from __future__ import annotations

from typing import List, Optional

from repro.backends.base import EngineBackend
from repro.batch.engine import BatchKernel
from repro.core.result import ExecutionResult
from repro.core.rounds import RoundKernel
from repro.core.state import BitsetKnowledgeState, numpy_available, require_numpy
from repro.obs.logs import get_logger
from repro.utils.rng import SeedLike

logger = get_logger(__name__)


def can_vectorize(algorithm, adversary) -> bool:
    """True iff this (algorithm, adversary) pair can run in lockstep lanes."""
    return (
        algorithm.batch_program_factory() is not None
        and getattr(adversary, "oblivious", False)
    )


def batch_program_names() -> List[str]:
    """Registry names of the algorithms with a vectorized batch program.

    Capability discovery instead of a hardcoded allowlist, mirroring
    :func:`repro.backends.bitset.fast_path_names`: every registered
    algorithm is instantiated with its registry defaults and probed through
    :meth:`~repro.algorithms.base.TokenForwardingAlgorithm.batch_program_factory`.
    """
    from repro.scenarios.registry import ALGORITHM_REGISTRY

    names = []
    for name in ALGORITHM_REGISTRY.names():
        try:
            algorithm = ALGORITHM_REGISTRY.create(name)
        except Exception:  # pragma: no cover - misconfigured third-party entry
            continue
        if algorithm.batch_program_factory() is not None:
            names.append(name)
    return names


def can_vectorize_spec(spec) -> bool:
    """True iff the scenario named by ``spec`` can run in lockstep lanes.

    Instantiates the algorithm from the registry to ask it, and the
    adversary only when the algorithm has a batch program — an adversary
    constructor may build a whole graph schedule.  Never raises for unknown
    names; the caller's normal dispatch path will surface those errors.
    """
    from repro.scenarios.registry import ADVERSARY_REGISTRY, ALGORITHM_REGISTRY

    try:
        algorithm = ALGORITHM_REGISTRY.create(spec.algorithm, **spec.algorithm_params)
        if algorithm.batch_program_factory() is None:
            return False
        adversary = ADVERSARY_REGISTRY.create(spec.adversary, **spec.adversary_params)
    except Exception:
        return False
    return can_vectorize(algorithm, adversary)


class BatchBackend(EngineBackend):
    """Vectorized multi-repetition execution on ``BatchKnowledgeState``."""

    name = "batch"

    def supports(self, problem, algorithm, adversary) -> Optional[str]:
        # Everything runs: non-vectorizable scenarios use the per-lane
        # bitset fallback.  Only the missing optional dependency refuses.
        if not numpy_available():
            return (
                "numpy is not installed; install the repro[fast] extra "
                "(pip install \"repro[fast]\")"
            )
        return None

    def execution_mode(self, algorithm, adversary) -> str:
        """``"vectorized"`` or ``"fallback"`` — how a scenario would execute."""
        return "vectorized" if can_vectorize(algorithm, adversary) else "fallback"

    def run(
        self,
        problem,
        algorithm,
        adversary,
        *,
        max_rounds: Optional[int] = None,
        seed: SeedLike = None,
        require_connected: bool = True,
        keep_trace: bool = True,
        tracer=None,
    ) -> ExecutionResult:
        """Run one execution: a single-lane batch kernel, or the bitset fallback."""
        require_numpy("the batch backend")
        if can_vectorize(algorithm, adversary):
            kernel = BatchKernel(
                problem,
                algorithm,
                [adversary],
                [seed],
                max_rounds=max_rounds,
                require_connected=require_connected,
                keep_trace=keep_trace,
                tracer=tracer,
            )
            return kernel.run()[0]
        return self._run_fallback(
            problem,
            algorithm,
            adversary,
            max_rounds=max_rounds,
            seed=seed,
            require_connected=require_connected,
            keep_trace=keep_trace,
            tracer=tracer,
        )

    def _run_fallback(
        self,
        problem,
        algorithm,
        adversary,
        *,
        max_rounds: Optional[int],
        seed: SeedLike,
        require_connected: bool,
        keep_trace: bool,
        tracer=None,
    ) -> ExecutionResult:
        logger.debug(
            "batch backend falling back to serial bitset execution for "
            "algorithm %r / adversary %r",
            getattr(algorithm, "name", type(algorithm).__name__),
            getattr(adversary, "name", type(adversary).__name__),
        )
        kernel = RoundKernel(
            problem,
            algorithm,
            adversary,
            state_factory=BitsetKnowledgeState,
            allow_fast_programs=True,
            max_rounds=max_rounds,
            seed=seed,
            require_connected=require_connected,
            keep_trace=keep_trace,
            tracer=tracer,
        )
        return kernel.run()

    def run_batch(
        self,
        spec,
        repetitions: Optional[List[int]] = None,
        *,
        keep_trace: bool = True,
        tracer=None,
    ) -> List[ExecutionResult]:
        """Run repetitions of one spec, vectorized when the scenario allows.

        Args:
            spec: the :class:`~repro.scenarios.spec.ScenarioSpec` to run.
            repetitions: which repetition indices to run (default: all of
                ``range(spec.repetitions)``).  Results come back in the same
                order.
            keep_trace: forwarded to the kernels.

        Vectorized path: one shared problem (the problem seed has no
        repetition component, so every repetition's problem is identical by
        construction), one adversary instance and one seed per lane.
        Fallback path: one fully materialized serial execution per
        repetition.
        """
        require_numpy("the batch backend")
        # Imported lazily: the scenario layer imports repro.backends.
        from repro.scenarios.registry import ADVERSARY_REGISTRY
        from repro.scenarios.runner import materialize, repetition_seed

        if repetitions is None:
            repetitions = list(range(spec.repetitions))
        if not repetitions:
            return []
        seeds = [repetition_seed(spec, repetition) for repetition in repetitions]

        scenario = materialize(spec)
        if can_vectorize(scenario.algorithm, scenario.adversary):
            adversaries = [scenario.adversary] + [
                ADVERSARY_REGISTRY.create(spec.adversary, **spec.adversary_params)
                for _ in repetitions[1:]
            ]
            kernel = BatchKernel(
                scenario.problem,
                scenario.algorithm,
                adversaries,
                seeds,
                max_rounds=spec.max_rounds,
                keep_trace=keep_trace,
                tracer=tracer,
            )
            return kernel.run()

        results = []
        for repetition, seed in zip(repetitions, seeds):
            lane = materialize(spec)
            results.append(
                self._run_fallback(
                    lane.problem,
                    lane.algorithm,
                    lane.adversary,
                    max_rounds=spec.max_rounds,
                    seed=seed,
                    require_connected=True,
                    keep_trace=keep_trace,
                    tracer=tracer,
                )
            )
        return results
