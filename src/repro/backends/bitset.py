"""The bitset backend: the staged round kernel on integer-bitmask state.

The backend assembles the same :class:`~repro.core.rounds.RoundKernel` the
reference engine uses — identical round structure, graph handling,
accounting and event ordering — but plugs in the
:class:`~repro.core.state.BitsetKnowledgeState` and enables the algorithms'
native fast programs: per-node token knowledge is one Python integer (bit
``i`` = the ``i``-th token in sorted order), a round graph is one adjacency
bitmask per node, and messages reduce to tuples of small ints.

Execution modes, discovered per algorithm (see :func:`fast_path_names`):

* **native** — the algorithm ships a bit-level
  :class:`~repro.core.rounds.FastRoundProgram` next to its reference
  implementation (every registered algorithm); the kernel runs it instead
  of the generic exchange program;
* **generic** — every other algorithm (third-party ones, and subclasses
  that override behaviour a fast program does not model) runs its real
  ``select`` / ``receive`` methods through the exchange program, bound to
  the bitset state.

Both adversary classes are supported: adaptive adversaries receive
:class:`~repro.core.observation.RoundObservation` objects built lazily from
the bitset state by the kernel's adversary stage.  Either way the results
are *exactly* the reference results — the same rounds, the same message
statistics (total, by kind, per round, per node), the same token-learning
events in the same order, and the same ``TC(E)``;
``python -m repro verify-backend`` runs both backends on a seeded grid
covering every registered algorithm under oblivious *and* adaptive
adversaries and diffs the results field by field.
"""

from __future__ import annotations

from typing import List, Optional

from repro.backends.base import EngineBackend
from repro.core.result import ExecutionResult
from repro.core.rounds import RoundKernel
from repro.core.state import BitsetKnowledgeState
from repro.utils.rng import SeedLike


def has_native_fast_path(algorithm) -> bool:
    """True iff ``algorithm`` ships a native bit-level round program."""
    factory = getattr(algorithm, "fast_program_factory", None)
    return factory is not None and factory() is not None


def fast_path_names() -> List[str]:
    """Registry names of the algorithms with a native fast program.

    Capability discovery instead of a hardcoded allowlist: every registered
    algorithm is instantiated with its registry defaults and probed through
    :meth:`~repro.algorithms.base.TokenForwardingAlgorithm.fast_program_factory`.
    """
    from repro.scenarios.registry import ALGORITHM_REGISTRY

    names = []
    for name in ALGORITHM_REGISTRY.names():
        try:
            algorithm = ALGORITHM_REGISTRY.create(name)
        except Exception:  # pragma: no cover - misconfigured third-party entry
            continue
        if has_native_fast_path(algorithm):
            names.append(name)
    return names


class BitsetBackend(EngineBackend):
    """Bit-parallel execution through the shared staged round kernel."""

    name = "bitset"

    def supports(self, problem, algorithm, adversary) -> Optional[str]:
        # The kernel runs every algorithm/adversary combination the
        # reference engine accepts: natively fast where a program exists,
        # via the generic exchange path otherwise.
        return None

    def execution_mode(self, algorithm) -> str:
        """How this backend would run ``algorithm``: ``native`` or ``generic``."""
        return "native" if has_native_fast_path(algorithm) else "generic"

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
        self.check_supports(problem, algorithm, adversary)
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
