"""The synchronous round engine: a façade over the staged round kernel.

:class:`Simulator` drives a token-forwarding algorithm against an adversary
on a dynamic network, following the model of Section 1.3:

* rounds are synchronous and 1-indexed; ``G_0`` is the empty graph;
* every round graph must be connected over the full node set;
* in the **local broadcast** model, nodes commit to their broadcast payloads
  *before* the adversary fixes the round graph (the strongly adaptive
  adversary sees those payloads — this is exactly the lower-bound model of
  Section 2); a broadcast counts as one message;
* in the **unicast** model, the adversary fixes the round graph first, nodes
  are then informed of their neighbours and may send a different message to
  each neighbour; every message counts separately.

The round structure itself — commit, adversary, delivery, accounting — lives
in :mod:`repro.core.rounds`; the Simulator assembles a
:class:`~repro.core.rounds.RoundKernel` over the reference
:class:`~repro.core.state.MappingKnowledgeState` and the algorithm-driven
exchange programs, which is the semantics every other backend is validated
against.  The engine records the dynamic-graph trace (for ``TC(E)``), all
messages and all token-learning events, and stops as soon as every node
knows every token (or a round limit is reached).
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.base import (
    LocalBroadcastAlgorithm,
    TokenForwardingAlgorithm,
    UnicastAlgorithm,
)
from repro.core.problem import DisseminationProblem
from repro.core.result import ExecutionResult
from repro.core.rounds import RoundKernel, default_round_limit
from repro.core.state import MappingKnowledgeState
from repro.utils.rng import SeedLike
from repro.utils.validation import ConfigurationError, require_positive_int

__all__ = ["Simulator", "default_round_limit", "run_execution"]


class Simulator:
    """Runs one execution of ``algorithm`` against ``adversary`` on ``problem``.

    Args:
        problem: the dissemination instance.
        algorithm: a :class:`LocalBroadcastAlgorithm` or :class:`UnicastAlgorithm`.
        adversary: any object following the adversary protocol of
            :mod:`repro.adversaries` (``oblivious`` flag, ``reset`` and
            ``edge_ids_for_round``, which subclasses of
            :class:`~repro.adversaries.base.Adversary` inherit on top of
            their ``edges_for_round``).
        max_rounds: round limit; defaults to :func:`default_round_limit`.
        seed: base seed; the algorithm and the adversary receive independent
            generators derived from it.
        require_connected: enforce per-round connectivity (the paper's model
            requirement).  Disable only for diagnostic experiments.
        keep_trace: when ``False`` the dynamic-graph trace drops per-round
            edge sets as it goes (``TC(E)``, removals and per-round
            connectivity are still computed incrementally), so long
            executions use O(current edges) memory instead of
            O(rounds x edges).  All headline result numbers are unaffected;
            only round-by-round trace queries become unavailable.
        tracer: a :class:`repro.obs.Tracer`; when enabled the result carries
            a per-stage timing breakdown.  ``None`` (default) disables
            tracing at zero cost.
    """

    def __init__(
        self,
        problem: DisseminationProblem,
        algorithm: TokenForwardingAlgorithm,
        adversary,
        *,
        max_rounds: Optional[int] = None,
        seed: SeedLike = None,
        require_connected: bool = True,
        keep_trace: bool = True,
        tracer=None,
    ) -> None:
        if not isinstance(algorithm, (LocalBroadcastAlgorithm, UnicastAlgorithm)):
            raise ConfigurationError(
                "algorithm must derive from LocalBroadcastAlgorithm or UnicastAlgorithm"
            )
        if max_rounds is not None:
            require_positive_int(max_rounds, "max_rounds")
        self._problem = problem
        self._algorithm = algorithm
        self._adversary = adversary
        self._max_rounds = max_rounds
        self._seed = seed
        self._require_connected = require_connected
        self._keep_trace = keep_trace
        self._tracer = tracer

    # -- public API --------------------------------------------------------

    def run(self) -> ExecutionResult:
        """Run the execution to completion (or the round limit) and return the result."""
        kernel = RoundKernel(
            self._problem,
            self._algorithm,
            self._adversary,
            state_factory=MappingKnowledgeState,
            allow_fast_programs=False,
            max_rounds=self._max_rounds,
            seed=self._seed,
            require_connected=self._require_connected,
            keep_trace=self._keep_trace,
            tracer=self._tracer,
        )
        return kernel.run()


def run_execution(
    problem: DisseminationProblem,
    algorithm: TokenForwardingAlgorithm,
    adversary,
    *,
    max_rounds: Optional[int] = None,
    seed: SeedLike = None,
) -> ExecutionResult:
    """Convenience wrapper: construct a :class:`Simulator` and run it once."""
    simulator = Simulator(
        problem, algorithm, adversary, max_rounds=max_rounds, seed=seed
    )
    return simulator.run()
