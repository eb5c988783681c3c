"""The reference backend: the pure-Python round engine, unchanged.

Every other backend is validated against this one — it *defines* the
semantics.  It supports every algorithm/adversary combination the
:class:`~repro.core.engine.Simulator` accepts.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.base import EngineBackend
from repro.core.engine import Simulator
from repro.core.result import ExecutionResult
from repro.utils.rng import SeedLike


class ReferenceBackend(EngineBackend):
    """Runs scenarios through the :class:`~repro.core.engine.Simulator`."""

    name = "reference"

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
        return Simulator(
            problem,
            algorithm,
            adversary,
            max_rounds=max_rounds,
            seed=seed,
            require_connected=require_connected,
            keep_trace=keep_trace,
            tracer=tracer,
        ).run()
