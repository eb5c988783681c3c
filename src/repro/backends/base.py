"""The execution-backend protocol and registry.

An :class:`EngineBackend` turns one materialized scenario — a
``(problem, algorithm, adversary)`` triple plus a seed — into an
:class:`~repro.core.result.ExecutionResult`.  The reference backend is the
pure-Python :class:`~repro.core.engine.Simulator`; alternative backends may
execute the *same semantics* differently (bit-parallel state, numpy arrays,
sharded processes, native code) as long as the results they emit are
structurally identical to the reference.  The differential harness
(:mod:`repro.backends.differential`) checks exactly that.

Backends are registered under short stable names in
:data:`BACKEND_REGISTRY`; the scenario runner dispatches on
:attr:`~repro.scenarios.spec.ScenarioSpec.backend` and the CLI exposes the
names via ``--backend`` and ``python -m repro list``.  Registering a custom
backend is one decorator::

    from repro.backends import EngineBackend, register_backend

    @register_backend("my-backend")
    class MyBackend(EngineBackend):
        name = "my-backend"
        ...
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

from repro.scenarios.registry import Registry
from repro.utils.rng import SeedLike
from repro.utils.validation import ConfigurationError

if TYPE_CHECKING:
    from repro.core.result import ExecutionResult

#: The backend used when a spec does not name one.
DEFAULT_BACKEND = "reference"

BACKEND_REGISTRY = Registry("backend")

register_backend = BACKEND_REGISTRY.register


class EngineBackend(abc.ABC):
    """One way of executing a materialized scenario.

    Backends are stateless between runs: every :meth:`run` call is an
    independent execution, and the registry constructs a fresh instance per
    dispatch.  The ``problem``/``algorithm``/``adversary`` objects passed in
    are consumed by a single execution (algorithms and adversaries hold
    per-execution state), exactly like handing them to the Simulator.
    """

    #: Registry name, mirrored on the class for introspection and messages.
    name: str = "backend"

    def supports(self, problem, algorithm, adversary) -> Optional[str]:
        """``None`` if this backend can run the scenario, else the reason not.

        The returned string is surfaced verbatim in error messages, so it
        should name the offending component ("no fast path for algorithm
        'x'", "adversary 'y' is adaptive", ...).
        """
        return None

    @abc.abstractmethod
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
        """Run one execution to completion (or the round limit).

        ``tracer`` is an optional :class:`repro.obs.Tracer`; backends that
        honour it run the round loop inside per-stage spans and attach a
        timing breakdown to the result.  ``None`` must cost nothing.
        """

    def check_supports(self, problem, algorithm, adversary) -> None:
        """Raise a :class:`ConfigurationError` if the scenario is unsupported."""
        reason = self.supports(problem, algorithm, adversary)
        if reason is not None:
            raise ConfigurationError(
                f"backend {self.name!r} cannot run this scenario: {reason}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def get_backend(name: str) -> EngineBackend:
    """Instantiate the backend registered under ``name``.

    Raises a :class:`ConfigurationError` listing the known backends on a
    miss (the shared registry behaviour).
    """
    backend = BACKEND_REGISTRY.create(name)
    if not isinstance(backend, EngineBackend):
        raise ConfigurationError(
            f"backend {name!r} must derive from EngineBackend, "
            f"got {type(backend).__name__}"
        )
    return backend
