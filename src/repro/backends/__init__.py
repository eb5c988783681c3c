"""Pluggable execution backends.

A backend is one way of executing a materialized scenario; all backends must
produce results structurally identical to the reference engine.  Both
built-in backends assemble the same staged round kernel
(:mod:`repro.core.rounds`) and differ only in the knowledge representation
and program family they plug in.  This package registers three, by import
path, so each engine module is imported only when a run first needs it:

* ``reference`` — the kernel over the dict-of-sets
  :class:`~repro.core.state.MappingKnowledgeState`, driving each
  algorithm's real ``select``/``receive`` methods (supports everything;
  defines the semantics);
* ``bitset`` — the kernel over integer-bitmask state: native bit-level fast
  programs where algorithms provide them, the generic exchange path
  everywhere else; supports every registered algorithm under oblivious and
  adaptive adversaries;
* ``batch`` — the vectorized numpy kernel (:mod:`repro.batch`) running all
  repetitions of a scenario in lockstep lanes, falling back to the bitset
  kernel per repetition for adaptive or non-vectorizable scenarios.  Needs
  the ``repro[fast]`` optional extra.

Select a backend per scenario (``ScenarioSpec(backend="bitset", ...)``,
``python -m repro run --backend bitset``) and check equivalence with the
differential harness (:mod:`repro.backends.differential`, ``python -m repro
verify-backend``), which is not re-exported here: import it as
``from repro.backends import differential``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace
from repro.backends.base import (
    BACKEND_REGISTRY,
    DEFAULT_BACKEND,
    EngineBackend,
    get_backend,
    register_backend,
)

if TYPE_CHECKING:
    from repro.backends.bitset import BitsetBackend
    from repro.backends.reference import ReferenceBackend
    from repro.batch.backend import BatchBackend

BACKEND_REGISTRY._register_path(
    "reference",
    "repro.backends.reference:ReferenceBackend",
    description="The pure-Python Simulator: supports everything, defines the semantics.",
)
BACKEND_REGISTRY._register_path(
    "bitset",
    "repro.backends.bitset:BitsetBackend",
    description=(
        "Integer-bitmask round kernel: native fast programs where algorithms "
        "provide them, the generic exchange path everywhere else; supports "
        "oblivious and adaptive adversaries."
    ),
)
BACKEND_REGISTRY._register_path(
    "batch",
    "repro.batch.backend:BatchBackend",
    description=(
        "vectorized numpy kernel running all repetitions of a scenario in "
        "lockstep; falls back to the bitset kernel per repetition for "
        "adaptive or non-vectorizable scenarios (needs the repro[fast] extra)"
    ),
)

__all__ = [
    "BACKEND_REGISTRY",
    "DEFAULT_BACKEND",
    "EngineBackend",
    "get_backend",
    "register_backend",
    "BatchBackend",
    "BitsetBackend",
    "ReferenceBackend",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.backends.bitset": ("BitsetBackend",),
        "repro.backends.reference": ("ReferenceBackend",),
        "repro.batch.backend": ("BatchBackend",),
    },
)
