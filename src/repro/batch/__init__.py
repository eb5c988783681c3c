"""Vectorized batch execution: whole sweeps of repetitions in lockstep.

This package holds the numpy-backed batch execution core:

- :class:`~repro.batch.programs.BatchRoundProgram` — the per-round protocol
  batch programs implement (they live next to their algorithms);
- :class:`~repro.batch.programs.LaneAccounting` — vectorized per-lane
  message counters;
- :class:`~repro.batch.engine.BatchKernel` — the many-lane round loop.

The ``batch`` *backend* lives in :mod:`repro.batch.backend`;
:mod:`repro.backends` registers it by import path, so it is imported the
first time a ``batch`` run needs it.  None of these modules import numpy at
module level — numpy is an optional dependency, pulled in lazily when a
batch kernel is constructed (install it with ``pip install "repro[fast]"``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.batch.engine import BatchKernel
    from repro.batch.programs import BatchRoundProgram, LaneAccounting

__all__ = [
    "BatchKernel",
    "BatchRoundProgram",
    "LaneAccounting",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.batch.engine": ("BatchKernel",),
        "repro.batch.programs": ("BatchRoundProgram", "LaneAccounting"),
    },
)
