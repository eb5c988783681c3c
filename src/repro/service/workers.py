"""The daemon's worker pool: cells execute off the event loop.

``workers >= 1`` uses a :class:`~concurrent.futures.ProcessPoolExecutor`
so simulations run on real cores; ``workers == 0`` degrades to a
single-thread :class:`~concurrent.futures.ThreadPoolExecutor`, which
keeps execution in-process — the mode the test suite uses to exercise the
full submit/coalesce/persist path without forking.

Cells travel as the same picklable group payloads the parallel
:class:`~repro.api.RunSet` path ships to ``multiprocessing.Pool``:
``(spec_json, repetitions, extension_modules, collect_timings)``, split by
:func:`repro.api.group_payloads` and executed by
:func:`repro.api.execute_group_payload`, which picks the engine.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, List, Tuple

from repro.api import GroupPayload, execute_group_payload
from repro.utils.validation import ConfigurationError

__all__ = ["WorkerPool"]

#: (record, meta) as returned by repro.api.execute_group.
CellOutcome = Tuple[Dict[str, Any], Dict[str, Any]]


class WorkerPool:
    """A thin async facade over a process (or inline thread) executor."""

    def __init__(self, workers: int = 1) -> None:
        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 0:
            raise ConfigurationError(
                f"workers must be a non-negative int, got {workers!r}"
            )
        self.workers = workers
        self._executor: Executor
        if workers == 0:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-cell"
            )
        else:
            # spawn, not fork: a forked worker inherits every daemon FD, so
            # it would hold client connections (and the listening socket)
            # open after the daemon dies — a SIGKILLed daemon's clients
            # would never see EOF.  Spawned workers inherit nothing, and
            # forking a threaded asyncio process is hazardous anyway.
            self._executor = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"),
            )

    def warm(self) -> None:
        """Start the worker processes now (blocking).

        The server calls this before binding its socket, so the readiness
        line really means ready and no worker is ever spawned while client
        connections exist.
        """
        if self.workers:
            futures = [self._executor.submit(os.getpid) for _ in range(self.workers)]
            for future in futures:
                future.result()

    async def run_group(self, payload: GroupPayload) -> List[CellOutcome]:
        """Execute one group payload on the pool and await its outcomes.

        The outcome list is in the payload's repetition order — one
        ``(record, meta)`` per repetition.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, execute_group_payload, payload
        )

    def shutdown(self, wait: bool = True) -> None:
        """Release the pool (idempotent)."""
        self._executor.shutdown(wait=wait)
