"""The daemon's job queue: plans, cross-job coalescing, persistence.

A submission becomes a :class:`Job`: the spec batch is expanded through
:meth:`repro.api.Experiment.plan` against the shared store (so cells whose
records already exist stream back as ``CellCached`` without executing),
and every *pending* cell is claimed through one process-wide execution
table keyed by ``(scenario_key, repetition, max_rounds)`` — the same
identity the store dedups on.  The first job to claim a key owns the
physical execution; later jobs (other clients submitting overlapping
grids while it is still in flight) attach to the same
:class:`asyncio.Future` and share the result, so duplicate work is
coalesced *across jobs*, not just against the store.

Completed records persist to the :class:`~repro.results.store.RunStore`
the moment they land — persist, then resolve, then un-claim, all without
yielding the event loop — so a ``kill -9`` at any point loses at most the
cells still in flight, and a restarted daemon's plans resume from the
persisted prefix with zero duplicate executions.

Each job buffers its progress events (``event_to_dict`` form) in plan
order; watchers replay the buffer from any index and block on the job's
condition for more, which is how the server streams live and late
subscribers catch up identically.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api import (
    Experiment,
    ExperimentPlan,
    GroupPayload,
    PlanCell,
    _cell_completed,
    group_payloads,
)
from repro.obs.events import (
    CellCached,
    CellStarted,
    ProgressEvent,
    RunFinished,
    event_to_dict,
)
from repro.obs.logs import get_logger
from repro.results.store import RunStore
from repro.scenarios.spec import ScenarioSpec
from repro.service.workers import WorkerPool
from repro.utils.validation import ReproError

__all__ = ["ExecutionKey", "Job", "Scheduler", "ShuttingDownError"]

logger = get_logger(__name__)

#: The coalescing identity of one physical execution.  scenario_key embeds
#: everything that changes the result except max_rounds (an execution
#: field that caps the simulation), so the cap joins the key explicitly —
#: mirroring the plan-phase cache-invalidation rule.
ExecutionKey = Tuple[str, int, Optional[int]]


class ShuttingDownError(ReproError):
    """Raised for submissions that arrive while the daemon is draining."""


class _Execution:
    """One in-flight physical run, shared by every job that claimed it."""

    __slots__ = ("key", "owner", "future")

    def __init__(self, key: ExecutionKey, owner: str, future: "asyncio.Future") -> None:
        self.key = key
        self.owner = owner
        self.future = future


class Job:
    """One submission: its plan, its event buffer, its final records."""

    def __init__(self, job_id: str, plan: ExperimentPlan) -> None:
        self.id = job_id
        self.plan = plan
        self.state = "running"  # running | done | failed
        self.error: Optional[str] = None
        #: Progress events in plan order, already in wire (dict) form.
        self.events: List[Dict[str, Any]] = []
        #: Records in plan order (complete only once state == "done").
        self.records: List[Dict[str, Any]] = []
        self.executed = 0
        self.coalesced = 0
        self.condition = asyncio.Condition()
        self.task: Optional["asyncio.Task"] = None

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def describe(self) -> Dict[str, Any]:
        """The status frame payload for this job."""
        counts = self.plan.describe()
        return {
            "job": self.id,
            "state": self.state,
            "error": self.error,
            "cells": counts["cells"],
            "cached": counts["cached"],
            "pending": counts["pending"],
            "executed": self.executed,
            "coalesced": self.coalesced,
            "events": len(self.events),
        }


class Scheduler:
    """The event-loop-side core: submit, coalesce, execute, persist."""

    def __init__(
        self,
        store_path: str,
        pool: WorkerPool,
        *,
        extensions: Sequence[str] = (),
        collect_timings: bool = False,
    ) -> None:
        self.store_path = str(store_path)
        # The daemon's writer handle.  Plans build their own read-side
        # RunStore instances from the path, which re-read the manifest —
        # saved here after every record — so each new plan sees every
        # record persisted so far.
        self.store = RunStore(store_path)
        self.pool = pool
        self.extensions = tuple(extensions)
        self.collect_timings = collect_timings
        self.draining = False
        self.jobs: Dict[str, Job] = {}
        self._executions: Dict[ExecutionKey, _Execution] = {}
        self._next_job = 1
        self.warehouse = self._open_warehouse()

    def _open_warehouse(self) -> Optional[Any]:
        """Create/sync the warehouse index for the service store and attach
        it to the writer, so every completed cell lands in sqlite as it
        persists and consolidated queries over the store are always warm.
        A long-running daemon is exactly the writer the index is for, so
        (unlike `analyze`) the service *creates* the index when missing.
        Any failure is non-fatal: the store works fine without it.
        """
        try:
            from repro.warehouse import WarehouseIndex, sqlite_available

            if not sqlite_available():
                return None
            index = WarehouseIndex(self.store_path)
            index.sync()
            index.attach(self.store)
            return index
        except ReproError as error:
            logger.warning(
                "warehouse index unavailable for %s (%s); serving without it",
                self.store_path,
                error,
            )
            return None

    # -- submission --------------------------------------------------------

    def submit(self, specs: Sequence[ScenarioSpec]) -> Job:
        """Plan a spec batch and start its job task.  Event-loop only."""
        if self.draining:
            raise ShuttingDownError("the service is shutting down; job rejected")
        plan = Experiment.from_specs(specs).store(self.store_path).plan()
        job = Job(f"job-{self._next_job:04d}", plan)
        self._next_job += 1
        self.jobs[job.id] = job
        claims = self._claim_cells(job, plan)
        job.task = asyncio.get_running_loop().create_task(
            self._run_job(job, claims), name=f"repro-{job.id}"
        )
        return job

    def _claim_cells(
        self, job: Job, plan: ExperimentPlan
    ) -> Dict[int, Tuple["asyncio.Future", bool]]:
        """Claim every pending cell and dispatch the fresh ones as payloads.

        A pending cell already claimed by an in-flight execution (a sibling
        job's cell) coalesces onto it.  The rest are split into worker
        payloads by :func:`repro.api.group_payloads`, exactly as ``RunSet``
        workers split them; each payload's repetitions pair, in order, with
        the executions claimed for them.
        """
        loop = asyncio.get_running_loop()
        claims: Dict[int, Tuple["asyncio.Future", bool]] = {}
        fresh: List[Tuple[_Execution, PlanCell]] = []
        for index, cell in enumerate(plan.cells):
            if cell.cached:
                continue
            key: ExecutionKey = (
                cell.spec.scenario_key(),
                cell.repetition,
                cell.spec.max_rounds,
            )
            execution = self._executions.get(key)
            if execution is not None:
                claims[index] = (execution.future, False)
                continue
            execution = _Execution(key, job.id, loop.create_future())
            self._executions[key] = execution
            claims[index] = (execution.future, True)
            fresh.append((execution, cell))
        entries = iter(fresh)
        for payload in group_payloads(
            [cell for _, cell in fresh], self.extensions, self.collect_timings
        ):
            group = [next(entries) for _ in payload[1]]
            loop.create_task(self._run_group_execution(payload, group))
        return claims

    async def _run_group_execution(
        self, payload: GroupPayload, entries: List[Tuple[_Execution, PlanCell]]
    ) -> None:
        """Run one group payload on the pool, persist, resolve, un-claim.

        The outcome list comes back in repetition order.  Each cell's
        future resolves in-band — ``("ok", record, meta)`` or
        ``("error", message)`` — so a job that stops early never leaves an
        unretrieved exception behind.  Between the pool returning and the
        futures resolving there is no ``await``: a submit arriving while a
        record is persisted either still finds its execution in the table
        (and coalesces) or plans after the un-claim and finds the record in
        the store (and is cached).  Either way it never re-runs.  A group
        failure, or a failed store write, fails every cell of the group not
        yet resolved: a cell resolves ``"ok"`` only once its record is
        stored.
        """
        try:
            outcomes = await self.pool.run_group(payload)
            for (execution, _), (record, meta) in zip(entries, outcomes):
                # replace=True supersedes stale-schema/stale-cap occupants
                # of the identity; the per-record manifest save is what lets
                # a plan built right after this see the record.
                self.store.add([record], replace=True)
                self._executions.pop(execution.key, None)
                execution.future.set_result(("ok", record, meta))
        except Exception as error:  # worker death, unpicklable spec, full disk, ...
            logger.error(
                "execution failed: %s x%d: %s",
                entries[0][1].spec.label, len(entries), error,
            )
            message = f"{type(error).__name__}: {error}"
            for execution, _ in entries:
                if not execution.future.done():
                    self._executions.pop(execution.key, None)
                    execution.future.set_result(("error", message))

    # -- the job task ------------------------------------------------------

    async def _run_job(
        self, job: Job, claims: Dict[int, Tuple["asyncio.Future", bool]]
    ) -> None:
        started = time.perf_counter()
        cells = job.plan.cells
        total = len(cells)
        try:
            for index, cell in enumerate(cells):
                if cell.cached:
                    await self._emit(
                        job,
                        CellCached(
                            index=index,
                            total=total,
                            scenario=cell.spec.label,
                            repetition=cell.repetition,
                        ),
                    )
                    job.records.append(cell.cached_record)
                    continue
                future, owned = claims[index]
                if owned:
                    await self._emit(
                        job,
                        CellStarted(
                            index=index,
                            total=total,
                            scenario=cell.spec.label,
                            repetition=cell.repetition,
                            backend=cell.spec.backend,
                        ),
                    )
                outcome = await future
                if outcome[0] == "error":
                    job.error = outcome[1]
                    job.state = "failed"
                    return
                _, record, meta = outcome
                job.records.append(record)
                if owned:
                    job.executed += 1
                    await self._emit(
                        job, _cell_completed(index, total, cell, record, meta)
                    )
                else:
                    # Coalesced onto a sibling job's execution: this job
                    # paid nothing, which is exactly what CellCached means.
                    job.coalesced += 1
                    await self._emit(
                        job,
                        CellCached(
                            index=index,
                            total=total,
                            scenario=cell.spec.label,
                            repetition=cell.repetition,
                        ),
                    )
            await self._emit(
                job,
                RunFinished(
                    cells=total,
                    executed=job.executed,
                    cached=total - job.executed,
                    seconds=time.perf_counter() - started,
                ),
            )
            job.state = "done"
        except Exception as error:  # defensive: a job must always finish
            logger.error("job %s failed: %s", job.id, error)
            job.error = f"{type(error).__name__}: {error}"
            job.state = "failed"
        finally:
            async with job.condition:
                job.condition.notify_all()

    async def _emit(self, job: Job, event: ProgressEvent) -> None:
        job.events.append(event_to_dict(event))
        async with job.condition:
            job.condition.notify_all()

    # -- queries / lifecycle ----------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def describe(self) -> List[Dict[str, Any]]:
        """Status payloads for every job, oldest first."""
        return [job.describe() for job in self.jobs.values()]

    async def drain(self) -> None:
        """Stop accepting jobs and wait for every accepted job to finish."""
        self.draining = True
        tasks = [job.task for job in self.jobs.values() if job.task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self.store.flush()
