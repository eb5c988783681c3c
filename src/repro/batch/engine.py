"""The vectorized batch kernel: many repetitions of one scenario in lockstep.

:class:`BatchKernel` is the many-lane sibling of
:class:`~repro.core.rounds.RoundKernel`.  It runs every pending repetition
("lane") of one grid cell through the staged round loop at once: one shared
problem (per-repetition seeds never touch problem construction), one shared
:class:`~repro.core.state.BatchKnowledgeState`, one
:class:`~repro.batch.programs.BatchRoundProgram`, and *per lane* everything
that diverges between repetitions — the adversary instance with its own RNG
stream, the :class:`~repro.core.rounds.AdversaryStage` (graph trace, ``TC(E)``),
and the token-learning :class:`~repro.core.events.EventLog`.

The contract is strict replay equivalence: for every lane, the assembled
:class:`~repro.core.result.ExecutionResult` is field-identical to running the
same repetition serially through the bitset kernel — same per-lane RNG
derivation order (algorithm stream first, then adversary), same round count,
same message statistics by kind/round/node, same event order, same trace.
Lanes that complete (or go quiescent) early are masked out of the active set;
their adversary stages stop advancing exactly where a serial run would have
stopped, so traces and adversary RNG consumption stay identical.

Only oblivious adversaries are admitted: vectorized lanes never build round
observations, which is precisely the case where lockstep execution cannot
diverge from serial execution.  The batch *backend* (not this kernel) routes
adaptive scenarios to per-lane serial fallback.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.batch.programs import BatchRoundProgram, LaneAccounting
from repro.core.events import EventLog
from repro.core.problem import DisseminationProblem
from repro.core.result import ExecutionResult
from repro.core.rounds import AdversaryStage, default_round_limit
from repro.core.state import BatchKnowledgeState
from repro.utils.rng import SeedLike, ensure_rng, spawn_rng
from repro.utils.validation import ConfigurationError, require_positive_int


class BatchKernel:
    """Drives ``len(seeds)`` repetitions of one scenario in one vectorized loop.

    Args:
        problem: the shared dissemination instance (identical across
            repetitions by construction — the problem seed has no
            repetition component).
        algorithm: an algorithm exposing :meth:`batch_program_factory`.
        adversaries: one adversary instance per lane; all must be oblivious.
        seeds: one base seed per lane, in lane order.
        max_rounds: round limit; defaults to
            :func:`~repro.core.rounds.default_round_limit`.
        require_connected: enforce per-round connectivity per lane.
        keep_trace: when False, per-lane traces drop round-by-round edge ids
            (``TC(E)`` and removals survive), matching the serial kernel.
        tracer: a :class:`repro.obs.Tracer`; when enabled, each lockstep
            stage runs inside a span and every lane's result carries the
            group's stage seconds divided evenly across lanes (so per-lane
            shares sum back to the group totals).
    """

    def __init__(
        self,
        problem: DisseminationProblem,
        algorithm,
        adversaries: Sequence[object],
        seeds: Sequence[SeedLike],
        *,
        max_rounds: Optional[int] = None,
        require_connected: bool = True,
        keep_trace: bool = True,
        tracer=None,
    ) -> None:
        if len(adversaries) != len(seeds):
            raise ConfigurationError(
                f"got {len(adversaries)} adversaries for {len(seeds)} seeds"
            )
        if not seeds:
            raise ConfigurationError("a batch kernel needs at least one lane")
        for adversary in adversaries:
            if not getattr(adversary, "oblivious", False):
                raise ConfigurationError(
                    "the batch kernel only admits oblivious adversaries; "
                    "adaptive scenarios must fall back to per-lane execution"
                )
        factory = algorithm.batch_program_factory()
        if factory is None:
            raise ConfigurationError(
                f"algorithm {algorithm.name!r} has no batch program"
            )

        self.problem = problem
        self.algorithm = algorithm
        self.adversaries = list(adversaries)
        self.lanes = len(seeds)
        if tracer is None:
            from repro.obs.tracing import NULL_TRACER

            tracer = NULL_TRACER
        self.tracer = tracer
        if max_rounds is None:
            max_rounds = default_round_limit(problem)
        self.max_rounds = require_positive_int(max_rounds, "max_rounds")

        # Per lane, mirror the serial kernel's RNG derivation exactly: the
        # algorithm stream is spawned first, then the adversary stream.  No
        # batch program draws from the algorithm stream, but spawning it
        # advances the base stream the adversary stream is drawn from.
        self.adversary_rngs = []
        for seed in seeds:
            base_rng = ensure_rng(seed)
            spawn_rng(base_rng, "algorithm")
            self.adversary_rngs.append(spawn_rng(base_rng, "adversary"))

        self.state = BatchKnowledgeState(problem, lanes=self.lanes)
        self.np = self.state.np
        self.nodes = self.state.nodes
        self.n = self.state.n
        self.index_of = self.state.index_of
        self.tokens = self.state.tokens
        self.k = self.state.k
        self.token_index = self.state.token_index

        self.accounting = LaneAccounting(
            self.np, algorithm.communication_model, self.nodes, self.lanes
        )
        self.event_logs: List[EventLog] = [EventLog() for _ in range(self.lanes)]
        self.stages: List[AdversaryStage] = [
            AdversaryStage(
                self.nodes,
                self.index_of,
                adversary,
                require_connected=require_connected,
                keep_trace=keep_trace,
            )
            for adversary in self.adversaries
        ]

        #: ``(lanes,)`` bool mask of lanes still playing rounds.  Programs
        #: must not send, count or learn for inactive lanes.
        self.active_lanes = ~self.state.completed_lanes()
        self.rounds_played = self.np.zeros(self.lanes, dtype=self.np.int64)

        # When every lane's adversary promises a steady topology, the
        # per-lane stage loop can stop after the latest steady round; the
        # traces are settled in one catch-up step at the end of the run.
        steadies = [
            getattr(adversary, "steady_after_round", None)
            for adversary in self.adversaries
        ]
        self._steady_round: Optional[int] = (
            max(steadies) if all(s is not None for s in steadies) else None
        )

        self.program: BatchRoundProgram = factory(self)
        #: Dense ``(lanes, n, n)`` float32 adjacency, maintained only when
        #: the program declares ``needs_dense_adjacency``.
        self.dense_adj = (
            self.np.zeros((self.lanes, self.n, self.n), dtype=self.np.float32)
            if getattr(self.program, "needs_dense_adjacency", False)
            else None
        )

    def _advance_graphs(self, round_index: int) -> None:
        """Advance the adversary stage of every active lane.

        Inactive lanes are frozen: their traces, adjacency and adversary RNG
        stop exactly where the equivalent serial run stopped.
        """
        if self._steady_round is not None and round_index > self._steady_round:
            # Every lane's topology (and dense adjacency) is frozen; traces
            # are caught up in bulk after the round loop.
            return
        np = self.np
        dense = self.dense_adj
        n = self.n
        stages = self.stages
        for lane in np.nonzero(self.active_lanes)[0]:
            stage = stages[lane]
            # Oblivious adversaries never observe, so the stage accepts a
            # missing program/commitment.
            stage.advance(round_index, None, None)
            if dense is not None:
                lane_adj = dense[lane]
                for eid in stage.inserted_ids:
                    a, b = divmod(eid, n)
                    lane_adj[a, b] = 1.0
                    lane_adj[b, a] = 1.0
                for eid in stage.removed_ids:
                    a, b = divmod(eid, n)
                    lane_adj[a, b] = 0.0
                    lane_adj[b, a] = 0.0

    def run(self) -> List[ExecutionResult]:
        """Run every lane to completion (or quiescence, or the round limit)."""
        np = self.np
        program = self.program
        state = self.state
        accounting = self.accounting
        event_logs = self.event_logs
        broadcast = self.algorithm.communication_model.is_broadcast

        program.setup()
        for adversary, rng in zip(self.adversaries, self.adversary_rngs):
            adversary.reset(self.problem, rng)

        # One lockstep round does the numpy work of *all* lanes, so four
        # span entries per round are noise — no separate untraced loop is
        # needed here, unlike the serial kernel.
        tracer = self.tracer
        timings_before = tracer.timings() if tracer.enabled else None
        from repro.obs.tracing import (
            STAGE_ACCOUNTING,
            STAGE_ADVERSARY,
            STAGE_COMMIT,
            STAGE_DELIVERY,
        )

        active = self.active_lanes
        rounds_played = self.rounds_played
        round_index = 0
        while bool(active.any()) and round_index < self.max_rounds:
            round_index += 1
            state.begin_round(round_index)
            accounting.begin_round()
            with tracer.span(STAGE_COMMIT, round=round_index, lanes=self.lanes):
                commitment = program.commit(round_index) if broadcast else None
            with tracer.span(STAGE_ADVERSARY, round=round_index, lanes=self.lanes):
                self._advance_graphs(round_index)
            with tracer.span(STAGE_DELIVERY, round=round_index, lanes=self.lanes):
                program.deliver(round_index, commitment)
            with tracer.span(STAGE_ACCOUNTING, round=round_index, lanes=self.lanes):
                accounting.close_round()
            rounds_played[active] = round_index
            completed = state.completed_lanes()
            # A quiescent, not-completed lane will never send again: stop it
            # early, reported as not completed (serial kernel semantics).
            active &= ~completed
            quiescent = program.quiescent_lanes()
            if quiescent is not None:
                active &= ~quiescent

        # Learnings were stamped with their round as they happened, so one
        # drain per lane rebuilds each event log in serial recording order.
        for lane in range(self.lanes):
            event_logs[lane].extend_segments(state.drain_lane_segments(lane))
        if self._steady_round is not None:
            # Settle each lane's trace to the rounds it actually played.
            for lane in range(self.lanes):
                self.stages[lane].catch_up(int(rounds_played[lane]))

        # Lockstep stages serve all lanes at once; dividing the group's
        # stage seconds evenly across lanes keeps per-lane shares summing
        # back to the group totals (what trace summaries aggregate).
        lane_timings = None
        if timings_before is not None:
            from repro.obs.tracing import timing_delta

            group_timings = timing_delta(timings_before, tracer.timings())
            if group_timings:
                lane_timings = {
                    name: seconds / self.lanes
                    for name, seconds in group_timings.items()
                }

        completed = state.completed_lanes()
        results: List[ExecutionResult] = []
        for lane in range(self.lanes):
            lane_rounds = int(rounds_played[lane])
            adversary = self.adversaries[lane]
            results.append(
                ExecutionResult(
                    algorithm_name=self.algorithm.name,
                    communication_model=self.algorithm.communication_model,
                    problem=self.problem,
                    completed=bool(completed[lane]),
                    rounds=lane_rounds,
                    messages=accounting.statistics(lane, lane_rounds),
                    trace=self.stages[lane].trace,
                    events=event_logs[lane],
                    adversary_name=getattr(
                        adversary, "name", type(adversary).__name__
                    ),
                    timings=dict(lane_timings) if lane_timings else None,
                )
            )
        return results
