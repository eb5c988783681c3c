"""The batch program protocol and per-lane accounting.

A :class:`BatchRoundProgram` is the many-repetition analogue of the serial
:class:`~repro.core.rounds.RoundProgram`: one program instance steps *all
lanes* (independently seeded repetitions of the same problem) of a
:class:`~repro.batch.engine.BatchKernel` through each round.  Lanes that
complete early are masked out via the kernel's ``active_lanes`` array, never
resized — a program must not send, count or learn anything for an inactive
lane.

Batch programs live next to their algorithms (exposed through
:meth:`~repro.algorithms.base.TokenForwardingAlgorithm.batch_program_factory`),
exactly like the PR 5 fast programs, and are held to the same bar: the
per-lane results the kernel assembles must be *field-identical* to running
each repetition serially — same rounds, same message statistics by
kind/round/node, same token-learning event order.

:class:`LaneAccounting` is the per-lane counterpart of the serial
:class:`~repro.core.rounds.AccountingStage`: message counters are
``(lanes,)`` / ``(lanes, n)`` arrays, and :meth:`LaneAccounting.statistics`
reconstructs one lane's :class:`~repro.core.metrics.MessageStatistics` with
the exact filtering semantics of the serial stage (kinds with zero messages
omitted, per-node entries only for nodes that sent).

This module is importable without numpy: array allocation happens at
runtime through the module handle the kernel passes in.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.comm import CommunicationModel
from repro.core.metrics import MessageStatistics
from repro.utils.ids import NodeId
from repro.utils.validation import ConfigurationError


class LaneAccounting:
    """Vectorized per-lane message counters.

    One column of counters per round, one row per lane.  ``per_node`` is a
    dense ``(lanes, n)`` int array programs may add bool sender matrices to
    directly; per-kind totals live in ``(lanes,)`` arrays created on first
    use.
    """

    def __init__(self, numpy_module, model: CommunicationModel, nodes: Tuple[NodeId, ...], lanes: int) -> None:
        self.np = numpy_module
        self.model = model
        self.nodes = nodes
        self.lanes = lanes
        self.kind_totals: Dict[str, object] = {}
        self.per_node = numpy_module.zeros((lanes, len(nodes)), dtype=numpy_module.int64)
        self.per_round_columns: List[object] = []
        self._current_column = None

    def begin_round(self) -> None:
        if self._current_column is not None:
            raise ConfigurationError("begin_round called while a round is already open")
        self._current_column = self.np.zeros(self.lanes, dtype=self.np.int64)

    def _kind_array(self, kind_value: str):
        totals = self.kind_totals.get(kind_value)
        if totals is None:
            totals = self.kind_totals[kind_value] = self.np.zeros(
                self.lanes, dtype=self.np.int64
            )
        return totals

    def count_lanes(self, kind_value: str, amounts) -> None:
        """Count ``amounts[lane]`` messages of one kind for every lane at once."""
        self._kind_array(kind_value)
        self.kind_totals[kind_value] += amounts
        self._current_column += amounts

    def close_round(self) -> None:
        if self._current_column is None:
            raise ConfigurationError("close_round called without begin_round")
        self.per_round_columns.append(self._current_column)
        self._current_column = None

    def statistics(self, lane: int, rounds: int) -> MessageStatistics:
        """Freeze one lane's counters, mirroring the serial AccountingStage.

        ``rounds`` is the number of rounds the lane actually played: its
        per-round list stops there, exactly where a serial execution of the
        same repetition would have stopped counting.
        """
        messages_by_kind = {
            kind: int(totals[lane])
            for kind, totals in self.kind_totals.items()
            if int(totals[lane])
        }
        per_node = {
            self.nodes[index]: int(count)
            for index, count in enumerate(self.per_node[lane])
            if count
        }
        return MessageStatistics(
            communication_model=self.model,
            total_messages=sum(messages_by_kind.values()),
            messages_by_kind=messages_by_kind,
            per_round_messages=[
                int(column[lane]) for column in self.per_round_columns[:rounds]
            ],
            per_node_messages=per_node,
        )


class BatchRoundProgram:
    """One algorithm's per-round behaviour across all lanes of a batch kernel.

    The kernel guarantees the call order ``commit`` (broadcast model only)
    → ``deliver`` → per-lane event drain, once per round, and only advances
    the adversary/graph state of *active* lanes.  Programs read the active
    mask from ``kernel.active_lanes`` and must leave inactive lanes
    untouched.
    """

    #: Programs that consume the dense ``(lanes, n, n)`` adjacency set this;
    #: the kernel only materializes the array when a program asks for it.
    needs_dense_adjacency = False

    def __init__(self, kernel, algorithm) -> None:
        self.kernel = kernel
        self.algorithm = algorithm
        self.model: CommunicationModel = algorithm.communication_model
        self.state = kernel.state
        self.accounting = kernel.accounting
        self.nodes = kernel.nodes
        self.n = kernel.n
        self.k = kernel.k
        self.np = kernel.np

    def setup(self) -> None:
        """One-time initialization before the first round."""

    def commit(self, round_index: int) -> object:
        """Commit broadcast payloads for every active lane (broadcast model)."""
        raise NotImplementedError

    def deliver(self, round_index: int, commitment) -> None:
        """Select, deliver and count this round's messages on every active lane."""
        raise NotImplementedError

    def quiescent_lanes(self):
        """A ``(lanes,)`` bool array of lanes that will never send again.

        The kernel stops a quiescent, not-completed lane early (reported as
        not completed), mirroring the serial kernel's quiescence check.
        ``None`` (the default) means "no lane is ever quiescent" and lets the
        kernel skip the mask entirely.
        """
        return None
