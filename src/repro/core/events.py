"""Token-learning events (Definition 1.4) and the execution event log.

A token learning ``⟨v, τ, r⟩`` occurs when node ``v`` receives token ``τ``
for the first time in round ``r``.  If each of the k tokens is initially
given to exactly one node, exactly ``k(n-1)`` token learnings must occur in
any execution that solves k-token dissemination.

Executions record hundreds of thousands of learnings, while most consumers
only ever ask for counts, so the log stores learnings as cheap *segments*
(a round's worth of pairs, a vectorized column of node indices, or raw
stamped triples) and materializes :class:`TokenLearning` objects and the
per-round / per-node aggregates lazily, on first access.  The hot engine
loops append through :meth:`EventLog.record_bulk` and
:meth:`EventLog.extend_segments`, which never construct event objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.tokens import Token
from repro.utils.ids import NodeId

#: Segment tags: a list of ``(node, token)`` pairs sharing one round, a
#: column of node *indices* learning one token in one round (resolved
#: against a node sequence at materialization time), and pre-stamped
#: ``(round, node, token)`` triples.
SEG_PAIRS = "pairs"
SEG_COLUMN = "column"
SEG_TRIPLES = "triples"


@dataclass(frozen=True, order=True, slots=True)
class TokenLearning:
    """The event ``⟨node, token, round⟩``: ``node`` learns ``token`` in round ``round``."""

    round_index: int
    node: NodeId
    token: Token


def column_segment(
    round_index: int,
    token: Token,
    node_indices: List[int],
    nodes: Sequence[NodeId],
) -> Tuple[str, int, Token, List[int], Sequence[NodeId]]:
    """A segment of ``len(node_indices)`` learnings of one token in one round.

    ``node_indices`` index into ``nodes``; the lookup is deferred until the
    log is actually read.  The caller hands over ownership of the list.
    """
    return (SEG_COLUMN, round_index, token, node_indices, nodes)


class EventLog:
    """An append-only log of token-learning events with per-round aggregation."""

    def __init__(self) -> None:
        self._segments: List[tuple] = []
        self._count = 0
        self._materialized: Optional[List[TokenLearning]] = None
        self._per_round: Optional[Dict[int, int]] = None
        self._per_node: Optional[Dict[NodeId, int]] = None

    def record(self, round_index: int, node: NodeId, token: Token) -> TokenLearning:
        """Append a token-learning event and return it."""
        event = TokenLearning(round_index=round_index, node=node, token=token)
        segments = self._segments
        if segments and segments[-1][0] == SEG_TRIPLES:
            segments[-1][1].append((round_index, node, token))
        else:
            segments.append((SEG_TRIPLES, [(round_index, node, token)]))
        self._count += 1
        if self._materialized is not None:
            self._materialized.append(event)
        if self._per_round is not None:
            self._per_round[round_index] = self._per_round.get(round_index, 0) + 1
        if self._per_node is not None:
            self._per_node[node] = self._per_node.get(node, 0) + 1
        return event

    def record_bulk(
        self, round_index: int, learnings: List[Tuple[NodeId, Token]]
    ) -> None:
        """Append ``⟨node, token, round_index⟩`` for every pair, in order.

        The fast path for the serial kernel's per-round drain: the list is
        stored as-is (the caller hands over ownership) and no event objects
        or aggregates are built until somebody asks.
        """
        if not isinstance(learnings, list):
            learnings = list(learnings)
        if not learnings:
            return
        self._segments.append((SEG_PAIRS, round_index, learnings))
        self._count += len(learnings)
        self._invalidate()

    def extend_segments(self, segments: List[tuple]) -> None:
        """Append pre-built segments (see module tags) in order.

        The batch kernel's once-per-run drain: a lane's whole history of
        column and triple segments arrives in one call, with rounds
        non-decreasing across segments.
        """
        count = 0
        for segment in segments:
            tag = segment[0]
            if tag == SEG_COLUMN:
                count += len(segment[3])
            elif tag == SEG_PAIRS:
                count += len(segment[2])
            else:
                count += len(segment[1])
        if not count:
            return
        self._segments.extend(segments)
        self._count += count
        self._invalidate()

    def _invalidate(self) -> None:
        self._materialized = None
        self._per_round = None
        self._per_node = None

    def _iter_raw(self) -> Iterator[Tuple[int, NodeId, Token]]:
        for segment in self._segments:
            tag = segment[0]
            if tag == SEG_COLUMN:
                _, round_index, token, indices, nodes = segment
                for index in indices:
                    yield (round_index, nodes[index], token)
            elif tag == SEG_PAIRS:
                _, round_index, pairs = segment
                for node, token in pairs:
                    yield (round_index, node, token)
            else:
                yield from segment[1]

    def _events_list(self) -> List[TokenLearning]:
        events = self._materialized
        if events is None:
            events = self._materialized = [
                TokenLearning(round_index=r, node=v, token=t)
                for r, v, t in self._iter_raw()
            ]
        return events

    def _round_counts(self) -> Dict[int, int]:
        per_round = self._per_round
        if per_round is None:
            per_round = self._per_round = {}
            for segment in self._segments:
                tag = segment[0]
                if tag == SEG_COLUMN:
                    round_index, amount = segment[1], len(segment[3])
                    per_round[round_index] = per_round.get(round_index, 0) + amount
                elif tag == SEG_PAIRS:
                    round_index, amount = segment[1], len(segment[2])
                    per_round[round_index] = per_round.get(round_index, 0) + amount
                else:
                    for round_index, _, _ in segment[1]:
                        per_round[round_index] = per_round.get(round_index, 0) + 1
        return per_round

    def _node_counts(self) -> Dict[NodeId, int]:
        per_node = self._per_node
        if per_node is None:
            per_node = self._per_node = {}
            for _, node, _ in self._iter_raw():
                per_node[node] = per_node.get(node, 0) + 1
        return per_node

    @property
    def events(self) -> List[TokenLearning]:
        """All recorded events in insertion order."""
        return list(self._events_list())

    def total_learnings(self) -> int:
        """Total number of token-learning events."""
        return self._count

    def learnings_in_round(self, round_index: int) -> int:
        """Number of token learnings that occurred in a given round."""
        return self._round_counts().get(round_index, 0)

    def learnings_of_node(self, node: NodeId) -> int:
        """Number of tokens learned (not counting initial knowledge) by a node."""
        return self._node_counts().get(node, 0)

    def max_learnings_in_a_round(self) -> int:
        """The maximum number of learnings in any single round (0 if empty)."""
        return max(self._round_counts().values(), default=0)

    def rounds_with_learnings(self) -> List[int]:
        """The sorted list of rounds in which at least one learning occurred."""
        return sorted(self._round_counts())

    def last_learning_round(self) -> Optional[int]:
        """The last round in which any node learned a token, or ``None``."""
        per_round = self._round_counts()
        return max(per_round) if per_round else None

    def __iter__(self) -> Iterator[TokenLearning]:
        return iter(self._events_list())

    def __len__(self) -> int:
        return self._count
