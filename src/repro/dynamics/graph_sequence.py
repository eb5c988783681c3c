"""Round-graph sequences: recorded traces and pre-committed schedules.

The paper defines (Section 1.3):

* ``G_r = (V, E_r)`` — the graph of round ``r`` (rounds are 1-indexed and
  ``E_0 = ∅``);
* ``E+_r = E_r \\ E_{r-1}`` — edges inserted in round ``r``;
* ``E-_r = E_{r-1} \\ E_r`` — edges removed in round ``r``;
* ``TC(E) = Σ_r |E+_r|`` — the number of topological changes of an execution.

:class:`DynamicGraphTrace` records these quantities as an execution unfolds
(the adversary may be adaptive, so the trace is only known a posteriori).
It is the one trace every engine records into: rounds are stored as integer
edge ids over positions in its sorted node list and decoded to node tuples
on demand.  :class:`GraphSchedule` is a pre-committed sequence of round
graphs used by oblivious adversaries and by workload generators.
"""

from __future__ import annotations

from itertools import repeat
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import networkx as nx

from repro.utils.ids import Edge, NodeId, normalize_edge, validate_edges, validate_nodes
from repro.utils.validation import ConfigurationError, SimulationError


class DynamicGraphTrace:
    """The recorded sequence of round graphs of a single execution.

    Rounds are 1-indexed, matching the paper.  Round 0 is the empty graph.

    Each round is stored as integer edge ids ``a * n + b`` (``a < b``
    positions in the sorted :attr:`nodes`), the encoding the round kernel's
    adversary stage already works on, so recording a round costs a handful
    of int operations.  Node-tuple edge sets are decoded lazily, only when a
    consumer asks for a round graph.

    With ``keep_history=False`` the trace maintains only the current round
    graph and the running totals (``TC(E)``, removals): long executions then
    use O(current edges) memory instead of O(rounds x edges), at the price
    that only the *latest* round can be queried — accessing an earlier round,
    :meth:`edge_lifetime` or :meth:`as_schedule` raises ``SimulationError``.
    """

    def __init__(self, nodes: Iterable[NodeId], *, keep_history: bool = True):
        self._nodes: List[NodeId] = validate_nodes(nodes)
        self._index_of: Dict[NodeId, int] = {
            node: index for index, node in enumerate(self._nodes)
        }
        self._keep_history = keep_history
        self._id_rounds: List[FrozenSet[int]] = []
        self._decoded: Dict[int, FrozenSet[Edge]] = {}
        self._num_rounds = 0
        self._current_ids: FrozenSet[int] = frozenset()
        self._current_inserted_ids: FrozenSet[int] = frozenset()
        self._current_removed_ids: FrozenSet[int] = frozenset()
        self._total_insertions = 0
        self._total_removals = 0

    @property
    def nodes(self) -> List[NodeId]:
        """The fixed node set ``V`` (sorted)."""
        return list(self._nodes)

    @property
    def num_nodes(self) -> int:
        """``n = |V|``."""
        return len(self._nodes)

    @property
    def num_rounds(self) -> int:
        """Number of rounds recorded so far."""
        return self._num_rounds

    @property
    def keeps_history(self) -> bool:
        """Whether per-round edge sets are retained (see ``keep_history``)."""
        return self._keep_history

    # -- recording ---------------------------------------------------------

    def record_round(self, edges: Iterable[Edge]) -> FrozenSet[Edge]:
        """Record the edge set of the next round and return it normalized."""
        edge_set = validate_edges(self._nodes, edges)
        index_of = self._index_of
        n = len(self._nodes)
        ids = frozenset(index_of[u] * n + index_of[v] for u, v in edge_set)
        previous = self._current_ids
        self.record_ids(ids, ids - previous, previous - ids)
        return edge_set

    def record_ids(
        self, ids: FrozenSet[int], inserted: FrozenSet[int], removed: FrozenSet[int]
    ) -> None:
        """Record the next round's edge ids plus the precomputed delta.

        The round kernel's per-round path: ``ids`` are canonical edge ids
        over positions in :attr:`nodes`; with ``previous`` the last round's
        ids, ``inserted = ids - previous`` and ``removed = previous - ids``.
        """
        self._num_rounds += 1
        self._total_insertions += len(inserted)
        self._total_removals += len(removed)
        self._current_ids = ids
        self._current_inserted_ids = inserted
        self._current_removed_ids = removed
        if self._keep_history:
            self._id_rounds.append(ids)

    def record_unchanged(self) -> None:
        """Record a round whose edge set equals the previous round's.

        Equivalent to ``record_ids(current, frozenset(), frozenset())`` with
        the current edge set, without touching it.
        """
        self._num_rounds += 1
        self._current_inserted_ids = frozenset()
        self._current_removed_ids = frozenset()
        if self._keep_history:
            self._id_rounds.append(self._current_ids)

    def record_unchanged_many(self, count: int) -> None:
        """Record ``count`` consecutive rounds with the current edge set.

        The batch kernel's catch-up path for adversaries past their steady
        round: indistinguishable from calling :meth:`record_unchanged`
        ``count`` times.
        """
        if count <= 0:
            return
        self._num_rounds += count
        self._current_inserted_ids = frozenset()
        self._current_removed_ids = frozenset()
        if self._keep_history:
            self._id_rounds.extend(repeat(self._current_ids, count))

    # -- queries -----------------------------------------------------------

    def _check_round(self, round_index: int) -> None:
        if round_index < 1 or round_index > self._num_rounds:
            raise SimulationError(
                f"round {round_index} has not been recorded "
                f"(recorded rounds: 1..{self._num_rounds})"
            )
        if not self._keep_history and round_index != self._num_rounds:
            raise SimulationError(
                f"round {round_index} was dropped (keep_history=False retains "
                f"only the current round {self._num_rounds})"
            )

    def _require_history(self, what: str) -> None:
        if not self._keep_history:
            raise SimulationError(
                f"{what} needs the full round history, "
                "but this trace was recorded with keep_history=False"
            )

    def _decode(self, ids: FrozenSet[int]) -> FrozenSet[Edge]:
        nodes = self._nodes
        n = len(nodes)
        return frozenset((nodes[eid // n], nodes[eid % n]) for eid in ids)

    def _round_ids(self, round_index: int) -> FrozenSet[int]:
        if round_index == 0:
            return frozenset()
        if not self._keep_history:
            return self._current_ids
        return self._id_rounds[round_index - 1]

    def edges_in_round(self, round_index: int) -> FrozenSet[Edge]:
        """``E_r`` for a recorded round ``r`` (``E_0`` is the empty set)."""
        if round_index == 0:
            return frozenset()
        self._check_round(round_index)
        cached = self._decoded.get(round_index)
        if cached is None:
            cached = self._decode(self._round_ids(round_index))
            if self._keep_history:
                self._decoded[round_index] = cached
        return cached

    def inserted_edges(self, round_index: int) -> FrozenSet[Edge]:
        """``E+_r = E_r \\ E_{r-1}``."""
        if round_index == 0:
            return frozenset()
        self._check_round(round_index)
        if round_index == self._num_rounds:
            return self._decode(self._current_inserted_ids)
        return self._decode(
            self._round_ids(round_index) - self._round_ids(round_index - 1)
        )

    def removed_edges(self, round_index: int) -> FrozenSet[Edge]:
        """``E-_r = E_{r-1} \\ E_r``."""
        if round_index == 0:
            return frozenset()
        self._check_round(round_index)
        if round_index == self._num_rounds:
            return self._decode(self._current_removed_ids)
        return self._decode(
            self._round_ids(round_index - 1) - self._round_ids(round_index)
        )

    def _prefix_totals(self, up_to_round: int, what: str) -> Tuple[int, int]:
        """Insertions and removals over rounds ``1..up_to_round`` (clamped)."""
        up_to_round = min(up_to_round, self._num_rounds)
        if up_to_round == self._num_rounds:
            return self._total_insertions, self._total_removals
        if up_to_round == 0:
            return 0, 0
        self._require_history(what)
        insertions = removals = 0
        previous: FrozenSet[int] = frozenset()
        for current in self._id_rounds[:up_to_round]:
            insertions += len(current - previous)
            removals += len(previous - current)
            previous = current
        return insertions, removals

    def topological_changes(self, up_to_round: Optional[int] = None) -> int:
        """``TC(E) = Σ_r |E+_r|`` over the recorded execution (or a prefix)."""
        if up_to_round is None:
            return self._total_insertions
        if up_to_round < 0:
            raise ConfigurationError("up_to_round must be non-negative")
        return self._prefix_totals(up_to_round, "a topological-changes prefix")[0]

    def total_edge_removals(self, up_to_round: Optional[int] = None) -> int:
        """Total number of edge deletions (always ≤ ``TC(E)`` since ``E_0 = ∅``)."""
        if up_to_round is None:
            return self._total_removals
        return self._prefix_totals(max(up_to_round, 0), "an edge-removals prefix")[1]

    def graph(self, round_index: int) -> nx.Graph:
        """Return ``G_r`` as a :class:`networkx.Graph` (including isolated nodes)."""
        graph = nx.Graph()
        graph.add_nodes_from(self._nodes)
        graph.add_edges_from(self.edges_in_round(round_index))
        return graph

    def neighbors(self, round_index: int) -> Dict[NodeId, FrozenSet[NodeId]]:
        """Adjacency map of round ``round_index``."""
        adjacency: Dict[NodeId, Set[NodeId]] = {node: set() for node in self._nodes}
        for u, v in self.edges_in_round(round_index):
            adjacency[u].add(v)
            adjacency[v].add(u)
        return {node: frozenset(neigh) for node, neigh in adjacency.items()}

    def edge_lifetime(self, edge: Edge) -> int:
        """Total number of rounds in which ``edge`` was present."""
        self._require_history("edge_lifetime")
        u, v = normalize_edge(*edge)
        index_of = self._index_of
        if u not in index_of or v not in index_of:
            return 0
        eid = index_of[u] * len(self._nodes) + index_of[v]
        return sum(1 for ids in self._id_rounds if eid in ids)

    def as_schedule(self) -> "GraphSchedule":
        """Freeze the recorded trace into a replayable :class:`GraphSchedule`."""
        self._require_history("as_schedule")
        return GraphSchedule(
            self._nodes,
            [self.edges_in_round(index) for index in range(1, self._num_rounds + 1)],
        )

    def __len__(self) -> int:
        return self.num_rounds

    def __repr__(self) -> str:
        return (
            f"DynamicGraphTrace(n={self.num_nodes}, rounds={self.num_rounds}, "
            f"TC={self._total_insertions})"
        )


class GraphSchedule:
    """A pre-committed sequence of round graphs over a fixed node set.

    A schedule is what an *oblivious* adversary commits to before the
    execution starts.  When an execution outlives the schedule, the final
    round graph repeats (the adversary keeps the topology fixed), which keeps
    every schedule well defined for arbitrarily long executions while adding
    no further topological changes.

    A schedule is immutable, so any number of adversaries and executions may
    replay one instance (the scenario registry shares it between cells with
    equal generator parameters).  Besides node tuples it serves each round
    as integer edge ids over positions in its sorted node list
    (:meth:`edge_ids_for_round`), computed once per schedule.
    """

    def __init__(self, nodes: Iterable[NodeId], edge_sets: Sequence[Iterable[Edge]]):
        self._nodes: List[NodeId] = validate_nodes(nodes)
        self._node_set: FrozenSet[NodeId] = frozenset(self._nodes)
        if not edge_sets:
            raise ConfigurationError("a GraphSchedule needs at least one round graph")
        self._edge_sets: List[FrozenSet[Edge]] = [
            validate_edges(self._node_set, edges) for edges in edge_sets
        ]
        self._id_sets: Optional[List[FrozenSet[int]]] = None

    @property
    def nodes(self) -> List[NodeId]:
        """The fixed node set ``V`` (sorted)."""
        return list(self._nodes)

    @property
    def num_nodes(self) -> int:
        """``n = |V|``."""
        return len(self._nodes)

    @property
    def num_rounds(self) -> int:
        """Number of explicitly specified rounds (the last one repeats afterwards)."""
        return len(self._edge_sets)

    def edges_for_round(self, round_index: int) -> FrozenSet[Edge]:
        """``E_r``; for rounds beyond the schedule length the last graph repeats."""
        if round_index < 1:
            raise ConfigurationError(f"round indices start at 1, got {round_index}")
        index = min(round_index, len(self._edge_sets)) - 1
        return self._edge_sets[index]

    def edge_ids_for_round(self, round_index: int) -> FrozenSet[int]:
        """``E_r`` as edge ids ``a * n + b`` (``a < b`` positions in
        :attr:`nodes`); for rounds beyond the schedule length the last graph
        repeats.

        Equal round graphs share one id frozenset, so a replaying round
        kernel sees an unchanged round as the identical object.
        """
        if round_index < 1:
            raise ConfigurationError(f"round indices start at 1, got {round_index}")
        id_sets = self._id_sets
        if id_sets is None:
            n = len(self._nodes)
            index_of = {node: index for index, node in enumerate(self._nodes)}
            shared: Dict[FrozenSet[Edge], FrozenSet[int]] = {}
            id_sets = []
            for edges in self._edge_sets:
                ids = shared.get(edges)
                if ids is None:
                    # Edges are normalized (u < v) and the nodes sorted, so
                    # index_of[u] < index_of[v]: the canonical id.
                    ids = shared[edges] = frozenset(
                        index_of[u] * n + index_of[v] for u, v in edges
                    )
                id_sets.append(ids)
            self._id_sets = id_sets
        return id_sets[min(round_index, len(id_sets)) - 1]

    def graph(self, round_index: int) -> nx.Graph:
        """Return ``G_r`` as a :class:`networkx.Graph` (including isolated nodes)."""
        graph = nx.Graph()
        graph.add_nodes_from(self._nodes)
        graph.add_edges_from(self.edges_for_round(round_index))
        return graph

    def prefix(self, num_rounds: int) -> "GraphSchedule":
        """Return a schedule consisting of the first ``num_rounds`` round graphs."""
        if num_rounds < 1:
            raise ConfigurationError("num_rounds must be at least 1")
        return GraphSchedule(self._nodes, self._edge_sets[:num_rounds])

    def concatenate(self, other: "GraphSchedule") -> "GraphSchedule":
        """Append another schedule over the same node set."""
        if frozenset(other.nodes) != self._node_set:
            raise ConfigurationError("cannot concatenate schedules over different node sets")
        return GraphSchedule(self._nodes, list(self._edge_sets) + list(other._edge_sets))

    def topological_changes(self, num_rounds: Optional[int] = None) -> int:
        """``TC`` of the first ``num_rounds`` rounds (whole schedule by default)."""
        limit = self.num_rounds if num_rounds is None else max(0, num_rounds)
        limit = min(limit, self.num_rounds)
        total = 0
        previous: FrozenSet[Edge] = frozenset()
        for index in range(limit):
            current = self._edge_sets[index]
            total += len(current - previous)
            previous = current
        return total

    def iter_rounds(self) -> Iterable[Tuple[int, FrozenSet[Edge]]]:
        """Iterate over ``(round_index, E_r)`` pairs of the explicit schedule."""
        for index, edges in enumerate(self._edge_sets, start=1):
            yield index, edges

    def __len__(self) -> int:
        return self.num_rounds

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphSchedule):
            return NotImplemented
        return self._nodes == other._nodes and self._edge_sets == other._edge_sets

    def __repr__(self) -> str:
        return f"GraphSchedule(n={self.num_nodes}, rounds={self.num_rounds})"
