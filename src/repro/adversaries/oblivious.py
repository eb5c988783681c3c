"""Oblivious adversaries.

An oblivious adversary commits to the entire topology sequence before the
execution starts (Section 1.3).  We provide two flavours:

* :class:`ScheduleAdversary` replays a pre-committed
  :class:`~repro.dynamics.graph_sequence.GraphSchedule`;
* lazily generated adversaries whose round graphs depend only on the round
  index and the adversary's private randomness (never on the algorithm);
  because the engine seeds the adversary before the execution and never hands
  it an observation, the generated sequence is equivalent to a pre-committed
  one.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.adversaries.base import Adversary
from repro.core.observation import RoundObservation
from repro.core.state import bit_indices, edge_id
from repro.dynamics.connectivity import (
    is_connected,
    mask_components,
    toggle_edge_ids,
)
from repro.dynamics.generators import random_connected_edges
from repro.dynamics.graph_sequence import GraphSchedule
from repro.utils.ids import Edge, NodeId, normalize_edge
from repro.utils.validation import (
    ConfigurationError,
    require_non_negative_int,
    require_probability,
)


class ScheduleAdversary(Adversary):
    """Replays a pre-committed schedule; the last round graph repeats forever.

    The :class:`~repro.dynamics.graph_sequence.GraphSchedule` is immutable
    and may be shared by many adversaries (the registry's schedule factories
    share one per parameter set); only the per-execution state lives here.
    :meth:`edge_ids_for_round` hands the kernel the schedule's precomputed
    edge ids over its sorted nodes, the positions the kernel indexes by.
    """

    oblivious = True

    def __init__(self, schedule: GraphSchedule, name: str = "schedule"):
        super().__init__()
        self._schedule = schedule
        self.name = name

    @property
    def schedule(self) -> GraphSchedule:
        """The committed schedule."""
        return self._schedule

    @property
    def steady_after_round(self) -> int:
        """Past the schedule's length the last round graph repeats forever."""
        return self._schedule.num_rounds

    def on_reset(self) -> None:
        if set(self._schedule.nodes) != set(self.problem.nodes):
            raise ConfigurationError(
                "the schedule's node set does not match the problem's node set"
            )

    def edges_for_round(
        self, round_index: int, observation: Optional[RoundObservation]
    ) -> Iterable[Edge]:
        return self._schedule.edges_for_round(round_index)

    def edge_ids_for_round(
        self,
        round_index: int,
        observation: Optional[RoundObservation],
        index_of: Dict[NodeId, int],
    ) -> FrozenSet[int]:
        # on_reset checked that the schedule's sorted nodes are the
        # problem's, so the schedule's ids are over the positions in nodes.
        if not self.indexes_nodes_in_order(index_of):
            return super().edge_ids_for_round(round_index, observation, index_of)
        return self._schedule.edge_ids_for_round(round_index)


class StaticAdversary(ScheduleAdversary):
    """A static (never changing) network given by a single connected edge set."""

    def __init__(self, num_nodes: int, edges: Iterable[Edge], name: str = "static"):
        nodes = list(range(num_nodes))
        edge_set = {normalize_edge(u, v) for (u, v) in edges}
        if not is_connected(nodes, edge_set):
            raise ConfigurationError("StaticAdversary requires a connected edge set")
        super().__init__(GraphSchedule(nodes, [edge_set]), name=name)


class RandomChurnObliviousAdversary(Adversary):
    """Fresh connected G(n, p) graph every ``period`` rounds, independent of the algorithm."""

    oblivious = True

    def __init__(
        self,
        edge_probability: float = 0.1,
        period: int = 1,
        name: str = "random-churn",
    ):
        super().__init__()
        require_probability(edge_probability, "edge_probability")
        if period < 1:
            raise ConfigurationError("period must be at least 1")
        self._edge_probability = edge_probability
        self._period = period
        self._current: Optional[Set[Edge]] = None
        self.name = name

    def on_reset(self) -> None:
        self._current = None

    def edges_for_round(
        self, round_index: int, observation: Optional[RoundObservation]
    ) -> Iterable[Edge]:
        needs_refresh = self._current is None or (round_index - 1) % self._period == 0
        if needs_refresh:
            self._current = random_connected_edges(
                self.nodes, self._edge_probability, self.rng
            )
        return set(self._current)


class ControlledChurnAdversary(Adversary):
    """An oblivious adversary with an explicit per-round churn budget.

    Starting from a connected random graph, every round it removes up to
    ``changes_per_round`` random edges and inserts the same number of fresh
    random edges (then repairs connectivity).  The total number of
    topological changes of an x-round execution is therefore roughly
    ``changes_per_round · x`` plus the initial edges, which makes this
    adversary the workhorse for sweeping ``TC(E)`` in the
    adversary-competitive experiments.

    The graph is kept as integer edge ids over positions in the sorted node
    set (the kernel's encoding): ascending lists of the present and the
    absent pair ids plus per-node adjacency bitmasks, so
    :meth:`edge_ids_for_round` hands the kernel ids without building a
    tuple per node pair; :meth:`edges_for_round` is a tuple view of the same
    ids.  Ascending ids are the lexicographic order of the sorted node
    tuples, so the random draws are those of the tuple formulation: a
    G(n, p) sample repaired by
    :func:`~repro.dynamics.connectivity.ensure_connected`, then per round a
    sample of the sorted edges to remove, a sample of the sorted absent
    pairs to insert, and the same repair.
    """

    oblivious = True

    def __init__(
        self,
        changes_per_round: int = 0,
        edge_probability: float = 0.15,
        name: str = "controlled-churn",
    ):
        super().__init__()
        require_non_negative_int(changes_per_round, "changes_per_round")
        require_probability(edge_probability, "edge_probability")
        self._changes_per_round = changes_per_round
        self._edge_probability = edge_probability
        self._present: Optional[List[int]] = None
        self._absent: List[int] = []
        self._adj: List[int] = []
        self._round_ids: FrozenSet[int] = frozenset()
        self.name = name

    @property
    def changes_per_round(self) -> int:
        """The configured per-round churn budget."""
        return self._changes_per_round

    def on_reset(self) -> None:
        n = len(self.nodes)
        self._present = None
        self._absent = [a * n + b for a in range(n) for b in range(a + 1, n)]
        self._adj = [0] * n
        self._round_ids = frozenset()

    @staticmethod
    def _move(ids: List[int], source: List[int], target: List[int]) -> None:
        """Move ``ids`` from one ascending id list to the other."""
        for eid in ids:
            del source[bisect_left(source, eid)]
            insort(target, eid)

    def _next_round_ids(self) -> FrozenSet[int]:
        """Play one round and return its edge ids."""
        rng = self.rng
        adj = self._adj
        present, absent = self._present, self._absent
        if present is None:
            # The G(n, p) draw: one ``rng.random()`` per pair, in order.
            probability = self._edge_probability
            pairs = absent
            present, absent = [], []
            self._present, self._absent = present, absent
            for eid in pairs:
                (present if rng.random() < probability else absent).append(eid)
            toggle_edge_ids(adj, present)
        elif self._changes_per_round == 0:
            return self._round_ids
        else:
            removed = rng.sample(present, min(self._changes_per_round, len(present)))
            self._move(removed, present, absent)
            inserted = rng.sample(absent, min(len(removed), len(absent)))
            self._move(inserted, absent, present)
            toggle_edge_ids(adj, removed)
            toggle_edge_ids(adj, inserted)
        # Chain the components together exactly as ``ensure_connected`` does.
        components = mask_components(adj)
        if len(components) > 1:
            representatives = [rng.choice(bit_indices(mask)) for mask in components]
            rng.shuffle(representatives)
            n = len(adj)
            connectors = [
                edge_id(left, right, n)
                for left, right in zip(representatives, representatives[1:])
            ]
            self._move(connectors, absent, present)
            toggle_edge_ids(adj, connectors)
        self._round_ids = frozenset(present)
        return self._round_ids

    def edge_ids_for_round(
        self,
        round_index: int,
        observation: Optional[RoundObservation],
        index_of: Dict[NodeId, int],
    ) -> FrozenSet[int]:
        if not self.indexes_nodes_in_order(index_of):
            return super().edge_ids_for_round(round_index, observation, index_of)
        return self._next_round_ids()

    def edges_for_round(
        self, round_index: int, observation: Optional[RoundObservation]
    ) -> Iterable[Edge]:
        nodes = self.nodes
        n = len(nodes)
        return {(nodes[eid // n], nodes[eid % n]) for eid in self._next_round_ids()}
