"""Strongly adaptive adversaries for the unicast algorithms.

These adversaries inspect the :class:`~repro.core.observation.RoundObservation`
built by the engine — the algorithm's knowledge (as per-node counts or token
bitmasks) and the messages of the previous round — and rewire the topology
to hurt the algorithm:

* :class:`RequestCuttingAdversary` removes every edge that carried a token
  request in the previous round, wasting the request (the responding token
  would have been sent over that edge).  This is exactly the behaviour the
  proof of Theorem 3.1 charges to the adversary via ``TC(E)``: every wasted
  request is paid for by an edge deletion, and every deletion is preceded by
  an insertion.
* :class:`StarRecenterAdversary` repeatedly recenters a star on the node that
  knows the fewest tokens, maximizing churn while slowing dissemination.
* :class:`AdaptiveRewiringAdversary` combines background churn with targeted
  removal of edges between nodes of very different knowledge (the edges over
  which most learning would happen).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.adversaries.base import Adversary
from repro.core.messages import MessageKind
from repro.core.observation import RoundObservation
from repro.dynamics.connectivity import ensure_connected
from repro.dynamics.generators import random_connected_edges
from repro.utils.ids import Edge, NodeId, normalize_edge
from repro.utils.validation import require_non_negative_int, require_probability


class RequestCuttingAdversary(Adversary):
    """Removes edges that carried token requests in the previous round.

    Parameters:
        edge_probability: density of the background random graph.
        cut_fraction: fraction of the request-carrying edges removed each
            round (1.0 removes all of them).
    """

    oblivious = False
    observed_fields = frozenset({"previous_messages"})

    def __init__(
        self,
        edge_probability: float = 0.15,
        cut_fraction: float = 1.0,
        name: str = "request-cutting",
    ):
        super().__init__()
        require_probability(edge_probability, "edge_probability")
        require_probability(cut_fraction, "cut_fraction")
        self._edge_probability = edge_probability
        self._cut_fraction = cut_fraction
        self._current: Optional[Set[Edge]] = None
        self.name = name

    def on_reset(self) -> None:
        self._current = None

    def _request_edges(self, observation: Optional[RoundObservation]) -> Set[Edge]:
        if observation is None:
            return set()
        request_edges: Set[Edge] = set()
        for record in observation.previous_messages:
            if record.receiver is None:
                continue
            if record.payload.kind is MessageKind.REQUEST:
                request_edges.add(normalize_edge(record.sender, record.receiver))
        return request_edges

    def edges_for_round(
        self, round_index: int, observation: Optional[RoundObservation]
    ) -> Iterable[Edge]:
        nodes = list(self.nodes)
        if self._current is None:
            self._current = set(
                random_connected_edges(nodes, self._edge_probability, self.rng)
            )
            return set(self._current)
        edges = set(self._current)
        request_edges = sorted(self._request_edges(observation) & edges)
        num_to_cut = int(round(self._cut_fraction * len(request_edges)))
        for edge in self.rng.sample(request_edges, num_to_cut):
            edges.discard(edge)
        # Replace cut edges with fresh random edges so the density stays stable.
        candidates = [
            normalize_edge(u, v)
            for index, u in enumerate(nodes)
            for v in nodes[index + 1 :]
            if normalize_edge(u, v) not in edges
        ]
        replacements = self.rng.sample(candidates, min(num_to_cut, len(candidates)))
        edges.update(replacements)
        self._current = set(ensure_connected(nodes, edges, self.rng))
        return set(self._current)


class StarRecenterAdversary(Adversary):
    """A star recentred every round on the node that knows the fewest tokens.

    Adaptive: the choice of center depends on the algorithm's knowledge.  Every
    recentring inserts and removes Θ(n) edges, so ``TC(E)`` grows linearly in
    the number of rounds times ``n``.
    """

    oblivious = False
    observed_fields = frozenset({"knowledge_counts"})

    def __init__(self, name: str = "star-recenter"):
        super().__init__()
        self.name = name
        self._center: Optional[NodeId] = None

    def on_reset(self) -> None:
        self._center = None

    def _pick_center(self, observation: Optional[RoundObservation]) -> NodeId:
        nodes = list(self.nodes)
        if observation is None:
            return self.rng.choice(nodes)
        # Least-informed node, ties broken by ID; avoid repeating the center so
        # every round forces churn.  Knowledge counts suffice for the ranking;
        # observations built without them fall back to the full sets.
        counts = observation.knowledge_counts
        if counts:
            ranked = sorted(nodes, key=lambda node: (counts[node], node))
        else:
            ranked = sorted(nodes, key=lambda node: (len(observation.knowledge[node]), node))
        for node in ranked:
            if node != self._center:
                return node
        return ranked[0]

    def edges_for_round(
        self, round_index: int, observation: Optional[RoundObservation]
    ) -> Iterable[Edge]:
        self._center = self._pick_center(observation)
        return {
            normalize_edge(self._center, node)
            for node in self.nodes
            if node != self._center
        }


class AdaptiveRewiringAdversary(Adversary):
    """Background churn plus targeted cutting of high-value edges.

    Each round the adversary removes up to ``targeted_cuts`` edges whose two
    endpoints have the most dissimilar knowledge (those are the edges over
    which the most tokens could be learned), plus random churn, then repairs
    connectivity.
    """

    oblivious = False
    observed_fields = frozenset({"knowledge_masks"})

    def __init__(
        self,
        edge_probability: float = 0.15,
        targeted_cuts: int = 5,
        random_churn: int = 2,
        name: str = "adaptive-rewiring",
    ):
        super().__init__()
        require_probability(edge_probability, "edge_probability")
        require_non_negative_int(targeted_cuts, "targeted_cuts")
        require_non_negative_int(random_churn, "random_churn")
        self._edge_probability = edge_probability
        self._targeted_cuts = targeted_cuts
        self._random_churn = random_churn
        self._current: Optional[Set[Edge]] = None
        self.name = name

    def on_reset(self) -> None:
        self._current = None

    @staticmethod
    def _knowledge_gap(masks: Dict[NodeId, int], edge: Edge) -> int:
        u, v = edge
        return (masks[u] ^ masks[v]).bit_count()

    def edges_for_round(
        self, round_index: int, observation: Optional[RoundObservation]
    ) -> Iterable[Edge]:
        nodes = list(self.nodes)
        if self._current is None:
            self._current = set(
                random_connected_edges(nodes, self._edge_probability, self.rng)
            )
            return set(self._current)
        edges = set(self._current)
        removed = 0
        if observation is not None and self._targeted_cuts > 0:
            masks = dict(zip(nodes, self.knowledge_masks(observation)))
            ranked = sorted(
                edges,
                key=lambda edge: self._knowledge_gap(masks, edge),
                reverse=True,
            )
            for edge in ranked[: self._targeted_cuts]:
                if self._knowledge_gap(masks, edge) == 0:
                    break
                edges.discard(edge)
                removed += 1
        removable = sorted(edges)
        for edge in self.rng.sample(removable, min(self._random_churn, len(removable))):
            edges.discard(edge)
            removed += 1
        candidates = [
            normalize_edge(u, v)
            for index, u in enumerate(nodes)
            for v in nodes[index + 1 :]
            if normalize_edge(u, v) not in edges
        ]
        edges.update(self.rng.sample(candidates, min(removed, len(candidates))))
        self._current = set(ensure_connected(nodes, edges, self.rng))
        return set(self._current)
