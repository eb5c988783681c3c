"""The Section-2 lower-bound adversary for the local broadcast model.

The strongly adaptive adversary used in the proof of Theorem 2.3 works as
follows.  Before the execution it samples, for every node ``v``, a set
``K'_v`` containing each token independently with probability 1/4.  In every
round, after the nodes have committed to the tokens they will broadcast
(``i_v(r)``, or ⊥ for silent nodes), the adversary declares the potential
edge ``{u, v}`` *free* iff

    ``i_u ∈ {⊥} ∪ K_v(r-1) ∪ K'_v``  and  ``i_v ∈ {⊥} ∪ K_u(r-1) ∪ K'_u``,

i.e. iff communication over the edge contributes nothing to the potential
``Φ(t) = Σ_v |K_v(t) ∪ K'_v|``.  The adversary connects the round graph using
free edges wherever possible and only adds ``(#components - 1)`` non-free
edges to keep the graph connected, so the potential grows by at most
``2 · (#components - 1)`` per round; Lemma 2.1 shows the number of components
is O(log n) and Lemma 2.2 shows it is 1 whenever at most ``n / (c log n)``
nodes broadcast.

Implementation note: the proof adds *all* free edges.  Adding them all is
irrelevant for the message count in the local broadcast model (a broadcast
costs one message regardless of degree) and for the potential (free edges
contribute nothing by definition), so to keep the simulated graphs sparse we
include a spanning forest of the free-edge graph plus the minimal set of
connecting non-free edges.  The number of connected components — the quantity
the analysis is about — is identical.

The adversary works on the index layer: it reads the observation's
``knowledge_masks`` (per-node token bitmasks) and keeps every ``K'_v`` as a
token bitmask too.  With ``Know_v = K_v(r-1) ∪ K'_v``, the free neighbours
of ``u`` are ``H[u] & R[u]`` (less ``u`` itself), where ``H[u]`` is every
node if ``u`` is silent, else the nodes whose ``Know`` holds ``i_u``, and
``R[u]`` is the silent nodes plus the broadcasters of every token in
``Know_u``.  Non-token payloads count as silence: they carry no token, so
they can never increase the potential.  The forest is the one Kruskal keeps
scanning the free edges in lexicographic order
(:func:`~repro.dynamics.connectivity.mask_spanning_forest`), the same edges
a union-find over the sorted free-edge tuples keeps.  So
:meth:`LowerBoundAdversary.edge_ids_for_round` hands the kernel edge ids
without testing or building a tuple per node pair, and
:meth:`LowerBoundAdversary.edges_for_round` is a tuple view of the same
graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.adversaries.base import Adversary
from repro.core.messages import TokenMessage
from repro.core.observation import RoundObservation
from repro.core.state import bit_indices
from repro.core.tokens import Token
from repro.dynamics.connectivity import (
    connecting_edges_between_components,
    mask_components,
    mask_spanning_forest,
)
from repro.utils.ids import Edge, NodeId
from repro.utils.validation import ConfigurationError, SimulationError, require_probability


@dataclass
class LowerBoundRoundStats:
    """Per-round bookkeeping of the lower-bound adversary."""

    round_index: int
    broadcasting_nodes: int
    free_components: int
    non_free_edges_added: int


class LowerBoundAdversary(Adversary):
    """The strongly adaptive free-edge adversary of Section 2.

    Only meaningful for algorithms in the local broadcast model.  The
    adversary exposes its sampled ``K'_v`` sets (:attr:`kprime_sets`) and
    per-round statistics (:attr:`round_stats`) so the analysis package can
    evaluate the potential function and verify the lemmas empirically.
    """

    oblivious = False
    observed_fields = frozenset({"knowledge_masks", "broadcast_payloads"})

    def __init__(self, inclusion_probability: float = 0.25, name: str = "lower-bound"):
        super().__init__()
        require_probability(inclusion_probability, "inclusion_probability")
        self._inclusion_probability = inclusion_probability
        #: ``K'_v`` per node index, as token bitmasks over the sorted tokens.
        self._kprime: Optional[List[int]] = None
        self._tokens: Tuple[Token, ...] = ()
        self._token_index: Dict[Token, int] = {}
        self._round_stats: List[LowerBoundRoundStats] = []
        self.name = name

    # -- setup ---------------------------------------------------------------

    def on_reset(self) -> None:
        self._round_stats = []
        self._tokens = tuple(sorted(self.problem.tokens))
        self._token_index = {token: index for index, token in enumerate(self._tokens)}
        token_bits = [1 << self._token_index[token] for token in self.problem.tokens]
        rng = self.rng
        probability = self._inclusion_probability
        self._kprime = [
            sum(bit for bit in token_bits if rng.random() < probability)
            for _ in self.nodes
        ]

    @property
    def kprime_sets(self) -> Dict[NodeId, FrozenSet[Token]]:
        """The sampled ``K'_v`` sets of the current execution."""
        if self._kprime is None:
            return {}
        tokens = self._tokens
        return {
            node: frozenset(tokens[index] for index in bit_indices(mask))
            for node, mask in zip(self.nodes, self._kprime)
        }

    @property
    def round_stats(self) -> List[LowerBoundRoundStats]:
        """Per-round component/broadcast statistics recorded so far."""
        return list(self._round_stats)

    def initial_potential(self) -> int:
        """``Φ(0) = Σ_v |K_v(0) ∪ K'_v|``."""
        kprime = self.kprime_sets
        return sum(
            len(set(self.problem.initial_knowledge[node]) | kprime[node])
            for node in self.nodes
        )

    # -- round graph ----------------------------------------------------------

    def _free_adjacency(self, observation: RoundObservation) -> List[int]:
        """The free-edge graph of the observed round as node adjacency bitmasks."""
        know = [
            mask | kprime
            for mask, kprime in zip(self.knowledge_masks(observation), self._kprime)
        ]
        payloads = observation.broadcast_payloads
        token_index = self._token_index
        # A token outside the universe gets a bit no node holds.
        unknown = len(token_index)
        # The token bit each node broadcasts; -1 for silence and for payloads
        # that carry no token.
        sent = []
        sent_tokens = silent = 0
        broadcasters: Dict[int, int] = {}
        for index, node in enumerate(self.nodes):
            payload = payloads.get(node)
            if isinstance(payload, TokenMessage):
                bit = token_index.get(payload.token, unknown)
                broadcasters[bit] = broadcasters.get(bit, 0) | (1 << index)
                sent_tokens |= 1 << bit
            else:
                bit = -1
                silent |= 1 << index
            sent.append(bit)
        holders = dict.fromkeys(broadcasters, 0)
        receivable = []
        for index, known in enumerate(know):
            reach = silent
            shared = known & sent_tokens
            while shared:
                low = shared & -shared
                bit = low.bit_length() - 1
                holders[bit] |= 1 << index
                reach |= broadcasters[bit]
                shared ^= low
            receivable.append(reach)
        everyone = (1 << len(know)) - 1
        return [
            (everyone if bit < 0 else holders[bit]) & receivable[index] & ~(1 << index)
            for index, bit in enumerate(sent)
        ]

    def free_edges(self, observation: RoundObservation) -> Set[Edge]:
        """All free potential edges of the observed round (Section 2)."""
        nodes = self.nodes
        free = self._free_adjacency(observation)
        return {
            (nodes[a], nodes[b])
            for a, neighbors in enumerate(free)
            for b in bit_indices(neighbors >> (a + 1) << (a + 1))
        }

    def _round_pairs(
        self, round_index: int, observation: Optional[RoundObservation]
    ) -> List[Tuple[int, int]]:
        """Play one round: the index pairs of a spanning forest of the free
        edges plus the non-free edges chaining its components together."""
        if observation is None:
            raise SimulationError(
                "LowerBoundAdversary is strongly adaptive and requires an observation; "
                "it cannot be used as an oblivious adversary"
            )
        if self._kprime is None:
            raise ConfigurationError("adversary used before reset")
        free = self._free_adjacency(observation)
        components = mask_components(free)
        connectors = connecting_edges_between_components(
            [bit_indices(mask) for mask in components], self.rng
        )
        self._round_stats.append(
            LowerBoundRoundStats(
                round_index=round_index,
                broadcasting_nodes=len(observation.broadcasting_nodes()),
                free_components=len(components),
                non_free_edges_added=len(connectors),
            )
        )
        return mask_spanning_forest(free) + list(connectors)

    def edge_ids_for_round(
        self,
        round_index: int,
        observation: Optional[RoundObservation],
        index_of: Dict[NodeId, int],
    ) -> FrozenSet[int]:
        if not self.indexes_nodes_in_order(index_of):
            return super().edge_ids_for_round(round_index, observation, index_of)
        n = len(index_of)
        return frozenset(a * n + b for a, b in self._round_pairs(round_index, observation))

    def edges_for_round(
        self, round_index: int, observation: Optional[RoundObservation]
    ) -> Iterable[Edge]:
        nodes = self.nodes
        return {(nodes[a], nodes[b]) for a, b in self._round_pairs(round_index, observation)}

    # -- diagnostics ------------------------------------------------------------

    def max_free_components(self) -> int:
        """The maximum number of free-edge components seen in any round."""
        return max((stats.free_components for stats in self._round_stats), default=0)

    def total_non_free_edges(self) -> int:
        """Total number of non-free connecting edges the adversary had to add."""
        return sum(stats.non_free_edges_added for stats in self._round_stats)
