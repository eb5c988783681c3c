"""The Single-Source-Unicast algorithm (Algorithm 1, Section 3.1).

All k tokens initially reside at a single source node.  Only *complete*
nodes (Definition 3.1: nodes that already hold all k tokens) ever send
tokens.  The protocol per round r, run by every node v:

* **complete node** — for every neighbour u: if u has never been told about
  v's completeness, send a completeness announcement; otherwise, if u sent a
  token request in round ``r - 1``, send back the requested token.
* **incomplete node** — let ``{b_1, …, b_γ}`` be v's missing tokens (minus
  the tokens guaranteed to arrive this round from requests sent in the
  previous round over edges that still exist).  Assign exactly one distinct
  token request per adjacent edge to a *known-complete* neighbour, giving
  priority first to **new** edges (inserted in round r or r-1), then **idle**
  edges, then **contributive** edges (Section 3.1.1), and send the requests.

Message complexity (Theorem 3.1): at most ``O(nk)`` token messages, ``O(n²)``
completeness announcements and ``O(nk) + TC(E)`` token requests, i.e.
1-adversary-competitive message complexity ``O(n² + nk)``.  On 3-edge-stable
dynamic graphs the algorithm terminates within ``O(nk)`` rounds
(Theorem 3.4).

Implementation: Algorithm 1 is the Multi-Source-Unicast algorithm of
Section 3.2.1 (:mod:`repro.algorithms.multi_source`) with one source, whose
catalog is all k tokens; at s = 1 Theorem 3.5's ``O(n²s + nk)`` is
Theorem 3.1's ``O(n² + nk)``.  Each of its three tasks then does exactly
what the rules above say:

1. a node is complete with respect to the one source iff it is complete,
   so task 1 announces completeness to each neighbour not yet told, once;
2. task 2 answers last round's requests.  The rules above answer only a
   neighbour already told, but a node requests only from a neighbour that
   has announced its completeness to it, so no request ever comes from a
   neighbour not yet told;
3. task 3 has an active source exactly when v is incomplete and knows a
   complete node (``S_v ≠ ∅``); it requests the missing tokens in catalog
   order, which at s = 1 is the sorted token order, one per known-complete
   edge in new > idle > contributive order.

So this module keeps only what is particular to one source: the problem
check, the catalog, and the adversary's view (``complete_nodes`` and
``source``).  Both execution paths run the multi-source protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.algorithms.multi_source import MultiSourceUnicastAlgorithm, _MultiSourceFastProgram
from repro.core.problem import DisseminationProblem
from repro.core.tokens import Token
from repro.utils.ids import NodeId
from repro.utils.validation import ConfigurationError


class SingleSourceUnicastAlgorithm(MultiSourceUnicastAlgorithm):
    """Algorithm 1: deterministic single-source k-token dissemination."""

    name = "single-source-unicast"

    def __init__(self) -> None:
        super().__init__()
        self._source: NodeId = 0

    # -- setup -------------------------------------------------------------------

    def _catalog_of_problem(
        self, problem: DisseminationProblem
    ) -> Dict[NodeId, Tuple[Token, ...]]:
        """The one source, responsible for all k tokens in sorted order."""
        sources = problem.sources
        if len(sources) != 1:
            raise ConfigurationError(
                "SingleSourceUnicastAlgorithm requires a single-source problem; "
                f"got {len(sources)} sources (use MultiSourceUnicastAlgorithm instead)"
            )
        source = sources[0]
        if problem.initial_knowledge[source] != frozenset(problem.tokens):
            raise ConfigurationError("the source node must initially hold all k tokens")
        return {source: tuple(sorted(problem.tokens))}

    def on_setup(self) -> None:
        super().on_setup()
        (self._source,) = self.catalog_sources()

    # -- diagnostics ---------------------------------------------------------------

    @property
    def source(self) -> NodeId:
        """The single source node."""
        return self._source

    def complete_nodes(self) -> List[NodeId]:
        """The nodes that currently hold all k tokens."""
        return [node for node in self.nodes if self.is_node_complete(node)]

    def bridge_nodes(self, neighbors: Mapping[NodeId, FrozenSet[NodeId]]) -> List[NodeId]:
        """Incomplete nodes with at least one complete neighbour (Definition 3.2)."""
        bridges = []
        for node in self.nodes:
            if self.is_node_complete(node):
                continue
            if any(self.is_node_complete(neighbor) for neighbor in neighbors.get(node, ())):
                bridges.append(node)
        return bridges

    def observation_extra(self) -> Dict[str, object]:
        return {
            "complete_nodes": tuple(self.complete_nodes()),
            "source": self._source,
        }

    def _mask_extra(
        self,
        nodes: Sequence[NodeId],
        sources: Sequence[NodeId],
        catalog_masks: Sequence[int],
        know: Sequence[int],
    ) -> Dict[str, object]:
        # The one catalog mask holds every token: complete means equal to it.
        (full_mask,) = catalog_masks
        return {
            "complete_nodes": tuple(
                node for node, mask in zip(nodes, know) if mask == full_mask
            ),
            "source": sources[0],
        }

    def fast_program_factory(self) -> Optional[Callable]:
        if type(self) is not SingleSourceUnicastAlgorithm:
            return None
        return lambda kernel: _MultiSourceFastProgram(kernel, self)
