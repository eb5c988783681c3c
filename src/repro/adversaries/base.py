"""The adversary protocol.

An adversary produces the edge set ``E_r`` of every round.  The engine calls
:meth:`Adversary.reset` once per execution (handing it the problem instance
and a private random generator) and then :meth:`Adversary.edge_ids_for_round`
once per round.  Its default asks :meth:`Adversary.edges_for_round` for node
tuples and encodes them as integer edge ids; subclasses only have to
implement :meth:`Adversary.edges_for_round`.

Adaptive adversaries receive a :class:`~repro.core.observation.RoundObservation`
describing the algorithm's state; oblivious adversaries receive ``None`` —
the engine enforces obliviousness structurally by never building an
observation for an adversary whose :attr:`Adversary.oblivious` flag is set.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.core.observation import RoundObservation
from repro.core.problem import DisseminationProblem
from repro.core.state import edge_id
from repro.utils.ids import Edge, NodeId
from repro.utils.validation import ConfigurationError, SimulationError


class Adversary(abc.ABC):
    """Base class for all adversaries.

    Subclasses implement :meth:`edges_for_round`.  The round kernel asks
    for each round graph through :meth:`edge_ids_for_round` instead, as a
    frozenset of integer edge ids: with ``index_of`` mapping every node to
    its position in the sorted node set of ``n`` nodes, the edge ``{u, v}``
    has id ``min(a, b) * n + max(a, b)`` for ``a, b = index_of[u],
    index_of[v]`` (:func:`repro.core.state.edge_id`).  The default converts
    the tuples of :meth:`edges_for_round`, rejecting endpoints outside the
    node set and self-loops.  Override it when the adversary can keep its
    graph as ids itself and so skip building and converting tuples every
    round (:class:`~repro.adversaries.oblivious.ControlledChurnAdversary`,
    :class:`~repro.adversaries.lower_bound.LowerBoundAdversary` and
    :class:`~repro.adversaries.oblivious.ScheduleAdversary` do).
    An override must return canonical ids for the same graph
    :meth:`edges_for_round` would return, and must advance the adversary's
    state exactly as one :meth:`edges_for_round` call would; handed an
    ``index_of`` for which :meth:`indexes_nodes_in_order` is false, it
    should fall back to this default.
    """

    #: Human-readable name used in results and reports.
    name: str = "adversary"
    #: True for adversaries that commit to the topology before the execution.
    oblivious: bool = True
    #: The :class:`~repro.core.observation.RoundObservation` fields this
    #: adversary actually reads (field names such as ``"knowledge"``,
    #: ``"knowledge_counts"``, ``"knowledge_masks"``,
    #: ``"previous_messages"``, ``"broadcast_payloads"``, ``"extra"``).
    #: ``None`` means "everything" — the safe default for third-party
    #: adversaries.  Declaring a narrow set lets the kernel skip
    #: materializing the expensive fields (e.g. per-node frozensets of
    #: tokens, where token bitmasks would do) it will never look at.
    #: Irrelevant for oblivious adversaries, which receive no observation
    #: at all.
    observed_fields: Optional[FrozenSet[str]] = None
    #: If not ``None``, a round index ``s`` such that for every round
    #: ``r >= s`` the adversary returns a graph equal to the round-``s``
    #: graph — i.e. the topology goes *steady* from round ``s`` on.  The
    #: kernel uses this to skip querying (and re-validating) the edge set
    #: once the steady round has been played.  ``None`` means "unknown"
    #: — the safe default; the adversary is queried every round.
    steady_after_round: Optional[int] = None

    def __init__(self) -> None:
        self._problem: Optional[DisseminationProblem] = None
        self._rng: Optional[random.Random] = None
        self._native_index_of: Optional[Dict[NodeId, int]] = None

    def reset(self, problem: DisseminationProblem, rng: random.Random) -> None:
        """Prepare for a fresh execution on ``problem``."""
        self._problem = problem
        self._rng = rng
        self._native_index_of = None
        self.on_reset()

    def on_reset(self) -> None:
        """Subclass hook called at the end of :meth:`reset`."""

    @property
    def problem(self) -> DisseminationProblem:
        """The problem of the current execution."""
        if self._problem is None:
            raise SimulationError("the adversary has not been reset with a problem yet")
        return self._problem

    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """The node set ``V``."""
        return self.problem.nodes

    @property
    def rng(self) -> random.Random:
        """The adversary's private random generator."""
        if self._rng is None:
            raise SimulationError("the adversary has not been reset with an RNG yet")
        return self._rng

    @abc.abstractmethod
    def edges_for_round(
        self, round_index: int, observation: Optional[RoundObservation]
    ) -> Iterable[Edge]:
        """Return the edge set ``E_r`` of round ``round_index`` (must be connected)."""

    def edge_ids_for_round(
        self,
        round_index: int,
        observation: Optional[RoundObservation],
        index_of: Dict[NodeId, int],
    ) -> FrozenSet[int]:
        """Return ``E_r`` as a frozenset of integer edge ids (see the class
        docstring for the encoding).

        An adversary that replays a schedule through this default returns
        the same frozenset object for repeated rounds; its ids are computed
        once and the identical id frozenset is returned again, which lets
        the kernel skip the delta.
        """
        raw = self.edges_for_round(round_index, observation)
        cache = getattr(self, "_edge_id_cache", None)
        if cache is not None and cache[0] is raw and cache[1] is index_of:
            return cache[2]
        n = len(index_of)
        ids: Set[int] = set()
        add = ids.add
        for u, v in raw:
            iu = index_of.get(u)
            iv = index_of.get(v)
            if iu is None or iv is None:
                raise ConfigurationError(
                    f"edge ({u}, {v}) has an endpoint outside the node set"
                )
            if iu == iv:
                raise ConfigurationError(f"self-loop edges are not allowed: ({u}, {v})")
            add(edge_id(iu, iv, n))
        frozen = frozenset(ids)
        if isinstance(raw, frozenset):
            self._edge_id_cache = (raw, index_of, frozen)
        return frozen

    def indexes_nodes_in_order(self, index_of: Dict[NodeId, int]) -> bool:
        """True iff ``index_of`` maps every node to its position in
        :attr:`nodes` — the positions id-native :meth:`edge_ids_for_round`
        overrides compute in.  Overrides handed any other map fall back to
        the tuple path of the base class.
        """
        if index_of is self._native_index_of:
            return True
        nodes = self.nodes
        if len(index_of) != len(nodes) or any(
            index_of.get(node) != index for index, node in enumerate(nodes)
        ):
            return False
        self._native_index_of = index_of
        return True

    def knowledge_masks(self, observation: RoundObservation) -> Tuple[int, ...]:
        """The observed knowledge as per-node token bitmasks (see
        :attr:`~repro.core.observation.RoundObservation.knowledge_masks`).

        Observations built without the masks, for example by hand, carry
        only ``knowledge``; the masks are then derived from it.
        """
        if observation.knowledge_masks:
            return observation.knowledge_masks
        token_index = {
            token: index for index, token in enumerate(sorted(self.problem.tokens))
        }
        masks = []
        for node in self.nodes:
            mask = 0
            for token in observation.knowledge[node]:
                mask |= 1 << token_index[token]
            masks.append(mask)
        return tuple(masks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, oblivious={self.oblivious})"
