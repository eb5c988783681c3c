"""Pluggable per-node token-knowledge representations.

The paper's model tracks one piece of per-node state: the set of tokens each
node knows (``K_v(t)``, Section 1.3).  :class:`KnowledgeState` abstracts that
state behind one interface with two observable layers:

* an **object layer** used by the algorithm classes (``knows``, ``learn``,
  ``known_tokens`` over :class:`~repro.core.tokens.Token` values), and
* an **index layer** used by the bit-level kernel programs (``know_mask``,
  ``learn_index`` over dense node/token indices; tokens are indexed in
  sorted order, so bit ``i`` always means the ``i``-th smallest token).

Two implementations ship:

* :class:`MappingKnowledgeState` — the reference dict-of-sets representation
  (exactly what :class:`~repro.algorithms.base.TokenForwardingAlgorithm`
  historically stored inline);
* :class:`BitsetKnowledgeState` — one Python integer per node (promoted out
  of the old ``backends/bitset.py``), where ``knows`` is a bit test and a
  whole neighbourhood learns a token with a handful of mask operations.

Both maintain the same derived quantities (per-node missing counts, the
number of incomplete nodes, the buffered token-learning events the kernel
drains into the :class:`~repro.core.events.EventLog`), so an algorithm — or
a kernel program — behaves identically on either: the representation is an
execution detail, never semantics.

:class:`BatchKnowledgeState` is not a :class:`KnowledgeState`: it is a
``numpy.bool_`` array of shape ``(lanes, n, k)`` holding the knowledge of
many independently seeded repetitions (*lanes*) of the same problem at
once, with bulk operations only.  The batch backend (:mod:`repro.batch`)
steps all lanes in lockstep and drains each lane's learnings into its own
event log.
"""

from __future__ import annotations

import abc
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.events import SEG_TRIPLES, column_segment

from repro.core.problem import DisseminationProblem
from repro.core.tokens import Token
from repro.utils.ids import NodeId
from repro.utils.validation import ConfigurationError, require_positive_int


def require_numpy(feature: str = "the batch backend"):
    """Import and return numpy, or explain how to install it.

    numpy is an optional dependency (the ``repro[fast]`` extra): everything
    except the vectorized batch subsystem runs without it.
    """
    try:
        import numpy
    except ImportError as error:
        raise ConfigurationError(
            f"{feature} needs numpy, which is an optional dependency; "
            "install it with: pip install \"repro[fast]\" (or: pip install numpy)"
        ) from error
    return numpy


def numpy_available() -> bool:
    """True iff numpy can be imported (the ``repro[fast]`` extra is installed)."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def bit_indices(mask: int) -> List[int]:
    """The set bit positions of ``mask`` in ascending order."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


def edge_id(a: int, b: int, n: int) -> int:
    """The canonical integer id of the undirected edge ``{a, b}``.

    ``a`` and ``b`` are dense node *indices*; the id is ``min * n + max``,
    the encoding shared by the kernel's adversary stage, the fast programs'
    per-edge history and the dynamic-graph trace, which stores each round
    as these ids.
    """
    return a * n + b if a < b else b * n + a


class KnowledgeState(abc.ABC):
    """Token knowledge of every node, behind a representation-neutral API.

    The constructor fixes the dense index maps shared by every
    representation: nodes in sorted order, tokens in sorted order.  All
    index-layer operations refer to these positions.
    """

    __slots__ = (
        "problem",
        "nodes",
        "n",
        "index_of",
        "tokens",
        "k",
        "token_index",
        "full_mask",
        "_pending",
    )

    def __init__(self, problem: DisseminationProblem) -> None:
        self.problem = problem
        self.nodes: Tuple[NodeId, ...] = problem.nodes
        self.n = len(self.nodes)
        self.index_of: Dict[NodeId, int] = {
            node: index for index, node in enumerate(self.nodes)
        }
        self.tokens: Tuple[Token, ...] = tuple(sorted(problem.tokens))
        self.k = len(self.tokens)
        self.token_index: Dict[Token, int] = {
            token: index for index, token in enumerate(self.tokens)
        }
        self.full_mask = (1 << self.k) - 1
        #: Token learnings buffered since the last drain, in learn order.
        self._pending: List[Tuple[NodeId, Token]] = []

    # -- object layer (algorithm-facing) -----------------------------------

    @abc.abstractmethod
    def knows(self, node: NodeId, token: Token) -> bool:
        """True iff ``node`` already knows ``token``."""

    @abc.abstractmethod
    def known_tokens(self, node: NodeId) -> FrozenSet[Token]:
        """The tokens currently known by ``node`` (``K_v(t)``)."""

    @abc.abstractmethod
    def missing_tokens(self, node: NodeId) -> List[Token]:
        """The tokens ``node`` has not yet learned, in sorted order."""

    @abc.abstractmethod
    def is_node_complete(self, node: NodeId) -> bool:
        """True iff ``node`` knows all ``k`` tokens (Definition 3.1)."""

    @abc.abstractmethod
    def all_complete(self) -> bool:
        """True iff every node knows every token (dissemination solved)."""

    def learn(self, node: NodeId, token: Token) -> bool:
        """Record that ``node`` received ``token``; True iff it is new."""
        return self.learn_index(self.index_of[node], self.token_index[token])

    def drain_learnings(self) -> List[Tuple[NodeId, Token]]:
        """Return (and clear) the learnings buffered since the last drain."""
        learnings, self._pending = self._pending, []
        return learnings

    # -- index layer (kernel-program-facing) --------------------------------

    @abc.abstractmethod
    def learn_index(self, node_index: int, token_bit_index: int) -> bool:
        """Index-layer :meth:`learn`; must buffer the learning when new."""

    @abc.abstractmethod
    def know_mask(self, node_index: int) -> int:
        """The knowledge of one node as a token bitmask."""

    @abc.abstractmethod
    def known_count(self, node_index: int) -> int:
        """``|K_v|`` for the node at ``node_index``."""

    @abc.abstractmethod
    def incomplete_count(self) -> int:
        """Number of nodes still missing at least one token."""

    def holders_mask(self, token_bit_index: int) -> int:
        """The nodes knowing one token, as a node bitmask."""
        mask = 0
        for index in range(self.n):
            if self.knows(self.nodes[index], self.tokens[token_bit_index]):
                mask |= 1 << index
        return mask

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self.n}, k={self.k}, "
            f"incomplete={self.incomplete_count()})"
        )


class MappingKnowledgeState(KnowledgeState):
    """The reference representation: one set of tokens per node.

    A token bitmask per node is kept beside the sets, so the index layer
    (:meth:`know_mask`) reads it instead of re-hashing every known token.
    """

    __slots__ = ("_knowledge", "_masks", "_missing_count", "_incomplete")

    def __init__(self, problem: DisseminationProblem) -> None:
        super().__init__(problem)
        self._knowledge: Dict[NodeId, Set[Token]] = {
            node: set(problem.initial_knowledge[node]) for node in self.nodes
        }
        token_index = self.token_index
        self._masks: List[int] = [
            sum(1 << token_index[token] for token in self._knowledge[node])
            for node in self.nodes
        ]
        self._missing_count: Dict[NodeId, int] = {
            node: self.k - len(self._knowledge[node]) for node in self.nodes
        }
        self._incomplete = sum(
            1 for count in self._missing_count.values() if count > 0
        )

    def knows(self, node: NodeId, token: Token) -> bool:
        return token in self._knowledge[node]

    def known_tokens(self, node: NodeId) -> FrozenSet[Token]:
        return frozenset(self._knowledge[node])

    def missing_tokens(self, node: NodeId) -> List[Token]:
        known = self._knowledge[node]
        return sorted(token for token in self.problem.tokens if token not in known)

    def is_node_complete(self, node: NodeId) -> bool:
        return self._missing_count[node] == 0

    def all_complete(self) -> bool:
        return self._incomplete == 0

    def learn(self, node: NodeId, token: Token) -> bool:
        known = self._knowledge[node]
        if token in known:
            return False
        known.add(token)
        self._masks[self.index_of[node]] |= 1 << self.token_index[token]
        self._missing_count[node] -= 1
        if self._missing_count[node] == 0:
            self._incomplete -= 1
        self._pending.append((node, token))
        return True

    def learn_index(self, node_index: int, token_bit_index: int) -> bool:
        return self.learn(self.nodes[node_index], self.tokens[token_bit_index])

    def know_mask(self, node_index: int) -> int:
        return self._masks[node_index]

    def known_count(self, node_index: int) -> int:
        return len(self._knowledge[self.nodes[node_index]])

    def incomplete_count(self) -> int:
        return self._incomplete


class BitsetKnowledgeState(KnowledgeState):
    """One integer bitmask per node; bit ``i`` is the ``i``-th sorted token.

    The mask lists (:attr:`know`, :attr:`know_count`) are public on purpose:
    bit-level kernel programs read them directly in their inner loops.  All
    writes must go through :meth:`learn_index` so the completeness counter
    and the pending-learnings buffer stay consistent.
    """

    __slots__ = ("know", "know_count", "_incomplete")

    def __init__(self, problem: DisseminationProblem) -> None:
        super().__init__(problem)
        token_index = self.token_index
        know: List[int] = []
        know_count: List[int] = []
        for node in self.nodes:
            mask = 0
            for token in problem.initial_knowledge[node]:
                mask |= 1 << token_index[token]
            know.append(mask)
            know_count.append(len(problem.initial_knowledge[node]))
        self.know = know
        self.know_count = know_count
        self._incomplete = sum(1 for count in know_count if count < self.k)

    def knows(self, node: NodeId, token: Token) -> bool:
        return bool(
            (self.know[self.index_of[node]] >> self.token_index[token]) & 1
        )

    def known_tokens(self, node: NodeId) -> FrozenSet[Token]:
        tokens = self.tokens
        return frozenset(
            tokens[index] for index in bit_indices(self.know[self.index_of[node]])
        )

    def missing_tokens(self, node: NodeId) -> List[Token]:
        tokens = self.tokens
        missing = ~self.know[self.index_of[node]] & self.full_mask
        return [tokens[index] for index in bit_indices(missing)]

    def is_node_complete(self, node: NodeId) -> bool:
        return self.know_count[self.index_of[node]] == self.k

    def all_complete(self) -> bool:
        return self._incomplete == 0

    def learn_index(self, node_index: int, token_bit_index: int) -> bool:
        bit = 1 << token_bit_index
        if self.know[node_index] & bit:
            return False
        self.know[node_index] |= bit
        self.know_count[node_index] += 1
        if self.know_count[node_index] == self.k:
            self._incomplete -= 1
        self._pending.append((self.nodes[node_index], self.tokens[token_bit_index]))
        return True

    def know_mask(self, node_index: int) -> int:
        return self.know[node_index]

    def known_count(self, node_index: int) -> int:
        return self.know_count[node_index]

    def incomplete_count(self) -> int:
        return self._incomplete

    def holders_mask(self, token_bit_index: int) -> int:
        bit = 1 << token_bit_index
        mask = 0
        for index, value in enumerate(self.know):
            if value & bit:
                mask |= 1 << index
        return mask


class BatchKnowledgeState:
    """Knowledge of ``lanes`` repetitions as one ``(lanes, n, k)`` bool array.

    Every lane starts from the same problem (per-repetition seeds only
    diverge the adversary and algorithm randomness, never the initial token
    placement), so the constructor broadcasts the initial knowledge across
    the lane axis.  Nodes and tokens are indexed in sorted order, as in a
    :class:`KnowledgeState`.  The vectorized batch programs read :attr:`know`
    and :attr:`known_counts` directly and write through the bulk operations:
    :meth:`holders_column` (a ``(lanes, n)`` view of one token's holders),
    :meth:`learn_token_bulk` (a whole learner matrix in one shot),
    :meth:`learn_lane_index` (one learning on one lane) and
    :meth:`completed_lanes`.

    Token-learning events are buffered *per lane* (delivery order within the
    lane), so the batch kernel reconstructs each lane's event log exactly as
    a serial execution would have recorded it.
    """

    __slots__ = (
        "nodes",
        "n",
        "index_of",
        "tokens",
        "k",
        "token_index",
        "np",
        "lanes",
        "know",
        "known_counts",
        "current_round",
        "_lane_pending",
    )

    def __init__(self, problem: DisseminationProblem, lanes: int = 1) -> None:
        require_positive_int(lanes, "lanes")
        np = require_numpy("BatchKnowledgeState")
        self.nodes: Tuple[NodeId, ...] = problem.nodes
        self.n = len(self.nodes)
        self.index_of: Dict[NodeId, int] = {
            node: index for index, node in enumerate(self.nodes)
        }
        self.tokens: Tuple[Token, ...] = tuple(sorted(problem.tokens))
        self.k = len(self.tokens)
        self.token_index: Dict[Token, int] = {
            token: index for index, token in enumerate(self.tokens)
        }
        self.np = np
        self.lanes = lanes
        know = np.zeros((lanes, self.n, self.k), dtype=np.bool_)
        token_index = self.token_index
        for index, node in enumerate(self.nodes):
            for token in problem.initial_knowledge[node]:
                know[:, index, token_index[token]] = True
        self.know = know
        self.known_counts = know.sum(axis=2, dtype=np.int64)
        #: The round stamp applied to buffered learnings; the kernel bumps it
        #: via :meth:`begin_round` so lanes can be drained once per run
        #: instead of once per round.
        self.current_round = 0
        #: Per-lane event-log segments (see :mod:`repro.core.events`), in
        #: learn order; learnings are kept columnar so no per-event python
        #: objects exist until the log is actually read.
        self._lane_pending: List[List[tuple]] = [[] for _ in range(lanes)]

    def begin_round(self, round_index: int) -> None:
        """Stamp all learnings buffered from now on with ``round_index``."""
        self.current_round = round_index

    def learn_lane_index(self, lane: int, node_index: int, token_bit_index: int) -> bool:
        """Learn one token on one lane; buffers the lane's event."""
        if self.know[lane, node_index, token_bit_index]:
            return False
        self.know[lane, node_index, token_bit_index] = True
        self.known_counts[lane, node_index] += 1
        triple = (
            self.current_round,
            self.nodes[node_index],
            self.tokens[token_bit_index],
        )
        segments = self._lane_pending[lane]
        if segments and segments[-1][0] == SEG_TRIPLES:
            segments[-1][1].append(triple)
        else:
            segments.append((SEG_TRIPLES, [triple]))
        return True

    def holders_column(self, token_bit_index: int):
        """The ``(lanes, n)`` bool view of one token's holders (no copy)."""
        return self.know[:, :, token_bit_index]

    def learn_token_bulk(self, token_bit_index: int, learners) -> None:
        """Learn one token for a whole ``(lanes, n)`` learner matrix.

        ``learners`` must be ``False`` for nodes that already know the token
        and for every inactive lane.  Events are buffered lane-major with
        node indices ascending inside each lane — exactly the order a serial
        broadcast delivery would have produced.
        """
        np = self.np
        self.know[:, :, token_bit_index] |= learners
        self.known_counts += learners
        lane_ids, node_ids = np.nonzero(learners)
        if lane_ids.size == 0:
            return
        nodes = self.nodes
        token = self.tokens[token_bit_index]
        round_index = self.current_round
        pending = self._lane_pending
        # ``nonzero`` returns lane-major rows, so one searchsorted yields each
        # lane's slice; each slice becomes one columnar log segment — no
        # per-learning python objects are built here.
        node_list = node_ids.tolist()
        bounds = np.searchsorted(lane_ids, np.arange(self.lanes + 1)).tolist()
        for lane in range(self.lanes):
            start, stop = bounds[lane], bounds[lane + 1]
            if start != stop:
                pending[lane].append(
                    column_segment(round_index, token, node_list[start:stop], nodes)
                )

    def completed_lanes(self):
        """A ``(lanes,)`` bool array: which lanes have solved dissemination."""
        return (self.known_counts == self.k).all(axis=1)

    def drain_lane_segments(self, lane: int) -> List[tuple]:
        """Return (and clear) one lane's buffered, round-stamped learnings.

        Entries are event-log segments (see :mod:`repro.core.events`) in
        learn order (round-ascending because the kernel advances rounds
        monotonically) — ready for
        :meth:`~repro.core.events.EventLog.extend_segments`.
        """
        segments = self._lane_pending[lane]
        self._lane_pending[lane] = []
        return segments
