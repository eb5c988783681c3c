"""The staged round kernel: one execution core under every backend.

The paper's model (Section 1.3) defines a single round structure, and this
module is now the only place that implements it.  Each round passes through
four explicit stages, driven by :class:`RoundKernel`:

1. :class:`CommitStage` — in the **local broadcast** model, nodes commit to
   their broadcast payloads *before* the adversary fixes the round graph
   (the strongly adaptive adversary of Section 2 sees those payloads); in
   the **unicast** model nothing is committed here — nodes choose messages
   only after learning their neighbourhood.
2. :class:`AdversaryStage` — the adversary fixes the round graph ``E_r``.
   Adaptive adversaries receive a :class:`~repro.core.observation.RoundObservation`
   built lazily from the live execution state; oblivious adversaries receive
   ``None`` (obliviousness is enforced structurally, here).  The stage
   takes the round graph as integer edge ids, records the trace, maintains
   per-node adjacency bitmasks and validates per-round connectivity on them.
3. :class:`DeliveryStage` — messages are selected (unicast) and delivered,
   and every message is counted.
4. :class:`AccountingStage` — per-kind / per-round / per-node message
   counters and the token-learning event log (Definition 1.4).

What actually *runs* inside the stages is a :class:`RoundProgram`.  Two
program families exist:

* the **exchange programs** (:class:`BroadcastExchangeProgram`,
  :class:`UnicastExchangeProgram`) drive a real algorithm object through its
  ``select``/``receive`` interface — the reference semantics; they work with
  any :class:`~repro.core.state.KnowledgeState`;
* **fast programs** (:class:`FastRoundProgram` subclasses, defined next to
  each algorithm in :mod:`repro.algorithms`) re-express one algorithm's
  per-round knowledge delta directly on the bit-level state — the fast path
  used by the bitset backend.

Because both families run under the same kernel, the round structure, graph
handling, accounting and event ordering are shared by construction; the
differential harness (:mod:`repro.backends.differential`) then only has to
guard the per-algorithm delta logic.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
)

if TYPE_CHECKING:  # imported lazily at runtime: algorithm modules carry
    # their fast programs and import this module, so a module-level import
    # here would be circular.
    from repro.algorithms.base import TokenForwardingAlgorithm

from repro.core.comm import CommunicationModel
from repro.core.events import EventLog
from repro.core.messages import Payload, ReceivedMessage
from repro.core.metrics import MessageStatistics
from repro.core.observation import RoundObservation, SentRecord
from repro.core.problem import DisseminationProblem
from repro.core.result import ExecutionResult
from repro.core.state import (
    BitsetKnowledgeState,
    KnowledgeState,
    MappingKnowledgeState,
    edge_id,
)
from repro.core.tokens import Token
from repro.dynamics.connectivity import mask_components, toggle_edge_ids
from repro.dynamics.graph_sequence import DynamicGraphTrace
from repro.utils.ids import NodeId
from repro.utils.rng import SeedLike, ensure_rng, spawn_rng
from repro.utils.validation import (
    AdversaryViolationError,
    ConfigurationError,
    ProtocolViolationError,
    require_positive_int,
)


def default_round_limit(problem: DisseminationProblem) -> int:
    """A generous default round limit: well above the O(nk) bounds of the paper."""
    n, k = problem.num_nodes, problem.num_tokens
    return 10 * n * k + 10 * n + 100


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


class AccountingStage:
    """Message counters and the token-learning event log of one execution.

    Counters are index-based (dense node indices) so fast programs can
    increment :attr:`per_node_counts` directly in their inner loops; the
    exchange programs go through :meth:`count`.  The stage also owns the
    :class:`~repro.core.events.EventLog`: after every round it drains the
    program's buffered token learnings, which fixes the event order to
    "delivery order within the round" for every program family.
    """

    def __init__(self, model: CommunicationModel, nodes: Tuple[NodeId, ...]) -> None:
        self.model = model
        self.nodes = nodes
        self.events = EventLog()
        self.total = 0
        self.kind_counts: Dict[str, int] = {}
        self.per_round: List[int] = []
        self.per_node_counts: List[int] = [0] * len(nodes)
        self._round_count = 0
        self._round_open = False

    def begin_round(self) -> None:
        if self._round_open:
            raise ConfigurationError("begin_round called while a round is already open")
        self._round_open = True
        self._round_count = 0

    def count(self, sender_index: int, kind_value: str) -> None:
        """Count one message of ``kind_value`` sent by node ``sender_index``."""
        self.total += 1
        self._round_count += 1
        self.kind_counts[kind_value] = self.kind_counts.get(kind_value, 0) + 1
        self.per_node_counts[sender_index] += 1

    def count_bulk(self, kind_value: str, amount: int) -> None:
        """Count ``amount`` messages of one kind (per-node counts are the
        caller's responsibility via :attr:`per_node_counts`)."""
        if amount:
            self.total += amount
            self._round_count += amount
            self.kind_counts[kind_value] = (
                self.kind_counts.get(kind_value, 0) + amount
            )

    def close_round(self, round_index: int, program: "RoundProgram") -> int:
        """End the round: record its message count, drain learning events."""
        if not self._round_open:
            raise ConfigurationError("close_round called without begin_round")
        self._round_open = False
        self.per_round.append(self._round_count)
        self.events.record_bulk(round_index, program.drain_learnings())
        return self._round_count

    def statistics(self) -> MessageStatistics:
        """Freeze the counters into an immutable statistics snapshot."""
        nodes = self.nodes
        per_node = {
            nodes[index]: count
            for index, count in enumerate(self.per_node_counts)
            if count
        }
        return MessageStatistics(
            communication_model=self.model,
            total_messages=self.total,
            messages_by_kind=dict(self.kind_counts),
            per_round_messages=list(self.per_round),
            per_node_messages=per_node,
        )


class CommitStage:
    """Stage 1: payload commitment *before* the round graph exists.

    Only the local broadcast model commits here (Section 1.3: nodes choose
    their broadcast without neighbourhood information).  In the unicast
    model the commitment is ``None`` — message selection happens inside the
    delivery stage, after the adversary fixed the graph.
    """

    def run(self, program: "RoundProgram", round_index: int) -> Optional[object]:
        if program.model.is_broadcast:
            return program.commit(round_index)
        return None


class AdversaryStage:
    """Stage 2: the adversary fixes ``E_r``; graph state is updated.

    Owns the execution's
    :class:`~repro.dynamics.graph_sequence.DynamicGraphTrace`, which it
    records as the same edge ids it works on (no node tuples per round), and
    the per-node adjacency bitmasks shared by every program (fast programs
    alias :attr:`adj`, so it is updated in place, never rebound).  Oblivious
    adversaries never receive an observation — the stage builds one (from
    the program, lazily) only for adaptive adversaries.  The round graph
    arrives as edge ids from
    :meth:`~repro.adversaries.base.Adversary.edge_ids_for_round`; ids
    already present last round were validated when they were inserted, so
    only this round's insertions are checked before the delta is applied
    and connectivity is checked on the updated masks.  The object-level
    :meth:`neighbors_view` is built on demand and kept until the next delta.
    """

    def __init__(
        self,
        nodes: Tuple[NodeId, ...],
        index_of: Dict[NodeId, int],
        adversary,
        *,
        require_connected: bool,
        keep_trace: bool,
    ) -> None:
        self.nodes = nodes
        self.n = len(nodes)
        self.index_of = index_of
        self.adversary = adversary
        self.require_connected = require_connected
        self.observe = not getattr(adversary, "oblivious", False)
        #: The observation fields the adversary declared it reads (``None``
        #: = everything); programs materialize only these.
        self.observed_fields: Optional[FrozenSet[str]] = getattr(
            adversary, "observed_fields", None
        )
        # ``index_of`` numbers the sorted problem nodes, as the trace numbers
        # its own sorted node list, so the stage's edge ids are the trace's.
        self.trace = DynamicGraphTrace(nodes, keep_history=keep_trace)
        self.adj: List[int] = [0] * self.n
        self._neighbors_view: Optional[Mapping[NodeId, FrozenSet[NodeId]]] = None
        self.inserted_ids: FrozenSet[int] = frozenset()
        self.removed_ids: FrozenSet[int] = frozenset()
        self._previous_ids: FrozenSet[int] = frozenset()
        #: The adversary's promise (if any) that its topology stops changing
        #: from this round on; lets :meth:`advance` skip the edge query for
        #: every later round.
        self._steady_after: Optional[int] = getattr(
            adversary, "steady_after_round", None
        )

    def _apply_delta(
        self, round_index: int, inserted: FrozenSet[int], removed: FrozenSet[int]
    ) -> None:
        """Validate the inserted ids, toggle the delta into :attr:`adj` and
        check connectivity; a disconnected round leaves :attr:`adj` as it was."""
        n = self.n
        adj = self.adj
        self._neighbors_view = None
        for eid in inserted:
            a, b = divmod(eid, n)
            if not 0 <= a < b < n:
                if a == b:
                    raise ConfigurationError(
                        f"self-loop edges are not allowed: edge id {eid} joins "
                        f"node {self.nodes[a]} to itself"
                    )
                raise ConfigurationError(
                    f"edge id {eid} is not a canonical edge id over {n} nodes "
                    f"(min * {n} + max of two distinct node indices)"
                )
        toggle_edge_ids(adj, inserted)
        toggle_edge_ids(adj, removed)
        if self.require_connected and n > 1 and len(mask_components(adj)) > 1:
            toggle_edge_ids(adj, inserted)
            toggle_edge_ids(adj, removed)
            raise AdversaryViolationError(
                f"adversary produced a disconnected graph in round {round_index}"
            )

    def advance(
        self,
        round_index: int,
        program: "RoundProgram",
        commitment: Optional[object],
    ) -> None:
        """Fix and validate the round graph, update trace and adjacency."""
        steady_after = self._steady_after
        if steady_after is not None and round_index > steady_after:
            # The adversary promised a steady topology from ``steady_after``
            # on, and that round has already been played: the graph, its
            # validation and the adjacency are all unchanged.
            if self.inserted_ids:
                self.inserted_ids = frozenset()
            if self.removed_ids:
                self.removed_ids = frozenset()
            self.trace.record_unchanged()
            return
        observation = (
            program.observation(round_index, commitment) if self.observe else None
        )
        # A no-op for the frozenset the protocol asks for; freezes a set an
        # override might still mutate after the trace recorded it.
        current = frozenset(
            self.adversary.edge_ids_for_round(round_index, observation, self.index_of)
        )
        previous = self._previous_ids
        if current is previous:
            # Schedule-replaying adversaries hand back the identical edge set
            # object round after round; skip the O(|E|) set differences and
            # the connectivity re-check — the set was validated when it was
            # first produced, and identical edges stay connected.
            inserted = removed = frozenset()
        else:
            inserted = current - previous
            removed = previous - current
            self._apply_delta(round_index, inserted, removed)
        self.trace.record_ids(current, inserted, removed)
        self.inserted_ids = inserted
        self.removed_ids = removed
        self._previous_ids = current

    def catch_up(self, target_round: int) -> None:
        """Advance the trace to ``target_round`` in one step.

        Only valid for rounds past the adversary's
        :attr:`~repro.adversaries.base.Adversary.steady_after_round` — the
        batch kernel uses this to stop stepping per-lane stages once every
        lane's topology has gone steady, then settles the traces here.
        """
        count = target_round - self.trace.num_rounds
        if count > 0:
            if self.inserted_ids:
                self.inserted_ids = frozenset()
            if self.removed_ids:
                self.removed_ids = frozenset()
            self.trace.record_unchanged_many(count)

    def neighbors_view(self) -> Mapping[NodeId, FrozenSet[NodeId]]:
        """The current adjacency as the object-level mapping algorithms use.

        Built once per graph: rounds without a delta get the same read-only
        mapping back, so an algorithm cannot corrupt later rounds through it.
        """
        view = self._neighbors_view
        if view is None:
            nodes = self.nodes
            mapping: Dict[NodeId, FrozenSet[NodeId]] = {}
            for index, mask in enumerate(self.adj):
                neighbors = []
                while mask:
                    low = mask & -mask
                    neighbors.append(nodes[low.bit_length() - 1])
                    mask ^= low
                mapping[nodes[index]] = frozenset(neighbors)
            view = self._neighbors_view = MappingProxyType(mapping)
        return view


class DeliveryStage:
    """Stage 3: message selection (unicast), delivery and counting.

    Programs that declare ``track_edge_history`` get their per-edge
    insertion history refreshed here, before delivery, so the new / idle /
    contributive classification of Section 3.1.1 sees this round's graph.
    """

    def run(
        self,
        program: "RoundProgram",
        round_index: int,
        commitment: Optional[object],
    ) -> None:
        if getattr(program, "track_edge_history", False):
            program.update_edge_history(round_index)
        program.deliver(round_index, commitment)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


class RoundProgram:
    """What runs inside the kernel's stages for one execution.

    A program encapsulates one algorithm's per-round behaviour against a
    :class:`~repro.core.state.KnowledgeState`.  The kernel guarantees the
    call order ``commit`` (broadcast model only) → ``observation`` (adaptive
    adversaries only) → ``deliver`` → ``drain_learnings`` once per round.
    """

    #: Communication model; fixes the commit-before-graph vs graph-before-
    #: send stage ordering.
    model: CommunicationModel

    def setup(self) -> None:
        """One-time initialization before the first round."""

    def commit(self, round_index: int) -> object:
        """Commit broadcast payloads (local broadcast model only)."""
        raise NotImplementedError

    def observation(
        self, round_index: int, commitment: Optional[object]
    ) -> RoundObservation:
        """The observation a strongly adaptive adversary receives this round."""
        raise NotImplementedError

    def deliver(self, round_index: int, commitment: Optional[object]) -> None:
        """Select (unicast), deliver and count this round's messages."""
        raise NotImplementedError

    def completed(self) -> bool:
        """True iff the dissemination problem is solved."""
        raise NotImplementedError

    def is_quiescent(self) -> bool:
        """True iff the program will never send another message."""
        return False

    def drain_learnings(self) -> List[Tuple[NodeId, Token]]:
        """Token learnings of the round just played, in delivery order."""
        raise NotImplementedError


class _ExchangeProgram(RoundProgram):
    """Shared plumbing of the two algorithm-driven (reference) programs."""

    def __init__(self, kernel: "RoundKernel") -> None:
        self.kernel = kernel
        self.algorithm: "TokenForwardingAlgorithm" = kernel.algorithm
        self.model = self.algorithm.communication_model
        self._previous_messages: Tuple[SentRecord, ...] = ()

    def setup(self) -> None:
        kernel = self.kernel
        self.algorithm.setup(kernel.problem, kernel.algorithm_rng, state=kernel.state)

    def observation(
        self, round_index: int, commitment: Optional[object]
    ) -> RoundObservation:
        algorithm = self.algorithm
        kernel = self.kernel
        wants = kernel.wants_observation_field
        nodes = kernel.problem.nodes
        knowledge = (
            {node: algorithm.known_tokens(node) for node in nodes}
            if wants("knowledge")
            else {}
        )
        state = kernel.state
        index_of = kernel.index_of
        counts = (
            {node: state.known_count(index_of[node]) for node in nodes}
            if wants("knowledge_counts")
            else {}
        )
        masks = (
            tuple(state.know_mask(index) for index in range(state.n))
            if wants("knowledge_masks")
            else ()
        )
        payloads = (
            dict(commitment)
            if commitment is not None and wants("broadcast_payloads")
            else {}
        )
        return RoundObservation(
            round_index=round_index,
            knowledge=knowledge,
            broadcast_payloads=payloads,
            previous_messages=self._previous_messages,
            algorithm_name=algorithm.name,
            extra=algorithm.observation_extra() if wants("extra") else {},
            knowledge_counts=counts,
            knowledge_masks=masks,
        )

    def completed(self) -> bool:
        return self.kernel.state.all_complete()

    def is_quiescent(self) -> bool:
        return self.algorithm.is_quiescent()

    def drain_learnings(self) -> List[Tuple[NodeId, Token]]:
        return self.algorithm.drain_token_learnings()


class BroadcastExchangeProgram(_ExchangeProgram):
    """Reference semantics of the local broadcast model, any algorithm."""

    def commit(self, round_index: int) -> Dict[NodeId, Optional[Payload]]:
        algorithm = self.algorithm
        broadcasts = algorithm.select_broadcasts(round_index)
        node_set = self.kernel.node_set
        for node in broadcasts:
            if node not in node_set:
                raise ProtocolViolationError(
                    f"broadcast scheduled for unknown node {node}"
                )
        return broadcasts

    def deliver(self, round_index: int, commitment: Optional[object]) -> None:
        broadcasts: Dict[NodeId, Optional[Payload]] = commitment  # type: ignore[assignment]
        kernel = self.kernel
        algorithm = self.algorithm
        neighbors = kernel.graph.neighbors_view()
        accounting = kernel.accounting
        index_of = kernel.index_of
        inbox: Dict[NodeId, List[ReceivedMessage]] = {
            node: [] for node in kernel.nodes
        }
        records: Optional[List[SentRecord]] = [] if kernel.observe_messages else None
        for node in sorted(broadcasts):
            payload = broadcasts[node]
            if payload is None:
                continue
            accounting.count(index_of[node], payload.kind.value)
            if records is not None:
                records.append(SentRecord(sender=node, receiver=None, payload=payload))
            for neighbor in neighbors[node]:
                inbox[neighbor].append(ReceivedMessage(sender=node, payload=payload))
        algorithm.receive_broadcasts(round_index, inbox, neighbors)
        if records is not None:
            self._previous_messages = tuple(records)


class UnicastExchangeProgram(_ExchangeProgram):
    """Reference semantics of the unicast model, any algorithm."""

    def deliver(self, round_index: int, commitment: Optional[object]) -> None:
        kernel = self.kernel
        algorithm = self.algorithm
        graph = kernel.graph
        neighbors = graph.neighbors_view()
        algorithm.on_topology(
            round_index,
            neighbors,
            graph.trace.inserted_edges(round_index),
            graph.trace.removed_edges(round_index),
        )

        sends = algorithm.select_messages(round_index, neighbors)
        accounting = kernel.accounting
        index_of = kernel.index_of
        node_set = kernel.node_set
        inbox: Dict[NodeId, List[ReceivedMessage]] = {
            node: [] for node in kernel.nodes
        }
        records: Optional[List[SentRecord]] = [] if kernel.observe_messages else None
        for sender in sorted(sends):
            if sender not in node_set:
                raise ProtocolViolationError(
                    f"messages scheduled for unknown sender {sender}"
                )
            for receiver in sorted(sends[sender]):
                if receiver not in neighbors[sender]:
                    raise ProtocolViolationError(
                        f"node {sender} tried to send to non-neighbour {receiver} "
                        f"in round {round_index}"
                    )
                for payload in sends[sender][receiver]:
                    accounting.count(index_of[sender], payload.kind.value)
                    if records is not None:
                        records.append(
                            SentRecord(sender=sender, receiver=receiver, payload=payload)
                        )
                    inbox[receiver].append(
                        ReceivedMessage(sender=sender, payload=payload)
                    )
        algorithm.receive_messages(round_index, inbox)
        if records is not None:
            self._previous_messages = tuple(records)


class FastRoundProgram(RoundProgram):
    """Base class for the bit-level fast programs shipped with algorithms.

    Subclasses express one algorithm's per-round knowledge delta directly on
    the index layer of the :class:`~repro.core.state.KnowledgeState` (token
    bitmasks, adjacency bitmasks, flat ``(sender, tag, value)`` message
    tuples) while the kernel supplies the shared round structure.  They must
    reproduce the exchange programs' results *exactly*: same message counts
    by kind/round/node, same token-learning event order, same rounds.

    Under an adaptive adversary the base class contributes the lazy
    :class:`~repro.core.observation.RoundObservation` adapter: only the
    fields the adversary declared it reads are materialized from the bit
    state, and subclasses record payload-level :class:`SentRecord` tuples
    (only when ``kernel.observe_messages`` is set) via
    :meth:`store_sent_records`.
    """

    #: Set by subclasses that consult per-edge insertion history
    #: (the new / idle / contributive classification of Section 3.1.1).
    track_edge_history = False

    def __init__(self, kernel: "RoundKernel", algorithm) -> None:
        self.kernel = kernel
        self.algorithm = algorithm
        self.model = algorithm.communication_model
        state = kernel.state
        if not isinstance(state, BitsetKnowledgeState):
            raise ConfigurationError(
                f"{type(self).__name__} runs on BitsetKnowledgeState, "
                f"not {type(state).__name__}; use the exchange programs "
                "(allow_fast_programs=False) with other representations"
            )
        self.state = state
        self.nodes = state.nodes
        self.n = state.n
        self.index_of = state.index_of
        self.tokens = state.tokens
        self.k = state.k
        self.token_index = state.token_index
        self.full_mask = state.full_mask
        self.adj = kernel.graph.adj
        self.accounting = kernel.accounting
        self.per_node = kernel.accounting.per_node_counts
        # Per-edge history (id -> round), maintained when track_edge_history.
        self.edge_inserted: Dict[int, int] = {}
        self.edge_token_round: Dict[int, int] = {}
        self._sent_records: Tuple[SentRecord, ...] = ()

    # -- kernel interface ---------------------------------------------------

    def completed(self) -> bool:
        return self.state.incomplete_count() == 0

    def drain_learnings(self) -> List[Tuple[NodeId, Token]]:
        return self.state.drain_learnings()

    def observation(
        self, round_index: int, commitment: Optional[object]
    ) -> RoundObservation:
        state = self.state
        wants = self.kernel.wants_observation_field
        knowledge = (
            {node: state.known_tokens(node) for node in state.nodes}
            if wants("knowledge")
            else {}
        )
        counts = (
            {
                node: state.known_count(index)
                for index, node in enumerate(state.nodes)
            }
            if wants("knowledge_counts")
            else {}
        )
        payloads = (
            self.commit_payloads(commitment) if wants("broadcast_payloads") else {}
        )
        return RoundObservation(
            round_index=round_index,
            knowledge=knowledge,
            broadcast_payloads=payloads,
            previous_messages=self._sent_records,
            algorithm_name=self.algorithm.name,
            extra=self.observation_extra() if wants("extra") else {},
            knowledge_counts=counts,
            knowledge_masks=tuple(state.know) if wants("knowledge_masks") else (),
        )

    # -- subclass hooks -----------------------------------------------------

    def commit_payloads(
        self, commitment: Optional[object]
    ) -> Dict[NodeId, Optional[Payload]]:
        """Materialize the committed payloads for the observation (broadcast
        model programs override; the unicast default is the empty mapping)."""
        return {}

    def observation_extra(self) -> Dict[str, object]:
        """Mirror of the algorithm's ``observation_extra`` on the fast state."""
        return {}

    # -- shared helpers -----------------------------------------------------

    def update_edge_history(self, round_index: int) -> None:
        """Track per-edge insertion rounds; the delivery stage calls this
        before ``deliver`` for programs declaring ``track_edge_history``."""
        edge_inserted = self.edge_inserted
        edge_token_round = self.edge_token_round
        for eid in self.kernel.graph.inserted_ids:
            edge_inserted[eid] = round_index
            # A reinserted edge starts a fresh history (see
            # UnicastAlgorithm.on_topology).
            edge_token_round.pop(eid, None)

    def prioritized_edges(
        self, node_index: int, candidates_mask: int, round_index: int
    ) -> List[int]:
        """Candidate neighbours in the Section-3.1.1 request priority order.

        ``candidates_mask`` is a node bitmask (typically the known-complete
        neighbours of ``node_index``); the result lists their indices in
        **new** (inserted this round or the previous one), then **idle**,
        then **contributive** order — ascending within each class, exactly
        like the reference
        :meth:`~repro.algorithms.base.UnicastAlgorithm.is_new_edge` family.
        Requires ``track_edge_history``.
        """
        n = self.n
        v = node_index
        edge_inserted = self.edge_inserted
        edge_token_round = self.edge_token_round
        new_edges: List[int] = []
        idle_edges: List[int] = []
        contributive_edges: List[int] = []
        to_visit = candidates_mask
        while to_visit:
            low = to_visit & -to_visit
            u = low.bit_length() - 1
            to_visit ^= low
            eid = edge_id(v, u, n)
            inserted_round = edge_inserted.get(eid, 0)
            if inserted_round >= round_index - 1:
                new_edges.append(u)
            else:
                token_round = edge_token_round.get(eid)
                if token_round is not None and token_round >= inserted_round:
                    contributive_edges.append(u)
                else:
                    idle_edges.append(u)
        return new_edges + idle_edges + contributive_edges

    def pending_request_mask(
        self, requests: Optional[Dict[int, int]], neighbors_mask: int
    ) -> int:
        """Token bits requested last round over edges that still exist.

        Those tokens are guaranteed to arrive this round (complete nodes
        respond immediately), so the node does not re-request them.
        """
        pending_mask = 0
        if requests:
            for u, token_bit_index in requests.items():
                if (neighbors_mask >> u) & 1:
                    pending_mask |= 1 << token_bit_index
        return pending_mask

    def store_sent_records(self, records: List[SentRecord]) -> None:
        """Remember this round's sends for the next round's observation."""
        self._sent_records = tuple(records)


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


class RoundKernel:
    """Drives one execution through the staged round loop.

    Args:
        problem: the dissemination instance.
        algorithm: a :class:`LocalBroadcastAlgorithm` or
            :class:`UnicastAlgorithm`.
        adversary: any object following the adversary protocol of
            :mod:`repro.adversaries`.
        state_factory: the :class:`~repro.core.state.KnowledgeState`
            implementation this execution runs on.
        allow_fast_programs: when True, an algorithm exposing a native fast
            program (``fast_program_factory``) runs it instead of the generic
            exchange program.  The reference backend keeps this off so the
            exchange path continues to define the semantics.
        max_rounds: round limit; defaults to :func:`default_round_limit`.
        seed: base seed; the algorithm and the adversary receive independent
            generators derived from it (algorithm stream first, exactly as
            the historical engine did).
        require_connected: enforce per-round connectivity (the paper's model
            requirement).  Disable only for diagnostic experiments.
        keep_trace: when False, the trace drops per-round edge ids as it
            goes; ``TC(E)``, removals and current-round queries survive.
        tracer: a :class:`repro.obs.Tracer`; when enabled, each round's four
            stages run inside spans and the result carries a per-stage
            timing breakdown.  ``None`` (the default) is the disabled no-op
            tracer — the round loop then runs entirely uninstrumented.
    """

    def __init__(
        self,
        problem: DisseminationProblem,
        algorithm: "TokenForwardingAlgorithm",
        adversary,
        *,
        state_factory: Type[KnowledgeState] = MappingKnowledgeState,
        allow_fast_programs: bool = False,
        max_rounds: Optional[int] = None,
        seed: SeedLike = None,
        require_connected: bool = True,
        keep_trace: bool = True,
        tracer=None,
    ) -> None:
        from repro.algorithms.base import LocalBroadcastAlgorithm, UnicastAlgorithm

        if not isinstance(algorithm, (LocalBroadcastAlgorithm, UnicastAlgorithm)):
            raise ConfigurationError(
                "algorithm must derive from LocalBroadcastAlgorithm or UnicastAlgorithm"
            )
        self.problem = problem
        self.algorithm = algorithm
        self.adversary = adversary
        if max_rounds is None:
            max_rounds = default_round_limit(problem)
        self.max_rounds = require_positive_int(max_rounds, "max_rounds")

        # Mirror the historical RNG derivation order exactly: the algorithm
        # stream is spawned first, then the adversary stream, so executions
        # see the same randomness regardless of state or program choice.
        base_rng = ensure_rng(seed)
        self.algorithm_rng = spawn_rng(base_rng, "algorithm")
        self.adversary_rng = spawn_rng(base_rng, "adversary")

        self.state = state_factory(problem)
        self.nodes: Tuple[NodeId, ...] = self.state.nodes
        self.node_set = frozenset(self.nodes)
        self.index_of = self.state.index_of

        self.accounting = AccountingStage(algorithm.communication_model, self.nodes)
        self.graph = AdversaryStage(
            self.nodes,
            self.index_of,
            adversary,
            require_connected=require_connected,
            keep_trace=keep_trace,
        )
        self.commit_stage = CommitStage()
        self.delivery_stage = DeliveryStage()
        #: True iff the adversary is adaptive — programs must then build an
        #: observation for it every round.
        self.observe = self.graph.observe
        #: The declared observation field scope (``None`` = everything).
        self.observed_fields = self.graph.observed_fields
        #: True iff programs must record payload-level SentRecords: only
        #: adaptive adversaries that actually read ``previous_messages``.
        self.observe_messages = self.observe and (
            self.observed_fields is None
            or "previous_messages" in self.observed_fields
        )
        if tracer is None:
            from repro.obs.tracing import NULL_TRACER

            tracer = NULL_TRACER
        self.tracer = tracer
        self.program = self._build_program(allow_fast_programs)

    def wants_observation_field(self, field_name: str) -> bool:
        """True iff the adversary's declared scope includes ``field_name``."""
        return self.observed_fields is None or field_name in self.observed_fields

    def _build_program(self, allow_fast_programs: bool) -> RoundProgram:
        if allow_fast_programs:
            factory = self.algorithm.fast_program_factory()
            if factory is not None:
                return factory(self)
        if self.algorithm.communication_model.is_broadcast:
            return BroadcastExchangeProgram(self)
        return UnicastExchangeProgram(self)

    def run(self) -> ExecutionResult:
        """Run the execution to completion (or the round limit)."""
        program = self.program
        program.setup()
        self.adversary.reset(self.problem, self.adversary_rng)

        tracer = self.tracer
        timings = None
        if tracer.enabled:
            # Spans may accumulate into a tracer shared across executions;
            # subtracting the starting totals attributes only this run.
            before = tracer.timings()
            completed, rounds_played = self._play_rounds_traced(program, tracer)
            from repro.obs.tracing import timing_delta

            timings = timing_delta(before, tracer.timings())
        else:
            completed, rounds_played = self._play_rounds(program)

        return ExecutionResult(
            algorithm_name=self.algorithm.name,
            communication_model=self.algorithm.communication_model,
            problem=self.problem,
            completed=completed,
            rounds=rounds_played,
            messages=self.accounting.statistics(),
            trace=self.graph.trace,
            events=self.accounting.events,
            adversary_name=getattr(
                self.adversary, "name", type(self.adversary).__name__
            ),
            timings=timings,
        )

    def _play_rounds(self, program: RoundProgram) -> Tuple[bool, int]:
        """The uninstrumented round loop (tracing disabled)."""
        accounting = self.accounting
        commit_stage = self.commit_stage
        graph_stage = self.graph
        delivery_stage = self.delivery_stage

        completed = program.completed()
        rounds_played = 0
        while not completed and rounds_played < self.max_rounds:
            round_index = rounds_played + 1
            accounting.begin_round()
            commitment = commit_stage.run(program, round_index)
            graph_stage.advance(round_index, program, commitment)
            delivery_stage.run(program, round_index, commitment)
            accounting.close_round(round_index, program)
            rounds_played = round_index
            completed = program.completed()
            if not completed and program.is_quiescent():
                # The program will never send another message: no further
                # progress is possible, so stop instead of idling to the
                # round limit (the result is reported as not completed).
                break
        return completed, rounds_played

    def _play_rounds_traced(self, program: RoundProgram, tracer) -> Tuple[bool, int]:
        """The same round loop with each stage bracketed by a tracer span.

        Kept as a separate loop so the disabled path stays free of span
        construction entirely; ``repro bench --max-obs-overhead`` guards
        this loop's own cost with no-op spans.
        """
        from repro.obs.tracing import (
            STAGE_ACCOUNTING,
            STAGE_ADVERSARY,
            STAGE_COMMIT,
            STAGE_DELIVERY,
        )

        accounting = self.accounting
        commit_stage = self.commit_stage
        graph_stage = self.graph
        delivery_stage = self.delivery_stage

        completed = program.completed()
        rounds_played = 0
        while not completed and rounds_played < self.max_rounds:
            round_index = rounds_played + 1
            accounting.begin_round()
            with tracer.span(STAGE_COMMIT, round=round_index):
                commitment = commit_stage.run(program, round_index)
            with tracer.span(STAGE_ADVERSARY, round=round_index):
                graph_stage.advance(round_index, program, commitment)
            with tracer.span(STAGE_DELIVERY, round=round_index):
                delivery_stage.run(program, round_index, commitment)
            with tracer.span(STAGE_ACCOUNTING, round=round_index):
                accounting.close_round(round_index, program)
            rounds_played = round_index
            completed = program.completed()
            if not completed and program.is_quiescent():
                # See _play_rounds: quiescence means no further progress.
                break
        return completed, rounds_played
