"""The Multi-Source-Unicast algorithm (Section 3.2.1).

Tokens are initially distributed over ``s`` source nodes ``a_1 < … < a_s``.
Completeness is now per source: a node is *complete with respect to source x*
when it holds every token originating at ``x``.  Every node runs three tasks
in parallel each round (for each adjacent edge ``{v, w}``):

1. if there is a source ``x ∈ I_v`` (v complete w.r.t. x) with
   ``w ∉ R_v(x)``, pick the minimum such ``x`` and announce v's completeness
   w.r.t. ``x`` to ``w``;
2. if ``w`` requested a token in the previous round, send it back;
3. pick the minimum source ``x ∉ I_v`` with ``S_v(x) ≠ ∅`` (v knows some
   neighbourly complete node for it) and behave exactly like the
   Single-Source-Unicast algorithm for that one source: assign one distinct
   request per known-complete edge, prioritising new, then idle, then
   contributive edges.

Message complexity (Theorem 3.5): ``O(nk)`` token messages, ``O(n²s)``
completeness announcements and ``O(nk) + TC(E)`` requests, i.e.
1-adversary-competitive message complexity ``O(n²s + nk)``.  On 3-edge-stable
graphs it terminates in ``O(nk)`` rounds (Theorem 3.6).

Implementation note on the *source catalog*: the algorithm object holds a
mapping from each source to the ordered list of tokens it is responsible for.
By default this is derived from the problem's initial distribution (source
``x`` is responsible for the tokens ``⟨x, 1⟩ … ⟨x, k_x⟩`` it starts with);
the Oblivious-Multi-Source algorithm re-targets it to the *centers* chosen in
its first phase.  In the paper nodes derive the same information from the
token identifiers ``⟨ID_x, i⟩`` together with the (assumed known) per-source
token counts; holding the catalog in the shared algorithm object models that
assumption without affecting any message count.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.algorithms.base import UnicastAlgorithm
from repro.core.messages import (
    CompletenessMessage,
    MessageKind,
    Payload,
    ReceivedMessage,
    RequestMessage,
    TokenMessage,
)
from repro.core.observation import SentRecord
from repro.core.problem import DisseminationProblem
from repro.core.rounds import FastRoundProgram
from repro.core.state import edge_id
from repro.core.tokens import Token, tokens_by_source
from repro.utils.ids import NodeId
from repro.utils.validation import ConfigurationError

_KIND_TOKEN = MessageKind.TOKEN.value
_KIND_COMPLETENESS = MessageKind.COMPLETENESS.value
_KIND_REQUEST = MessageKind.REQUEST.value

#: Delivery tags used in the flat (sender, tag, value) message tuples.
_TAG_COMPLETENESS = 0
_TAG_TOKEN = 1
_TAG_REQUEST = 2

_receiver = itemgetter(0)


class MultiSourceUnicastAlgorithm(UnicastAlgorithm):
    """Deterministic multi-source k-token dissemination (Section 3.2.1)."""

    name = "multi-source-unicast"

    def __init__(self, source_catalog: Optional[Mapping[NodeId, Sequence[Token]]] = None):
        super().__init__()
        self._configured_catalog = (
            {source: tuple(tokens) for source, tokens in source_catalog.items()}
            if source_catalog is not None
            else None
        )
        self._catalog: Dict[NodeId, Tuple[Token, ...]] = {}
        self._catalog_sources: List[NodeId] = []
        # I_v, R_v(x), S_v(x) of the paper.
        self._complete_wrt: Dict[NodeId, Set[NodeId]] = {}
        self._informed: Dict[NodeId, Dict[NodeId, Set[NodeId]]] = {}
        self._known_complete: Dict[NodeId, Dict[NodeId, Set[NodeId]]] = {}
        # Requests to answer this round, and those sent last and this round.
        self._requests_to_answer: Dict[NodeId, Dict[NodeId, Token]] = {}
        self._requests_sent_previous: Dict[NodeId, Dict[NodeId, Token]] = {}
        self._requests_sent_current: Dict[NodeId, Dict[NodeId, Token]] = {}

    # -- catalog management --------------------------------------------------------

    def default_catalog(self) -> Dict[NodeId, Tuple[Token, ...]]:
        """The catalog derived from the problem's initial token placement."""
        return self._catalog_of_problem(self.problem)

    def _catalog_of_problem(
        self, problem: DisseminationProblem
    ) -> Dict[NodeId, Tuple[Token, ...]]:
        """:meth:`default_catalog` of ``problem``, for both execution paths
        (the fast program runs without setting the algorithm up)."""
        return {
            source: tuple(tokens)
            for source, tokens in tokens_by_source(problem.tokens).items()
        }

    def configure_catalog(self, catalog: Mapping[NodeId, Sequence[Token]]) -> None:
        """(Re)initialize the per-source completeness machinery for a new catalog.

        Used by the Oblivious-Multi-Source algorithm when it starts its second
        phase with the centers as sources.  Token knowledge is preserved; all
        completeness/request bookkeeping is reset.
        """
        covered: Set[Token] = set()
        validated: Dict[NodeId, Tuple[Token, ...]] = {}
        for source in sorted(catalog):
            tokens = tuple(catalog[source])
            if not tokens:
                raise ConfigurationError(f"catalog source {source} has no tokens")
            if source not in self.nodes:
                raise ConfigurationError(f"catalog source {source} is not a node")
            overlap = covered & set(tokens)
            if overlap:
                raise ConfigurationError(f"tokens assigned to multiple sources: {overlap}")
            covered |= set(tokens)
            validated[source] = tokens
        if covered != set(self.problem.tokens):
            raise ConfigurationError("the catalog must cover the token universe exactly")
        self._catalog = validated
        self._catalog_sources = sorted(validated)
        self._complete_wrt = {node: set() for node in self.nodes}
        self._informed = {
            node: {source: set() for source in self._catalog_sources} for node in self.nodes
        }
        self._known_complete = {
            node: {source: set() for source in self._catalog_sources} for node in self.nodes
        }
        self._requests_to_answer = {node: {} for node in self.nodes}
        self._requests_sent_previous = {node: {} for node in self.nodes}
        self._requests_sent_current = {node: {} for node in self.nodes}
        for node in self.nodes:
            known = self.known_tokens(node)
            for source, tokens in validated.items():
                if known.issuperset(tokens):
                    self._complete_wrt[node].add(source)

    def on_setup(self) -> None:
        catalog = (
            self._configured_catalog
            if self._configured_catalog is not None
            else self.default_catalog()
        )
        self.configure_catalog(catalog)

    # -- per-source completeness -----------------------------------------------------

    def catalog_of(self, source: NodeId) -> Tuple[Token, ...]:
        """The tokens the given source is responsible for."""
        return self._catalog[source]

    def catalog_sources(self) -> List[NodeId]:
        """The sources of the active catalog, in increasing ID order."""
        return list(self._catalog_sources)

    def _holds_all_of(self, node: NodeId, source: NodeId) -> bool:
        known = self.known_tokens(node)
        return all(token in known for token in self._catalog[source])

    def is_complete_wrt(self, node: NodeId, source: NodeId) -> bool:
        """True iff ``node`` is complete with respect to ``source``."""
        return source in self._complete_wrt[node]

    def on_learn(self, node: NodeId, token: Token) -> None:
        if not self._catalog:
            return
        for source in self._catalog_sources:
            if source in self._complete_wrt[node]:
                continue
            if token in self._catalog[source] and self._holds_all_of(node, source):
                self._complete_wrt[node].add(source)

    # -- helpers -------------------------------------------------------------------

    def _pending_arrivals(self, node: NodeId, neighbors: FrozenSet[NodeId]) -> Set[Token]:
        pending: Set[Token] = set()
        for neighbor, token in self._requests_sent_previous[node].items():
            if neighbor in neighbors:
                pending.add(token)
        return pending

    def _active_source(self, node: NodeId) -> Optional[NodeId]:
        """The minimum source v is incomplete w.r.t. and knows a complete node for."""
        for source in self._catalog_sources:
            if source in self._complete_wrt[node]:
                continue
            if self._known_complete[node][source]:
                return source
        return None

    def _prioritized_edges(
        self,
        node: NodeId,
        source: NodeId,
        neighbors: FrozenSet[NodeId],
        round_index: int,
    ) -> List[NodeId]:
        complete_neighbors = sorted(
            neighbor
            for neighbor in neighbors
            if neighbor in self._known_complete[node][source]
        )
        new_edges = [
            n for n in complete_neighbors if self.is_new_edge(node, n, round_index)
        ]
        idle_edges = [
            n for n in complete_neighbors if self.is_idle_edge(node, n, round_index)
        ]
        contributive_edges = [
            n for n in complete_neighbors if self.is_contributive_edge(node, n, round_index)
        ]
        return new_edges + idle_edges + contributive_edges

    # -- round behaviour --------------------------------------------------------------

    def select_messages(
        self, round_index: int, neighbors: Mapping[NodeId, FrozenSet[NodeId]]
    ) -> Dict[NodeId, Dict[NodeId, List[Payload]]]:
        sends: Dict[NodeId, Dict[NodeId, List[Payload]]] = {}
        self._requests_sent_current = {node: {} for node in self.nodes}

        def out(sender: NodeId, receiver: NodeId, payload: Payload) -> None:
            sends.setdefault(sender, {}).setdefault(receiver, []).append(payload)

        for node in self.nodes:
            current = neighbors.get(node, frozenset())

            # Task 1: completeness announcements (minimum unannounced source per edge).
            for neighbor in sorted(current):
                for source in self._catalog_sources:
                    if source not in self._complete_wrt[node]:
                        continue
                    if neighbor in self._informed[node][source]:
                        continue
                    out(node, neighbor, CompletenessMessage(source=source))
                    self._informed[node][source].add(neighbor)
                    break

            # Task 2: answer the requests received in the previous round.
            pending_answers = self._requests_to_answer[node]
            for neighbor in sorted(current):
                if neighbor in pending_answers:
                    out(node, neighbor, TokenMessage(pending_answers[neighbor]))
            self._requests_to_answer[node] = {}

            # Task 3: request tokens of the highest-priority incomplete source.
            source = self._active_source(node)
            if source is None:
                continue
            pending = self._pending_arrivals(node, current)
            missing = [
                token
                for token in self._catalog[source]
                if not self.knows(node, token) and token not in pending
            ]
            if not missing:
                continue
            targets = self._prioritized_edges(node, source, current, round_index)
            for position, neighbor in enumerate(targets):
                if position >= len(missing):
                    break
                token = missing[position]
                out(node, neighbor, RequestMessage(source=token.source, index=token.index))
                self._requests_sent_current[node][neighbor] = token
        return sends

    def receive_messages(
        self, round_index: int, inbox: Mapping[NodeId, List[ReceivedMessage]]
    ) -> None:
        for node, messages in inbox.items():
            for message in messages:
                payload = message.payload
                if isinstance(payload, CompletenessMessage):
                    if payload.source in self._known_complete[node]:
                        self._known_complete[node][payload.source].add(message.sender)
                elif isinstance(payload, TokenMessage):
                    learned = self.learn(node, payload.token)
                    if learned:
                        self.record_token_over_edge(node, message.sender, round_index)
                elif isinstance(payload, RequestMessage):
                    self._requests_to_answer[node][message.sender] = payload.token
        self._requests_sent_previous = self._requests_sent_current
        self._requests_sent_current = {node: {} for node in self.nodes}

    # -- diagnostics --------------------------------------------------------------------

    def complete_sources_of(self, node: NodeId) -> List[NodeId]:
        """``I_v`` — the sources the node is complete with respect to."""
        return sorted(self._complete_wrt[node])

    def observation_extra(self) -> Dict[str, object]:
        return {
            "catalog_sources": tuple(self._catalog_sources),
            "complete_wrt": {
                node: tuple(sorted(self._complete_wrt[node])) for node in self.nodes
            },
        }

    def _mask_extra(
        self,
        nodes: Sequence[NodeId],
        sources: Sequence[NodeId],
        catalog_masks: Sequence[int],
        know: Sequence[int],
    ) -> Dict[str, object]:
        """:meth:`observation_extra` read off the knowledge masks of a fast
        program: a node is complete w.r.t. a source when its mask covers
        the source's catalog mask."""
        return {
            "catalog_sources": tuple(sources),
            "complete_wrt": {
                node: tuple(
                    source
                    for source, mask in zip(sources, catalog_masks)
                    if know[v] & mask == mask
                )
                for v, node in enumerate(nodes)
            },
        }

    def fast_program_factory(self) -> Optional[Callable]:
        # The fast program derives the catalog from the problem;
        # explicitly configured catalogs take the generic exchange path, and
        # subclasses (Algorithm 1, the oblivious algorithm) guard their own.
        if type(self) is not MultiSourceUnicastAlgorithm:
            return None
        if self._configured_catalog is not None:
            return None
        return lambda kernel: _MultiSourceFastProgram(kernel, self)


class _MultiSourceFastProgram(FastRoundProgram):
    """Multi-Source-Unicast (Section 3.2.1) on bitmask state.

    Mirrors :class:`MultiSourceUnicastAlgorithm` with the default catalog:
    ``I_v`` as a source-index bitmask, ``S_v(x)`` as a node bitmask per
    source, and ``R_v(x)`` turned around into one source bitmask per edge
    (``told[v][u]``: the sources ``v`` has announced to ``u``), so the
    minimum unannounced source on an edge is the lowest bit of
    ``I_v & ~told[v][u]``.  The three per-round tasks run in the paper's
    order; requests answered next round are kept as ``answers[v][u]`` and
    the requests of the previous round as ``req_prev[v][u]`` (token bits).

    ``catalog`` overrides the source catalog (the oblivious two-phase
    program hands in the center catalog fixed at its phase transition);
    by default it is the algorithm's catalog of the problem, exactly
    like :meth:`MultiSourceUnicastAlgorithm.default_catalog`.  The
    algorithm also decides what an adaptive adversary sees as ``extra``.
    """

    track_edge_history = True

    def __init__(
        self,
        kernel,
        algorithm,
        *,
        catalog: Optional[Mapping[NodeId, Sequence[Token]]] = None,
    ) -> None:
        super().__init__(kernel, algorithm)
        self._catalog_override = catalog

    def setup(self) -> None:
        token_index = self.token_index
        catalog = (
            self._catalog_override
            if self._catalog_override is not None
            else self.algorithm._catalog_of_problem(self.kernel.problem)
        )
        self.sources: List[NodeId] = sorted(catalog)
        s = len(self.sources)
        self.catalog_mask: List[int] = [0] * s
        #: The catalog source (index) of every token bit.
        self.source_of: List[int] = [0] * self.k
        for x, source in enumerate(self.sources):
            for token in catalog[source]:
                bit = token_index[token]
                self.catalog_mask[x] |= 1 << bit
                self.source_of[bit] = x
        n = self.n
        know = self.state.know
        self.complete_wrt: List[int] = [0] * n  # bit x = complete w.r.t. sources[x]
        for v in range(n):
            mask = 0
            know_v = know[v]
            for x in range(s):
                catalog_mask = self.catalog_mask[x]
                if know_v & catalog_mask == catalog_mask:
                    mask |= 1 << x
            self.complete_wrt[v] = mask
        self.told: List[List[int]] = [[0] * n for _ in range(n)]
        #: Neighbours ``v`` has told every source in ``I_v``: a cache of
        #: ``told[v][u] == complete_wrt[v]``, cleared when ``I_v`` grows.
        self.told_all: List[int] = [0] * n
        self.known_complete: List[List[int]] = [[0] * s for _ in range(n)]
        #: Sources ``x`` with a non-empty ``S_v(x)``, as a source bitmask.
        self.known_sources: List[int] = [0] * n
        self.answers: List[Dict[int, int]] = [{} for _ in range(n)]
        self.req_prev: List[Optional[Dict[int, int]]] = [None] * n

    def observation_extra(self) -> Dict[str, object]:
        return self.algorithm._mask_extra(
            self.nodes, self.sources, self.catalog_mask, self.state.know
        )

    def prioritized_edges(
        self, node_index: int, candidates_mask: int, round_index: int
    ) -> List[int]:
        """Candidate neighbours in the Section-3.1.1 request priority order.

        ``candidates_mask`` is a node bitmask (the known-complete neighbours
        of ``node_index``); the result lists their indices in **new**
        (inserted this round or the previous one), then **idle**, then
        **contributive** order — ascending within each class, exactly like
        the reference :meth:`~repro.algorithms.base.UnicastAlgorithm.is_new_edge`
        family.
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

    @staticmethod
    def pending_request_mask(
        requests: Optional[Dict[int, int]], neighbors_mask: int
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

    def _payload(self, tag: int, value: int) -> Payload:
        """The message a flat ``(tag, value)`` pair stands for."""
        if tag == _TAG_COMPLETENESS:
            return CompletenessMessage(source=self.sources[value])
        token = self.tokens[value]
        if tag == _TAG_TOKEN:
            return TokenMessage(token)
        return RequestMessage(source=token.source, index=token.index)

    def deliver(self, round_index: int, commitment) -> None:
        n = self.n
        adj = self.adj
        state = self.state
        know = state.know
        complete_wrt = self.complete_wrt
        told = self.told
        told_all = self.told_all
        known_complete = self.known_complete
        known_sources = self.known_sources
        catalog_mask = self.catalog_mask
        answers = self.answers
        req_prev = self.req_prev
        req_cur: List[Optional[Dict[int, int]]] = [None] * n
        edge_token_round = self.edge_token_round
        per_node = self.per_node
        # Each message goes straight onto its receiver's list.  The outer
        # loop fills every list sender-ascending, and one sender's tasks
        # append in task order, which is the exchange path's delivery order.
        deliveries: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
        observe = self.kernel.observe_messages
        records: Optional[List[SentRecord]] = [] if observe else None
        nodes = self.nodes

        token_count = 0
        completeness_count = 0
        request_count = 0

        for v in range(n):
            neighbors = adj[v]
            # This sender's (receiver, tag, value) sends, for the records.
            sent: Optional[List[Tuple[int, int, int]]] = [] if observe else None

            # Task 1: completeness announcements (minimum unannounced source
            # per edge) to the neighbours not yet told all of I_v.
            cw = complete_wrt[v]
            to_visit = neighbors & ~told_all[v]
            if cw and to_visit:
                told_v = told[v]
                while to_visit:
                    low = to_visit & -to_visit
                    u = low.bit_length() - 1
                    to_visit ^= low
                    unannounced = cw & ~told_v[u]
                    low_x = unannounced & -unannounced
                    if low_x == unannounced:
                        told_all[v] |= low
                    if unannounced:
                        told_v[u] |= low_x
                        x = low_x.bit_length() - 1
                        completeness_count += 1
                        per_node[v] += 1
                        deliveries[u].append((v, _TAG_COMPLETENESS, x))
                        if sent is not None:
                            sent.append((u, _TAG_COMPLETENESS, x))

            # Task 2: answer the requests received in the previous round
            # over edges that still exist.
            pending_answers = answers[v]
            if pending_answers:
                for u, answer in pending_answers.items():
                    if (neighbors >> u) & 1:
                        token_count += 1
                        per_node[v] += 1
                        deliveries[u].append((v, _TAG_TOKEN, answer))
                        if sent is not None:
                            sent.append((u, _TAG_TOKEN, answer))
                answers[v] = {}

            # Task 3: request tokens of the highest-priority incomplete source
            # (the minimum x not in I_v with a known complete node).
            candidates = known_sources[v] & ~cw
            if candidates:
                low_x = candidates & -candidates
                active = low_x.bit_length() - 1
                missing = catalog_mask[active] & ~know[v]
                if missing:
                    missing &= ~self.pending_request_mask(req_prev[v], neighbors)
                complete_neighbors = neighbors & known_complete[v][active]
                if missing and complete_neighbors:
                    requested: Optional[Dict[int, int]] = None
                    for u in self.prioritized_edges(v, complete_neighbors, round_index):
                        if not missing:
                            break
                        low = missing & -missing
                        missing ^= low
                        bit = low.bit_length() - 1
                        request_count += 1
                        per_node[v] += 1
                        deliveries[u].append((v, _TAG_REQUEST, bit))
                        if sent is not None:
                            sent.append((u, _TAG_REQUEST, bit))
                        if requested is None:
                            requested = req_cur[v] = {}
                        requested[u] = bit

            if sent:
                # The exchange path records sends receiver-ascending, in task
                # order per receiver: a stable sort by receiver.
                sender = nodes[v]
                sent.sort(key=_receiver)
                for u, tag, value in sent:
                    records.append(
                        SentRecord(
                            sender=sender,
                            receiver=nodes[u],
                            payload=self._payload(tag, value),
                        )
                    )

        learn_index = state.learn_index
        source_of = self.source_of
        for u, box in enumerate(deliveries):
            for sender, tag, value in box:
                if tag == _TAG_COMPLETENESS:
                    known_complete[u][value] |= 1 << sender
                    known_sources[u] |= 1 << value
                elif tag == _TAG_TOKEN:
                    if learn_index(u, value):
                        eid = edge_id(u, sender, n)
                        edge_token_round[eid] = round_index
                        # Mirror of on_learn: only the token's own source
                        # can become complete.
                        x = source_of[value]
                        mask = catalog_mask[x]
                        if know[u] & mask == mask:
                            complete_wrt[u] |= 1 << x
                            told_all[u] = 0
                else:  # _TAG_REQUEST
                    answers[u][sender] = value

        self.req_prev = req_cur
        accounting = self.accounting
        accounting.count_bulk(_KIND_TOKEN, token_count)
        accounting.count_bulk(_KIND_COMPLETENESS, completeness_count)
        accounting.count_bulk(_KIND_REQUEST, request_count)
        if records is not None:
            self.store_sent_records(records)
