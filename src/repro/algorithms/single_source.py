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
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

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
from repro.core.rounds import FastRoundProgram
from repro.core.state import edge_id
from repro.core.tokens import Token
from repro.utils.ids import NodeId
from repro.utils.validation import ConfigurationError

_KIND_TOKEN = MessageKind.TOKEN.value
_KIND_COMPLETENESS = MessageKind.COMPLETENESS.value
_KIND_REQUEST = MessageKind.REQUEST.value

#: Delivery tags used in the flat (sender, tag, value) message tuples.
_TAG_COMPLETENESS = 0
_TAG_TOKEN = 1
_TAG_REQUEST = 2


class SingleSourceUnicastAlgorithm(UnicastAlgorithm):
    """Algorithm 1: deterministic single-source k-token dissemination."""

    name = "single-source-unicast"

    def __init__(self) -> None:
        super().__init__()
        self._source: NodeId = 0
        # R_v: the nodes v has already informed about its completeness.
        self._informed: Dict[NodeId, Set[NodeId]] = {}
        # S_v: the nodes v knows to be complete.
        self._known_complete: Dict[NodeId, Set[NodeId]] = {}
        # Requests received in the previous round, to be answered this round.
        self._requests_to_answer: Dict[NodeId, Dict[NodeId, Token]] = {}
        # Requests sent in the previous round: node -> neighbour -> token.
        self._requests_sent_previous: Dict[NodeId, Dict[NodeId, Token]] = {}
        self._requests_sent_current: Dict[NodeId, Dict[NodeId, Token]] = {}

    # -- setup -------------------------------------------------------------------

    def on_setup(self) -> None:
        sources = self.problem.sources
        if len(sources) != 1:
            raise ConfigurationError(
                "SingleSourceUnicastAlgorithm requires a single-source problem; "
                f"got {len(sources)} sources (use MultiSourceUnicastAlgorithm instead)"
            )
        self._source = sources[0]
        if self.problem.initial_knowledge[self._source] != frozenset(self.problem.tokens):
            raise ConfigurationError("the source node must initially hold all k tokens")
        self._informed = {node: set() for node in self.nodes}
        self._known_complete = {node: set() for node in self.nodes}
        self._requests_to_answer = {node: {} for node in self.nodes}
        self._requests_sent_previous = {node: {} for node in self.nodes}
        self._requests_sent_current = {node: {} for node in self.nodes}

    # -- helpers ------------------------------------------------------------------

    def _pending_arrivals(
        self, node: NodeId, neighbors: FrozenSet[NodeId]
    ) -> Set[Token]:
        """Tokens requested in the previous round whose carrying edge survived.

        Those tokens are guaranteed to arrive this round (complete nodes
        respond immediately), so the node does not re-request them.
        """
        pending: Set[Token] = set()
        for neighbor, token in self._requests_sent_previous[node].items():
            if neighbor in neighbors:
                pending.add(token)
        return pending

    def _prioritized_complete_edges(
        self, node: NodeId, neighbors: FrozenSet[NodeId], round_index: int
    ) -> List[NodeId]:
        """Known-complete neighbours ordered by edge priority: new, idle, contributive."""
        complete_neighbors = sorted(
            neighbor for neighbor in neighbors if neighbor in self._known_complete[node]
        )
        new_edges = [
            neighbor
            for neighbor in complete_neighbors
            if self.is_new_edge(node, neighbor, round_index)
        ]
        idle_edges = [
            neighbor
            for neighbor in complete_neighbors
            if self.is_idle_edge(node, neighbor, round_index)
        ]
        contributive_edges = [
            neighbor
            for neighbor in complete_neighbors
            if self.is_contributive_edge(node, neighbor, round_index)
        ]
        return new_edges + idle_edges + contributive_edges

    # -- round behaviour ------------------------------------------------------------

    def select_messages(
        self, round_index: int, neighbors: Mapping[NodeId, FrozenSet[NodeId]]
    ) -> Dict[NodeId, Dict[NodeId, List[Payload]]]:
        sends: Dict[NodeId, Dict[NodeId, List[Payload]]] = {}
        self._requests_sent_current = {node: {} for node in self.nodes}

        def out(sender: NodeId, receiver: NodeId, payload: Payload) -> None:
            sends.setdefault(sender, {}).setdefault(receiver, []).append(payload)

        for node in self.nodes:
            current = neighbors.get(node, frozenset())
            if self.is_node_complete(node):
                pending_answers = self._requests_to_answer[node]
                for neighbor in sorted(current):
                    if neighbor not in self._informed[node]:
                        out(node, neighbor, CompletenessMessage(source=self._source))
                        self._informed[node].add(neighbor)
                    elif neighbor in pending_answers:
                        token = pending_answers[neighbor]
                        out(node, neighbor, TokenMessage(token))
                # Unanswered requests (edge removed) are dropped; the requester
                # will notice the missing token and re-request elsewhere.
                self._requests_to_answer[node] = {}
            else:
                pending = self._pending_arrivals(node, current)
                missing = [
                    token for token in self.missing_tokens(node) if token not in pending
                ]
                if not missing:
                    continue
                targets = self._prioritized_complete_edges(node, current, round_index)
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
                    self._known_complete[node].add(message.sender)
                elif isinstance(payload, TokenMessage):
                    learned = self.learn(node, payload.token)
                    if learned:
                        self.record_token_over_edge(node, message.sender, round_index)
                elif isinstance(payload, RequestMessage):
                    # Only complete nodes are asked; remember to answer next round.
                    self._requests_to_answer[node][message.sender] = payload.token
        self._requests_sent_previous = self._requests_sent_current
        self._requests_sent_current = {node: {} for node in self.nodes}

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

    def fast_program_factory(self) -> Optional[Callable]:
        if type(self) is not SingleSourceUnicastAlgorithm:
            return None
        return lambda kernel: _SingleSourceFastProgram(kernel, self)


class _SingleSourceFastProgram(FastRoundProgram):
    """Single-Source-Unicast (Algorithm 1) on bitmask state.

    Mirrors :class:`SingleSourceUnicastAlgorithm` exactly: completeness
    announcements to newly seen neighbours, one-round request/answer
    exchanges, and the new > idle > contributive edge priority for assigning
    token requests, with the per-edge history kept as ``edge id -> round``
    dicts supplied by :class:`~repro.core.rounds.FastRoundProgram`.
    """

    track_edge_history = True

    def setup(self) -> None:
        problem = self.kernel.problem
        sources = problem.sources
        if len(sources) != 1:
            raise ConfigurationError(
                "SingleSourceUnicastAlgorithm requires a single-source problem; "
                f"got {len(sources)} sources (use MultiSourceUnicastAlgorithm instead)"
            )
        self.source = sources[0]
        if problem.initial_knowledge[self.source] != frozenset(problem.tokens):
            raise ConfigurationError("the source node must initially hold all k tokens")
        n = self.n
        self.informed: List[int] = [0] * n
        self.known_complete: List[int] = [0] * n
        self.answers: List[Dict[int, int]] = [{} for _ in range(n)]
        self.req_prev: List[Optional[Dict[int, int]]] = [None] * n

    def observation_extra(self) -> Dict[str, object]:
        know_count = self.state.know_count
        k = self.k
        nodes = self.nodes
        return {
            "complete_nodes": tuple(
                nodes[index] for index in range(self.n) if know_count[index] == k
            ),
            "source": self.source,
        }

    def deliver(self, round_index: int, commitment) -> None:
        n = self.n
        k = self.k
        adj = self.adj
        state = self.state
        know = state.know
        know_count = state.know_count
        full_mask = self.full_mask
        informed = self.informed
        known_complete = self.known_complete
        answers = self.answers
        req_prev = self.req_prev
        req_cur: List[Optional[Dict[int, int]]] = [None] * n
        edge_token_round = self.edge_token_round
        per_node = self.per_node
        deliveries: List[Optional[List[Tuple[int, int, int]]]] = [None] * n
        observe = self.kernel.observe_messages
        records: Optional[List[SentRecord]] = [] if observe else None
        nodes = self.nodes
        tokens = self.tokens

        token_count = 0
        completeness_count = 0
        request_count = 0

        for v in range(n):
            neighbors = adj[v]
            sent_pairs: Optional[List[Tuple[int, int, int]]] = [] if observe else None
            if know_count[v] == k:
                # Complete node: announce completeness once per neighbour,
                # then answer last round's requests.
                pending_answers = answers[v]
                informed_mask = informed[v]
                to_visit = neighbors
                while to_visit:
                    low = to_visit & -to_visit
                    u = low.bit_length() - 1
                    to_visit ^= low
                    if not (informed_mask >> u) & 1:
                        informed_mask |= 1 << u
                        completeness_count += 1
                        per_node[v] += 1
                        box = deliveries[u]
                        if box is None:
                            box = deliveries[u] = []
                        box.append((v, _TAG_COMPLETENESS, 0))
                        if sent_pairs is not None:
                            sent_pairs.append((u, _TAG_COMPLETENESS, 0))
                    else:
                        answer = pending_answers.get(u)
                        if answer is not None:
                            token_count += 1
                            per_node[v] += 1
                            box = deliveries[u]
                            if box is None:
                                box = deliveries[u] = []
                            box.append((v, _TAG_TOKEN, answer))
                            if sent_pairs is not None:
                                sent_pairs.append((u, _TAG_TOKEN, answer))
                informed[v] = informed_mask
                if pending_answers:
                    answers[v] = {}
            else:
                # Incomplete node: skip tokens already guaranteed to arrive
                # (requested last round over a surviving edge), then assign
                # one distinct missing token per known-complete neighbour in
                # new > idle > contributive edge order.
                pending_mask = self.pending_request_mask(req_prev[v], neighbors)
                complete_neighbors = neighbors & known_complete[v]
                if not complete_neighbors:
                    continue
                sent: Optional[Dict[int, int]] = None
                missing = ~know[v] & full_mask
                for u in self.prioritized_edges(v, complete_neighbors, round_index):
                    token_bit_index = -1
                    while missing:
                        low = missing & -missing
                        candidate = low.bit_length() - 1
                        missing ^= low
                        if not (pending_mask >> candidate) & 1:
                            token_bit_index = candidate
                            break
                    if token_bit_index < 0:
                        break
                    request_count += 1
                    per_node[v] += 1
                    box = deliveries[u]
                    if box is None:
                        box = deliveries[u] = []
                    box.append((v, _TAG_REQUEST, token_bit_index))
                    if sent_pairs is not None:
                        sent_pairs.append((u, _TAG_REQUEST, token_bit_index))
                    if sent is None:
                        sent = req_cur[v] = {}
                    sent[u] = token_bit_index
            if records is not None and sent_pairs:
                sender = nodes[v]
                # The exchange program records sends receiver-ascending.
                for u, tag, value in sorted(sent_pairs):
                    if tag == _TAG_COMPLETENESS:
                        payload: Payload = CompletenessMessage(source=self.source)
                    elif tag == _TAG_TOKEN:
                        payload = TokenMessage(tokens[value])
                    else:
                        token = tokens[value]
                        payload = RequestMessage(source=token.source, index=token.index)
                    records.append(
                        SentRecord(sender=sender, receiver=nodes[u], payload=payload)
                    )

        learn_index = state.learn_index
        for u in range(n):
            box = deliveries[u]
            if not box:
                continue
            for sender, tag, value in box:
                if tag == _TAG_COMPLETENESS:
                    known_complete[u] |= 1 << sender
                elif tag == _TAG_TOKEN:
                    if learn_index(u, value):
                        eid = edge_id(u, sender, n)
                        edge_token_round[eid] = round_index
                else:  # _TAG_REQUEST
                    answers[u][sender] = value

        self.req_prev = req_cur
        accounting = self.accounting
        accounting.count_bulk(_KIND_TOKEN, token_count)
        accounting.count_bulk(_KIND_COMPLETENESS, completeness_count)
        accounting.count_bulk(_KIND_REQUEST, request_count)
        if records is not None:
            self.store_sent_records(records)
