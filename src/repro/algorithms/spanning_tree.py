"""Static-network spanning-tree baseline.

Section 1 recalls the static-network strategy: "one can first build a
spanning tree (which can take as much as Ω(n²) messages in graphs with Θ(n²)
edges), and then use the spanning tree edges to disseminate the tokens to all
nodes; this takes O(n² + nk) messages overall or O(n²/k + n) amortized
messages per token".

:class:`SpanningTreeAlgorithm` implements this strategy as an honest unicast
protocol on a (presumed static) network:

1. **Tree construction** — the root floods a ``join`` beacon; every node, on
   first hearing a ``join``, adopts the sender as its parent, acknowledges
   with a ``parent`` message, and forwards the beacon to all of its
   neighbours in the next round.  Cost ``O(m + n)`` messages (``Θ(n²)`` on
   dense graphs, matching the KT0 bound quoted by the paper).
2. **Convergecast** — every node pipelines its initial tokens up the tree,
   one token per tree edge per round.
3. **Broadcast down** — every node pipelines every token it received from its
   parent (and, for the root, from its children) to each of its children.

The algorithm assumes the topology does not change; on a dynamic graph it
degrades gracefully (transfers only happen over tree edges that are currently
present) but gives no guarantees — it is a baseline for the static case only.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.algorithms.base import UnicastAlgorithm
from repro.core.messages import (
    ControlMessage,
    MessageKind,
    Payload,
    ReceivedMessage,
    TokenMessage,
)
from repro.core.observation import SentRecord
from repro.core.rounds import FastRoundProgram
from repro.core.tokens import Token
from repro.utils.ids import NodeId

_KIND_TOKEN = MessageKind.TOKEN.value
_KIND_CONTROL = MessageKind.CONTROL.value

#: Delivery tags used in the flat (sender, tag, value) message tuples.
_TAG_TOKEN = 0
_TAG_JOIN = 1
_TAG_PARENT = 2


class SpanningTreeAlgorithm(UnicastAlgorithm):
    """Spanning-tree construction plus token pipelining (static baseline)."""

    name = "spanning-tree"

    def __init__(self, root: Optional[NodeId] = None):
        super().__init__()
        self._configured_root = root
        self._root: NodeId = 0
        self._parent: Dict[NodeId, Optional[NodeId]] = {}
        self._children: Dict[NodeId, List[NodeId]] = {}
        self._must_flood_join: Set[NodeId] = set()
        self._pending_parent_ack: Dict[NodeId, NodeId] = {}
        self._up_queue: Dict[NodeId, List[Token]] = {}
        self._distribute_list: Dict[NodeId, List[Token]] = {}
        self._distributed_seen: Dict[NodeId, Set[Token]] = {}
        self._down_progress: Dict[NodeId, Dict[NodeId, int]] = {}

    @property
    def configured_root(self) -> Optional[NodeId]:
        """The root requested at construction time (``None`` = lowest node ID).

        Exposed so alternative execution backends pick the same root without
        going through :meth:`setup`.
        """
        return self._configured_root

    # -- setup -----------------------------------------------------------------

    def on_setup(self) -> None:
        self._root = (
            self._configured_root if self._configured_root is not None else min(self.nodes)
        )
        if self._root not in self.nodes:
            self._root = min(self.nodes)
        self._parent = {node: None for node in self.nodes}
        self._parent[self._root] = self._root
        self._children = {node: [] for node in self.nodes}
        self._must_flood_join = {self._root}
        self._pending_parent_ack = {}
        self._up_queue = {
            node: sorted(self.problem.initial_knowledge[node])
            for node in self.nodes
            if node != self._root
        }
        self._up_queue.setdefault(self._root, [])
        self._distribute_list = {node: [] for node in self.nodes}
        self._distributed_seen = {node: set() for node in self.nodes}
        self._down_progress = {node: {} for node in self.nodes}
        for token in sorted(self.problem.initial_knowledge[self._root]):
            self._add_to_distribution(self._root, token)

    def _add_to_distribution(self, node: NodeId, token: Token) -> None:
        """Queue ``token`` for delivery to every (current and future) child of ``node``."""
        if token in self._distributed_seen[node]:
            return
        self._distributed_seen[node].add(token)
        self._distribute_list[node].append(token)

    # -- round behaviour --------------------------------------------------------

    def select_messages(
        self, round_index: int, neighbors: Mapping[NodeId, FrozenSet[NodeId]]
    ) -> Dict[NodeId, Dict[NodeId, List[Payload]]]:
        sends: Dict[NodeId, Dict[NodeId, List[Payload]]] = {}

        def out(sender: NodeId, receiver: NodeId, payload: Payload) -> None:
            sends.setdefault(sender, {}).setdefault(receiver, []).append(payload)

        for node in self.nodes:
            current = neighbors.get(node, frozenset())

            # 1. Tree construction: flood the join beacon once, acknowledge parent.
            if node in self._must_flood_join:
                for neighbor in sorted(current):
                    out(node, neighbor, ControlMessage(tag="join", data=self._root))
                self._must_flood_join.discard(node)
            ack_target = self._pending_parent_ack.get(node)
            if ack_target is not None and ack_target in current:
                out(node, ack_target, ControlMessage(tag="parent"))
                del self._pending_parent_ack[node]

            # 2. Convergecast one token per round toward the parent.
            parent = self._parent[node]
            if (
                node != self._root
                and parent is not None
                and parent in current
                and self._up_queue[node]
            ):
                token = self._up_queue[node].pop(0)
                out(node, parent, TokenMessage(token))

            # 3. Pipeline the distribution list down to each child.
            for child in self._children[node]:
                if child not in current:
                    continue
                progress = self._down_progress[node].get(child, 0)
                if progress < len(self._distribute_list[node]):
                    token = self._distribute_list[node][progress]
                    out(node, child, TokenMessage(token))
                    self._down_progress[node][child] = progress + 1
        return sends

    def receive_messages(
        self, round_index: int, inbox: Mapping[NodeId, List[ReceivedMessage]]
    ) -> None:
        for node, messages in inbox.items():
            for message in messages:
                payload = message.payload
                if isinstance(payload, ControlMessage):
                    if payload.tag == "join" and self._parent[node] is None:
                        self._parent[node] = message.sender
                        self._pending_parent_ack[node] = message.sender
                        self._must_flood_join.add(node)
                    elif payload.tag == "parent":
                        if message.sender not in self._children[node]:
                            self._children[node].append(message.sender)
                elif isinstance(payload, TokenMessage):
                    token = payload.token
                    learned = self.learn(node, token)
                    if learned:
                        self.record_token_over_edge(node, message.sender, round_index)
                    if message.sender == self._parent[node]:
                        # Downward traffic: forward to all children.
                        self._add_to_distribution(node, token)
                    else:
                        # Upward traffic from a child.
                        if node == self._root:
                            self._add_to_distribution(node, token)
                        else:
                            self._up_queue[node].append(token)

    # -- diagnostics -------------------------------------------------------------

    @property
    def root(self) -> NodeId:
        """The root of the spanning tree."""
        return self._root

    def tree_parent(self, node: NodeId) -> Optional[NodeId]:
        """The parent adopted by ``node`` (``None`` until it joins the tree)."""
        return self._parent[node]

    def tree_children(self, node: NodeId) -> List[NodeId]:
        """The children of ``node`` in the constructed tree."""
        return list(self._children[node])

    def fast_program_factory(self) -> Optional[Callable]:
        if type(self) is not SpanningTreeAlgorithm:
            return None
        return lambda kernel: _SpanningTreeFastProgram(kernel, self)


class _SpanningTreeFastProgram(FastRoundProgram):
    """Spanning-tree construction plus token pipelining on bitmask state.

    Mirrors :class:`SpanningTreeAlgorithm`: join-beacon flooding, parent
    acknowledgements, one-token-per-round convergecast toward the root and
    pipelined distribution to children, with tokens carried as sorted-order
    bit indices.
    """

    def setup(self) -> None:
        configured = self.algorithm.configured_root
        if configured is not None and configured in self.index_of:
            self.root = self.index_of[configured]
        else:
            self.root = 0  # nodes are sorted, so index 0 is the lowest ID
        n = self.n
        token_index = self.token_index
        initial = self.kernel.problem.initial_knowledge
        self.parent: List[int] = [-1] * n
        self.parent[self.root] = self.root
        self.children: List[List[int]] = [[] for _ in range(n)]
        self.children_seen: List[Set[int]] = [set() for _ in range(n)]
        self.flood_pending: List[bool] = [False] * n
        self.flood_pending[self.root] = True
        self.pending_ack: List[int] = [-1] * n
        self.up_queue: List[deque] = [
            deque(
                sorted(token_index[token] for token in initial[node])
                if index != self.root
                else ()
            )
            for index, node in enumerate(self.nodes)
        ]
        self.distribute: List[List[int]] = [[] for _ in range(n)]
        self.distribute_seen: List[int] = [0] * n
        self.down_progress: List[Dict[int, int]] = [{} for _ in range(n)]
        for token_bit_index in sorted(
            token_index[token] for token in initial[self.nodes[self.root]]
        ):
            self._add_to_distribution(self.root, token_bit_index)

    def _add_to_distribution(self, node_index: int, token_bit_index: int) -> None:
        bit = 1 << token_bit_index
        if self.distribute_seen[node_index] & bit:
            return
        self.distribute_seen[node_index] |= bit
        self.distribute[node_index].append(token_bit_index)

    def _payload_for(self, tag: int, value: int) -> Payload:
        if tag == _TAG_TOKEN:
            return TokenMessage(self.tokens[value])
        if tag == _TAG_JOIN:
            return ControlMessage(tag="join", data=self.nodes[self.root])
        return ControlMessage(tag="parent")

    def deliver(self, round_index: int, commitment) -> None:
        n = self.n
        adj = self.adj
        parent = self.parent
        root = self.root
        per_node = self.per_node
        deliveries: List[Optional[List[Tuple[int, int, int]]]] = [None] * n
        observe = self.kernel.observe_messages
        records: Optional[List[SentRecord]] = [] if observe else None
        nodes = self.nodes

        token_count = 0
        control_count = 0

        for v in range(n):
            neighbors = adj[v]
            sends: Dict[int, List[Tuple[int, int, int]]] = {}

            # 1. Tree construction: flood the join beacon once, acknowledge
            #    the adopted parent.
            if self.flood_pending[v]:
                to_visit = neighbors
                while to_visit:
                    low = to_visit & -to_visit
                    u = low.bit_length() - 1
                    to_visit ^= low
                    control_count += 1
                    per_node[v] += 1
                    sends.setdefault(u, []).append((v, _TAG_JOIN, 0))
                self.flood_pending[v] = False
            ack_target = self.pending_ack[v]
            if ack_target >= 0 and (neighbors >> ack_target) & 1:
                control_count += 1
                per_node[v] += 1
                sends.setdefault(ack_target, []).append((v, _TAG_PARENT, 0))
                self.pending_ack[v] = -1

            # 2. Convergecast one token per round toward the parent.
            parent_of_v = parent[v]
            if (
                v != root
                and parent_of_v >= 0
                and (neighbors >> parent_of_v) & 1
                and self.up_queue[v]
            ):
                token_bit_index = self.up_queue[v].popleft()
                token_count += 1
                per_node[v] += 1
                sends.setdefault(parent_of_v, []).append(
                    (v, _TAG_TOKEN, token_bit_index)
                )

            # 3. Pipeline the distribution list down to each child.
            distribute = self.distribute[v]
            progress_map = self.down_progress[v]
            for child in self.children[v]:
                if not (neighbors >> child) & 1:
                    continue
                progress = progress_map.get(child, 0)
                if progress < len(distribute):
                    token_count += 1
                    per_node[v] += 1
                    sends.setdefault(child, []).append(
                        (v, _TAG_TOKEN, distribute[progress])
                    )
                    progress_map[child] = progress + 1

            # Flush in ascending-receiver order (the kernel's delivery order);
            # since senders are visited ascending, each receiver's box ends up
            # in the exchange-program inbox order.
            for u in sorted(sends):
                box = deliveries[u]
                if box is None:
                    box = deliveries[u] = []
                box.extend(sends[u])
                if records is not None:
                    sender = nodes[v]
                    receiver = nodes[u]
                    for _, tag, value in sends[u]:
                        records.append(
                            SentRecord(
                                sender=sender,
                                receiver=receiver,
                                payload=self._payload_for(tag, value),
                            )
                        )

        learn_index = self.state.learn_index
        for u in range(n):
            box = deliveries[u]
            if not box:
                continue
            for sender, tag, value in box:
                if tag == _TAG_TOKEN:
                    learn_index(u, value)
                    if sender == parent[u]:
                        # Downward traffic: forward to all children.
                        self._add_to_distribution(u, value)
                    elif u == root:
                        self._add_to_distribution(u, value)
                    else:
                        self.up_queue[u].append(value)
                elif tag == _TAG_JOIN:
                    if parent[u] == -1:
                        parent[u] = sender
                        self.pending_ack[u] = sender
                        self.flood_pending[u] = True
                else:  # _TAG_PARENT
                    if sender not in self.children_seen[u]:
                        self.children_seen[u].add(sender)
                        self.children[u].append(sender)

        accounting = self.accounting
        accounting.count_bulk(_KIND_TOKEN, token_count)
        accounting.count_bulk(_KIND_CONTROL, control_count)
        if records is not None:
            self.store_sent_records(records)
