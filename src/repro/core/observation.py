"""Observations handed to adaptive adversaries.

The strongly adaptive adversary of the paper chooses the round graph with
full knowledge of the algorithm's state, including the messages nodes are
about to send and their random choices (Section 1.3).  The engine exposes
this information through a :class:`RoundObservation`:

* in the **local broadcast** model the observation is built *after* the nodes
  have committed to their broadcast payloads for the round but *before* the
  graph is fixed (matching the lower-bound model of Section 2);
* in the **unicast** model neighbourhood information is available to nodes at
  the start of the round, so the adversary fixes the graph first; it observes
  the complete node state (knowledge sets and the messages of the previous
  round) when doing so.

Oblivious adversaries never receive an observation (the engine passes
``None``), which enforces obliviousness structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.core.messages import Payload
from repro.core.tokens import Token
from repro.utils.ids import NodeId


@dataclass(frozen=True, slots=True)
class SentRecord:
    """A message sent in a previous round: (sender, receiver, payload).

    For local broadcasts ``receiver`` is ``None``.
    """

    sender: NodeId
    receiver: Optional[NodeId]
    payload: Payload


@dataclass(frozen=True, slots=True)
class RoundObservation:
    """Everything a strongly adaptive adversary may inspect for the current round.

    Attributes:
        round_index: the 1-indexed round about to be played.
        knowledge: current token knowledge ``K_v(r-1)`` of every node.
        broadcast_payloads: in the local broadcast model, the payload each
            node has committed to broadcast this round (``None`` entries mean
            the node stays silent).  Empty in the unicast model.
        previous_messages: the messages sent in the previous round.
        algorithm_name: the name of the running algorithm.
        extra: free-form additional state exposed by the algorithm (e.g. the
            set of complete nodes for the unicast algorithms).
        knowledge_counts: the number of tokens each node knows,
            ``|K_v(r-1)|``.  Cheaper to materialize than the full knowledge
            sets; adversaries that only rank nodes by how much they know
            (e.g. star-recenter) declare this field instead of ``knowledge``.
            May be empty when the observation was built for an adversary
            that did not request it — fall back to ``len(knowledge[v])``.
        knowledge_masks: ``K_v(r-1)`` of every node as a token bitmask, one
            int per node in node-index order (the sorted node set); bit
            ``i`` is the ``i``-th smallest token, the index layer of
            :class:`~repro.core.state.KnowledgeState`.  Adversaries that
            test or compare knowledge (lower-bound, adaptive-rewiring)
            declare this field instead of ``knowledge``.  Empty when the
            observation was built without it (for example by hand);
            :meth:`~repro.adversaries.base.Adversary.knowledge_masks` then
            derives the masks from ``knowledge``.
    """

    round_index: int
    knowledge: Mapping[NodeId, FrozenSet[Token]]
    broadcast_payloads: Mapping[NodeId, Optional[Payload]] = field(default_factory=dict)
    previous_messages: Tuple[SentRecord, ...] = ()
    algorithm_name: str = ""
    extra: Mapping[str, object] = field(default_factory=dict)
    knowledge_counts: Mapping[NodeId, int] = field(default_factory=dict)
    knowledge_masks: Tuple[int, ...] = ()

    def broadcasting_nodes(self) -> List[NodeId]:
        """The nodes that will broadcast a payload this round (local broadcast model)."""
        return sorted(
            node for node, payload in self.broadcast_payloads.items() if payload is not None
        )
