"""Simulation core: tokens, messages, problems, metrics and the round engine.

This package implements the synchronous round model of Section 1.3 of the
paper, for both communication modes:

* **local broadcast** — each node sends one message per round that all of its
  neighbours receive; each local broadcast counts as a single message;
* **unicast** — each node may send different messages to different neighbours;
  every message to a neighbour counts separately.

The staged round kernel (:mod:`repro.core.rounds`) drives an algorithm
against an adversary over a dynamic graph — commit, adversary, delivery and
accounting stages over a pluggable :mod:`knowledge state <repro.core.state>`
— records the graph trace, accounts for all messages and token-learning
events, and returns an :class:`~repro.core.result.ExecutionResult`.
:class:`~repro.core.engine.Simulator` is the reference façade over it.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.core.tokens import Token, make_tokens, tokens_by_source
    from repro.core.messages import (
        MessageKind,
        TokenMessage,
        CompletenessMessage,
        RequestMessage,
        ReceivedMessage,
    )
    from repro.core.comm import CommunicationModel
    from repro.core.problem import (
        DisseminationProblem,
        single_source_problem,
        multi_source_problem,
        n_gossip_problem,
        random_assignment_problem,
    )
    from repro.core.events import TokenLearning, EventLog
    from repro.core.metrics import MessageAccountant, MessageStatistics
    from repro.core.observation import RoundObservation
    from repro.core.result import ExecutionResult
    from repro.core.state import (
        BitsetKnowledgeState,
        KnowledgeState,
        MappingKnowledgeState,
    )
    from repro.core.rounds import RoundKernel
    from repro.core.engine import Simulator

__all__ = [
    "Token",
    "make_tokens",
    "tokens_by_source",
    "MessageKind",
    "TokenMessage",
    "CompletenessMessage",
    "RequestMessage",
    "ReceivedMessage",
    "CommunicationModel",
    "DisseminationProblem",
    "single_source_problem",
    "multi_source_problem",
    "n_gossip_problem",
    "random_assignment_problem",
    "TokenLearning",
    "EventLog",
    "MessageAccountant",
    "MessageStatistics",
    "RoundObservation",
    "ExecutionResult",
    "KnowledgeState",
    "MappingKnowledgeState",
    "BitsetKnowledgeState",
    "RoundKernel",
    "Simulator",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.core.tokens": ("Token", "make_tokens", "tokens_by_source"),
        "repro.core.messages": (
            "MessageKind",
            "TokenMessage",
            "CompletenessMessage",
            "RequestMessage",
            "ReceivedMessage",
        ),
        "repro.core.comm": ("CommunicationModel",),
        "repro.core.problem": (
            "DisseminationProblem",
            "single_source_problem",
            "multi_source_problem",
            "n_gossip_problem",
            "random_assignment_problem",
        ),
        "repro.core.events": ("TokenLearning", "EventLog"),
        "repro.core.metrics": ("MessageAccountant", "MessageStatistics"),
        "repro.core.observation": ("RoundObservation",),
        "repro.core.result": ("ExecutionResult",),
        "repro.core.state": (
            "BitsetKnowledgeState",
            "KnowledgeState",
            "MappingKnowledgeState",
        ),
        "repro.core.rounds": ("RoundKernel",),
        "repro.core.engine": ("Simulator",),
    },
)
