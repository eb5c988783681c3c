"""Random-walk machinery for the oblivious-adversary algorithm (Section 3.2.2).

Phase 1 of Algorithm 2 lets every token perform a random walk on a *virtual
n-regular multigraph*: in every round each node pads its actual degree ``δ``
up to ``n`` with self-loops, so a walk at a low-degree node leaves over an
actual edge only with probability ``δ/n`` (and then over a uniformly random
adjacent edge), otherwise it stays put.  Steps over self-loops cost no
messages; steps over actual edges cost one token message each.  Nodes whose
actual degree exceeds the threshold ``γ`` hand tokens directly to their
neighbouring centers (with high probability a high-degree node has one).
Congestion: each node sends at most one walking token over any given actual
edge per round; tokens that cannot move are *passive* for the round.

:class:`RandomWalkDisseminator` encapsulates this per-round behaviour so it
can be unit-tested in isolation and reused by
:class:`~repro.algorithms.oblivious_multi_source.ObliviousMultiSourceAlgorithm`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.tokens import Token
from repro.utils.ids import NodeId
from repro.utils.validation import ConfigurationError


@dataclass(frozen=True)
class WalkStep:
    """A single planned token transfer over an actual edge."""

    token: Token
    sender: NodeId
    receiver: NodeId


class RandomWalkDisseminator:
    """Tracks walking tokens and plans their per-round moves.

    Args:
        nodes: the node set.
        centers: the sampled center nodes (tokens stop when they reach one).
        token_positions: initial position of every walking token.
        degree_threshold: the high/low-degree cut-off ``γ``; nodes with degree
            at least ``γ`` deliver tokens directly to neighbouring centers.
        rng: the random generator driving the walks.
    """

    def __init__(
        self,
        nodes: Iterable[NodeId],
        centers: Iterable[NodeId],
        token_positions: Mapping[Token, NodeId],
        degree_threshold: float,
        rng: random.Random,
    ) -> None:
        self._nodes = tuple(sorted(nodes))
        node_set = set(self._nodes)
        self._centers = frozenset(centers)
        if not self._centers:
            raise ConfigurationError("at least one center is required")
        if not self._centers <= node_set:
            raise ConfigurationError("centers must be nodes")
        if degree_threshold <= 0:
            raise ConfigurationError("degree_threshold must be positive")
        self._degree_threshold = degree_threshold
        self._rng = rng
        self._positions: Dict[Token, NodeId] = {}
        self._owner: Dict[Token, Optional[NodeId]] = {}
        self._holdings: Dict[NodeId, List[Token]] = {node: [] for node in self._nodes}
        self._actual_steps = 0
        for token, position in token_positions.items():
            if position not in node_set:
                raise ConfigurationError(f"token {token} placed at unknown node {position}")
            self._positions[token] = position
            if position in self._centers:
                self._owner[token] = position
            else:
                self._owner[token] = None
                self._holdings[position].append(token)

    # -- state accessors ------------------------------------------------------------

    @property
    def centers(self) -> FrozenSet[NodeId]:
        """The center nodes."""
        return self._centers

    @property
    def degree_threshold(self) -> float:
        """The high-degree threshold ``γ``."""
        return self._degree_threshold

    def position_of(self, token: Token) -> NodeId:
        """Current position of a walking (or delivered) token."""
        return self._positions[token]

    def owner_of(self, token: Token) -> Optional[NodeId]:
        """The center owning the token, or ``None`` while it is still walking."""
        return self._owner[token]

    def walking_tokens(self) -> List[Token]:
        """Tokens that have not reached a center yet."""
        return sorted(token for token, owner in self._owner.items() if owner is None)

    def tokens_at(self, node: NodeId) -> List[Token]:
        """The walking tokens currently held by ``node``."""
        return list(self._holdings[node])

    def all_delivered(self) -> bool:
        """True when every token has reached a center."""
        return all(owner is not None for owner in self._owner.values())

    def ownership(self) -> Dict[NodeId, List[Token]]:
        """Tokens per owning center (only delivered tokens)."""
        owned: Dict[NodeId, List[Token]] = {}
        for token, owner in self._owner.items():
            if owner is not None:
                owned.setdefault(owner, []).append(token)
        for owner in owned:
            owned[owner].sort()
        return owned

    @property
    def actual_steps(self) -> int:
        """Number of token transfers over actual edges performed so far."""
        return self._actual_steps

    # -- per-round planning ------------------------------------------------------------

    def plan_round(self, neighbors: Mapping[NodeId, FrozenSet[NodeId]]) -> List[WalkStep]:
        """Plan the token moves of one round given the round's adjacency.

        High-degree nodes hand one token to each neighbouring center; tokens at
        low-degree nodes take a virtual-multigraph step (move over a random
        actual edge with probability ``δ/n``) subject to the one-token-per-edge
        congestion constraint.  The planned steps must then be applied via
        :meth:`apply_step` once the corresponding messages are delivered.
        """
        n = len(self._nodes)
        steps: List[WalkStep] = []
        for node in self._nodes:
            tokens = self._holdings[node]
            if not tokens:
                continue
            current_neighbors = sorted(neighbors.get(node, frozenset()))
            degree = len(current_neighbors)
            if degree == 0:
                continue
            if degree >= self._degree_threshold:
                neighbor_centers = [w for w in current_neighbors if w in self._centers]
                for center, token in zip(neighbor_centers, list(tokens)):
                    steps.append(WalkStep(token=token, sender=node, receiver=center))
            else:
                used_edges: Set[NodeId] = set()
                for token in list(tokens):
                    if self._rng.random() >= degree / n:
                        continue  # virtual self-loop: the token stays put
                    target = self._rng.choice(current_neighbors)
                    if target in used_edges:
                        continue  # congestion: one token per actual edge per round
                    used_edges.add(target)
                    steps.append(WalkStep(token=token, sender=node, receiver=target))
        return steps

    def apply_step(self, step: WalkStep) -> None:
        """Commit a planned step: move the token (and stop it at a center)."""
        token = step.token
        if self._owner[token] is not None:
            raise ConfigurationError(f"token {token} has already been delivered")
        if self._positions[token] != step.sender:
            raise ConfigurationError(
                f"token {token} is at {self._positions[token]}, not at sender {step.sender}"
            )
        self._holdings[step.sender].remove(token)
        self._positions[token] = step.receiver
        self._actual_steps += 1
        if step.receiver in self._centers:
            self._owner[token] = step.receiver
        else:
            self._holdings[step.receiver].append(token)

    def force_delivery_in_place(self) -> Dict[NodeId, List[Token]]:
        """Promote the current holder of every still-walking token to a center.

        Simulation safeguard used when a round budget expires before all
        tokens reach a center; it guarantees phase 2 starts from a valid
        source assignment (see "Algorithm 2 implementation notes" in
        README.md).  Returns the ownership map after promotion.
        """
        for token, owner in list(self._owner.items()):
            if owner is None:
                position = self._positions[token]
                self._centers = frozenset(self._centers | {position})
                self._owner[token] = position
                if token in self._holdings[position]:
                    self._holdings[position].remove(token)
        return self.ownership()


def default_degree_threshold(num_nodes: int, num_tokens: int) -> float:
    """The high-degree threshold ``γ = √n · (k log n)^{-1/4}`` of Algorithm 2."""
    if num_nodes < 1 or num_tokens < 1:
        raise ConfigurationError("num_nodes and num_tokens must be positive")
    log_n = max(math.log2(max(num_nodes, 2)), 1.0)
    return max(1.0, math.sqrt(num_nodes) * (num_tokens * log_n) ** -0.25)


def default_num_centers(num_nodes: int, num_tokens: int) -> float:
    """The center count ``f = √n · k^{1/4} · log^{5/4} n`` of Algorithm 2."""
    if num_nodes < 1 or num_tokens < 1:
        raise ConfigurationError("num_nodes and num_tokens must be positive")
    log_n = max(math.log2(max(num_nodes, 2)), 1.0)
    return math.sqrt(num_nodes) * num_tokens**0.25 * log_n**1.25


def phase_one_round_budget(num_nodes: int, num_tokens: int) -> int:
    """The phase-1 round budget ``ℓ = k^{1/4} · n^{5/2} · log^{9/4} n`` of Algorithm 2."""
    if num_nodes < 1 or num_tokens < 1:
        raise ConfigurationError("num_nodes and num_tokens must be positive")
    log_n = max(math.log2(max(num_nodes, 2)), 1.0)
    return int(math.ceil(num_tokens**0.25 * num_nodes**2.5 * log_n**2.25))


def source_count_threshold(num_nodes: int) -> float:
    """The phase selector threshold ``n^{2/3} · log^{5/3} n`` of Algorithm 2."""
    if num_nodes < 1:
        raise ConfigurationError("num_nodes must be positive")
    log_n = max(math.log2(max(num_nodes, 2)), 1.0)
    return num_nodes ** (2.0 / 3.0) * log_n ** (5.0 / 3.0)
