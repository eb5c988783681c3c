"""The Oblivious-Multi-Source-Unicast algorithm (Algorithm 2, Section 3.2.2).

Designed for instances with many sources (``s`` large) and ``k = o(n²)``
tokens, under an *oblivious* adversary.  The algorithm knows ``s`` and ``k``
(an explicit input assumption of the paper) and runs in two phases:

* if ``s ≤ n^{2/3} log^{5/3} n`` it simply runs the Multi-Source-Unicast
  algorithm on the original sources;
* otherwise, **phase 1** reduces the number of sources: every node marks
  itself as a *center* with probability ``f/n`` (``f = √n k^{1/4} log^{5/4}
  n``), and every token performs a random walk on the virtual n-regular
  multigraph — with the congestion rule of one token per actual edge per
  round and with high-degree nodes (degree ≥ ``γ = n log n / f``) handing
  tokens directly to neighbouring centers — until it is owned by some
  center;
* **phase 2** runs Multi-Source-Unicast with the centers as sources.

Theorem 3.8: the total message complexity is ``O(n^{5/2} k^{1/4} log^{5/4}
n)``, i.e. ``O(n^{5/2} log^{5/4} n / k^{3/4})`` amortized — subquadratic as
soon as ``k = ω(n^{2/3})`` (Table 1).

Implementation notes (see "Algorithm 2 implementation notes" in README.md):

* the pseudocode's per-token move probability (``1/d(u)``) and the prose
  (``δ_v/n``, i.e. a step on the virtual n-regular multigraph) differ; we
  follow the prose, which is what the analysis via Lemma 3.7 uses;
* the asymptotic phase-1 round budget ``ℓ`` is astronomically large at
  laptop scale, so phase 1 ends as soon as every token reached a center
  (or after ``phase1_round_limit`` rounds, in which case the current holder
  of each leftover token is promoted to a center — a correctness-preserving
  safeguard that never triggers in the benchmark configurations);
* whether a neighbour is a center is global knowledge in the simulation (in
  the paper centers can announce themselves in one extra bit piggy-backed on
  the first message, which does not change any asymptotic count).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.algorithms.multi_source import (
    _KIND_TOKEN,
    MultiSourceUnicastAlgorithm,
    _MultiSourceFastProgram,
)
from repro.algorithms.random_walks import (
    RandomWalkDisseminator,
    default_num_centers,
    phase_one_round_budget,
    source_count_threshold,
)
from repro.core.messages import Payload, ReceivedMessage, TokenMessage
from repro.core.observation import SentRecord
from repro.core.rounds import FastRoundProgram
from repro.core.state import bit_indices, edge_id
from repro.core.tokens import Token
from repro.utils.ids import NodeId
from repro.utils.validation import ConfigurationError, require_positive_int


class ObliviousMultiSourceAlgorithm(MultiSourceUnicastAlgorithm):
    """Algorithm 2: random-walk source reduction + Multi-Source-Unicast."""

    name = "oblivious-multi-source-unicast"

    def __init__(
        self,
        *,
        center_probability: Optional[float] = None,
        degree_threshold: Optional[float] = None,
        phase1_round_limit: Optional[int] = None,
        force_two_phase: Optional[bool] = None,
    ) -> None:
        super().__init__()
        if center_probability is not None and not 0.0 < center_probability <= 1.0:
            raise ConfigurationError("center_probability must lie in (0, 1]")
        if degree_threshold is not None and degree_threshold <= 0:
            raise ConfigurationError("degree_threshold must be positive")
        if phase1_round_limit is not None:
            require_positive_int(phase1_round_limit, "phase1_round_limit")
        self._center_probability_override = center_probability
        self._degree_threshold_override = degree_threshold
        self._phase1_round_limit_override = phase1_round_limit
        self._force_two_phase = force_two_phase
        self._phase = 2
        self._walker: Optional[RandomWalkDisseminator] = None
        self._centers: FrozenSet[NodeId] = frozenset()
        self._phase1_rounds = 0
        self._phase1_round_limit = 0
        self._phase1_messages = 0

    # -- setup -----------------------------------------------------------------------

    def on_setup(self) -> None:
        super().on_setup()
        n = self.problem.num_nodes
        k = self.problem.num_tokens
        s = self.problem.num_sources
        use_two_phase = (
            self._force_two_phase
            if self._force_two_phase is not None
            else s > source_count_threshold(n)
        )
        self._phase1_rounds = 0
        self._phase1_messages = 0
        self._centers = frozenset()
        if not use_two_phase or n < 2:
            self._phase = 2
            self._walker = None
            return

        self._phase = 1
        probability = self._center_probability_override
        if probability is None:
            probability = min(1.0, default_num_centers(n, k) / n)
        centers = {node for node in self.nodes if self.rng.random() < probability}
        if not centers:
            centers = {self.rng.choice(list(self.nodes))}
        self._centers = frozenset(centers)
        # The high-degree threshold is γ = n·log n / f (a high-degree node has
        # a neighbouring center w.h.p.).  Derive it from the *actual* expected
        # number of centers so that overriding center_probability keeps the
        # two parameters consistent.
        if self._degree_threshold_override is not None:
            threshold = self._degree_threshold_override
        else:
            expected_centers = max(probability * n, 1.0)
            threshold = max(1.0, n * math.log2(max(n, 2)) / expected_centers)
        # The asymptotic phase-1 budget ℓ is astronomically large at laptop
        # scale; cap it so the force-delivery safeguard (promote the current
        # holder to a center) always fires well before the engine round limit.
        self._phase1_round_limit = (
            self._phase1_round_limit_override
            if self._phase1_round_limit_override is not None
            else min(phase_one_round_budget(n, k), 4 * n * k + 8 * n)
        )
        positions: Dict[Token, NodeId] = {}
        for node in self.nodes:
            for token in self.problem.initial_knowledge[node]:
                # Each token starts its walk at (one of) its initial holder(s).
                positions.setdefault(token, node)
        self._walker = RandomWalkDisseminator(
            nodes=self.nodes,
            centers=centers,
            token_positions=positions,
            degree_threshold=threshold,
            rng=self.rng,
        )
        if self._walker.all_delivered():
            self._start_phase_two()

    # -- phase transition ---------------------------------------------------------------

    def _start_phase_two(self) -> None:
        if self._walker is None:
            raise ConfigurationError("phase transition without a phase-1 walker")
        self._enter_phase_two(self._walker.force_delivery_in_place())

    def _enter_phase_two(self, ownership: Mapping[NodeId, Sequence[Token]]) -> None:
        """End phase 1 with ``ownership``, each token's owner after forced delivery.

        An owner is either a center the token walked to or the token's
        current holder, which forced delivery promotes to a center.  The
        owners become the catalog sources of phase 2.
        """
        self._centers = self._centers | frozenset(ownership)
        self.configure_catalog({owner: tuple(tokens) for owner, tokens in ownership.items()})
        self._phase = 2

    # -- engine interface ----------------------------------------------------------------

    @property
    def phase(self) -> int:
        """The currently running phase (1 = random walks, 2 = multi-source)."""
        return self._phase

    @property
    def centers(self) -> Tuple[NodeId, ...]:
        """The centers chosen in phase 1 (empty if phase 1 was skipped)."""
        return tuple(sorted(self._centers))

    @property
    def phase1_rounds(self) -> int:
        """Rounds spent in phase 1."""
        return self._phase1_rounds

    @property
    def phase1_messages(self) -> int:
        """Token messages sent over actual edges during phase 1."""
        return self._phase1_messages

    def select_messages(
        self, round_index: int, neighbors: Mapping[NodeId, FrozenSet[NodeId]]
    ) -> Dict[NodeId, Dict[NodeId, List[Payload]]]:
        if self._phase == 1:
            return self._select_phase_one(neighbors)
        return super().select_messages(round_index, neighbors)

    def _select_phase_one(
        self, neighbors: Mapping[NodeId, FrozenSet[NodeId]]
    ) -> Dict[NodeId, Dict[NodeId, List[Payload]]]:
        assert self._walker is not None
        self._phase1_rounds += 1
        steps = self._walker.plan_round(neighbors)
        sends: Dict[NodeId, Dict[NodeId, List[Payload]]] = {}
        for step in steps:
            sends.setdefault(step.sender, {}).setdefault(step.receiver, []).append(
                TokenMessage(step.token)
            )
            self._walker.apply_step(step)
            self._phase1_messages += 1
        return sends

    def receive_messages(
        self, round_index: int, inbox: Mapping[NodeId, List[ReceivedMessage]]
    ) -> None:
        if self._phase == 1:
            for node, messages in inbox.items():
                for message in messages:
                    if isinstance(message.payload, TokenMessage):
                        learned = self.learn(node, message.payload.token)
                        if learned:
                            self.record_token_over_edge(node, message.sender, round_index)
            assert self._walker is not None
            if self._walker.all_delivered() or self._phase1_rounds >= self._phase1_round_limit:
                self._start_phase_two()
            return
        super().receive_messages(round_index, inbox)

    def observation_extra(self) -> Dict[str, object]:
        extra = super().observation_extra()
        extra["phase"] = self._phase
        extra["centers"] = self.centers
        return extra

    def fast_program_factory(self) -> Optional[Callable]:
        if type(self) is not ObliviousMultiSourceAlgorithm:
            return None
        return lambda kernel: _ObliviousTwoPhaseFastProgram(kernel, self)


class _ObliviousTwoPhaseFastProgram(FastRoundProgram):
    """Algorithm 2 on bitmask state, both phases.

    :meth:`setup` runs the algorithm's own setup, so the centers come from
    the same rng draws, and then converts the walker's state once: the
    tokens at each node become one list of token bit indices (in holdings
    order) and the centers one node mask.  Each phase-1 round replays
    :meth:`~repro.algorithms.random_walks.RandomWalkDisseminator.plan_round`
    draw for draw on the adjacency masks, applies the steps in plan order
    (receivers append to their holdings, which later rounds depend on) and
    delivers them in receiver-then-sender order, as the exchange path does.
    The phase-1 counters stay current on the algorithm, and the phase
    transition is the algorithm's own
    (:meth:`ObliviousMultiSourceAlgorithm._enter_phase_two`).  From then on
    every round runs on an inner :class:`_MultiSourceFastProgram` over the
    center catalog, which shares this program's per-edge history.
    Executions that skip phase 1 run the inner program from round 1.
    """

    track_edge_history = True

    def __init__(self, kernel, algorithm) -> None:
        super().__init__(kernel, algorithm)
        self._inner: Optional[_MultiSourceFastProgram] = None

    def setup(self) -> None:
        kernel = self.kernel
        algorithm = self.algorithm
        self._inner = None
        algorithm.setup(kernel.problem, kernel.algorithm_rng, state=kernel.state)
        if algorithm.phase == 2:
            self._activate_inner()
            return
        walker = algorithm._walker
        token_index = self.token_index
        index_of = self.index_of
        #: The tokens at each node as bit indices, in holdings order: the
        #: walking tokens of a non-center, the tokens a center owns.
        self._holdings: List[List[int]] = [
            [token_index[token] for token in walker.tokens_at(node)]
            for node in self.nodes
        ]
        self._walking = sum(len(held) for held in self._holdings)
        for center, owned in walker.ownership().items():
            self._holdings[index_of[center]].extend(token_index[token] for token in owned)
        self._centers_mask = sum(1 << index_of[center] for center in walker.centers)
        self._threshold = walker.degree_threshold

    def _activate_inner(self) -> None:
        algorithm = self.algorithm
        catalog = {
            source: algorithm.catalog_of(source)
            for source in algorithm.catalog_sources()
        }
        inner = _MultiSourceFastProgram(self.kernel, algorithm, catalog=catalog)
        # One per-edge history for both programs: the delivery stage keeps
        # updating this program's dicts, and the inner program reads and
        # extends them.
        inner.edge_inserted = self.edge_inserted
        inner.edge_token_round = self.edge_token_round
        inner.setup()
        self._inner = inner

    def deliver(self, round_index: int, commitment) -> None:
        inner = self._inner
        if inner is not None:
            inner.deliver(round_index, commitment)
            self._sent_records = inner._sent_records
            return
        self._walk(round_index)

    def _walk(self, round_index: int) -> None:
        """One phase-1 round: ``plan_round``, ``apply_step`` and the
        exchange path's delivery, on bits."""
        algorithm = self.algorithm
        algorithm._phase1_rounds += 1
        n = self.n
        adj = self.adj
        holdings = self._holdings
        centers = self._centers_mask
        threshold = self._threshold
        rng = algorithm.rng
        random = rng.random
        choice = rng.choice
        # (sender, receiver, token bit) in plan order: ascending senders.
        steps: List[Tuple[int, int, int]] = []
        for v in range(n):
            held = holdings[v]
            if not held or (centers >> v) & 1:
                continue
            mask = adj[v]
            if not mask:
                continue
            degree = mask.bit_count()
            if degree >= threshold:
                # High-degree hand-off: one token to each neighbouring center.
                for u, token in zip(bit_indices(mask & centers), held):
                    steps.append((v, u, token))
                continue
            # A step on the virtual n-regular multigraph; ascending indices
            # give rng.choice the reference's sorted neighbour list.
            neighbors = bit_indices(mask)
            used = 0
            for token in held:
                if random() >= degree / n:
                    continue  # virtual self-loop: the token stays put
                u = choice(neighbors)
                if (used >> u) & 1:
                    continue  # congestion: one token per actual edge per round
                used |= 1 << u
                steps.append((v, u, token))

        for v, u, token in steps:
            holdings[v].remove(token)
            holdings[u].append(token)
            if (centers >> u) & 1:
                self._walking -= 1

        if steps:
            per_node = self.per_node
            for v, _, _ in steps:
                per_node[v] += 1
            self.accounting.count_bulk(_KIND_TOKEN, len(steps))
            algorithm._phase1_messages += len(steps)
            learn_index = self.state.learn_index
            edge_token_round = self.edge_token_round
            for u, v, token in sorted((u, v, token) for v, u, token in steps):
                if learn_index(u, token):
                    edge_token_round[edge_id(u, v, n)] = round_index
        if self.kernel.observe_messages:
            nodes = self.nodes
            tokens = self.tokens
            self.store_sent_records(
                [
                    SentRecord(
                        sender=nodes[v],
                        receiver=nodes[u],
                        payload=TokenMessage(tokens[token]),
                    )
                    for v, u, token in sorted(steps)
                ]
            )
        if self._walking == 0 or algorithm._phase1_rounds >= algorithm._phase1_round_limit:
            self._finish_phase_one()

    def _finish_phase_one(self) -> None:
        """Hand the tokens' places to the algorithm's phase transition: each
        node owns the tokens it holds (forced delivery, at a non-center)."""
        nodes = self.nodes
        tokens = self.tokens
        self.algorithm._enter_phase_two(
            {
                nodes[v]: [tokens[token] for token in sorted(held)]
                for v, held in enumerate(self._holdings)
                if held
            }
        )
        self._activate_inner()

    def observation_extra(self) -> Dict[str, object]:
        algorithm = self.algorithm
        inner = self._inner
        if inner is not None:
            extra = inner.observation_extra()
            extra["phase"] = 2
        else:
            # Phase 1 keeps the problem's own catalog.
            sources = algorithm.catalog_sources()
            token_index = self.token_index
            masks = [
                sum(1 << token_index[token] for token in algorithm.catalog_of(source))
                for source in sources
            ]
            extra = algorithm._mask_extra(self.nodes, sources, masks, self.state.know)
            extra["phase"] = 1
        extra["centers"] = algorithm.centers
        return extra
