"""Reference equivalence of Algorithm 1 run as Multi-Source-Unicast.

:class:`~repro.algorithms.single_source.SingleSourceUnicastAlgorithm` is
the Multi-Source-Unicast algorithm with one source, on the exchange path and
on the bitset program alike.  This module keeps Algorithm 1's own object
formulation — the complete node's announce-or-answer loop, the incomplete
node's requests over known-complete edges, and its R_v / S_v / request
bookkeeping — as a test-local reference, and checks on seeded specs that the
merged class matches it field for field on both backends, including the
``extra`` and the sent messages an adaptive adversary is handed.  Seeded
multi-source specs pin the same observations on the bitset program with
several sources, where one sender can both announce to and answer one
receiver in a round.
"""

import dataclasses
import random
from typing import NamedTuple

import pytest

from repro.algorithms.base import UnicastAlgorithm
from repro.algorithms.single_source import SingleSourceUnicastAlgorithm
from repro.backends import get_backend
from repro.backends.differential import diff_results
from repro.core.messages import CompletenessMessage, RequestMessage, TokenMessage
from repro.core.problem import multi_source_problem, single_source_problem
from repro.scenarios import ADVERSARY_REGISTRY, ScenarioSpec
from repro.scenarios.runner import materialize, repetition_seed
from repro.utils.validation import ConfigurationError
from tests.conftest import adversary_params_for

# ---------------------------------------------------------------------------
# Algorithm 1's object formulation
# ---------------------------------------------------------------------------


class ReferenceSingleSourceUnicast(UnicastAlgorithm):
    """Algorithm 1 with its own announce/request bookkeeping."""

    name = "single-source-unicast"

    def on_setup(self):
        sources = self.problem.sources
        if len(sources) != 1:
            raise ConfigurationError(
                "SingleSourceUnicastAlgorithm requires a single-source problem; "
                f"got {len(sources)} sources (use MultiSourceUnicastAlgorithm instead)"
            )
        self.source = sources[0]
        if self.problem.initial_knowledge[self.source] != frozenset(self.problem.tokens):
            raise ConfigurationError("the source node must initially hold all k tokens")
        # R_v, S_v, requests to answer this round, requests sent last round.
        self.informed = {node: set() for node in self.nodes}
        self.known_complete = {node: set() for node in self.nodes}
        self.to_answer = {node: {} for node in self.nodes}
        self.sent_previous = {node: {} for node in self.nodes}
        self.sent_current = {node: {} for node in self.nodes}

    def prioritized_complete_edges(self, node, neighbors, round_index):
        complete = sorted(n for n in neighbors if n in self.known_complete[node])
        return (
            [n for n in complete if self.is_new_edge(node, n, round_index)]
            + [n for n in complete if self.is_idle_edge(node, n, round_index)]
            + [n for n in complete if self.is_contributive_edge(node, n, round_index)]
        )

    def select_messages(self, round_index, neighbors):
        sends = {}
        self.sent_current = {node: {} for node in self.nodes}

        def out(sender, receiver, payload):
            sends.setdefault(sender, {}).setdefault(receiver, []).append(payload)

        for node in self.nodes:
            current = neighbors.get(node, frozenset())
            if self.is_node_complete(node):
                for neighbor in sorted(current):
                    if neighbor not in self.informed[node]:
                        out(node, neighbor, CompletenessMessage(source=self.source))
                        self.informed[node].add(neighbor)
                    elif neighbor in self.to_answer[node]:
                        out(node, neighbor, TokenMessage(self.to_answer[node][neighbor]))
                self.to_answer[node] = {}
                continue
            pending = {
                token
                for neighbor, token in self.sent_previous[node].items()
                if neighbor in current
            }
            missing = [t for t in self.missing_tokens(node) if t not in pending]
            targets = self.prioritized_complete_edges(node, current, round_index)
            for neighbor, token in zip(targets, missing):
                out(node, neighbor, RequestMessage(source=token.source, index=token.index))
                self.sent_current[node][neighbor] = token
        return sends

    def receive_messages(self, round_index, inbox):
        for node, messages in inbox.items():
            for message in messages:
                payload = message.payload
                if isinstance(payload, CompletenessMessage):
                    self.known_complete[node].add(message.sender)
                elif isinstance(payload, TokenMessage):
                    if self.learn(node, payload.token):
                        self.record_token_over_edge(node, message.sender, round_index)
                elif isinstance(payload, RequestMessage):
                    self.to_answer[node][message.sender] = payload.token
        self.sent_previous = self.sent_current

    def observation_extra(self):
        return {
            "complete_nodes": tuple(n for n in self.nodes if self.is_node_complete(n)),
            "source": self.source,
        }


# ---------------------------------------------------------------------------
# Seeded specs and recorded runs
# ---------------------------------------------------------------------------

#: The adaptive adversaries, registered as their classes.
ADAPTIVE = ("request-cutting", "star-recenter", "adaptive-rewiring")

#: The adversaries the Algorithm-1 specs are drawn over.
ADVERSARIES = (
    "churn",
    "static-random",
    "path-shuffle",
    "star-oscillator",
    "rewiring-regular",
    "edge-markovian",
) + ADAPTIVE


class Recorder:
    """Adversary mixin: log the ``extra`` and the sent messages of each
    observation."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def edges_for_round(self, round_index, observation):
        if observation is not None:
            self.seen.append((observation.extra, observation.previous_messages))
        return super().edges_for_round(round_index, observation)


def recorded_adversary(spec):
    """The spec's adversary; an adaptive one also logs what it observes in
    ``seen``."""
    entry = ADVERSARY_REGISTRY.get(spec.adversary)
    if spec.adversary not in ADAPTIVE:
        adversary = entry.create(**spec.adversary_params)
        adversary.seen = []
        return adversary
    fields = entry.factory.observed_fields
    if fields is not None:
        fields = fields | {"extra", "previous_messages"}
    factory = type(
        entry.factory.__name__,
        (Recorder, entry.factory),
        {"observed_fields": fields},
    )
    return dataclasses.replace(entry, factory=factory).create(**spec.adversary_params)


def single_source_spec(rng):
    """One seeded Algorithm-1 spec: n in [2, 18], k in [1, 40], any of the
    adversaries above, round caps none, 7 or 40."""
    num_nodes = rng.randint(2, 18)
    adversary = rng.choice(ADVERSARIES)
    adversary_params = adversary_params_for(adversary, num_nodes)
    if adversary_params:
        adversary_params["seed"] = rng.randrange(1000)
    return ScenarioSpec(
        problem="single-source",
        problem_params={"num_nodes": num_nodes, "num_tokens": rng.randint(1, 40)},
        algorithm="single-source",
        adversary=adversary,
        adversary_params=adversary_params,
        seed=rng.randrange(2**31),
        repetitions=2,
        max_rounds=rng.choice((None, 7, 40)),
    )


def multi_source_spec(rng):
    """One seeded Multi-Source-Unicast spec with s >= 2 under request cutting."""
    num_nodes = rng.randint(3, 18)
    num_tokens = rng.randint(2, 40)
    return ScenarioSpec(
        problem="multi-source",
        problem_params={
            "num_nodes": num_nodes,
            "num_tokens": num_tokens,
            "num_sources": rng.randint(2, min(num_nodes, num_tokens)),
        },
        algorithm="multi-source",
        adversary="request-cutting",
        adversary_params={"cut_fraction": rng.choice((0.3, 0.7, 1.0))},
        seed=rng.randrange(2**31),
        repetitions=2,
        max_rounds=rng.choice((None, 7, 40)),
    )


class Run(NamedTuple):
    result: object
    seen: list
    algorithm: object


def run_recorded(spec, repetition, backend, algorithm=None):
    """One repetition of ``spec`` (with ``algorithm`` in place of the spec's
    own, if given) and what its adversary observed."""
    scenario = materialize(spec)
    algorithm = algorithm if algorithm is not None else scenario.algorithm
    adversary = recorded_adversary(spec)
    result = get_backend(backend).run(
        scenario.problem,
        algorithm,
        adversary,
        seed=repetition_seed(spec, repetition),
        max_rounds=spec.max_rounds,
    )
    return Run(result, adversary.seen, algorithm)


def assert_same_run(reference, candidate, context):
    differences = diff_results(reference.result, candidate.result)
    assert not differences, (context, [d.describe() for d in differences])
    assert candidate.seen == reference.seen, context


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestAlgorithmOneMatchesReference:
    def test_randomized_specs_match_on_both_backends(self):
        # An uncapped run that never completes (request cutting and star
        # recentring can stall Algorithm 1, whose round bound needs
        # 3-edge-stable graphs) plays 10nk + 10n + 100 rounds, three times on
        # the object path; this seed's draws finish in a few seconds.
        rng = random.Random(20261027)
        adaptive_runs = 0
        for _ in range(40):
            spec = single_source_spec(rng)
            for repetition in range(spec.repetitions):
                context = (spec.to_json(), repetition)
                reference = run_recorded(
                    spec, repetition, "reference", ReferenceSingleSourceUnicast()
                )
                merged = run_recorded(spec, repetition, "reference")
                assert_same_run(reference, merged, context)
                assert_same_run(reference, run_recorded(spec, repetition, "bitset"), context)
                # The object path ends in the reference's state.
                assert merged.algorithm.source == reference.algorithm.source
                assert (
                    merged.algorithm.observation_extra()
                    == reference.algorithm.observation_extra()
                )
                adaptive_runs += bool(reference.seen)
        assert adaptive_runs >= 10


class TestSentRecordOrder:
    def test_multi_source_observations_match_on_bitset(self):
        """With s >= 2 one sender can announce to and answer the same
        receiver in a round: the bitset program must record the two sends
        in the exchange path's task order."""
        rng = random.Random(20261020)
        for _ in range(12):
            spec = multi_source_spec(rng)
            for repetition in range(spec.repetitions):
                reference = run_recorded(spec, repetition, "reference")
                assert reference.seen
                bitset = run_recorded(spec, repetition, "bitset")
                assert_same_run(reference, bitset, (spec.to_json(), repetition))


class TestSetupErrors:
    @pytest.mark.parametrize("backend", ["reference", "bitset"])
    def test_multi_source_problem_is_rejected(self, backend):
        problem = multi_source_problem(6, {0: 1, 3: 2})
        expected = (
            "SingleSourceUnicastAlgorithm requires a single-source problem; "
            "got 2 sources (use MultiSourceUnicastAlgorithm instead)"
        )
        for algorithm in (ReferenceSingleSourceUnicast(), SingleSourceUnicastAlgorithm()):
            adversary = ADVERSARY_REGISTRY.create("churn")
            with pytest.raises(ConfigurationError) as excinfo:
                get_backend(backend).run(problem, algorithm, adversary, seed=1)
            assert str(excinfo.value) == expected

    @pytest.mark.parametrize("backend", ["reference", "bitset"])
    def test_source_must_hold_every_token(self, backend):
        problem = single_source_problem(4, 3)
        # A well-formed problem cannot express this: drop one token from the
        # source after validation.
        knowledge = dict(problem.initial_knowledge)
        knowledge[0] = frozenset(problem.tokens[:2])
        object.__setattr__(problem, "initial_knowledge", knowledge)
        for algorithm in (ReferenceSingleSourceUnicast(), SingleSourceUnicastAlgorithm()):
            adversary = ADVERSARY_REGISTRY.create("churn")
            with pytest.raises(ConfigurationError) as excinfo:
                get_backend(backend).run(problem, algorithm, adversary, seed=1)
            assert str(excinfo.value) == "the source node must initially hold all k tokens"

    def test_subclasses_take_the_exchange_path(self):
        class Subclass(SingleSourceUnicastAlgorithm):
            pass

        assert SingleSourceUnicastAlgorithm().fast_program_factory() is not None
        assert Subclass().fast_program_factory() is None
