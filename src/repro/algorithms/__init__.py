"""Token-forwarding algorithms.

All algorithms follow the token-forwarding restriction of the paper: tokens
are only stored, copied and forwarded, never combined or coded.

Algorithms studied in the paper:

* :class:`~repro.algorithms.flooding.FloodingAlgorithm` — the naive local
  broadcast algorithm (each node broadcasts each token for ``n`` rounds);
  matches the Θ(n²) amortized upper bound of Section 2.
* :class:`~repro.algorithms.single_source.SingleSourceUnicastAlgorithm` —
  Algorithm 1 of Section 3.1, 1-adversary-competitive O(n² + nk) messages.
  It is the Multi-Source-Unicast algorithm with one source (at s = 1 its
  three tasks are Algorithm 1's rules), so it has no round logic of its own.
* :class:`~repro.algorithms.multi_source.MultiSourceUnicastAlgorithm` —
  Section 3.2.1, 1-adversary-competitive O(n²s + nk) messages.
* :class:`~repro.algorithms.oblivious_multi_source.ObliviousMultiSourceAlgorithm`
  — Algorithm 2 of Section 3.2.2, random-walk based, subquadratic amortized
  message complexity under an oblivious adversary.

Baselines:

* :class:`~repro.algorithms.naive_unicast.NaiveUnicastAlgorithm` — each node
  sends each token at most once to each other node (O(n²) amortized).
* :class:`~repro.algorithms.spanning_tree.SpanningTreeAlgorithm` — the static
  baseline from Section 1 (spanning tree construction + pipelining).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.algorithms.base import (
        TokenForwardingAlgorithm,
        LocalBroadcastAlgorithm,
        UnicastAlgorithm,
    )
    from repro.algorithms.flooding import FloodingAlgorithm, OneShotFloodingAlgorithm
    from repro.algorithms.naive_unicast import NaiveUnicastAlgorithm
    from repro.algorithms.spanning_tree import SpanningTreeAlgorithm
    from repro.algorithms.single_source import SingleSourceUnicastAlgorithm
    from repro.algorithms.multi_source import MultiSourceUnicastAlgorithm
    from repro.algorithms.oblivious_multi_source import ObliviousMultiSourceAlgorithm
    from repro.algorithms.random_walks import RandomWalkDisseminator

__all__ = [
    "TokenForwardingAlgorithm",
    "LocalBroadcastAlgorithm",
    "UnicastAlgorithm",
    "FloodingAlgorithm",
    "OneShotFloodingAlgorithm",
    "NaiveUnicastAlgorithm",
    "SpanningTreeAlgorithm",
    "SingleSourceUnicastAlgorithm",
    "MultiSourceUnicastAlgorithm",
    "ObliviousMultiSourceAlgorithm",
    "RandomWalkDisseminator",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.algorithms.base": (
            "TokenForwardingAlgorithm",
            "LocalBroadcastAlgorithm",
            "UnicastAlgorithm",
        ),
        "repro.algorithms.flooding": ("FloodingAlgorithm", "OneShotFloodingAlgorithm"),
        "repro.algorithms.naive_unicast": ("NaiveUnicastAlgorithm",),
        "repro.algorithms.spanning_tree": ("SpanningTreeAlgorithm",),
        "repro.algorithms.single_source": ("SingleSourceUnicastAlgorithm",),
        "repro.algorithms.multi_source": ("MultiSourceUnicastAlgorithm",),
        "repro.algorithms.oblivious_multi_source": ("ObliviousMultiSourceAlgorithm",),
        "repro.algorithms.random_walks": ("RandomWalkDisseminator",),
    },
)
