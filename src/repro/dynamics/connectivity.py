"""Connectivity helpers used by generators, adversaries and the engine.

The dynamic-network model requires every round graph to be connected
(Section 1.3).  These helpers check connectivity, repair disconnected edge
sets by adding a minimal number of connecting edges, and extract spanning
forests (used by the lower-bound adversary to keep round graphs sparse).

Components are computed in one place, :func:`mask_components`, and
spanning forests in one place, :func:`mask_spanning_forest`, both on
per-node adjacency bitmasks.  The tuple-level helpers build those masks
from an edge iterable; the round kernel's adversary stage and the
churn and lower-bound adversaries already keep them and call the mask
routines directly.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.utils.ids import Edge, NodeId, normalize_edge
from repro.utils.rng import ensure_rng


def mask_components(adj: Sequence[int]) -> List[int]:
    """The connected components of a graph given as adjacency bitmasks.

    ``adj[i]`` has bit ``j`` set iff ``{i, j}`` is an edge.  Returns one
    bitmask of member indices per component, ordered by lowest member.
    """
    components: List[int] = []
    remaining = (1 << len(adj)) - 1
    while remaining:
        component = frontier = remaining & -remaining
        while frontier:
            reached = 0
            while frontier:
                low = frontier & -frontier
                reached |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reached & ~component
            component |= frontier
            if component == remaining:
                break
        components.append(component)
        remaining &= ~component
    return components


def mask_spanning_forest(adj: Sequence[int]) -> List[Tuple[int, int]]:
    """A spanning forest of a graph given as adjacency bitmasks.

    Returns the index pairs ``(a, b)``, ``a < b``, that Kruskal keeps when
    it scans the edges in lexicographic order: an edge is kept iff its
    endpoints are not yet joined by the edges kept before it.
    """
    component = [1 << index for index in range(len(adj))]
    forest: List[Tuple[int, int]] = []
    for a, neighbors in enumerate(adj):
        merged = component[a]
        pending = (neighbors >> (a + 1) << (a + 1)) & ~merged
        if not pending:
            continue
        while pending:
            b = (pending & -pending).bit_length() - 1
            forest.append((a, b))
            # Only a's component grows while a's edges are scanned, so the
            # other components' masks stay current until the update below.
            merged |= component[b]
            pending &= ~merged
        members = merged
        while members:
            low = members & -members
            component[low.bit_length() - 1] = merged
            members ^= low
    return forest


def toggle_edge_ids(adj: List[int], ids: Iterable[int]) -> None:
    """Flip each edge ``a * n + b`` of ``ids`` in the masks (``n = len(adj)``)."""
    n = len(adj)
    for eid in ids:
        a, b = divmod(eid, n)
        adj[a] ^= 1 << b
        adj[b] ^= 1 << a


def _indexed_adjacency(
    nodes: Iterable[NodeId], edges: Iterable[Edge]
) -> Tuple[List[NodeId], List[int]]:
    """Nodes in first-seen order plus adjacency bitmasks over their positions."""
    node_list = list(dict.fromkeys(nodes))
    index_of = {node: index for index, node in enumerate(node_list)}
    adj = [0] * len(node_list)
    for u, v in edges:
        a, b = index_of[u], index_of[v]
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return node_list, adj


def connected_components(nodes: Iterable[NodeId], edges: Iterable[Edge]) -> List[Set[NodeId]]:
    """Return the connected components of ``(nodes, edges)`` as a list of node sets.

    Components are listed in the order their first member appears in ``nodes``.
    """
    node_list, adj = _indexed_adjacency(nodes, edges)
    components: List[Set[NodeId]] = []
    for mask in mask_components(adj):
        members: Set[NodeId] = set()
        while mask:
            low = mask & -mask
            members.add(node_list[low.bit_length() - 1])
            mask ^= low
        components.append(members)
    return components


def is_connected(nodes: Iterable[NodeId], edges: Iterable[Edge]) -> bool:
    """True iff the graph ``(nodes, edges)`` is connected (single node counts as connected)."""
    return len(mask_components(_indexed_adjacency(nodes, edges)[1])) <= 1


def ensure_connected(
    nodes: Sequence[NodeId],
    edges: Iterable[Edge],
    rng: Optional[random.Random] = None,
) -> Set[Edge]:
    """Return a superset of ``edges`` that is connected over ``nodes``.

    One edge is added between a random representative of each pair of
    consecutive components, so exactly ``(#components - 1)`` edges are added.
    """
    rng = ensure_rng(rng)
    edge_set: Set[Edge] = {normalize_edge(u, v) for (u, v) in edges}
    components = connected_components(nodes, edge_set)
    if len(components) <= 1:
        return edge_set
    representatives = [rng.choice(sorted(component)) for component in components]
    rng.shuffle(representatives)
    for left, right in zip(representatives, representatives[1:]):
        edge_set.add(normalize_edge(left, right))
    return edge_set


def spanning_forest(nodes: Iterable[NodeId], edges: Iterable[Edge]) -> Set[Edge]:
    """Return a spanning forest (one spanning tree per component) of the graph.

    The edges kept are those Kruskal keeps when it scans the normalized
    edges in sorted order (see :func:`mask_spanning_forest`).
    """
    node_list, adj = _indexed_adjacency(
        sorted(dict.fromkeys(nodes)), (normalize_edge(u, v) for u, v in edges)
    )
    return {(node_list[a], node_list[b]) for a, b in mask_spanning_forest(adj)}


def connecting_edges_between_components(
    components: Sequence[Iterable[NodeId]],
    rng: Optional[random.Random] = None,
) -> Set[Edge]:
    """Return ``len(components) - 1`` edges that chain the given components together.

    Each component contributes one member drawn uniformly from its sorted
    members; consecutive representatives are joined.
    """
    rng = ensure_rng(rng)
    if len(components) <= 1:
        return set()
    representatives = [rng.choice(sorted(component)) for component in components]
    return {
        normalize_edge(left, right)
        for left, right in zip(representatives, representatives[1:])
    }


def bfs_tree(
    nodes: Iterable[NodeId], edges: Iterable[Edge], root: NodeId
) -> Tuple[Dict[NodeId, NodeId], Dict[NodeId, int]]:
    """Breadth-first tree from ``root``: (parent map, depth map).

    The root maps to itself.  Nodes unreachable from ``root`` are absent.
    """
    adjacency: Dict[NodeId, Set[NodeId]] = {node: set() for node in nodes}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    parent: Dict[NodeId, NodeId] = {root: root}
    depth: Dict[NodeId, int] = {root: 0}
    frontier: List[NodeId] = [root]
    while frontier:
        next_frontier: List[NodeId] = []
        for node in frontier:
            for neighbor in sorted(adjacency[node]):
                if neighbor not in parent:
                    parent[neighbor] = node
                    depth[neighbor] = depth[node] + 1
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return parent, depth
