"""Edge-disjoint spanning tree packing and partition certificates.

The packing number sigma(G) is characterized by the partition condition:
sigma(G) >= k iff every partition of V(G) into t parts has at least k(t-1)
crossing edges.  This module realizes both directions constructively:

* ``pack_spanning_trees`` runs matroid-union augmentation over k graphic
  matroids: edges are inserted one at a time into k edge-disjoint forests via
  breadth-first search over the exchange graph (an edge moves between forests
  along its fundamental cycles).  Each forest is kept rooted with parent
  pointers, so a fundamental cycle is found by climbing from both endpoints
  to their common ancestor (Roskind & Tarjan 1985).  Success yields k
  spanning trees; failure yields a blocking partition extracted from the
  closed components of the failed searches, verified against the partition
  condition before being returned.

* ``clique_certificate`` instantiates the partition upper bound for G(m,d):
  the modified cliques form a partition with m(2m+1) crossing edges, fewer
  than the (m+1)(2m) that m+1 trees would need, so sigma(G(m,d)) <= m.

Edges are processed lowest index first and the search order is fixed, so
packings are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ConsistencyError, ParameterDomainError
from .graphs import (
    Graph,
    Partition,
    build_extremal_graph,
    clique_partition,
    connected_components,
    crossing_edges,
    is_connected,
)


@dataclass(frozen=True)
class PartitionCertificate:
    """Partition evidence for the packing bound; deficit > 0 refutes sigma >= k."""

    partition: Partition
    crossing: int
    k: int
    required: int
    deficit: int

    @property
    def refutes(self) -> bool:
        return self.deficit > 0

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "parts": [sorted(p) for p in self.partition.parts],
            "crossing": self.crossing,
            "required": self.required,
            "deficit": self.deficit,
        }


@dataclass(frozen=True)
class ForestPacking:
    """Pairwise edge-disjoint spanning trees, each an edge set of (u, v) pairs."""

    trees: tuple[frozenset[tuple[int, int]], ...]

    def to_dict(self) -> dict:
        return {"trees": [sorted(t) for t in self.trees]}


def verify_nash_williams(g: Graph, p: Partition, k: int) -> PartitionCertificate:
    """Evaluate the partition condition sum e(V_i, V_j) >= k(t-1) for p."""
    crossing = crossing_edges(g, p)
    required = k * (len(p) - 1)
    return PartitionCertificate(p, crossing, k, required, required - crossing)


def clique_certificate(m: int, d: int) -> PartitionCertificate:
    """The modified-clique partition of G(m,d) against k = m+1 trees; deficit m."""
    g = build_extremal_graph(m, d)
    return verify_nash_williams(g, clique_partition(g), m + 1)


class _Forest:
    """One of the k forests, each tree rooted: ``up[v]`` is the parent of v
    (-1 at a root) and ``up_edge[v]`` the id of the edge to it.

    A tree path is two climbs that meet at the lowest common ancestor, and an
    added edge re-roots one endpoint's tree at that endpoint.
    """

    def __init__(self, n: int):
        self.up = [-1] * n
        self.up_edge = [-1] * n

    def _root(self, v: int) -> int:
        up = self.up
        while up[v] >= 0:
            v = up[v]
        return v

    def add(self, u: int, v: int, eid: int) -> None:
        """Join the trees of u and v by edge eid, hanging v's tree below u."""
        if self._root(u) == self._root(v):
            # a pointer cycle would make every later climb in this tree loop
            raise ConsistencyError(f"edge {eid} ({u},{v}) would close a cycle in its forest")
        up, up_edge = self.up, self.up_edge
        # re-root v's tree at v: reverse the pointers from v up to the old root
        child, parent, edge = v, up[v], up_edge[v]
        while parent >= 0:
            next_parent, next_edge = up[parent], up_edge[parent]
            up[parent], up_edge[parent] = child, edge
            child, parent, edge = parent, next_parent, next_edge
        up[v], up_edge[v] = u, eid

    def remove(self, u: int, v: int) -> None:
        up = self.up
        if up[u] == v:
            child = u
        elif up[v] == u:
            child = v
        else:
            raise ConsistencyError(f"({u},{v}) is not an edge of this forest")
        up[child] = self.up_edge[child] = -1

    def path_edges(self, u: int, v: int) -> list[int] | None:
        """Edge ids on the tree path, from v back to u, or None if u, v are disconnected."""
        up, up_edge = self.up, self.up_edge
        ancestors = {u}  # u and every vertex above it
        w = up[u]
        while w >= 0:
            ancestors.add(w)
            w = up[w]
        path: list[int] = []
        w = v
        while w not in ancestors:
            if up[w] < 0:
                return None
            path.append(up_edge[w])
            w = up[w]
        below: list[int] = []  # u's edges up to the meeting point w
        x = u
        while x != w:
            below.append(up_edge[x])
            x = up[x]
        path.extend(reversed(below))
        return path


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, u: int, v: int) -> None:
        ru, rv = self.find(u), self.find(v)
        if ru != rv:
            self.parent[rv] = ru


class _PackingState:
    def __init__(self, g: Graph, k: int):
        self.k = k
        self.edges = list(g.edges())
        self.forests = [_Forest(g.n) for _ in range(k)]
        self.forest_of: dict[int, int] = {}  # edge index -> its forest

    def try_insert(self, e0: int) -> dict[int, tuple[int, int] | None] | None:
        """Augmenting search for edge e0.

        Returns None on success.  On failure returns the label map: every
        edge reached in the exchange search, each the member of some
        fundamental cycle of its predecessor.
        """
        labels: dict[int, tuple[int, int] | None] = {e0: None}
        queue = deque([e0])
        while queue:
            f = queue.popleft()
            fu, fv = self.edges[f]
            own = self.forest_of.get(f)
            for i in range(self.k):
                if i == own:
                    continue
                path = self.forests[i].path_edges(fu, fv)
                if path is None:
                    self._augment(f, i, labels, e0)
                    return None
                for gid in path:
                    if gid not in labels:
                        labels[gid] = (f, i)
                        queue.append(gid)
        return labels

    def _augment(self, f: int, target: int, labels, e0: int) -> None:
        """Shift edges back along the label chain; e0 enters the freed forest."""
        cur = f
        while cur != e0:
            source = self.forest_of[cur]
            u, v = self.edges[cur]
            self.forests[source].remove(u, v)
            self.forests[target].add(u, v, cur)
            self.forest_of[cur] = target
            pred = labels[cur]
            if pred is None:
                raise ConsistencyError(f"edge {cur} on the augmenting chain has no label")
            cur, target = pred[0], source
        u, v = self.edges[e0]
        self.forests[target].add(u, v, e0)
        self.forest_of[e0] = target


def pack_spanning_trees(g: Graph, k: int) -> ForestPacking | PartitionCertificate:
    """k pairwise edge-disjoint spanning trees of g, or a blocking partition.

    The failure witness is a partition pi with fewer than k(|pi|-1) crossing
    edges; it is re-verified against the partition condition before being
    returned.  Disconnected inputs fail immediately with their component
    partition.
    """
    if k < 1:
        raise ParameterDomainError(f"need k >= 1, got k={k}")
    comps = connected_components(g)
    if len(comps) > 1:
        cert = verify_nash_williams(g, Partition(tuple(comps)), k)
        if not cert.refutes:
            raise ConsistencyError("component partition failed its own verification")
        return cert

    state = _PackingState(g, k)
    clumps = _UnionFind(g.n)
    target = k * (g.n - 1)
    for eid in range(len(state.edges)):
        if len(state.forest_of) == target:
            break
        u, v = state.edges[eid]
        if clumps.find(u) == clumps.find(v):
            continue  # inside a saturated clump: insertion is impossible
        labels = state.try_insert(eid)
        if labels is not None:
            # the failed search's closed edges (eid among them) span a saturated clump
            for lid in labels:
                clumps.union(*state.edges[lid])

    if len(state.forest_of) == target:
        packing = ForestPacking(tuple(
            frozenset(state.edges[e] for e, i in state.forest_of.items() if i == f)
            for f in range(k)
        ))
        _verify_packing(g, packing)
        return packing

    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(clumps.find(v), []).append(v)
    partition = Partition(tuple(frozenset(grp) for grp in groups.values()))
    cert = verify_nash_williams(g, partition, k)
    if not cert.refutes:
        raise ConsistencyError("blocking partition failed its own verification")
    return cert


def _verify_packing(g: Graph, packing: ForestPacking) -> None:
    seen: set[tuple[int, int]] = set()
    for tree in packing.trees:
        if len(tree) != g.n - 1:
            raise ConsistencyError(f"tree has {len(tree)} edges, not {g.n - 1}")
        if tree & seen:
            raise ConsistencyError("trees share an edge")
        seen |= tree
        for u, v in tree:
            if not g.has_edge(u, v):
                raise ConsistencyError(f"tree edge ({u},{v}) is not in the graph")
        if not is_connected(Graph.from_edges(g.n, tree)):
            raise ConsistencyError("tree does not span")


def sigma(g: Graph, k_max: int) -> int:
    """Largest k <= k_max for which k edge-disjoint spanning trees exist."""
    best = 0
    for k in range(1, k_max + 1):
        if isinstance(pack_spanning_trees(g, k), ForestPacking):
            best = k
        else:
            break
    return best
