"""Edge-disjoint spanning tree packing and partition certificates.

A graph with r spanning rigid subgraphs and k spanning trees, all
edge-disjoint, has e(pi) >= (3r+k)(t-1) - rs crossing edges for every
partition pi into t parts, s of them singletons; a ``PartitionCertificate``
holds (pi, e(pi), k, r) and derives the requirement and deficit from them.
At r = 0 the condition is also sufficient (Nash-Williams 1961, Tutte 1961):
sigma(G) >= k iff every partition has at least k(t-1) crossing edges.  This
module realizes both directions of that constructively:

* ``pack_spanning_trees`` runs matroid-union augmentation over k graphic
  matroids (Edmonds 1965), inserting edges one at a time into k
  edge-disjoint forests: into the first forest that keeps its ends apart,
  else by a breadth-first search over the exchange graph (an edge moves
  between forests along its fundamental cycles).  Each forest is rooted with
  parent pointers, so a fundamental cycle is two climbs to the common
  ancestor (Roskind & Tarjan 1985).  A failed search closes a saturated
  clump, which every forest spans for good: an edge inside it has all its
  cycles inside it, so no chain passes through it and the search neither
  inserts nor expands it.  Success yields k spanning trees; failure yields
  the clumps as a blocking partition, verified against the partition
  condition before being returned.

* ``walecki_packing`` writes m trees of G(m,d) from Walecki's decomposition
  of K_n into floor(n/2) edge-disjoint Hamiltonian paths (Lucas 1892;
  Alspach 2008): the zigzags i, i+1, i-1, i+2, ..., after vertex n-1 when n
  is odd.  Tree f is path f inside each modified clique plus the cross edges
  of path f of the clique quotient K_{2m+1}, whose edge between two cliques
  stands for their one cross edge.  As d+1 >= 2m+3, path floor((d+1)/2) - 1
  is spare; numbering the slots along it puts the removed matching on it,
  so paths 0..m-1 avoid the matching.  The trees are verified on G(m,d)
  with the path-halving ``_find`` the search's clumps use, each edge found
  by bisecting its sorted row.

* ``sigma`` searches down from k_max, jumping from each failed k to the
  bound c // (t-1) < k of its witness (c crossing edges over t parts).  The
  ``pack`` command runs it from m+1; ``verify``'s packing check never does.

* ``clique_certificate`` instantiates the partition upper bound for G(m,d):
  the modified cliques form a partition with m(2m+1) crossing edges, fewer
  than the (m+1)(2m) that m+1 trees would need, so sigma(G(m,d)) <= m.
  ``verify``'s packing check takes sigma <= m from it and sigma >= m from
  ``walecki_packing``, so no search runs there.

Edges are processed lowest index first and the search order is fixed, so
packings are reproducible.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import NamedTuple

from .errors import ConsistencyError, ParameterDomainError
from .graphs import (
    Graph,
    build_extremal_graph,
    clique_crossings,
    clique_partition,
    connected_components,
    crossing_edges,
)


class PartitionCertificate(NamedTuple):
    """Partition evidence against r spanning rigid subgraphs plus k spanning
    trees, from which the requirement and the deficit follow; deficit > 0
    refutes them (at r = 0: refutes sigma >= k)."""

    partition: tuple[frozenset[int], ...]
    crossing: int
    k: int
    r: int = 0

    @property
    def trivial_count(self) -> int:
        """s, the singleton parts."""
        return sum(1 for part in self.partition if len(part) == 1)

    @property
    def required(self) -> int:
        """(3r+k)(t-1) - rs, the crossing edges the packings would need."""
        return (3 * self.r + self.k) * (len(self.partition) - 1) - self.r * self.trivial_count

    @property
    def deficit(self) -> int:
        """required - crossing, the crossing edges missing."""
        return self.required - self.crossing

    @property
    def refutes(self) -> bool:
        return self.deficit > 0

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "parts": [sorted(p) for p in self.partition],
            "crossing": self.crossing,
            "required": self.required,
            "deficit": self.deficit,
        }


class ForestPacking(NamedTuple):
    """Pairwise edge-disjoint spanning trees, each an edge set of (u, v) pairs."""

    trees: tuple[frozenset[tuple[int, int]], ...]

    def to_dict(self) -> dict:
        return {"trees": [sorted(t) for t in self.trees]}


def verify_nash_williams(g: Graph, p: tuple[frozenset[int], ...], k: int) -> PartitionCertificate:
    """Evaluate the partition condition sum e(V_i, V_j) >= k(t-1) for p."""
    return PartitionCertificate(p, crossing_edges(g, p), k)


def clique_certificate(m: int, d: int) -> PartitionCertificate:
    """The modified-clique partition of G(m,d) against k = m+1 trees; deficit m."""
    g = build_extremal_graph(m, d)
    return PartitionCertificate(clique_partition(g), clique_crossings(m, d), m + 1)


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
        self.hang(u, v, eid)

    def hang(self, u: int, v: int, eid: int) -> None:
        """``add`` without its cycle check, for a caller that just compared the roots."""
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


def _find(parent: list[int], v: int) -> int:
    """The root of v under the parent pointers, halving the path on the way:
    each vertex passed is pointed at its grandparent (Tarjan & van Leeuwen 1984)."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


class _PackingState:
    def __init__(self, g: Graph, k: int):
        self.k = k
        self.edges = list(g.edges())
        self.forests = [_Forest(g.n) for _ in range(k)]
        self.forest_of: dict[int, int] = {}  # edge index -> its forest
        self.clumps = list(range(g.n))  # parents of saturated clumps, grown by failed searches

    def try_insert(self, e0: int) -> dict[int, tuple[int, int] | None] | None:
        """Augmenting search for edge e0.

        Returns None on success.  On failure returns the label map: every
        edge reached in the exchange search, each the member of some
        fundamental cycle of its predecessor.

        e0 goes straight into the first forest that keeps its ends apart, the
        one the search would augment into.  The search skips edges inside a
        saturated clump: every forest spans it, so no chain passes through.
        """
        u, v = self.edges[e0]
        for i, forest in enumerate(self.forests):
            if forest._root(u) != forest._root(v):
                forest.hang(u, v, e0)
                self.forest_of[e0] = i
                return None
        clumps = self.clumps
        labels: dict[int, tuple[int, int] | None] = {e0: None}
        queue = deque([e0])
        while queue:
            f = queue.popleft()
            fu, fv = self.edges[f]
            if _find(clumps, fu) == _find(clumps, fv):
                continue
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
    partition.  An empty graph, whose one partition has no parts and would
    need -k crossing edges, is refused.
    """
    if k < 1:
        raise ParameterDomainError(f"need k >= 1, got k={k}")
    if g.n == 0:
        raise ParameterDomainError("need a graph with at least one vertex, got n=0")
    comps = connected_components(g)
    if len(comps) > 1:
        cert = verify_nash_williams(g, tuple(comps), k)
        if not cert.refutes:
            raise ConsistencyError("component partition failed its own verification")
        return cert

    state = _PackingState(g, k)
    clumps = state.clumps
    target = k * (g.n - 1)
    for eid in range(len(state.edges)):
        if len(state.forest_of) == target:
            break
        u, v = state.edges[eid]
        if _find(clumps, u) == _find(clumps, v):
            continue  # inside a saturated clump: insertion is impossible
        labels = state.try_insert(eid)
        if labels is not None:
            # the failed search's closed edges (eid among them) span a saturated clump
            for lid in labels:
                u, v = state.edges[lid]
                clumps[_find(clumps, v)] = _find(clumps, u)

    if len(state.forest_of) == target:
        packing = ForestPacking(tuple(
            frozenset(state.edges[e] for e, i in state.forest_of.items() if i == f)
            for f in range(k)
        ))
        _verify_packing(g, packing)
        return packing

    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(_find(clumps, v), []).append(v)
    cert = verify_nash_williams(g, tuple(frozenset(grp) for grp in groups.values()), k)
    if not cert.refutes:
        raise ConsistencyError("blocking partition failed its own verification")
    return cert


def _walecki_path(size: int, i: int) -> list[int]:
    """Path i < size // 2 of Walecki's decomposition of K_size into Hamiltonian
    paths: the zigzag i, i+1, i-1, i+2, ..., i+h on Z_2h (h = size // 2),
    after vertex 2h when size is odd."""
    h = size // 2
    zigzag = [(i + (j + 1) // 2 if j % 2 else i - j // 2) % (2 * h) for j in range(2 * h)]
    return [2 * h] * (size % 2) + zigzag


def walecki_packing(m: int, d: int) -> ForestPacking:
    """m edge-disjoint spanning trees of G(m,d), written from Walecki's paths.

    Tree f is clique path f in every modified clique plus the cross edges of
    path f of the clique quotient K_{2m+1}.  The trees have passed
    ``_verify_packing`` on ``build_extremal_graph(m, d)``.
    """
    g = build_extremal_graph(m, d)
    c, k = d + 1, 2 * m + 1
    # c >= 2m+3, so path c//2 - 1 is spare: its j-th vertex becomes slot j,
    # which puts each removed pair {2t, 2t+1} on it and none on paths 0..m-1
    slot = [0] * c
    for j, v in enumerate(_walecki_path(c, c // 2 - 1)):
        slot[v] = j
    trees = []
    for f in range(m):
        path = [slot[v] for v in _walecki_path(c, f)]
        inside = [(min(x, y), max(x, y)) for x, y in zip(path, path[1:])]
        tree = [(a + x, a + y) for a in range(0, k * c, c) for x, y in inside]
        quotient = _walecki_path(k, f)
        for a, b in zip(quotient, quotient[1:]):
            if (b - a) % k > m:
                a, b = b, a
            # clique a's slot 2t+1 meets clique b = a+t+1's slot 2t
            t = (b - a) % k - 1
            u, v = a * c + 2 * t + 1, b * c + 2 * t
            tree.append((min(u, v), max(u, v)))
        trees.append(frozenset(tree))
    packing = ForestPacking(tuple(trees))
    _verify_packing(g, packing)
    return packing


def _verify_packing(g: Graph, packing: ForestPacking) -> None:
    """Raise ConsistencyError unless the trees are pairwise edge-disjoint
    spanning trees of g, each edge written (u, v) with u < v.

    n-1 edges of g of which none joins two already connected vertices form
    a spanning tree: each tree joins its edges under the clumps' path-halving
    ``_find``, and (u, v) is in g if bisecting row u finds v (no row when
    u, v lie outside 0 <= u < v < n).
    """
    n, rows = g.n, g.adjacency
    seen: set[tuple[int, int]] = set()
    for tree in packing.trees:
        if len(tree) != n - 1:
            raise ConsistencyError(f"tree has {len(tree)} edges, not {n - 1}")
        if tree & seen:
            raise ConsistencyError("trees share an edge")
        seen |= tree
        parent = list(range(n))
        for u, v in tree:
            row = rows[u] if 0 <= u < v < n else ()
            i = bisect_left(row, v)
            if i == len(row) or row[i] != v:
                raise ConsistencyError(f"tree edge ({u},{v}) is not an edge (u < v) of the graph")
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                raise ConsistencyError(f"tree edge ({u},{v}) closes a cycle")
            parent[rv] = ru


def sigma(g: Graph, k_max: int) -> int:
    """Largest k <= k_max for which k edge-disjoint spanning trees exist.

    Searches down from k_max, so the first packing runs at k_max and fails
    whenever k_max > sigma: callers should pass a tight k_max.  Refuses
    k_max < 0 and, like ``pack_spanning_trees``, the empty graph.
    """
    if k_max < 0:
        raise ParameterDomainError(f"need k_max >= 0, got k_max={k_max}")
    if g.n == 0:
        raise ParameterDomainError("need a graph with at least one vertex, got n=0")
    k = k_max
    while k >= 1:
        result = pack_spanning_trees(g, k)
        if isinstance(result, ForestPacking):
            return k
        k = min(k - 1, result.crossing // (len(result.partition) - 1))
    return 0
