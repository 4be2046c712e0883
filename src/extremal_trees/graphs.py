"""Construction of the extremal family G(m,d) and basic graph primitives.

G(m,d) consists of 2m+1 copies of the complete graph K_{d+1}, each with an
m-edge matching removed, joined by m(2m+1) cross edges placed in a circulant
pattern.  The result is a connected d-regular graph on (2m+1)(d+1) vertices
with exactly one edge between any two of the modified cliques.

Vertices are pairs (clique, slot) with 0 <= clique <= 2m and 0 <= slot <= d,
linearized as clique*(d+1) + slot.  Under this order the adjacency matrix is
block circulant: the charpoly oracle reads that structure off the twin
quotient, while the spectral block route writes its blocks in closed form.

Each adjacency row is written sorted from this closed form, with no sets and
no sort: the rest of the vertex's clique less its matching partner, and its
one cross neighbour in front of the clique or after it.  Each clique is one
vertex range, so the count of clique crossing edges bisects that range in
the sorted rows; ``crossing_edges`` counts the crossings of any partition.
One ``pair_record`` keeps the last pair's graph with its twin quotient,
crossing count and dense spectrum, each computed once per pair.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import chain, filterfalse
from operator import countOf
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import InvalidPartitionError, ParameterDomainError

if TYPE_CHECKING:
    import numpy as np


class Graph(NamedTuple):
    """Immutable simple undirected graph with sorted adjacency lists.

    ``params`` is ``(m, d)`` for members of the extremal family and ``None``
    for ad-hoc graphs (test fixtures, oracle inputs).  A ``NamedTuple``, so
    it compares and hashes by its four fields, and ``_replace`` gives a
    changed copy; ``len`` and iteration see the fields, not the vertices.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    edge_count: int
    params: tuple[int, int] | None = None

    @classmethod
    def from_edges(cls, n: int, edges, params=None) -> "Graph":
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        count = sum(len(s) for s in adj) // 2
        return cls(n, tuple(tuple(sorted(s)) for s in adj), count, params)

    def has_edge(self, u: int, v: int) -> bool:
        row = self.adjacency[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in ascending order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix, materialized on demand by one scatter."""
        import numpy as np

        a = np.zeros((self.n, self.n), dtype=np.int64)
        rows = np.repeat(np.arange(self.n), [len(row) for row in self.adjacency])
        cols = np.fromiter(chain.from_iterable(self.adjacency), dtype=np.intp,
                           count=rows.size)
        a[rows, cols] = 1
        return a


def check_family_params(m: int, d: int) -> None:
    """Raise ParameterDomainError unless (m, d) lies in the family's domain d >= 2m+2 >= 4."""
    if m < 1 or d < 2 * m + 2:
        raise ParameterDomainError(
            f"family requires d >= 2m+2 >= 4; got m={m}, d={d}"
        )


def build_extremal_graph(m: int, d: int) -> Graph:
    """Build G(m,d): 2m+1 cliques K_{d+1} minus m-matchings plus circulant cross edges.

    Within clique i the matching {(i,2a-2)~(i,2a-1) : 1 <= a <= m} is removed;
    the cross edges are (i,2j+1) ~ (i+j+1 mod 2m+1, 2j) for 0 <= j <= m-1.
    Each removed-matching endpoint regains exactly one cross edge, so the
    graph is d-regular.  The graph is immutable, so repeated calls for the
    same (m, d) return the one instance of its ``pair_record``.
    """
    return pair_record(m, d).graph


# Slot j < 2m of clique i drops its partner j ^ 1 and gains a cross neighbour,
# first when below i's clique.
def _construct(m: int, d: int) -> Graph:
    k = 2 * m + 1
    rows = []
    for i in range(k):
        base = i * (d + 1)
        clique = tuple(range(base, base + d + 1))
        for j in range(d + 1):
            if j >= 2 * m:
                rows.append(clique[:j] + clique[j + 1:])
                continue
            t = j >> 1
            if j & 1:
                cross = ((i + t + 1) % k) * (d + 1) + 2 * t
            else:
                cross = ((i - t - 1) % k) * (d + 1) + 2 * t + 1
            inside = clique[:j & ~1] + clique[(j | 1) + 1:]
            rows.append((cross,) + inside if cross < base else inside + (cross,))
    return Graph(k * (d + 1), tuple(rows), sum(map(len, rows)) // 2, (m, d))


class _PairRecord:
    """G(m,d), built with the record, and what the checks of its pair read of it,
    each filled on first read: the twin quotient (k = 2m+1) and clique-crossing
    count here, the dense spectrum by ``spectral.family_spectrum``."""

    def __init__(self, m: int, d: int) -> None:
        self.graph = _construct(m, d)
        self.spectrum: np.ndarray | None = None

    @cached_property
    def quotient(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        quotient = closed_twin_quotient(self.graph, 2 * self.graph.params[0] + 1)
        for part in quotient:
            part.flags.writeable = False  # both routes of the pair read these arrays
        return quotient

    @cached_property
    def clique_crossings(self) -> int:
        d, rows = self.graph.params[1], self.graph.adjacency
        inside = 0
        for v, row in enumerate(rows):
            lo = v // (d + 1) * (d + 1)
            inside += bisect_left(row, lo + d + 1) - bisect_left(row, lo)
        return (sum(map(len, rows)) - inside) // 2


_record: _PairRecord | None = None


def pair_record(m: int, d: int) -> _PairRecord:
    """The record of G(m,d), made unless (m, d) was the last pair asked for.
    `verify` runs every check of a pair before it moves to the next, so only
    the last pair's record is kept, dropped before the next graph is built."""
    global _record
    check_family_params(m, d)
    if _record is None or _record.graph.params != (m, d):
        _record = None  # frees the last pair's graph before the next is built
        _record = _PairRecord(m, d)
    return _record


def closed_twin_quotient(g: Graph, k: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed-twin quotient of g: (sizes, rows, cols), read from the adjacency lists.

    Vertices are classed by their row of A + I and their block v // (n/k)
    (any graph is one block; G(m,d) splits into k = 2m+1 and has
    q = (2m+1)^2 classes whatever d is).  sizes[i] is the size of class i,
    classes numbered in order of their first vertex, and (rows[j], cols[j])
    are the unit entries of the 0/1 class adjacency S (S_ii = 1), in
    row-major order.  With P the n x q class indicator and W = diag(sizes),
    A + I = P S P^T, so on the class-constant vectors A acts as S W - I and
    a class of c twins carries c - 1 eigenvalues -1 (Godsil & Royle,
    Algebraic Graph Theory, ch. 9).  A is symmetric exactly when S is and
    each class row is a union of whole classes: a row meets every class it
    touches in all of its members.  Anything else raises ValueError.  No
    q x q matrix is allocated, so a caller can refuse q first.
    """
    import numpy as np

    n = g.n
    if k < 1 or n % k:
        raise ValueError(f"{n} vertices do not split into {k} equal blocks")
    s = n // k
    classes: dict[tuple, int] = {}
    class_of = []
    for v, row in enumerate(g.adjacency):
        i = bisect_left(row, v)
        class_of.append(classes.setdefault((v // s, row[:i] + (v,) + row[i:]), len(classes)))
    q = len(classes)
    class_of = np.array(class_of, dtype=np.intp)
    members = [row for _, row in classes]
    rows = np.repeat(np.arange(q), [len(row) for row in members])
    cols = class_of[np.fromiter(chain.from_iterable(members), dtype=np.intp, count=rows.size)]
    # each class a row touches must be met once per member
    keys, met = np.unique(rows * q + cols, return_counts=True)
    rows, cols = np.divmod(keys, q)
    sizes = np.bincount(class_of, minlength=q)
    if not (np.array_equal(keys, np.sort(cols * q + rows)) and np.array_equal(met, sizes[cols])):
        raise ValueError("adjacency matrix is not symmetric")
    return sizes, rows, cols


def twin_quotient(g: Graph, k: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``closed_twin_quotient(g, k)``, read from the current ``pair_record``
    when g is its graph, at k = 1 and k = 2m+1 alike: its only closed twins
    are the unmatched vertices of a clique, one block.  Builds no graph."""
    if _record is not None and g is _record.graph and k in (1, 2 * g.params[0] + 1):
        return _record.quotient
    return closed_twin_quotient(g, k)


def clique_partition(g: Graph) -> tuple[frozenset[int], ...]:
    """The partition {H_0, ..., H_2m} of a family graph into its modified cliques."""
    if g.params is None:
        raise ValueError("clique_partition needs a graph built by build_extremal_graph")
    m, d = g.params
    return tuple(frozenset(range(i * (d + 1), (i + 1) * (d + 1))) for i in range(2 * m + 1))


def clique_crossings(m: int, d: int) -> int:
    """Edges of G(m,d) between two of its modified cliques, counted once per pair
    by bisecting each clique's vertex range [i(d+1), (i+1)(d+1)) in the sorted
    rows, which meet it in one run; ``crossing_edges`` serves any partition."""
    return pair_record(m, d).clique_crossings


def validate_partition(g: Graph, p: tuple[frozenset[int], ...]) -> None:
    seen: set[int] = set()
    total = 0
    for part in p:
        if not part:
            raise InvalidPartitionError("empty part")
        total += len(part)
        seen.update(part)
    if total != len(seen) or seen != set(range(g.n)):
        raise InvalidPartitionError("parts must be disjoint and cover all vertices")


def crossing_edges(g: Graph, p: tuple[frozenset[int], ...]) -> int:
    """Number of edges whose endpoints lie in two different parts of p."""
    validate_partition(g, p)
    part_of = [0] * g.n
    for idx, part in enumerate(p):
        for v in part:
            part_of[v] = idx
    inside = sum(countOf(map(part_of.__getitem__, row), part_of[u])
                 for u, row in enumerate(g.adjacency))
    return (sum(map(len, g.adjacency)) - inside) // 2


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def degrees(g: Graph) -> list[int]:
    return [len(row) for row in g.adjacency]


def connected_components(g: Graph) -> list[frozenset[int]]:
    """The components in order of their smallest vertex, each grown by frontiers."""
    comps = []
    seen: set[int] = set()
    for s in filterfalse(seen.__contains__, range(g.n)):
        comp, frontier = {s}, (s,)
        while frontier:
            frontier = set(chain.from_iterable(map(g.adjacency.__getitem__, frontier)))
            frontier -= comp
            comp |= frontier
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def export(g: Graph, fmt: str) -> str:
    """Serialize a family graph; ``fmt`` is 'edgelist' or 'dot'."""
    if g.params is None:
        raise ValueError("export is defined for graphs built by build_extremal_graph")
    m, d = g.params
    if fmt == "edgelist":
        lines = [f"# m={m} d={d} n={g.n}"]
        lines.extend(f"{u} {v}" for u, v in g.edges())
        return "\n".join(lines) + "\n"
    if fmt == "dot":
        lines = [f"graph gm{m}d{d} {{"]
        for v in range(g.n):
            lines.append(f'  v{v} [clique={v // (d + 1)}];')
        for u, v in g.edges():
            lines.append(f"  v{u} -- v{v};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r} (use 'edgelist' or 'dot')")
