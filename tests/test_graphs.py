import itertools
import json
import random

import numpy as np
import pytest

from extremal_trees import (
    Graph,
    InvalidPartitionError,
    ParameterDomainError,
    Partition,
    build_extremal_graph,
    cli,
    clique_partition,
    crossing_edges,
    degrees,
    export,
    is_connected,
)
from extremal_trees.graphs import clique_crossings, connected_components

from conftest import DESK_SWEEP


def reference_graph(m: int, d: int) -> Graph:
    """G(m,d) from the paper's definition, edge by edge.

    2m+1 copies of K_{d+1}, each without the matching {(2a-2, 2a-1) : 1 <= a <= m},
    plus the circulant cross edges (i, 2j+1) ~ (i+j+1 mod 2m+1, 2j), 0 <= j < m.
    """
    k = 2 * m + 1
    matching = {(2 * a - 2, 2 * a - 1) for a in range(1, m + 1)}
    within = [
        (i * (d + 1) + j1, i * (d + 1) + j2)
        for i in range(k)
        for j1, j2 in itertools.combinations(range(d + 1), 2)
        if (j1, j2) not in matching
    ]
    cross = [
        (i * (d + 1) + 2 * j + 1, ((i + j + 1) % k) * (d + 1) + 2 * j)
        for i in range(k)
        for j in range(m)
    ]
    return Graph.from_edges(k * (d + 1), within + cross, (m, d))


@pytest.mark.parametrize("m,ds", [
    *(pytest.param(m, range(2 * m + 2, 2 * m + 31), id=f"m{m}") for m in range(1, 9)),
    pytest.param(5, [43], id="m5-d43"),
])
def test_build_equals_definition(m, ds):
    for d in ds:
        assert build_extremal_graph(m, d) == reference_graph(m, d), (m, d)


def test_construction_row_catches_a_dropped_cross_neighbour(monkeypatch, capsys):
    # the negative control of the test above: vertex (0, 1) keeps its clique
    # but loses its cross neighbour (1, 0), in its own row only
    m, d = 1, 4
    g = reference_graph(m, d)
    rows = list(g.adjacency)
    rows[1] = tuple(v for v in rows[1] if v != d + 1)
    broken = Graph(g.n, tuple(rows), g.edge_count, g.params)
    assert broken != build_extremal_graph(m, d)
    monkeypatch.setattr(cli, "build_extremal_graph", lambda m, d: broken)
    code = cli.main(["verify", "--m", str(m), "--d", str(d), "--checks", "construction"])
    [row] = json.loads(capsys.readouterr().out)["results"]
    assert (code, row["ok"], row["detail"]) == (1, False, "not regular")


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6), (3, 8)])
def test_counts_match_definition(m, d):
    # independent count straight from the construction: each clique keeps
    # C(d+1,2) - m edges, and there are m cross edges per clique
    g = build_extremal_graph(m, d)
    k = 2 * m + 1
    within = k * ((d + 1) * d // 2 - m)
    cross = m * k
    assert g.n == k * (d + 1)
    assert g.edge_count == within + cross
    assert g.edge_count == k * (d + 1) * d // 2


@pytest.mark.parametrize("m,d", DESK_SWEEP)
def test_sweep_invariants(m, d):
    g = build_extremal_graph(m, d)
    degs = degrees(g)
    assert min(degs) == max(degs) == d
    assert g.n == (2 * m + 1) * (d + 1)
    assert g.edge_count == (2 * m + 1) * (d + 1) * d // 2
    assert is_connected(g)


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6), (3, 8), (2, 7)])
def test_deleted_matching(m, d):
    g = build_extremal_graph(m, d)
    matching = {(2 * a - 2, 2 * a - 1) for a in range(1, m + 1)}
    for i in range(2 * m + 1):
        base = i * (d + 1)
        for j1 in range(d + 1):
            for j2 in range(j1 + 1, d + 1):
                expected = (j1, j2) not in matching
                assert g.has_edge(base + j1, base + j2) == expected


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6), (3, 8)])
def test_one_edge_between_each_clique_pair(m, d):
    g = build_extremal_graph(m, d)
    k = 2 * m + 1
    counts = {}
    for u, v in g.edges():
        cu, cv = u // (d + 1), v // (d + 1)
        if cu != cv:
            counts[(min(cu, cv), max(cu, cv))] = counts.get((min(cu, cv), max(cu, cv)), 0) + 1
    assert len(counts) == k * (k - 1) // 2
    assert set(counts.values()) == {1}


# m = 1..8 at d = 2m+2..2m+8, the spectral_sweep and packing_sweep pairs of
# the benchmark, and G(30,100) (|E| = 308,050), under the build guard
CLIQUE_PAIRS = sorted({
    *((m, d) for m in range(1, 9) for d in range(2 * m + 2, 2 * m + 9)),
    *((m, d) for m in range(2, 6) for d in range(40, 44)),
    *((m, d) for m in range(1, 5) for d in range(14, 23)),
    (30, 100),
})


def test_adjacency_sorted_and_symmetric():
    # the clique crossing count bisects these rows
    for m, d in CLIQUE_PAIRS:
        g = build_extremal_graph(m, d)
        for u, row in enumerate(g.adjacency):
            assert all(a < b for a, b in zip(row, row[1:])), (m, d, u)
            assert not g.has_edge(u, u), (m, d, u)
            assert all(g.has_edge(v, u) for v in row), (m, d, u)


def row_by_row_adjacency_matrix(g: Graph) -> np.ndarray:
    """The reference: one row assignment per vertex."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, row in enumerate(g.adjacency):
        a[u, list(row)] = 1
    return a


@pytest.mark.parametrize("g", [
    *(build_extremal_graph(m, d) for m, d in [*DESK_SWEEP, (5, 43)]),
    Graph.from_edges(0, []),
    Graph.from_edges(7, []),
    Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4)]),  # a star, a tail, an isolated vertex
], ids=lambda g: f"{g.params}-n{g.n}")
def test_adjacency_matrix_matches_row_by_row(g):
    a, expected = g.adjacency_matrix(), row_by_row_adjacency_matrix(g)
    assert (a.dtype, a.shape) == (expected.dtype, expected.shape)
    assert (a == expected).all()


@pytest.mark.parametrize("m,d", [(1, 3), (0, 4), (2, 5), (3, 7)])
def test_parameter_domain_rejected(m, d):
    with pytest.raises(ParameterDomainError):
        build_extremal_graph(m, d)


def test_clique_partition_sizes():
    assert [len(p) for p in clique_partition(build_extremal_graph(1, 4)).parts] == [5] * 3
    assert [len(p) for p in clique_partition(build_extremal_graph(2, 6)).parts] == [7] * 5
    assert [len(p) for p in clique_partition(build_extremal_graph(3, 8)).parts] == [9] * 7


def test_graph_and_partition_are_immutable_records():
    # equal fields compare and hash equal, no field can be set, and a
    # partition's len counts its parts
    g = build_extremal_graph(1, 4)
    p = clique_partition(g)
    for record in (g, p):
        twin = type(record)(*record)
        assert twin == record and hash(twin) == hash(record) and twin is not record
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
    assert len(p) == 3


def test_crossing_edges_oracle():
    # enumerate the cross edges straight from the definition for (2, 6)
    m, d = 2, 6
    k = 2 * m + 1
    cross = {
        tuple(sorted((i * (d + 1) + 2 * j + 1, ((i + j + 1) % k) * (d + 1) + 2 * j)))
        for i in range(k)
        for j in range(m)
    }
    assert len(cross) == 10
    g = build_extremal_graph(m, d)
    assert crossing_edges(g, clique_partition(g)) == len(cross)
    for u, v in cross:
        assert g.has_edge(u, v)


@pytest.mark.parametrize("m,d", CLIQUE_PAIRS)
def test_crossing_equals_formula(m, d):
    # the bisected clique count against the generic partition count
    g = build_extremal_graph(m, d)
    assert clique_crossings(m, d) == crossing_edges(g, clique_partition(g)) == m * (2 * m + 1)


def test_crossing_single_part_is_zero():
    g = build_extremal_graph(1, 4)
    assert crossing_edges(g, Partition((frozenset(range(g.n)),))) == 0


def test_invalid_partitions_rejected():
    g = build_extremal_graph(1, 4)
    with pytest.raises(InvalidPartitionError):
        crossing_edges(g, Partition((frozenset({0, 1}),)))  # does not cover
    with pytest.raises(InvalidPartitionError):
        crossing_edges(
            g,
            Partition((frozenset(range(10)), frozenset(range(5, g.n)))),  # overlap
        )


def test_single_vertex_connected():
    assert is_connected(Graph.from_edges(1, []))


def random_graph(seed: int) -> tuple[int, list[tuple[int, int]]]:
    """A seeded random graph, sparse enough to leave isolated vertices and
    several components, as its vertex count and edge list."""
    rng = random.Random(seed)
    n = rng.randrange(0, 30)
    density = rng.choice([0.0, 0.03, 0.08, 0.2, 0.5])
    return n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density]


def brute_force_components(n: int, edges: list[tuple[int, int]]) -> list[frozenset[int]]:
    """The reference: each vertex's reach, grown until no edge leaves it."""
    reach = [{v} for v in range(n)]
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            if reach[u] != reach[v]:
                reach[u] = reach[v] = reach[u] | reach[v]
                changed = True
    return sorted({frozenset(r) for r in reach}, key=min)


SEEDS = range(60)


@pytest.mark.parametrize("seed", SEEDS)
def test_connected_components_match_brute_force(seed):
    n, edges = random_graph(seed)
    comps = connected_components(Graph.from_edges(n, edges))
    assert comps == brute_force_components(n, edges)
    # in order of their smallest vertex: pack_spanning_trees turns this list
    # into its witness partition
    assert [min(c) for c in comps] == sorted(min(c) for c in comps)


@pytest.mark.parametrize("n,edges,expected", [
    (0, [], []),
    (1, [], [{0}]),
    (4, [], [{0}, {1}, {2}, {3}]),
    (6, [(4, 5), (1, 3), (3, 5), (0, 2)], [{0, 2}, {1, 3, 4, 5}]),
    (5, [(3, 4), (1, 2)], [{0}, {1, 2}, {3, 4}]),
])
def test_connected_components_small_cases(n, edges, expected):
    assert connected_components(Graph.from_edges(n, edges)) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_crossing_edges_match_brute_force(seed):
    n, edges = random_graph(seed)
    g = Graph.from_edges(n, edges)
    rng = random.Random(1000 + seed)
    # t labels drawn at random, so a partition has at most t parts; the empty
    # graph's one partition has none
    for t in (1, 2, rng.randrange(1, n + 1), n) if n else (0,):
        label = [rng.randrange(t) for _ in range(n)]
        parts = tuple(frozenset(v for v in range(n) if label[v] == i) for i in range(t))
        p = Partition(tuple(part for part in parts if part))
        assert crossing_edges(g, p) == sum(label[u] != label[v] for u, v in edges)


def test_degrees_g38():
    assert degrees(build_extremal_graph(3, 8)) == [8] * 63


def test_edgelist_export():
    g = build_extremal_graph(1, 4)
    lines = export(g, "edgelist").strip().split("\n")
    assert lines[0] == "# m=1 d=4 n=15"
    assert len(lines) == 1 + 30
    pairs = [tuple(map(int, ln.split())) for ln in lines[1:]]
    assert pairs == sorted(pairs)
    assert all(u < v for u, v in pairs)


def test_dot_export():
    text = export(build_extremal_graph(1, 4), "dot")
    assert text.startswith("graph ")
    assert "v7 [clique=1];" in text
    assert text.count(" -- ") == 30


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        export(build_extremal_graph(1, 4), "graphml")


def test_export_requires_family_graph():
    with pytest.raises(ValueError):
        export(Graph.from_edges(2, [(0, 1)]), "edgelist")


def test_loops_rejected():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])


@pytest.mark.parametrize("seed", SEEDS)
def test_has_edge_matches_edge_list(seed):
    # has_edge bisects the sorted row, so it must see the first and last
    # neighbour and answer False past either end of the row
    n, edges = random_graph(seed)
    g = Graph.from_edges(n, edges)
    expected = set(edges) | {(v, u) for u, v in edges}
    assert [g.has_edge(u, v) for u in range(n) for v in range(n)] == \
        [(u, v) in expected for u in range(n) for v in range(n)]
