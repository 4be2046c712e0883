import numpy as np
import pytest

from extremal_trees import (
    Graph,
    InvalidPartitionError,
    ParameterDomainError,
    Partition,
    build_extremal_graph,
    clique_partition,
    crossing_edges,
    degrees,
    export,
    is_connected,
)

from conftest import DESK_SWEEP


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


def test_adjacency_sorted_and_symmetric():
    g = build_extremal_graph(2, 6)
    for u, row in enumerate(g.adjacency):
        assert list(row) == sorted(row)
        assert u not in row
        for v in row:
            assert u in g.adjacency[v]


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


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6), (3, 8), (4, 10)])
def test_crossing_equals_formula(m, d):
    g = build_extremal_graph(m, d)
    assert crossing_edges(g, clique_partition(g)) == m * (2 * m + 1)


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
