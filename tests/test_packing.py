import itertools
import subprocess
import sys
import textwrap
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal_trees import (
    ForestPacking,
    Graph,
    ParameterDomainError,
    Partition,
    PartitionCertificate,
    build_extremal_graph,
    clique_certificate,
    clique_partition,
    crossing_edges,
    pack_spanning_trees,
    sigma,
    verify_nash_williams,
)
from extremal_trees.packing import _Forest

from conftest import complete_graph, path_graph

# deterministic, so tier-1 runs the same examples every time
PROPERTY = settings(deadline=None, derandomize=True)


def check_packing_independently(g: Graph, packing: ForestPacking, k: int):
    """Re-verify a packing from scratch: k spanning trees, pairwise disjoint."""
    assert len(packing.trees) == k
    used = set()
    for tree in packing.trees:
        assert len(tree) == g.n - 1
        for u, v in tree:
            assert g.has_edge(u, v)
            assert (u, v) not in used
            used.add((u, v))
        # union-find connectivity
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in tree:
            ru, rv = find(u), find(v)
            assert ru != rv, "cycle inside a tree"
            parent[ru] = rv
        assert len({find(v) for v in range(g.n)}) == 1


def check_witness_independently(g: Graph, cert: PartitionCertificate, k: int):
    assert cert.k == k
    assert crossing_edges(g, cert.partition) == cert.crossing
    assert cert.required == k * (len(cert.partition) - 1)
    assert cert.crossing < cert.required


def test_trivial_partition_always_passes():
    g = build_extremal_graph(1, 4)
    cert = verify_nash_williams(g, Partition((frozenset(range(g.n)),)), 5)
    assert cert.required == 0 and cert.deficit <= 0 and not cert.refutes


def test_singleton_partition_counts_all_edges():
    g = build_extremal_graph(1, 4)
    parts = Partition(tuple(frozenset({v}) for v in range(g.n)))
    cert = verify_nash_williams(g, parts, g.params[1] // 2)
    assert cert.crossing == g.edge_count
    assert cert.required == 2 * (g.n - 1)


@pytest.mark.parametrize("m,expected_crossing", [(1, 3), (2, 10), (3, 21)])
def test_clique_certificate(m, expected_crossing):
    cert = clique_certificate(m, 2 * m + 2)
    assert cert.crossing == expected_crossing
    assert cert.k == m + 1
    assert cert.required == (m + 1) * 2 * m
    assert cert.deficit == m
    assert cert.refutes


def test_clique_partition_blocks_m_plus_1():
    g = build_extremal_graph(2, 6)
    cert = verify_nash_williams(g, clique_partition(g), 3)
    assert cert.deficit == 2


def test_k4_packs_two_trees():
    g = complete_graph(4)
    result = pack_spanning_trees(g, 2)
    assert isinstance(result, ForestPacking)
    check_packing_independently(g, result, 2)


def test_g14_packs_one_fails_two():
    g = build_extremal_graph(1, 4)
    packed = pack_spanning_trees(g, 1)
    assert isinstance(packed, ForestPacking)
    assert len(packed.trees[0]) == 14
    check_packing_independently(g, packed, 1)

    witness = pack_spanning_trees(g, 2)
    assert isinstance(witness, PartitionCertificate)
    check_witness_independently(g, witness, 2)


def test_sigma_values():
    assert sigma(build_extremal_graph(1, 4), 3) == 1
    assert sigma(build_extremal_graph(2, 6), 4) == 2
    assert sigma(complete_graph(5), 4) == 2


def test_path_graph_sigma_one():
    g = path_graph(6)
    assert sigma(g, 3) == 1
    witness = pack_spanning_trees(g, 2)
    assert isinstance(witness, PartitionCertificate)
    check_witness_independently(g, witness, 2)


def test_monotone_in_k():
    for g, k_top in [(complete_graph(6), 2), (build_extremal_graph(2, 6), 2)]:
        assert isinstance(pack_spanning_trees(g, k_top), ForestPacking)
        for k in range(1, k_top):
            assert isinstance(pack_spanning_trees(g, k), ForestPacking)


def test_disconnected_witness_is_component_partition():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    witness = pack_spanning_trees(g, 1)
    assert isinstance(witness, PartitionCertificate)
    assert len(witness.partition) == 2
    assert witness.crossing == 0
    check_witness_independently(g, witness, 1)


def test_duality_on_random_graphs():
    # every run must end in a verified packing or a verified witness
    rng = np.random.RandomState(9)
    for trial in range(30):
        n = rng.randint(4, 12)
        p = rng.uniform(0.3, 0.9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.uniform() < p
        ]
        g = Graph.from_edges(n, edges)
        for k in (1, 2, 3):
            result = pack_spanning_trees(g, k)
            if isinstance(result, ForestPacking):
                check_packing_independently(g, result, k)
            else:
                check_witness_independently(g, result, k)


def test_sigma_complete_graphs():
    # classical value: sigma(K_n) = floor(n/2)
    for n in range(3, 10):
        assert sigma(complete_graph(n), n) == n // 2


def test_packing_deterministic():
    g = build_extremal_graph(2, 6)
    first = pack_spanning_trees(g, 2)
    second = pack_spanning_trees(g, 2)
    assert first == second


def test_k_must_be_positive():
    with pytest.raises(ParameterDomainError):
        pack_spanning_trees(complete_graph(3), 0)


def test_serialization():
    packing = pack_spanning_trees(complete_graph(4), 2)
    data = packing.to_dict()
    assert len(data["trees"]) == 2
    assert all(len(t) == 3 for t in data["trees"])
    cert = clique_certificate(1, 4)
    cd = cert.to_dict()
    assert cd["crossing"] == 3 and cd["deficit"] == 1 and len(cd["parts"]) == 3


def test_verify_packing_rejects_duplicate_tree_under_optimize():
    # the checks must survive python -O, which strips assert statements
    code = textwrap.dedent("""
        from extremal_trees import ConsistencyError, ForestPacking, Graph
        from extremal_trees.packing import _verify_packing
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        tree = frozenset({(0, 1), (0, 2), (0, 3)})
        try:
            _verify_packing(g, ForestPacking((tree, tree)))
        except ConsistencyError as exc:
            print("ConsistencyError:", exc)
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env={"PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ConsistencyError: trees share an edge"


def set_partitions(n: int):
    """Every set partition of range(n), as a block label per vertex."""
    labels = [0] * n

    def extend(v: int, blocks: int):
        if v == n:
            yield tuple(labels), blocks
            return
        for b in range(blocks + 1):
            labels[v] = b
            yield from extend(v + 1, max(blocks, b + 1))

    yield from extend(0, 0)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    # half the graphs are complements of a drawn set, so dense ones occur too
    if draw(st.booleans()):
        chosen = set(pairs) - chosen
    return Graph.from_edges(n, sorted(chosen))


@PROPERTY
@given(small_graphs())
def test_packing_verdict_matches_brute_force_partitions(g):
    # Nash-Williams/Tutte: k trees pack iff no partition has deficit > 0
    edges = list(g.edges())
    counts = []
    for labels, parts in set_partitions(g.n):
        crossing = sum(labels[u] != labels[v] for u, v in edges)
        counts.append((crossing, parts))
    for k in (1, 2, 3):
        feasible = min(crossing - k * (parts - 1) for crossing, parts in counts) >= 0
        result = pack_spanning_trees(g, k)
        assert isinstance(result, ForestPacking) == feasible
        if feasible:
            check_packing_independently(g, result, k)
        else:
            check_witness_independently(g, result, k)


def bfs_path(adj: dict[int, dict[int, int]], u: int, v: int):
    """Edge ids on the u..v path, listed from v back to u, or None."""
    parent = {u: None}
    queue = deque([u])
    while queue:
        w = queue.popleft()
        for x, eid in adj[w].items():
            if x not in parent:
                parent[x] = (w, eid)
                queue.append(x)
    if v not in parent:
        return None
    path = []
    while v != u:
        v, eid = parent[v]
        path.append(eid)
    return path


@PROPERTY
@given(st.integers(min_value=2, max_value=9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             min_size=n, max_size=40),
)))
def test_forest_paths_match_bfs(case):
    # a pair that is a forest edge is removed; any other pair of distinct
    # vertices is added, after removing the path edge at v if the pair is
    # already connected, as an exchange step does; so the edges stay a forest
    n, ops = case
    forest = _Forest(n)
    adj: dict[int, dict[int, int]] = {v: {} for v in range(n)}
    ends: dict[int, tuple[int, int]] = {}
    for eid, (u, v) in enumerate(ops):
        if u == v:
            continue
        if v in adj[u]:
            forest.remove(u, v)
            del adj[u][v], adj[v][u]
        else:
            path = bfs_path(adj, u, v)
            if path:
                a, b = ends[path[0]]
                forest.remove(b, a)
                del adj[a][b], adj[b][a]
            forest.add(u, v, eid)
            adj[u][v] = adj[v][u] = eid
            ends[eid] = (u, v)
        for a in range(n):
            for b in range(n):
                assert forest.path_edges(a, b) == bfs_path(adj, a, b)


def test_forest_rejects_cycle_and_missing_edge_under_optimize():
    # an edge inside one tree would make a pointer cycle and hang the next
    # climb, so add must refuse it, also under python -O
    code = textwrap.dedent("""
        from extremal_trees import ConsistencyError
        from extremal_trees.packing import _Forest
        forest = _Forest(3)
        forest.add(0, 1, 0)
        forest.add(1, 2, 1)
        for u, v in [(0, 2), (2, 0), (1, 1)]:
            try:
                forest.add(u, v, 2)
            except ConsistencyError as exc:
                print("ConsistencyError:", exc)
        try:
            forest.remove(0, 2)
        except ConsistencyError as exc:
            print("ConsistencyError:", exc)
        print(forest.path_edges(0, 2))
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env={"PYTHONPATH": str(src)}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ConsistencyError: edge 2 (0,2) would close a cycle in its forest",
        "ConsistencyError: edge 2 (2,0) would close a cycle in its forest",
        "ConsistencyError: edge 2 (1,1) would close a cycle in its forest",
        "ConsistencyError: (0,2) is not an edge of this forest",
        "[1, 0]",
    ]
