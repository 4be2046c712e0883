import itertools

import pytest

from extremal_trees import Graph, cli, packing


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


DESK_SWEEP = [(m, d) for m in range(1, 6) for d in range(2 * m + 2, 2 * m + 9)]
CROSS_CHECK_CASES = [(1, 4), (1, 5), (2, 6), (2, 7), (3, 8)]


@pytest.fixture
def pack_calls(monkeypatch):
    """(g.n, k) of every pack_spanning_trees call made from here on."""
    calls = []
    real = packing.pack_spanning_trees

    def counted(g, k):
        calls.append((g.n, k))
        return real(g, k)

    monkeypatch.setattr(packing, "pack_spanning_trees", counted)
    monkeypatch.setattr(cli, "pack_spanning_trees", counted)
    return calls
