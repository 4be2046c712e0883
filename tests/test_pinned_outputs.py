"""Outputs of the packing and rigidity layers, pinned byte for byte.

The JSON of four ``pack`` and two ``rigidity`` commands (the rigidity
certificate as exact text), and two SHA-256 digests over packings, witnesses
and sigma: one of 305 graphs with n <= 15, one of 70 clustered graphs with n
in 16..32, where failed searches build large saturated clumps.  Any change to
the union-find, tree extraction, spanning check or partition validation
behind them that alters a packing, a witness or a certificate shows up here.
"""

import hashlib
import json

import numpy as np
import pytest

from extremal_trees import Graph, build_extremal_graph, pack_spanning_trees, sigma
from extremal_trees.cli import main


def cliques(count: int, size: int) -> list[list[int]]:
    """The parts of the modified-clique partition: consecutive runs of ``size``."""
    return [list(range(i * size, (i + 1) * size)) for i in range(count)]


PACK_OUTPUTS = [
    (("pack", "2", "6"), 0,
     {"m": 2, "d": 6, "sigma": 2, "expected": 2,
      "certificate": {"k": 3, "parts": cliques(5, 7), "crossing": 10, "required": 12,
                      "deficit": 2}}),
    (("pack", "2", "10"), 0,
     {"m": 2, "d": 10, "sigma": 2, "expected": 2,
      "certificate": {"k": 3, "parts": cliques(5, 11), "crossing": 10, "required": 12,
                      "deficit": 2}}),
    (("pack", "1", "4", "--trees", "2"), 1,
     {"m": 1, "d": 4, "k": 2, "packed": False,
      "witness": {"k": 2, "parts": cliques(3, 5), "crossing": 3, "required": 4,
                  "deficit": 1}}),
    (("pack", "3", "8", "--trees", "4"), 1,
     {"m": 3, "d": 8, "k": 4, "packed": False,
      "witness": {"k": 4, "parts": cliques(7, 9), "crossing": 21, "required": 24,
                  "deficit": 3}}),
]


@pytest.mark.parametrize("argv,code,expected", PACK_OUTPUTS)
def test_pack_output_pinned(capsys, argv, code, expected):
    assert main(list(argv)) == code
    assert capsys.readouterr().out == json.dumps(expected) + "\n"


RIGIDITY_OUTPUTS = [
    (1, 6, 0.5785814438688242, [0.5555555555555556, 0.7142857142857143],
     {"r": 1, "ell": 0, "parts": cliques(5, 7), "trivial_parts": 0, "crossing": 10,
      "required": 12, "deficit": 2}),
    (2, 12, 0.7676516841750161, [0.7333333333333333, 0.8461538461538461],
     {"r": 2, "ell": 0, "parts": cliques(11, 13), "trivial_parts": 0, "crossing": 55,
      "required": 60, "deficit": 5}),
]


@pytest.mark.parametrize("r,d,mu2,window,certificate", RIGIDITY_OUTPUTS)
def test_rigidity_output_pinned(capsys, r, d, mu2, window, certificate):
    assert main(["rigidity", str(r), str(d)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data) == ["r", "d", "mu2", "window", "certificate", "condition1_holds"]
    assert (data["r"], data["d"]) == (r, d)
    assert data["certificate"] == certificate
    assert data["condition1_holds"] is False
    assert data["mu2"] == pytest.approx(mu2, abs=1e-12)
    assert data["window"] == pytest.approx(window, abs=1e-12)


@pytest.mark.parametrize("r,d,mu2,window,certificate", RIGIDITY_OUTPUTS)
def test_rigidity_certificate_text_pinned(capsys, r, d, mu2, window, certificate):
    # the exact text, so a renamed or reordered key shows up as well; the
    # literals above list the keys in the order the command writes them
    assert main(["rigidity", str(r), str(d)]) == 0
    out = capsys.readouterr().out
    start = out.index('"certificate": ') + len('"certificate": ')
    assert out[start:out.index(', "condition1_holds": ')] == json.dumps(certificate)


def packing_graphs():
    rng = np.random.RandomState(20211)
    for _ in range(300):
        n = rng.randint(3, 16)
        p = rng.uniform(0.2, 0.95)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.uniform() < p]
        yield Graph.from_edges(n, edges)
    for m, d in [(1, 4), (2, 6), (3, 8), (2, 12), (4, 14)]:
        yield build_extremal_graph(m, d)


# Over these graphs k = 1..4 give 620 packings and 600 witnesses, and sigma
# takes every value from 0 to 5.
PACKING_DIGEST = "61c04af18424cf510eecec437c2066ff030eebf1c3923d29881d76bac9b00da5"


def test_packings_and_witnesses_pinned():
    digest = hashlib.sha256()
    for g in packing_graphs():
        for k in range(1, 5):
            digest.update(json.dumps(pack_spanning_trees(g, k).to_dict()).encode() + b"\n")
        digest.update(f"sigma={sigma(g, 5)}\n".encode())
    assert digest.hexdigest() == PACKING_DIGEST


def clustered_graphs():
    """Up to four groups of consecutive vertices, dense within, sparse between."""
    rng = np.random.RandomState(20212)
    for _ in range(70):
        n = rng.randint(16, 33)
        groups = rng.randint(1, 5)
        p_in, p_out = rng.uniform(0.3, 0.8), rng.uniform(0.02, 0.2)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.uniform() < (p_in if u * groups // n == v * groups // n else p_out)]
        yield Graph.from_edges(n, edges)


# Over these graphs k = 1..5 give 195 packings and 155 witnesses, and sigma
# takes every value from 0 to 6.
CLUSTERED_DIGEST = "ab628c7aa5ec482e3aca5364635330eb57ad5fd4517436ffe47bb023ccb07e6d"


def test_clustered_packings_and_witnesses_pinned():
    digest = hashlib.sha256()
    for g in clustered_graphs():
        for k in range(1, 6):
            digest.update(json.dumps(pack_spanning_trees(g, k).to_dict()).encode() + b"\n")
        digest.update(f"sigma={sigma(g, 6)}\n".encode())
    assert digest.hexdigest() == CLUSTERED_DIGEST
