import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import extremal_trees
from extremal_trees import (
    CheckFailure,
    ConsistencyError,
    Graph,
    Poly,
    SolverConvergenceError,
    charpoly,
    cli,
    graeffe,
    graphs,
    packing,
    rigidity,
    spectral,
)
from extremal_trees.cli import main

from conftest import DESK_SWEEP, path_graph

PACKAGE = Path(cli.__file__).resolve().parent


@pytest.fixture
def fresh_memos():
    """Forget the pair record (graph, crossing count, twin quotient and
    spectrum) left by earlier calls, and the one this test leaves."""
    graphs._record = None
    yield
    graphs._record = None


@pytest.fixture
def crossing_counts(monkeypatch):
    """The (m, d) of every clique-crossing count computed from here on."""
    computed = []
    count = graphs._PairRecord.clique_crossings
    real = count.func

    def counted(record):
        computed.append(record.graph.params)
        return real(record)

    monkeypatch.setattr(count, "func", counted)
    return computed


@pytest.fixture
def built_graphs(monkeypatch, fresh_memos):
    """The (m, d) of every graph constructed from here on."""
    built = []

    class CountedGraph(graphs.Graph):
        def __new__(cls, *args):
            self = super().__new__(cls, *args)
            built.append(self.params)
            return self

    monkeypatch.setattr(graphs, "Graph", CountedGraph)
    return built


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_edgelist(capsys):
    code, out, _ = run_cli("build", "3", "8", capsys=capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# m=3 d=8 n=63"
    assert len(lines) == 1 + 252


def test_build_dot(tmp_path, capsys):
    target = tmp_path / "g.dot"
    code, _, _ = run_cli("build", "1", "4", "--format", "dot", "--out", str(target), capsys=capsys)
    assert code == 0
    text = target.read_text()
    assert text.count(" -- ") == 30 and "[clique=2]" in text


def test_build_domain_error(capsys):
    code, _, err = run_cli("build", "1", "3", capsys=capsys)
    assert code == 2
    assert "2m+2" in err


def test_build_refuses_pair_above_build_guard(capsys, built_graphs):
    code, out, err = run_cli("build", "5", "2000", capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: |E|=22011000 above build guard 1000000\n"
    assert built_graphs == []


def test_spectrum_blocks(capsys):
    code, out, _ = run_cli("spectrum", "2", "6", "--method", "blocks", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["values"]) == 35
    assert data["values"][0] == pytest.approx(6.0, abs=1e-9)
    assert data["solver"] == "blocks"
    assert "tol" not in data


def test_spectrum_refuses_an_unknown_method(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "1", "4", "--method", "sparse"])
    assert exc.value.code == 2
    assert "invalid choice: 'sparse'" in capsys.readouterr().err


def test_charpoly_exact_oracle_identical(capsys):
    code, exact_out, _ = run_cli("charpoly", "1", "4", "--exact", capsys=capsys)
    assert code == 0
    code, oracle_out, _ = run_cli("charpoly", "1", "4", "--oracle", capsys=capsys)
    assert code == 0
    assert exact_out == oracle_out
    data = json.loads(exact_out)
    assert len(data["coeffs"]) == 16 and data["coeffs"][-1] == "1"


def test_charpoly_oracle_above_old_guard_equals_exact(capsys):
    # n = 133, above the one-block oracle's old guard of 128
    code, exact_out, _ = run_cli("charpoly", "3", "18", "--exact", capsys=capsys)
    assert code == 0
    code, oracle_out, _ = run_cli("charpoly", "3", "18", "--oracle", capsys=capsys)
    assert code == 0
    assert oracle_out == exact_out


def test_charpoly_oracle_size_guard(capsys, built_graphs):
    # the guard counts the (2m+1)^2 twin classes, so it refuses every m >= 9
    code, out, err = run_cli("charpoly", "9", "20", "--oracle", capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: q=361 above oracle guard 300\n"
    assert built_graphs == []


@pytest.mark.parametrize("argv,message", [
    (("30", "70", "--exact"), "n=4331 above charpoly guard 1500"),
    (("1", "100000", "--exact"), "n=300003 above charpoly guard 1500"),
    (("1", "100000"), "n=300003 above charpoly guard 1500"),
    # under the oracle's q and build guards, above the degree guard
    (("8", "100", "--oracle"), "n=1717 above charpoly guard 1500"),
    # the oracle's own guard speaks first
    (("30", "70", "--oracle"), "q=3721 above oracle guard 300"),
], ids=["exact-large-m", "exact-large-d", "default-route", "oracle-degree", "oracle-q"])
def test_charpoly_refuses_degree_above_guard(monkeypatch, capsys, built_graphs, argv, message):
    # refused before any polynomial work, so no closed-form factor is reached
    def block_factor(*args):
        raise AssertionError(f"_block_factor{args} reached")

    monkeypatch.setattr(charpoly, "_block_factor", block_factor)
    code, out, err = run_cli("charpoly", *argv, capsys=capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert built_graphs == []


def test_charpoly_degree_guard_admits_the_largest_m_at_its_limit(capsys):
    # G(18,39), n = 1480, is the largest m under the limit: G(19,40) has
    # n = 1599 at the least d = 2m+2
    assert cli._charpoly_guard(18, 39) is None
    assert cli._charpoly_guard(19, 40) == "n=1599 above charpoly guard 1500"
    assert cli._charpoly_guard(1, 499) is None and cli._charpoly_guard(1, 500) is not None
    assert run_cli("charpoly", "3", "120", "--exact", capsys=capsys)[0] == 0


def test_charpoly_oracle_splits_the_verify_blocks(monkeypatch, capsys):
    # charpoly --oracle runs the oracle on the 2m+1 blocks that verify certifies
    ks = []
    real = cli.char_poly_oracle
    monkeypatch.setattr(cli, "char_poly_oracle", lambda g, k=1: ks.append(k) or real(g, k))
    for m, d in [(1, 4), (2, 7), (3, 8)]:
        assert run_cli("charpoly", str(m), str(d), "--oracle", capsys=capsys)[0] == 0
    assert ks == [3, 5, 7]


@pytest.mark.parametrize("m", range(1, 9))
def test_charpoly_oracle_prints_the_exact_bytes(m, capsys):
    d = 2 * m + 4
    code, exact_out, _ = run_cli("charpoly", str(m), str(d), "--exact", capsys=capsys)
    assert code == 0
    code, oracle_out, _ = run_cli("charpoly", str(m), str(d), "--oracle", capsys=capsys)
    assert code == 0
    assert oracle_out == exact_out


def test_oracle_guard_reads_q_then_the_build_guard():
    assert cli._oracle_guard(8, 40) is None and cli._oracle_guard(1, 800) is None
    assert cli._oracle_guard(9, 20) == "q=361 above oracle guard 300"
    assert cli._oracle_guard(8, 1000) == cli._build_guard(8, 1000) is not None


@pytest.mark.parametrize("method", ["dense", "blocks"])
def test_spectrum_refuses_pair_above_eigensolver_guard(capsys, built_graphs, method):
    code, out, err = run_cli("spectrum", "5", "2000", "--method", method, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: n=22011 above eigensolver guard 600\n"
    assert built_graphs == []


@pytest.mark.parametrize("error", [ConsistencyError, SolverConvergenceError])
def test_internal_error_exit_code(monkeypatch, capsys, error):
    def broken(m, d):
        raise error("simulated")

    monkeypatch.setattr(cli, "char_poly_exact", broken)
    code, out, err = run_cli("charpoly", "1", "4", capsys=capsys)
    assert code == 3
    assert out == ""
    assert err == "internal error: simulated\n"


# A ValueError raised inside the package is a bug, not a usage error: the
# spectral solver's Hermitian check and the oracle's block-circulant check
# both exit 3.
@pytest.mark.parametrize("module,name,check,message", [
    (spectral, "symmetric_eigenvalues", "lambda2",
     "matrix is not finite and Hermitian (defect 1.00e+00)"),
    (cli, "char_poly_oracle_residues", "charpoly",
     "adjacency matrix is not block circulant with 3 blocks"),
], ids=["solver", "oracle"])
def test_internal_value_error_exits_3(monkeypatch, capsys, fresh_memos,
                                      module, name, check, message):
    def broken(*args):
        raise ValueError(message)

    monkeypatch.setattr(module, name, broken)
    code, out, err = run_cli("verify", "--m", "1", "--d", "4", "--checks", check,
                             capsys=capsys)
    assert (code, out, err) == (3, "", f"internal error: {message}\n")


def test_lapack_failure_exit_code(monkeypatch, capsys, fresh_memos):
    def broken(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", broken)
    code, out, err = run_cli("verify", "--m", "1", "--d", "4", "--checks", "lambda2",
                             capsys=capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: LAPACK eigvalsh failed")


def verify_rows(capsys, check, m, d):
    code, out, _ = run_cli("verify", "--m", m, "--d", d, "--checks", check, capsys=capsys)
    return code, [(r["ok"], r["detail"]) for r in json.loads(out)["results"]]


def test_largest_eigenvalue_off_the_degree_fails_lambda2(monkeypatch, capsys, fresh_memos):
    real = spectral.eigenvalues_dense

    def lifted(g):
        values = real(g).copy()
        values[0] = 4.5
        return values

    monkeypatch.setattr(spectral, "eigenvalues_dense", lifted)
    message = "largest eigenvalue 4.5 != degree 4"
    with pytest.raises(CheckFailure) as exc:
        spectral.lambda2(1, 4)
    assert str(exc.value) == message
    assert verify_rows(capsys, "lambda2", "1", "4") == (1, [(False, message)])


def test_rigidity_command_exits_1_on_a_failed_check(monkeypatch, capsys, fresh_memos):
    # verify catches a failed check per row, so only rigidity reaches main's
    # CheckFailure branch: G(2,6)'s lambda_1 set off its degree
    real = spectral.eigenvalues_dense

    def lifted(g):
        values = real(g).copy()
        values[0] = 6.5
        return values

    monkeypatch.setattr(spectral, "eigenvalues_dense", lifted)
    assert run_cli("rigidity", "1", "6", capsys=capsys) == (
        1, "", "check failed: largest eigenvalue 6.5 != degree 6\n")


def test_complex_bracket_root_fails_the_pipeline(monkeypatch, capsys, fresh_memos):
    # z^3 + z has the roots 0 and +-i
    monkeypatch.setattr(graeffe, "bracket_factor", lambda n, m, d: Poly((0, 1, 0, 1)))
    message = ("bracket factor n=3, (m,d)=(1,4) produced a complex root "
               "(relative imaginary part 1.000e+00)")
    with pytest.raises(CheckFailure) as exc:
        graeffe.fn_max_root(3, 1, 4)
    assert str(exc.value) == message
    assert verify_rows(capsys, "pipeline", "1", "4") == (1, [(False, message)])


def test_verify_builds_each_graph_and_spectrum_once(monkeypatch, capsys, built_graphs):
    solved, block_spectra = [], []

    def counted_solve(mat):
        solved.append(len(mat))
        return solve(mat)

    def counted_blocks(m, d):
        block_spectra.append((m, d))
        return blocks(m, d)

    solve, blocks = spectral.symmetric_eigenvalues, spectral.eigenvalues_block_circulant
    monkeypatch.setattr(spectral, "symmetric_eigenvalues", counted_solve)
    monkeypatch.setattr(cli, "eigenvalues_block_circulant", counted_blocks)
    code, out, _ = run_cli("verify", "--m", "2", "--d", "7",
                           "--checks", "lambda2,spectra,pipeline,rigidity", capsys=capsys)
    assert code == 0 and json.loads(out)["all_ok"] is True
    assert built_graphs == [(2, 7)]
    # the dense route solves the q = 25 twin quotient of the n = 40 graph once
    assert solved.count(25) == 1 and 40 not in solved
    assert block_spectra == [(2, 7)]


def stale_family_graph():
    # G(1,4) after two later pairs: no longer the graph of the pair record
    g = graphs.build_extremal_graph(1, 4)
    for d in (5, 6):
        graphs.build_extremal_graph(1, d)
    return g, spectral.eigenvalues_block_circulant(1, 4)


@pytest.mark.parametrize("make", [
    lambda: (path_graph(3)._replace(params=(5, 400)), [2 ** 0.5, 0.0, -2 ** 0.5]),
    stale_family_graph,
], ids=["path-with-params", "stale-pair"])
def test_dense_spectrum_of_a_graph_off_the_record_builds_none(built_graphs, make):
    # the twin quotient is read from the pair record only for the record's own
    # graph; any other graph is classed as it is, whatever its params say
    g, expected = make()
    built_graphs.clear()
    values = spectral.eigenvalues_dense(g)
    assert built_graphs == []
    assert np.allclose(values, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("argv", [("verify", "--m", "2", "--d", "6", "--checks", "rigidity"),
                                  ("rigidity", "1", "8")], ids=["verify", "rigidity"])
def test_rigidity_builds_no_block_stack(monkeypatch, capsys, fresh_memos, argv):
    # mu_2 is read from the dense route, so only spectra and spectrum --method
    # blocks build the Hermitian block stack
    stacks = []

    def counted_stack(m, d):
        stacks.append((m, d))
        return stack(m, d)

    stack = spectral.hermitian_blocks
    monkeypatch.setattr(spectral, "hermitian_blocks", counted_stack)
    code, out, _ = run_cli(*argv, capsys=capsys)
    assert code == 0 and json.loads(out)
    assert stacks == []


def test_skipped_checks_build_no_graph(capsys, built_graphs):
    # |E| = 1,009,830 is above the build guard, which the packing check shares
    code, out, _ = run_cli("verify", "--m", "1", "--d", "820",
                           "--checks", "charpoly,rootbound,packing,rigidity", capsys=capsys)
    assert code == 0
    assert all(r["skipped"] for r in json.loads(out)["results"])
    assert built_graphs == []


def test_out_of_memory_is_a_usage_error(monkeypatch, capsys):
    def exhausted(m, d):
        raise MemoryError

    monkeypatch.setattr(cli, "build_extremal_graph", exhausted)
    # within the build guard, which refuses 5 2000 before any graph is built
    code, out, err = run_cli("build", "5", "100", capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory")


@pytest.mark.parametrize("argv", [("build", "1", "4"),
                                  ("verify", "--m", "1", "--d", "4", "--checks", "construction")])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(*argv, "--out", str(target), capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.parent.exists()


def test_identity_suites_computed_once_per_m_and_per_process(monkeypatch, capsys):
    calls = {"roots": [], "determinants": 0}

    def counted_roots(m):
        calls["roots"].append(m)
        return roots(m)

    def counted_determinants():
        calls["determinants"] += 1
        return determinants()

    roots, determinants = cli.verify_root_of_unity_identities, cli.verify_determinant_identities
    monkeypatch.setattr(cli, "verify_root_of_unity_identities", counted_roots)
    monkeypatch.setattr(cli, "verify_determinant_identities", counted_determinants)
    cli._root_of_unity_report.cache_clear()
    cli._determinant_report.cache_clear()
    try:
        code, out, _ = run_cli("verify", "--m", "1..2", "--d", "auto",
                               "--checks", "identities", capsys=capsys)
    finally:
        cli._root_of_unity_report.cache_clear()
        cli._determinant_report.cache_clear()
    assert code == 0
    assert len(json.loads(out)["results"]) == 14
    assert calls == {"roots": [1, 2], "determinants": 1}
    assert all(r["detail"].endswith("determinant identities exact modulo 2147483647")
               for r in json.loads(out)["results"])


def test_root_of_unity_suite_once_per_m_in_any_order(monkeypatch, capsys):
    # the benchmark issues one pair per command in shuffled order, so the
    # memo must keep every m, not only the last
    calls = []

    def counted_roots(m):
        calls.append(m)
        return roots(m)

    roots = cli.verify_root_of_unity_identities
    monkeypatch.setattr(cli, "verify_root_of_unity_identities", counted_roots)
    cli._root_of_unity_report.cache_clear()
    try:
        for m, d in [(1, 4), (2, 6), (1, 5)]:
            code, _, _ = run_cli("verify", "--m", str(m), "--d", str(d),
                                 "--checks", "identities", capsys=capsys)
            assert code == 0
    finally:
        cli._root_of_unity_report.cache_clear()
    assert calls == [1, 2]


def test_identities_skipped_above_guard(monkeypatch, capsys):
    def refuse(m):
        raise AssertionError(f"root-of-unity identities ran at m={m}")

    monkeypatch.setattr(cli, "verify_root_of_unity_identities", refuse)
    code, out, _ = run_cli("verify", "--m", "200", "--d", "402", "--checks", "identities",
                           capsys=capsys)
    assert code == 0
    [row] = json.loads(out)["results"]
    assert row["skipped"] and row["ok"] is None
    assert row["detail"] == f"m=200 above identities guard {cli.IDENTITIES_M_GUARD}" \
        == "m=200 above identities guard 150"


def test_verify_has_no_seed_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", "0", "--m", "1", "--d", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("charpoly", "1", "4"), ("build", "1", "4")])
def test_out_file_bytes_equal_stdout(tmp_path, capsys, argv):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(*argv, capsys=capsys)
    assert code == 0 and run_cli(*argv, "--out", str(target), capsys=capsys)[0] == 0
    assert target.read_bytes() == out.encode() and out.endswith("\n")


def test_verify_identities_exact_where_floats_drifted(capsys):
    # a float64 check of the sum identity drifted past 1e-10 for m = 8..14
    code, out, _ = run_cli("verify", "--m", "8..12", "--d", "auto",
                           "--checks", "identities", capsys=capsys)
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 35 and all(row["ok"] for row in rows)
    assert rows[0]["detail"].startswith("root-of-unity identities exact modulo ")


@pytest.mark.parametrize("d", [16384, 10**80])
def test_verify_rootbound_decided_in_integers(capsys, d):
    # at (2, 16384) a float64 image of the bound missed the window edge, and
    # 10**80 overflows a float
    code, out, _ = run_cli("verify", "--checks", "rootbound", "--m", "2", "--d", str(d),
                           capsys=capsys)
    assert code == 0
    [row] = json.loads(out)["results"]
    assert (row["ok"], row["detail"]) == (True, "monotone=True exact=True")


def test_verify_rootbound_reports_non_monotone_radicands(monkeypatch, capsys):
    # descending radicands for n = 3, 9 at m = 4
    monkeypatch.setattr(cli, "root_bound_radicands", lambda m, d: [-3, -9])
    code, out, _ = run_cli("verify", "--checks", "rootbound", "--m", "4", "--d", "10",
                           capsys=capsys)
    assert code == 1
    [row] = json.loads(out)["results"]
    assert (row["ok"], row["detail"]) == (False, "monotone=False exact=True")


def test_verify_rootbound_equal_radicands_are_monotone(monkeypatch, capsys):
    # equal neighbours give equal bounds, which never fall as n rises
    monkeypatch.setattr(cli, "root_bound_radicands", lambda m, d: [7, 7])
    code, out, _ = run_cli("verify", "--checks", "rootbound", "--m", "4", "--d", "10",
                           capsys=capsys)
    assert code == 0
    [row] = json.loads(out)["results"]
    assert (row["ok"], row["detail"]) == (True, "monotone=True exact=True")


# SHA-256 of the stdout of two rootbound sweeps, recorded at version 0.1.0.
# The JSON report carries __version__, so a version bump re-records its
# digest; the CSV report carries no version.
ROOTBOUND_DIGESTS = [
    (("--m", "2..50", "--d", "6..200"),
     "3af648d889f61d40f5a680b16c48ce9978b0a88c6da1ad6d00f00b050afa3994"),
    (("--m", "1..6", "--d", "4..30", "--format", "csv"),
     "84d56859db831b709eaca559a19c112cf3ee6906535ec610086e747b5d96ae7a"),
]


@pytest.mark.parametrize("argv,digest", ROOTBOUND_DIGESTS, ids=["json", "csv"])
def test_verify_rootbound_report_pinned(capsys, argv, digest):
    code, out, err = run_cli("verify", "--checks", "rootbound", *argv, capsys=capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the stdout of the benchmark's three closed-form charpoly
# commands, whose (x+1)^e prefactors run the Taylor shift over 672 to 848
# coefficients.
CHARPOLY_EXACT_DIGESTS = [
    ((8, 40), "f9865f30790175ae6a8d047d6fb3a3ec4d974474c8d48797fdeedb790a140960"),
    ((5, 60), "403f92bbb6ef5c55215d9bceb532aa0aae5efd2da68e64b05d62d2c25c1288fe"),
    ((3, 120), "0da2a02798ced5de8885d120d2f8c96231ab34d657e89c80754508523ee27caa"),
]


@pytest.mark.parametrize("pair,digest", CHARPOLY_EXACT_DIGESTS, ids=["8-40", "5-60", "3-120"])
def test_charpoly_exact_output_pinned(capsys, pair, digest):
    code, out, err = run_cli("charpoly", *map(str, pair), "--exact", capsys=capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_construction_skips_pair_above_build_guard(monkeypatch, capsys):
    def refuse(m, d):
        raise AssertionError("the build guard should have skipped this pair")

    monkeypatch.setattr(cli, "build_extremal_graph", refuse)
    code, out, _ = run_cli("verify", "--m", "5", "--d", "2000", "--checks", "construction",
                           capsys=capsys)
    assert code == 0
    [row] = json.loads(out)["results"]
    assert row["skipped"] is True
    assert row["detail"] == "|E|=22011000 above build guard 1000000"


def test_verify_construction_fails_on_three_disjoint_cliques(monkeypatch, capsys, fresh_memos):
    # 3 K_5 is 4-regular with the 15 vertices and 30 edges of G(1,4), but its
    # cliques share no edge
    g = Graph.from_edges(15, [(u, v) for base in (0, 5, 10)
                              for u in range(base, base + 5) for v in range(u + 1, base + 5)],
                         params=(1, 4))
    assert (g.n, g.edge_count) == (15, 30)
    monkeypatch.setattr(graphs, "_construct", lambda m, d: g)
    assert verify_rows(capsys, "construction", "1", "4") == (
        1, [(False, "disconnected; wrong cross-edge count")])


def test_verify_construction_fails_on_one_cross_edge_moved(monkeypatch, capsys, fresh_memos):
    # G(2,6) with cross edge (1,7) and in-clique edge (18,19) swapped for
    # (1,18) and (7,19): still 6-regular and connected with 105 edges, but
    # 11 clique crossing edges in place of m(2m+1) = 10
    real = graphs._construct(2, 6)
    edges = set(real.edges()) - {(1, 7), (18, 19)} | {(1, 18), (7, 19)}
    g = Graph.from_edges(real.n, edges, params=(2, 6))
    assert (g.edge_count, set(graphs.degrees(g)), graphs.is_connected(g)) == (105, {6}, True)
    monkeypatch.setattr(graphs, "_construct", lambda m, d: g)
    assert verify_rows(capsys, "construction", "2", "6") == (1, [(False, "wrong cross-edge count")])
    assert graphs.clique_crossings(2, 6) == 11


def test_verify_construction_fails_on_two_disjoint_cliques(monkeypatch, capsys, fresh_memos):
    # 2 K_5 is 4-regular like G(1,4), but on 10 vertices and 20 edges
    g = Graph.from_edges(10, [(u, v) for base in (0, 5)
                              for u in range(base, base + 5) for v in range(u + 1, base + 5)],
                         params=(1, 4))
    monkeypatch.setattr(graphs, "_construct", lambda m, d: g)
    assert verify_rows(capsys, "construction", "1", "4") == (1, [(
        False, "wrong vertex count; wrong edge count; disconnected; wrong cross-edge count")])


def test_verify_construction_fails_on_a_stored_edge_count_off_its_rows(
        monkeypatch, capsys, fresh_memos):
    # n and a d-regular row set fix the edge count, so only a Graph whose
    # stored edge_count disagrees with its own rows reaches this problem
    real = graphs._construct(1, 4)
    monkeypatch.setattr(graphs, "_construct",
                        lambda m, d: real._replace(edge_count=real.edge_count + 1))
    assert verify_rows(capsys, "construction", "1", "4") == (1, [(False, "wrong edge count")])


def test_verify_charpoly_fails_on_moved_cross_edges(monkeypatch, capsys, fresh_memos):
    # the same move in G(2,6) breaks the block circulance the oracle needs,
    # a refusal (exit 3); made in all five cliques at once it keeps the
    # graph block circulant and 6-regular, but slots 4 and 5 of each clique
    # stop being twins: q = 35 classes, so e = 0 on the graph against 10
    real = graphs._construct(2, 6)
    moved = Graph.from_edges(real.n, set(real.edges()) - {(1, 7), (18, 19)} | {(1, 18), (7, 19)},
                             params=(2, 6))
    monkeypatch.setattr(graphs, "_construct", lambda m, d: moved)
    code, out, err = run_cli("verify", "--m", "2", "--d", "6", "--checks", "charpoly",
                             capsys=capsys)
    assert (code, out) == (3, "")
    assert err == "internal error: adjacency matrix is not block circulant with 5 blocks\n"

    def edge(u, v):
        return tuple(sorted((u[0] % 5 * 7 + u[1], v[0] % 5 * 7 + v[1])))

    edges = set(real.edges())
    for i in range(5):
        edges -= {edge((i, 1), (i + 1, 0)), edge((i + 2, 4), (i + 2, 5))}
        edges |= {edge((i, 1), (i + 2, 4)), edge((i + 1, 0), (i + 2, 5))}
    rotated = Graph.from_edges(real.n, edges, params=(2, 6))
    assert (rotated.edge_count, set(graphs.degrees(rotated))) == (105, {6})
    graphs._record = None
    monkeypatch.setattr(graphs, "_construct", lambda m, d: rotated)
    assert verify_rows(capsys, "charpoly", "2", "6") == (
        1, [(False, "prefactor (x+1)^0 on the graph, (x+1)^10 in the closed form")])


DEFAULT_PAIRS = [(m, d) for m in range(1, 4) for d in range(2 * m + 2, 2 * m + 9)]


def test_verify_classes_each_pair_once(monkeypatch, capsys, fresh_memos, crossing_counts):
    # each pair of the default sweep builds its graph, counts its clique
    # crossings and solves its dense spectrum once, and the dense spectrum
    # and the charpoly oracle read one twin quotient, classed with the 2m+1
    # blocks
    built, classed, solved = [], [], []
    construct, classing, dense = (graphs._construct, graphs.closed_twin_quotient,
                                  spectral.eigenvalues_dense)

    def counted_construct(m, d):
        built.append((m, d))
        return construct(m, d)

    def counted_classing(g, k=1):
        classed.append((g.params, k))
        return classing(g, k)

    def counted_dense(g):
        solved.append(g.params)
        return dense(g)

    monkeypatch.setattr(graphs, "_construct", counted_construct)
    monkeypatch.setattr(graphs, "closed_twin_quotient", counted_classing)
    monkeypatch.setattr(spectral, "eigenvalues_dense", counted_dense)
    code, out, _ = run_cli("verify", "--m", "1..3", "--d", "auto", "--checks", "all",
                           capsys=capsys)
    assert code == 0 and json.loads(out)["all_ok"] is True
    assert classed == [((m, d), 2 * m + 1) for m, d in DEFAULT_PAIRS]
    assert built == crossing_counts == solved == DEFAULT_PAIRS


def test_verify_sweep_rows_equal_each_pair_alone(capsys, fresh_memos):
    # the record one pair leaves behind changes no row of the next pair
    code, out, _ = run_cli("verify", "--m", "1..3", "--d", "auto", "--checks", "all",
                           capsys=capsys)
    assert code == 0
    alone = []
    for m, d in DEFAULT_PAIRS:
        graphs._record = None
        _, single, _ = run_cli("verify", "--m", str(m), "--d", str(d), "--checks", "all",
                               capsys=capsys)
        alone += json.loads(single)["results"]
    assert json.loads(out)["results"] == alone


@pytest.mark.parametrize("argv", [("spectrum", "2", "6"), ("rigidity", "1", "6"),
                                  ("verify", "--m", "1", "--d", "4")])
def test_tol_option_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_pack_default_checks_sigma(capsys):
    code, out, _ = run_cli("pack", "1", "4", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["sigma"] == 1 and data["certificate"]["deficit"] == 1


def test_pack_searches_sigma_down_from_m_plus_1(capsys, pack_calls):
    code, out, _ = run_cli("pack", "3", "8", capsys=capsys)
    assert code == 0
    assert json.loads(out)["sigma"] == 3
    assert pack_calls == [(63, 4), (63, 3)]


def test_pack_explicit_k_failure(capsys):
    code, out, _ = run_cli("pack", "1", "4", "--trees", "2", capsys=capsys)
    assert code == 1
    data = json.loads(out)
    assert data["packed"] is False and "witness" in data


@pytest.mark.parametrize("trees", [(), ("--trees", "2")])
def test_pack_refuses_pair_above_packing_guard(capsys, built_graphs, trees):
    code, out, err = run_cli("pack", "5", "60", *trees, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: |E|=20130 above packing guard 10500\n"
    assert built_graphs == []


@pytest.mark.parametrize("trees,tree_edges", [("751", 10514), ("100000000", 1400000000)])
def test_pack_refuses_tree_count_above_packing_guard(capsys, built_graphs, pack_calls,
                                                     trees, tree_edges):
    # the search sets up all k forests of n = 15 vertices before it places an
    # edge, so k(n-1) is refused before the graph is built
    code, out, err = run_cli("pack", "1", "4", "--trees", trees, capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"error: k(n-1)={tree_edges} above packing guard 10500\n"
    assert built_graphs == [] and pack_calls == []


def test_pack_tree_count_at_packing_guard_is_searched(capsys):
    # k(n-1) = 750 * 14 = 10500 is at the guard, not above it
    code, out, _ = run_cli("pack", "1", "4", "--trees", "750", capsys=capsys)
    assert code == 1 and json.loads(out)["packed"] is False


@pytest.mark.parametrize("trees", ["0", "-1"])
def test_pack_nonpositive_tree_count_reaches_the_library(capsys, trees):
    code, out, err = run_cli("pack", "1", "4", "--trees", trees, capsys=capsys)
    assert (code, out, err) == (2, "", f"error: need k >= 1, got k={trees}\n")


def test_pack_explicit_k_success(capsys):
    code, out, _ = run_cli("pack", "2", "6", "--trees", "2", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["packing"]["trees"]) == 2


def test_rigidity_command(capsys):
    code, out, _ = run_cli("rigidity", "1", "6", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["certificate"]["deficit"] == 2
    assert data["window"][0] < data["mu2"] <= data["window"][1] + 1e-9
    assert data["condition1_holds"] is False


def test_rigidity_domain_error(capsys):
    # r >= 1 and d >= 6r is the family domain of G(3r-1, d)
    for r, m in [("1", 2), ("0", -1)]:
        code, out, err = run_cli("rigidity", r, "5", capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: family requires d >= 2m+2 >= 4; got m={m}, d=5\n"


def test_rigidity_certificate_off_its_closed_form_exits_3(monkeypatch, capsys, fresh_memos):
    # one crossing edge more than the m(2m+1) of G(2,6)
    monkeypatch.setattr(rigidity, "clique_crossings", lambda m, d: m * (2 * m + 1) + 1)
    message = "certificate deficit left its closed form"
    with pytest.raises(ConsistencyError) as exc:
        rigidity.rigidity_certificate(1, 6)
    assert str(exc.value) == message
    assert run_cli("rigidity", "1", "6", capsys=capsys) == (3, "", f"internal error: {message}\n")


def test_rigidity_refuses_pair_above_eigensolver_guard(capsys, built_graphs):
    code, out, err = run_cli("rigidity", "1", "200", capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: n=1005 above eigensolver guard 600\n"
    assert built_graphs == []


def test_verify_small_sweep_json(capsys):
    code, out, _ = run_cli(
        "verify", "--m", "1..2", "--d", "auto",
        "--checks", "construction,lambda2,spectra,rootbound",
        capsys=capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_ok"] is True
    assert "seed" not in data and "version" in data
    assert "tol" not in data
    ms = {r["m"] for r in data["results"]}
    assert ms == {1, 2}


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        "verify", "--m", "2", "--d", "6..7", "--checks", "rootbound,pipeline",
        "--format", "csv", capsys=capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("check,m,d,n,ok,root_bound,max_root,quartic_ok,window_ok")
    pipeline_rows = [ln for ln in lines[1:] if ln.startswith("pipeline")]
    assert len(pipeline_rows) == 2  # one per divisor n != 1 per d


def test_verify_single_values(capsys):
    code, out, _ = run_cli("verify", "--m", "2", "--d", "6", "--checks", "packing,rigidity",
                        capsys=capsys)
    assert code == 0
    data = json.loads(out)
    kinds = {r["check"] for r in data["results"]}
    assert kinds == {"packing", "rigidity"}
    assert all(r["ok"] for r in data["results"])


def assert_same_text(out: str, expected: str) -> None:
    """out == expected, shown at the first difference: pytest's own diff of
    two reports of a megabyte takes minutes."""
    if out != expected:
        at = len(os.path.commonprefix([out, expected]))
        pytest.fail(f"differ at {at}: {out[at - 40:at + 40]!r} != {expected[at - 40:at + 40]!r}")


def assert_indented(out: str) -> None:
    """The report is the bytes json's own ``indent=2`` writer prints."""
    assert_same_text(out, json.dumps(json.loads(out), indent=2) + "\n")


@pytest.mark.parametrize("argv", [
    ("--checks", "rootbound", "--m", "2..12", "--d", "6..60"),
    (),
    ("--m", "2", "--d", "6..9", "--checks", "lambda2,spectra,pipeline,rigidity"),
    ("--m", "1..4", "--d", "14..16", "--checks", "packing"),
], ids=["rootbound", "default", "spectral", "packing"])
def test_verify_json_is_the_indented_encoding(capsys, argv):
    code, out, _ = run_cli("verify", *argv, capsys=capsys)
    assert code == 0
    assert_indented(out)


def test_verify_json_with_failed_and_skipped_rows_is_the_indented_encoding(
        monkeypatch, capsys):
    def refuted(q, m, d):
        raise CheckFailure(f"quartic inequality refuted at ({m}, {d})")

    monkeypatch.setattr(cli, "root_bound_inequality_holds", refuted)
    code, out, _ = run_cli("verify", "--m", "1..2", "--d", "auto",
                           "--checks", "construction,rootbound", capsys=capsys)
    assert code == 1
    rows = json.loads(out)["results"]
    assert [r["ok"] for r in rows if r["check"] == "rootbound"] == [None] * 7 + [False] * 7
    assert rows[-1]["detail"] == "quartic inequality refuted at (2, 12)"
    assert list(rows[-1]) == ["check", "m", "d", "ok", "skipped", "detail"]
    assert_indented(out)


# Row strings that look like the writer's own separators, an escaped NUL,
# text outside ASCII, the floats whose spelling is easy to get wrong, and
# numpy's float64, a float subclass that json writes as a float.
AWKWARD_ROW = {
    "detail": '}, {"x": {"y": [1, 2]}}, "a": { \0 }\0{',
    "note": "λ₂ < d − (2m+1)/(d+3) ≤ ∞",
    '}\0{": {': ",",
    "nan": float("nan"), "inf": float("inf"), "ninf": float("-inf"), "zero": -0.0,
    "big": 10**40, "small": 5e-324, "none": None, "flag": False,
    "numpy": np.float64(0.1),
}


def test_verify_json_writer_on_awkward_rows(monkeypatch, capsys):
    monkeypatch.setitem(cli.CHECKS, "rootbound",
                        (lambda m, d: None, lambda m, d: [dict(ok=True, **AWKWARD_ROW)] * 2))
    code, out, _ = run_cli("verify", "--m", "2", "--d", "6..7", "--checks", "rootbound",
                           capsys=capsys)
    assert code == 0
    rows = [dict(check="rootbound", m=2, d=d, ok=True, skipped=False, **AWKWARD_ROW)
            for d in (6, 7) for _ in range(2)]
    expected = {"version": extremal_trees.__version__, "m": "2", "d": "6..7",
                "checks": ["rootbound"], "results": rows, "all_ok": True}
    assert_same_text(out, json.dumps(expected, indent=2) + "\n")


def test_verify_json_writer_peak_memory(monkeypatch, capsys):
    # the writer keeps at most two copies of the report's text alive: on the
    # 7,203-row rootbound report its traced peak is at most 3.5 times its output
    real, measured = cli._indented_json, []

    def traced(payload):
        tracemalloc.start()
        try:
            text = real(payload)
            measured.append((tracemalloc.get_traced_memory()[1], len(text)))
        finally:
            tracemalloc.stop()
        return text

    monkeypatch.setattr(cli, "_indented_json", traced)
    code, out, _ = run_cli("verify", "--checks", "rootbound", "--m", "2..50", "--d", "6..200",
                           capsys=capsys)
    [(peak, size)] = measured
    assert (code, size) == (0, len(out) - 1)
    assert peak <= 3.5 * size


# json writes none of these as a scalar: the containers would nest, and
# numpy's bool (no int subclass) and a Fraction it cannot write at all
@pytest.mark.parametrize("value", [[1, 2], (), {"a": 1}, np.True_, Fraction(1, 2)],
                         ids=["list", "tuple", "dict", "numpy-bool", "fraction"])
def test_verify_json_writer_refuses_a_row_that_is_not_flat(monkeypatch, capsys, value):
    monkeypatch.setitem(cli.CHECKS, "rootbound",
                        (lambda m, d: None, lambda m, d: [dict(ok=True, nested=value)]))
    code, out, err = run_cli("verify", "--m", "2", "--d", "6", "--checks", "rootbound",
                             capsys=capsys)
    assert (code, out) == (3, "")
    assert err == "internal error: a verify row holds a value that is not a JSON scalar\n"


def test_one_parser_per_process_keeps_no_state_between_commands(
        monkeypatch, capsys, tmp_path, sigma_calls):
    assert cli.build_parser() is cli.build_parser()

    code, out, _ = run_cli("pack", "1", "4", "--trees", "2", capsys=capsys)
    assert code == 1 and "witness" in json.loads(out)
    code, out, _ = run_cli("pack", "1", "4", capsys=capsys)
    assert code == 0 and json.loads(out)["sigma"] == 1
    assert [k_max for k_max, _ in sigma_calls] == [2]

    target = tmp_path / "report.csv"
    code, out, _ = run_cli("verify", "--m", "1", "--d", "4", "--checks", "construction",
                           "--format", "csv", "--out", str(target), capsys=capsys)
    assert (code, out) == (0, "") and target.read_text().startswith("check,m,d,")
    code, out, _ = run_cli("verify", capsys=capsys)
    data = json.loads(out)
    assert code == 0 and (data["m"], data["d"]) == ("1..3", "auto")
    assert data["checks"] == list(cli.CHECK_NAMES)
    assert {r["m"] for r in data["results"]} == {1, 2, 3}

    routes = []

    def counted(name):
        real = getattr(cli, name)

        def route(*args):
            routes.append(name)
            return real(*args)
        return route

    for name in ("char_poly_exact", "char_poly_oracle"):
        monkeypatch.setattr(cli, name, counted(name))
    assert run_cli("charpoly", "1", "4", "--oracle", capsys=capsys)[0] == 0
    assert run_cli("charpoly", "1", "4", capsys=capsys)[0] == 0
    assert routes == ["char_poly_oracle", "char_poly_exact"]


@pytest.fixture
def sigma_calls(monkeypatch):
    """(k_max, result) of every sigma search the CLI starts from here on."""
    calls = []
    real = cli.sigma

    def counted(g, k_max):
        calls.append((k_max, real(g, k_max)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "sigma", counted)
    return calls


def verify_packing(capsys, m, d):
    code, out, _ = run_cli("verify", "--m", m, "--d", d, "--checks", "packing", capsys=capsys)
    return code, [(r["m"], r["d"], r["ok"], r["detail"]) for r in json.loads(out)["results"]]


def test_verify_packing_proves_sigma_without_a_search(capsys, pack_calls, sigma_calls):
    code, rows = verify_packing(capsys, "3", "8")
    assert code == 0
    assert rows == [(3, 8, True, "sigma=3 certificate_deficit=3")]
    # Walecki's trees are written, not searched for
    assert pack_calls == []
    assert sigma_calls == []


def test_verify_packing_lifts_every_desk_pair(capsys, pack_calls, sigma_calls):
    code, rows = verify_packing(capsys, "1..5", "auto")
    assert code == 0
    assert [(m, d) for m, d, _, _ in rows] == DESK_SWEEP
    assert pack_calls == []
    assert sigma_calls == []


def test_verify_packing_trees_that_fail_verification_are_an_internal_error(
        monkeypatch, capsys, pack_calls, sigma_calls):
    # with path 1 replaced by path 0, G(3,8)'s first two trees coincide
    real = packing._walecki_path
    monkeypatch.setattr(packing, "_walecki_path", lambda size, i: real(size, 0 if i == 1 else i))
    code, out, err = run_cli("verify", "--m", "3", "--d", "8", "--checks", "packing",
                             capsys=capsys)
    assert (code, out) == (3, "")
    assert err == "internal error: trees share an edge\n"
    assert pack_calls == []
    assert sigma_calls == []


def test_verify_packing_fails_when_the_certificate_does_not_refute(
        monkeypatch, capsys, pack_calls, sigma_calls):
    # the trees still show sigma >= 3, but a partition with as many crossing
    # edges as m+1 trees need bounds nothing from above
    real = packing.clique_certificate

    def forged(m, d):
        cert = real(m, d)
        return cert._replace(crossing=cert.required)

    monkeypatch.setattr(cli, "clique_certificate", forged)
    code, rows = verify_packing(capsys, "3", "8")
    assert code == 1
    assert rows == [(3, 8, False, "sigma>=3 certificate_deficit=0")]
    assert pack_calls == []
    assert sigma_calls == []


def test_clique_crossings_counted_once_per_pair(monkeypatch, capsys, fresh_memos,
                                                 crossing_counts):
    # construction, the packing certificate and the rigidity certificate all
    # read the one count of G(2,12)'s clique crossing edges, and none of them
    # asks the generic partition count for it
    calls = []
    real = graphs.crossing_edges

    def counted(g, p):
        calls.append(g.params)
        return real(g, p)

    for module in (graphs, packing):
        monkeypatch.setattr(module, "crossing_edges", counted)
    code, out, _ = run_cli("verify", "--m", "2", "--d", "12", "--checks",
                           "construction,packing,rigidity", capsys=capsys)
    assert code == 0
    assert [r["ok"] for r in json.loads(out)["results"]] == [True, True, True]
    assert crossing_counts == [(2, 12)]
    assert calls == []


def test_verify_packing_sweep_rows(capsys):
    # the 36 pairs of the packing benchmark, details included
    code, rows = verify_packing(capsys, "1..4", "14..22")
    assert code == 0
    assert rows == [(m, d, True, f"sigma={m} certificate_deficit={m}")
                    for m in range(1, 5) for d in range(14, 23)]


# Every row of `verify --checks all` on five pairs that reach every skip
# branch below the build guard: (check, n, ok, skipped, quartic_ok,
# window_ok, detail of a skipped row).  "-" marks a field the row does not carry.
VERIFY_ROWS = {
    (1, 4): [
        ("construction", "-", True, False, "-", "-", None),
        ("lambda2", "-", True, False, "-", "-", None),
        ("spectra", "-", True, False, "-", "-", None),
        ("charpoly", "-", True, False, "-", "-", None),
        ("rootbound", "-", None, True, "-", "-", "quartic inequality applies for m >= 2"),
        ("pipeline", 3, True, False, None, True, None),
        ("packing", "-", True, False, "-", "-", None),
        ("rigidity", "-", None, True, "-", "-", "family parameter m is not of the form 3r-1"),
        ("identities", "-", True, False, "-", "-", None),
    ],
    (1, 50): [
        ("construction", "-", True, False, "-", "-", None),
        ("lambda2", "-", True, False, "-", "-", None),
        ("spectra", "-", True, False, "-", "-", None),
        ("charpoly", "-", True, False, "-", "-", None),
        ("rootbound", "-", None, True, "-", "-", "quartic inequality applies for m >= 2"),
        ("pipeline", 3, True, False, None, True, None),
        ("packing", "-", True, False, "-", "-", None),
        ("rigidity", "-", None, True, "-", "-", "family parameter m is not of the form 3r-1"),
        ("identities", "-", True, False, "-", "-", None),
    ],
    (2, 100): [
        ("construction", "-", True, False, "-", "-", None),
        ("lambda2", "-", True, False, "-", "-", None),
        ("spectra", "-", True, False, "-", "-", None),
        ("charpoly", "-", True, False, "-", "-", None),
        ("rootbound", "-", True, False, "-", "-", None),
        ("pipeline", 5, True, False, True, True, None),
        ("packing", "-", True, False, "-", "-", None),
        ("rigidity", "-", True, False, "-", "-", None),
        ("identities", "-", True, False, "-", "-", None),
    ],
    (2, 200): [
        ("construction", "-", True, False, "-", "-", None),
        ("lambda2", "-", None, True, "-", "-", "n=1005 above eigensolver guard 600"),
        ("spectra", "-", None, True, "-", "-", "n=1005 above eigensolver guard 600"),
        ("charpoly", "-", True, False, "-", "-", None),
        ("rootbound", "-", True, False, "-", "-", None),
        ("pipeline", "-", None, True, "-", "-", "n=1005 above eigensolver guard 600"),
        ("packing", "-", True, False, "-", "-", None),
        ("rigidity", "-", None, True, "-", "-", "n=1005 above eigensolver guard 600"),
        ("identities", "-", True, False, "-", "-", None),
    ],
    (9, 20): [
        ("construction", "-", True, False, "-", "-", None),
        ("lambda2", "-", True, False, "-", "-", None),
        ("spectra", "-", True, False, "-", "-", None),
        ("charpoly", "-", None, True, "-", "-", "q=361 above oracle guard 300"),
        ("rootbound", "-", True, False, "-", "-", None),
        ("pipeline", 19, True, False, True, True, None),
        ("packing", "-", True, False, "-", "-", None),
        ("rigidity", "-", None, True, "-", "-", "family parameter m is not of the form 3r-1"),
        ("identities", "-", True, False, "-", "-", None),
    ],
}


@pytest.mark.parametrize("m,d", list(VERIFY_ROWS))
def test_verify_rows_of_every_check(capsys, m, d):
    code, out, _ = run_cli("verify", "--m", str(m), "--d", str(d), "--checks", "all",
                           capsys=capsys)
    assert code == 0
    got = [
        (r["check"], r["m"], r["d"], r.get("n", "-"), r["ok"], r["skipped"],
         r.get("quartic_ok", "-"), r.get("window_ok", "-"),
         r["detail"] if r["skipped"] else None)
        for r in json.loads(out)["results"]
    ]
    assert got == [(check, m, d, *rest) for check, *rest in VERIFY_ROWS[(m, d)]]
    # every row, skipped or run, opens with the same six keys; a pipeline
    # row that runs adds its factor's columns after them
    for r in json.loads(out)["results"]:
        extra = (["n", "root_bound", "max_root", "quartic_ok", "window_ok"]
                 if r["check"] == "pipeline" and not r["skipped"] else [])
        assert list(r) == ["check", "m", "d", "ok", "skipped", "detail", *extra]


def test_verify_malformed_range(capsys):
    # strict parsing: every malformed spec is refused as usage, with its reason
    for spec, reason in [
        ("x..2", "malformed range 'x..2' (use lo..hi or one integer)"),
        ("5..", "malformed range '5..' (use lo..hi or one integer)"),
        ("..5", "malformed range '..5' (use lo..hi or one integer)"),
        ("1..2..3", "malformed range '1..2..3' (use lo..hi or one integer)"),
        ("3..1", "empty range '3..1'"),
        ("0", "m must be >= 1, got 0"),
    ]:
        assert run_cli("verify", "--m", spec, capsys=capsys) == (2, "", f"error: {reason}\n")


def test_verify_unknown_check(capsys):
    assert run_cli("verify", "--checks", "nonsense", capsys=capsys)[0] == 2


def test_verify_empty_sweep(capsys):
    assert run_cli("verify", "--m", "5", "--d", "4", capsys=capsys)[0] == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "extremal_trees.cli", "build", "1", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# m=1 d=4 n=15")


def run_fresh(code: str, *args: str):
    """The JSON that ``python -c code args`` prints, in a fresh interpreter that
    imports this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# whether numpy and fractions are loaded after the import, then each
# command's exit code and whether they are loaded after it, and last whether
# they are loaded after graeffe's closed-form leading coefficients
MAIN_EACH = """
import contextlib, io, json, sys
import extremal_trees.cli as cli
from extremal_trees.graeffe import factor_leading_coeffs
loaded = lambda: ["numpy" in sys.modules, "fractions" in sys.modules]
seen = [[None, *loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([cli.main(argv), *loaded()])
factor_leading_coeffs(3, 1, 4)
seen.append([None, *loaded()])
print(json.dumps(seen))
"""

NUMPY_FREE_COMMANDS = [
    (["build", "1", "4"], 0),
    (["pack", "2", "6"], 0),
    (["pack", "1", "4", "--trees", "2"], 1),
    (["charpoly", "8", "40", "--exact"], 0),
    (["verify", "--m", "2..3", "--d", "auto", "--checks", "construction,rootbound,packing"], 0),
]


def test_exact_and_packing_commands_never_import_numpy():
    # all in one interpreter, numpy and fractions checked after each; the
    # closing spectrum must load numpy, and the closing leading coefficients
    # fractions, which shows that the check reads the right names.  No
    # command builds a Fraction, so fractions stays out even with numpy in.
    commands = [argv for argv, _ in NUMPY_FREE_COMMANDS] + [["spectrum", "1", "4"]]
    assert run_fresh(MAIN_EACH, json.dumps(commands)) == [
        [None, False, False], *([code, False, False] for _, code in NUMPY_FREE_COMMANDS),
        [0, True, False], [None, True, True]]


# stdlib modules that no command needs at start-up: dataclasses pulls in
# inspect, fractions pulls in decimal, and only ``verify --format csv`` writes CSV
STARTUP_FREE = ("dataclasses", "inspect", "fractions", "decimal", "csv")


def test_cli_import_loads_every_package_module():
    # no command imports a package module of its own, so none is compiled
    # inside a command, and a tracer installed after the import sees every
    # layer; neither the import nor the parser loads a STARTUP_FREE module
    # that a bare interpreter of this environment does not load already
    bare = run_fresh("import json, sys; print(json.dumps(sorted(sys.modules)))")
    loaded = run_fresh("import json, sys; import extremal_trees.cli as cli; "
                       "cli.build_parser(); print(json.dumps(sorted(sys.modules)))")
    assert [m for m in loaded if m.split(".")[0] == "extremal_trees"] == sorted(
        ["extremal_trees", *(f"extremal_trees.{path.stem}" for path in PACKAGE.glob("*.py")
                             if path.stem != "__init__")])
    assert [m for m in STARTUP_FREE if m in loaded and m not in bare] == []


USAGE = {
    (): "usage: extremal-trees [-h] [--version]\n"
        "                      {build,spectrum,charpoly,pack,rigidity,verify} ...\n",
    ("build",): "usage: extremal-trees build [-h] [--format {edgelist,dot}] [--out OUT] m d\n",
    ("spectrum",): "usage: extremal-trees spectrum [-h] [--method {dense,blocks}] [--out OUT] m d\n",
    ("charpoly",): "usage: extremal-trees charpoly [-h] [--exact | --oracle] [--out OUT] m d\n",
    ("pack",): "usage: extremal-trees pack [-h] [--trees TREES] [--out OUT] m d\n",
    ("rigidity",): "usage: extremal-trees rigidity [-h] [--out OUT] r d\n",
    ("verify",): "usage: extremal-trees verify [-h] [--m M] [--d D] [--checks CHECKS]\n"
                 "                             [--format {json,csv}] [--out OUT]\n",
}


@pytest.mark.parametrize("command", USAGE, ids=lambda c: " ".join(c) or "program")
def test_help_usage_lines(monkeypatch, capsys, command):
    # the CLI surface: every subcommand keeps its positionals, its own
    # options and --out last; argparse wraps at $COLUMNS, so it is pinned
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.partition("\n\n")[0] + "\n" == USAGE[command]
