import json
import subprocess
import sys

import numpy as np
import pytest

from extremal_trees import ConsistencyError, SolverConvergenceError, cli, graphs, spectral
from extremal_trees.cli import main


@pytest.fixture
def fresh_memos():
    """Forget the graphs and spectra remembered by earlier calls."""
    graphs._remembered_graph.cache_clear()
    spectral._remembered_spectrum.cache_clear()
    yield
    graphs._remembered_graph.cache_clear()
    spectral._remembered_spectrum.cache_clear()


@pytest.fixture
def built_graphs(monkeypatch, fresh_memos):
    """The (m, d) of every graph constructed from here on."""
    built = []

    class CountedGraph(graphs.Graph):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.params)

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


def test_spectrum_blocks(capsys):
    code, out, _ = run_cli("spectrum", "2", "6", "--method", "blocks", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["values"]) == 35
    assert data["values"][0] == pytest.approx(6.0, abs=1e-9)
    assert data["solver"] == "blocks"
    assert "tol" not in data


def test_charpoly_exact_oracle_identical(capsys):
    code, exact_out, _ = run_cli("charpoly", "1", "4", "--exact", capsys=capsys)
    assert code == 0
    code, oracle_out, _ = run_cli("charpoly", "1", "4", "--oracle", capsys=capsys)
    assert code == 0
    assert exact_out == oracle_out
    data = json.loads(exact_out)
    assert len(data["coeffs"]) == 16 and data["coeffs"][-1] == "1"


def test_charpoly_oracle_size_guard(capsys):
    code, _, err = run_cli("charpoly", "3", "18", "--oracle", capsys=capsys)
    assert code == 2
    assert "char_poly_exact" in err


@pytest.mark.parametrize("error", [ConsistencyError, SolverConvergenceError])
def test_internal_error_exit_code(monkeypatch, capsys, error):
    def broken(m, d):
        raise error("simulated")

    monkeypatch.setattr(cli, "char_poly_exact", broken)
    code, out, err = run_cli("charpoly", "1", "4", capsys=capsys)
    assert code == 3
    assert out == ""
    assert err == "internal error: simulated\n"


def test_lapack_failure_exit_code(monkeypatch, capsys, fresh_memos):
    def broken(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", broken)
    code, out, err = run_cli("verify", "--m", "1", "--d", "4", "--checks", "lambda2",
                             capsys=capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: LAPACK eigvalsh failed")


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
    monkeypatch.setattr(spectral, "eigenvalues_block_circulant", counted_blocks)
    code, out, _ = run_cli("verify", "--m", "2", "--d", "7",
                           "--checks", "lambda2,spectra,pipeline,rigidity", capsys=capsys)
    assert code == 0 and json.loads(out)["all_ok"] is True
    assert built_graphs == [(2, 7)]
    assert solved.count(40) == 1
    assert block_spectra == [(2, 7)]


def test_skipped_checks_build_no_graph(capsys, built_graphs):
    code, out, _ = run_cli("verify", "--m", "1", "--d", "100",
                           "--checks", "charpoly,rootbound,packing,rigidity", capsys=capsys)
    assert code == 0
    assert all(r["skipped"] for r in json.loads(out)["results"])
    assert built_graphs == []


def test_out_of_memory_is_a_usage_error(monkeypatch, capsys):
    def exhausted(m, d):
        raise MemoryError

    monkeypatch.setattr(cli, "build_extremal_graph", exhausted)
    code, out, err = run_cli("build", "5", "2000", capsys=capsys)
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


def test_identity_reports_computed_once_per_m_and_seed(monkeypatch, capsys):
    calls = {"roots": [], "determinants": []}

    def counted_roots(m, **kwargs):
        calls["roots"].append((m, kwargs["seed"]))
        return roots(m, **kwargs)

    def counted_determinants(**kwargs):
        calls["determinants"].append(kwargs["seed"])
        return determinants(**kwargs)

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
    assert calls == {"roots": [(1, 0), (2, 0)], "determinants": [0]}


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
    assert err == "error: |E|=20130 above packing guard\n"
    assert built_graphs == []


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
    code, _, _ = run_cli("rigidity", "1", "5", capsys=capsys)
    assert code == 2


def test_verify_small_sweep_json(capsys):
    code, out, _ = run_cli(
        "verify", "--m", "1..2", "--d", "auto",
        "--checks", "construction,lambda2,spectra,rootbound",
        capsys=capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_ok"] is True
    assert data["seed"] == 0 and "version" in data
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


# Every row of `verify --checks all` on four pairs that reach all eight skip
# branches: (check, n, ok, skipped, quartic_ok, window_ok, detail of a
# skipped row).  "-" marks a field the row does not carry.
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
        ("charpoly", "-", None, True, "-", "-", "n=153 above oracle size guard 128"),
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
        ("charpoly", "-", None, True, "-", "-", "n=505 above oracle size guard 128"),
        ("rootbound", "-", True, False, "-", "-", None),
        ("pipeline", 5, True, False, True, True, None),
        ("packing", "-", None, True, "-", "-", "|E|=25250 above packing guard"),
        ("rigidity", "-", True, False, "-", "-", None),
        ("identities", "-", True, False, "-", "-", None),
    ],
    (2, 200): [
        ("construction", "-", True, False, "-", "-", None),
        ("lambda2", "-", None, True, "-", "-", "n=1005 above eigensolver guard"),
        ("spectra", "-", None, True, "-", "-", "n=1005 above eigensolver guard"),
        ("charpoly", "-", None, True, "-", "-", "n=1005 above oracle size guard 128"),
        ("rootbound", "-", True, False, "-", "-", None),
        ("pipeline", "-", None, True, "-", "-", "n=1005 above eigensolver guard"),
        ("packing", "-", None, True, "-", "-", "|E|=100500 above packing guard"),
        ("rigidity", "-", None, True, "-", "-", "n=1005 above eigensolver guard"),
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


def test_verify_identities_seeded(capsys):
    code, out, _ = run_cli("verify", "--m", "1", "--d", "4", "--checks", "identities",
                        "--seed", "5", capsys=capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 5


def test_verify_malformed_range(capsys):
    assert run_cli("verify", "--m", "3..1", capsys=capsys)[0] == 2
    assert run_cli("verify", "--m", "x..2", capsys=capsys)[0] == 2


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
