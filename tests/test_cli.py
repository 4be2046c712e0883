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


def test_verify_builds_each_graph_and_spectrum_once(monkeypatch, capsys, fresh_memos):
    built, solved, block_spectra = [], [], []

    class CountedGraph(graphs.Graph):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.params)

    def counted_solve(mat, tol=spectral.DEFAULT_TOL):
        solved.append(len(mat))
        return solve(mat, tol)

    def counted_blocks(m, d, tol=spectral.DEFAULT_TOL):
        block_spectra.append((m, d))
        return blocks(m, d, tol)

    solve, blocks = spectral.symmetric_eigenvalues, spectral.eigenvalues_block_circulant
    monkeypatch.setattr(graphs, "Graph", CountedGraph)
    monkeypatch.setattr(spectral, "symmetric_eigenvalues", counted_solve)
    monkeypatch.setattr(spectral, "eigenvalues_block_circulant", counted_blocks)
    code, out, _ = run_cli("verify", "--m", "2", "--d", "7",
                           "--checks", "lambda2,spectra,pipeline,rigidity", capsys=capsys)
    assert code == 0 and json.loads(out)["all_ok"] is True
    assert built == [(2, 7)]
    assert solved.count(40) == 1
    assert block_spectra == [(2, 7)]


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
