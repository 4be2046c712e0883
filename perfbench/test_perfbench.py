"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import sys
from pathlib import Path

import gate
import one_pass
import run
from reference import GAUGES, scale
from tracer import PER_LAYER_UNITS, LAYERS, Tracer, self_times, span_cost
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(run.SRC))
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())["commands"]


def test_self_times_of_a_synthetic_span_tree():
    names = ["cli.main", "spectral.lambda2", "graphs.build_extremal_graph",
             "spectral.symmetric_eigenvalues"]
    spans = [
        (0, 0.0, 10.0, -1),   # cli.main: 10 s, children cover 1 + 6
        (2, 1.0, 2.0, 0),     # graphs: 1 s, leaf
        (1, 3.0, 9.0, 0),     # spectral.lambda2: 6 s, children cover 2 + 1.5
        (2, 3.5, 5.5, 2),     # graphs: 2 s, leaf
        (3, 6.0, 7.5, 2),     # spectral.symmetric_eigenvalues: 1.5 s, leaf
    ]
    got = self_times(names, spans)
    assert got == {"cli": 3.0, "graphs": 3.0, "spectral": 4.0}
    assert sum(got.values()) == 10.0


def test_tracer_spans_and_restores_every_binding():
    from extremal_trees import cli, graeffe, rigidity, spectral
    from extremal_trees.graphs import Graph
    from extremal_trees.polynomials import Poly

    originals = (spectral.lambda2, graeffe.lambda2, rigidity.lambda2, cli.lambda2,
                 Poly.compose, Graph.adjacency_matrix)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.lambda2 is graeffe.lambda2 is spectral.lambda2
        assert cli.lambda2 is not originals[0]
        spectral.lambda2(1, 4)
        Poly((1, 1)).compose(Poly((0, 2)))
    finally:
        tracer.uninstall()
    assert (spectral.lambda2, graeffe.lambda2, rigidity.lambda2, cli.lambda2,
            Poly.compose, Graph.adjacency_matrix) == originals
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names[0] == "spectral.lambda2"
    assert "graphs.Graph.adjacency_matrix" in names
    assert "polynomials.Poly.compose" in names
    metrics = tracer.pass_metrics()
    assert metrics["spectral.dense_calls"] == 1
    assert metrics["spectral.eigensolve_dim_sum"] == 15
    assert metrics["polynomials.compose_calls"] == 1
    assert sum(metrics[f"{layer}.self_s"] for layer in LAYERS) > 0


def _verify_output(argv):
    rows = []
    for key in EXPECTED[gate.command_key(argv)]["rows"]:
        values = dict(zip(gate.ROW_FIELDS, key.split(" ")))
        row = {"detail": "float noise 1.234"}
        for name, value in values.items():
            if value == "-":
                row[name] = None
            elif name in ("ok", "skipped", "quartic_ok", "window_ok"):
                row[name] = value == "1"
            elif name == "check":
                row[name] = value
            else:
                row[name] = int(value)
        rows.append(row)
    return {"results": rows, "all_ok": True}


def _check(argv, report, code=0):
    return gate.check(EXPECTED[gate.command_key(argv)], argv, code, json.dumps(report))


VERIFY = ("verify", "--m", "2", "--d", "40", "--checks",
          "construction,lambda2,spectra,pipeline,rigidity")


def test_gate_accepts_the_seed_rows_whatever_the_floats():
    out = _check(VERIFY, _verify_output(VERIFY))
    assert (out.failed, out.problems) == (0, [])
    assert out.attempted == len(EXPECTED[gate.command_key(VERIFY)]["rows"]) + 1
    assert out.verified == out.rows


def test_gate_counts_a_flipped_ok():
    report = _verify_output(VERIFY)
    report["results"][1]["ok"] = False
    report["all_ok"] = False
    assert _check(VERIFY, report).failed == 2  # the row and the command


def test_gate_counts_a_dropped_row():
    report = _verify_output(VERIFY)
    del report["results"][0]
    assert _check(VERIFY, report).failed == 2


def test_gate_counts_a_new_skip():
    argv = ("verify", "--m", "5", "--d", "43", "--checks",
            "construction,lambda2,spectra,pipeline,rigidity")
    report = _verify_output(argv)
    rigidity = next(r for r in report["results"] if r["check"] == "rigidity")
    assert not rigidity["skipped"]
    rigidity["skipped"] = True
    out = _check(argv, report)
    assert out.failed == 2
    assert any("non-skipped rows per check" in p for p in out.problems)


def test_gate_counts_an_altered_coefficient():
    argv = ("charpoly", "3", "120", "--exact")
    from extremal_trees import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    text = buf.getvalue()
    expected = EXPECTED[gate.command_key(argv)]
    assert gate.check(expected, argv, 0, text).failed == 0
    poly = json.loads(text)
    altered = copy.deepcopy(poly)
    altered["coeffs"][5] = str(int(altered["coeffs"][5]) + 1)
    out = gate.check(expected, argv, 0, json.dumps(altered) + "\n")
    assert (out.attempted, out.failed, out.verified) == (1, 1, 0)
    assert "p(120) != 0" in out.problems[0] and "byte-equal" in out.problems[0]


def test_metric_names_are_well_formed_and_declared():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == PER_LAYER_UNITS
    for name in (*declared_e2e, *declared_layer):
        assert pattern.fullmatch(name), name
    assert BENCHMARK["workloads"] == [{"name": name, "why": w.why}
                                      for name, w in WORKLOADS.items()]


def test_every_workload_command_has_a_seed_output():
    for workload in WORKLOADS.values():
        for argv in workload.order(7):
            assert gate.command_key(argv) in EXPECTED
        assert sorted(workload.order(3)) == sorted(workload.commands)
        assert workload.order(3) == workload.order(3)


def test_scale_takes_the_faster_gauge_reading():
    nominal = GAUGES["mixed"][1]
    assert scale(1.0, nominal, 2 * nominal, "mixed") == 1.0
    assert scale(1.0, 3 * nominal, 2 * nominal, "mixed") == 0.5


def test_median_pass_adds_each_commands_median():
    assert run.median_pass([[1.0, 5.0], [3.0, 4.0], [2.0, 9.0]]) == 2.0 + 5.0


def test_span_cost_is_a_small_positive_time():
    assert 0 < span_cost() < 1e-4


def test_one_pass_reports_a_clean_traced_pass(capsys, tmp_path):
    spans = tmp_path / "spans.json"
    assert one_pass.main(["--workload", "exact_sweep", "--seed", "1", "--trace", "1",
                          "--spans", str(spans)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["failed"], result["problems"]) == (0, [])
    assert len(result["walls"]) == len(result["cpus"]) == len(WORKLOADS["exact_sweep"].commands)
    assert len(result["refs"]) == len(result["walls"]) + 1
    layer = result["layer"]
    assert set(layer) == set(PER_LAYER_UNITS)
    assert layer["charpoly.exact_calls"] == 3 and layer["cli.rows"] == 7203
    assert 0 < layer["trace.overhead_ratio"] < 1
    assert len(json.loads(spans.read_text())["spans"]) == layer["trace.spans"]
