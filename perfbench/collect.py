#!/usr/bin/env python3
"""Run every workload over two sets of seeds and write ``perfbench/baseline.json``.

Run from the repository root:

    python3 perfbench/collect.py

For each workload it makes ``RUNS`` untraced runs of ``run.py`` with the
seeds of each set in ``SEED_SETS``, then one traced run, one process at a
time.  Per set and end-to-end metric it gives the median, the quartiles and
the spread (the distance between the quartiles as a share of the median),
compares the spread with the metric's bound in ``BENCHMARK.json`` and checks
that the second set's median is not worse than the first's by more than the
bound.  From the traced run it gives each layer's share of the traced self
time.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SEED_SETS = (range(1, 1 + RUNS), range(101, 101 + RUNS))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[0].split(" ", 1)[1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the gate\n{done.stderr}")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "count": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def layer_shares(metrics: dict) -> dict:
    self_s = {layer: metrics[f"{layer}.self_s"]["value"] for layer in LAYERS}
    total = sum(self_s.values())
    return {layer: value / total for layer, value in self_s.items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    baseline = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in bench["workloads"]:
        name = workload["name"]
        entry = {"why": workload["why"], "sets": []}
        for seeds in SEED_SETS:
            runs = []
            for seed in seeds:
                runs.append(run_once(name, seed, bench["run_seconds"], 0))
                print(f"{name} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
                    flush=True)
            baseline["environment"] = runs[-1]["environment"]
            entry["sets"].append({
                "seeds": [seeds.start, seeds.stop - 1],
                "metrics": {m["name"]: summary([r["metrics"][m["name"]]["value"]
                                                for r in runs]) for m in metrics},
            })
        first, second = (s["metrics"] for s in entry["sets"])
        for m in metrics:
            spreads = [first[m["name"]]["spread"], second[m["name"]]["spread"]]
            worse = worsening(first[m["name"]]["median"], second[m["name"]]["median"],
                              m["better"])
            if worse > m["bound"] or max(spreads) > m["bound"]:
                flag = "OUT OF BOUND"
            else:
                flag = "ok" if max(spreads) <= m["bound"] / 3 else "within bound"
            print(f"  {m['name']:14} medians {first[m['name']]['median']:.5g} "
                  f"{second[m['name']]['median']:.5g}  spreads {spreads[0]:.4f} "
                  f"{spreads[1]:.4f}  second worse by {worse:.4f}  bound {m['bound']}  {flag}",
                  flush=True)
        traced = run_once(name, SEED_SETS[0].start, bench["run_seconds"], 1)["metrics"]
        entry["layer_shares"] = layer_shares(traced)
        entry["trace"] = {k: v["value"] for k, v in traced.items()}
        print("  shares " + " ".join(f"{k}={v:.3f}" for k, v in entry["layer_shares"].items()),
              flush=True)
        baseline["workloads"][name] = entry
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
