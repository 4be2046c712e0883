#!/usr/bin/env python3
"""Closed-loop benchmark of the extremal-trees CLI.

Run from the repository root, for example:

    python3 perfbench/run.py --workload default_sweep --seed 1 --seconds 30 --trace 0

Each pass issues the commands of a workload (``workloads.py``), in the order
the seed gives, through ``extremal_trees.cli.main`` in a fresh interpreter
(``one_pass.py``), each command only after the previous one returns, with
BLAS threads pinned to 1.  Passes run one at a time while the next fits in
``--seconds``, at least one, and every output is checked against the seed
commit's (``gate.py``).

Untraced, every command and every set-up is timed between two readings of
a gauge (``reference.py``) and scaled to the host's nominal speed, so that a
stretch in which the shared host runs slow does not read as a slower program.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones in ``END_TO_END``: ``wall_s`` and ``cpu_s`` add up
each command's median scaled time over the passes, and ``setup_s`` is the
median scaled set-up of those timed before the first pass and after each.
With ``--trace 1`` every pass is traced by ``tracer.py`` and the metrics are its
per-layer ones, medians over the passes; the spans of the first pass are
written to ``.bench_out/`` at the repository root.  Lines before the last
give the environment and a table with the median and quartiles of the pass
totals and set-up times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported; every pass inherits them
    os.environ[_var] = "1"

import numpy  # noqa: E402

import gate  # noqa: E402
from reference import reference_s, scale  # noqa: E402
from tracer import PER_LAYER_UNITS, median_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_FIRST = 5
PASS_TIMEOUT = 170
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); "
              "import extremal_trees.cli as cli; cli.build_parser()")

END_TO_END = {
    "setup_s": "s",          # fresh interpreter until the CLI parser is built, median
    "wall_s": "s",           # one pass, each command at its median (all times scaled)
    "cpu_s": "s",            # user+sys CPU time of the pass's process, likewise
    "peak_rss_mb": "MB",     # peak RSS of a fresh process running one pass
    "verified_rows": "count",  # rows verified plus charpoly outputs that check out
    "success_ratio": "ratio",   # 1 - failed / attempted operations
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "commit": _git_commit(),
        "load": "closed loop: one pass process at a time, one command at a time",
    }


def time_setup() -> float:
    """Scaled seconds for a fresh interpreter to import the CLI and build its parser."""
    before = reference_s("mixed")
    start = time.perf_counter()
    # No timeout: with one, the wait polls and rounds times up to 50 ms.
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return scale(time.perf_counter() - start, before, reference_s("mixed"), "mixed")


class PassError(RuntimeError):
    """A pass's process failed before it could report."""


def one_pass(args, spans: Path | None = None) -> dict:
    """One pass of the workload in a fresh interpreter (``one_pass.py``)."""
    command = [sys.executable, str(HERE / "one_pass.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--trace", str(args.trace)]
    if spans is not None:
        command += ["--spans", str(spans)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT)
    if done.returncode != 0:
        raise PassError(f"one_pass.py exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def scaled(times: list[float], refs: list[float], gauge: str) -> list[float]:
    """Each command's time at nominal speed, from the gauge around it."""
    return [scale(t, before, after, gauge)
            for t, before, after in zip(times, refs, refs[1:])]


def median_pass(passes: list[list[float]]) -> float:
    """A pass made of each command's median time over the run's passes."""
    return sum(statistics.median(times) for times in zip(*passes))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run(args) -> tuple[gate.Outcome, dict, dict]:
    """All passes of one run: the gate total, the metrics and the timing samples.

    Passes repeat while the next one, as long as the median pass so far,
    would end within ``--seconds``; there is always at least one.  Untraced runs
    also time a fresh interpreter's set-up ``SETUP_FIRST`` times before the
    first pass and once after every pass.
    """
    total = gate.Outcome()
    passes, setups, durations = [], [], []
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
    start = time.perf_counter()
    if not args.trace:
        setups = [time_setup() for _ in range(SETUP_FIRST)]
    while True:
        began = time.perf_counter()
        result = one_pass(args, spans if not passes else None)
        passes.append(result)
        total.add(gate.Outcome(attempted=result["attempted"], failed=result["failed"],
                               problems=result["problems"]))
        if not args.trace:
            setups.append(time_setup())
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > args.seconds:
            break

    if args.trace:
        layers = [p["layer"] for p in passes]
        metrics = median_metrics(layers)
        samples = {"trace.wall_s": [layer["trace.wall_s"] for layer in layers]}
        units = PER_LAYER_UNITS
        print(f"spans of the first traced pass: {spans.relative_to(ROOT)}")
    else:
        gauge = WORKLOADS[args.workload].gauge
        walls = [scaled(p["walls"], p["refs"], gauge) for p in passes]
        cpus = [scaled(p["cpus"], p["refs"], gauge) for p in passes]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": median_pass(walls),
            "cpu_s": median_pass(cpus),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "verified_rows": statistics.median(p["verified"] for p in passes),
            "success_ratio": 1 - total.failed / total.attempted,
        }
        samples = {"wall_s": [sum(w) for w in walls], "cpu_s": [sum(c) for c in cpus],
                   "setup_s": setups}
        units = END_TO_END
    return total, {k: {"value": metrics[k], "unit": units[k]} for k in units}, samples


def print_table(metrics: dict, samples: dict) -> None:
    for name, entry in metrics.items():
        line = f"{name:32} {entry['value']:>14.6g} {entry['unit']}"
        if name in samples:
            q1, q3 = _quartiles(samples[name])
            line += (f"   median {statistics.median(samples[name]):.6g}  q1 {q1:.6g}"
                     f"  q3 {q3:.6g}  samples {len(samples[name])}")
        print(line)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "extremal_trees" / "cli.py").is_file():
        print(f"error: no extremal_trees sources under {SRC}", file=sys.stderr)
        return 2
    args.env = environment(args)
    print("environment " + json.dumps(args.env))
    try:
        total, metrics, samples = run(args)
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_table(metrics, samples)
    print(f"fail_ratio {total.failed / total.attempted:.6g} "
          f"({total.failed} of {total.attempted} operations failed)")
    for problem in total.problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
