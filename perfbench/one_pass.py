#!/usr/bin/env python3
"""One pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so that no pass reuses what the
package keeps in memory from an earlier one; a real CLI call never can.  By
hand, from the repository root:

    python3 perfbench/one_pass.py --workload exact_sweep --seed 1 --trace 0

It imports ``extremal_trees`` from ``src/``, issues the workload's commands
in the order the seed gives through ``extremal_trees.cli.main``, each only
after the previous one returns, gates every output (``gate.py``) and prints
one JSON object: per-command wall and CPU seconds, the gauge's readings
around each command, the gate's counts and the peak RSS.  With
``--trace 1`` the commands run under ``tracer.py`` and the object also holds
the per-layer metrics; ``--spans FILE`` writes the spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import gate
from reference import reference_s
from tracer import Tracer, span_cost
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_pass(cli, commands, gauge):
    """Issue every command once: per-command wall and CPU seconds, and outputs.

    The gauge (``reference.py``) is timed before each command and after the
    last, so ``refs`` has one entry more than ``walls``.
    """
    walls, cpus, outputs, refs = [], [], [], [reference_s(gauge)]
    for argv in commands:
        buf = io.StringIO()
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
        except Exception:  # the pass goes on and the gate counts the failure
            traceback.print_exc()
            code = None
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
        outputs.append((argv, code, buf.getvalue()))
        refs.append(reference_s(gauge))
    return walls, cpus, outputs, refs


def gate_pass(expected: dict, outputs) -> gate.Outcome:
    total = gate.Outcome()
    for argv, code, text in outputs:
        total.add(gate.check(expected[gate.command_key(argv)], argv, code, text))
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="write the traced spans here")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import extremal_trees
    from extremal_trees import cli

    if not Path(extremal_trees.__file__).resolve().is_relative_to(SRC):
        print(f"error: extremal_trees imported from {extremal_trees.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())["commands"]
    workload = WORKLOADS[args.workload]
    commands = workload.order(args.seed)

    tracer = Tracer() if args.trace else None
    if tracer is None:
        walls, cpus, outputs, refs = run_pass(cli, commands, workload.gauge)
    else:
        per_span = span_cost()
        tracer.install()
        try:
            walls, cpus, outputs, refs = run_pass(cli, commands, workload.gauge)
        finally:
            tracer.uninstall()
    outcome = gate_pass(expected, outputs)
    result = {
        "walls": walls,
        "cpus": cpus,
        "refs": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "verified": outcome.verified,
        "problems": outcome.problems[:20],
    }
    if tracer is not None:
        layer = tracer.pass_metrics()
        layer["cli.report_bytes"] = sum(len(text.encode()) for _, _, text in outputs)
        layer["cli.rows"] = outcome.rows
        layer["trace.wall_s"] = sum(walls)
        overhead = per_span * layer["trace.spans"]
        layer["trace.overhead_ratio"] = overhead / (sum(walls) - overhead)
        result["layer"] = layer
        if args.spans is not None:
            args.spans.parent.mkdir(exist_ok=True)
            args.spans.write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed, **tracer.dump()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
