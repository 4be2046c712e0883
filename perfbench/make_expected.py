#!/usr/bin/env python3
"""Record the seed commit's outputs that ``gate.py`` compares every run with.

Run once from the repository root at the commit that defines the baseline:

    python3 perfbench/make_expected.py

It issues every workload command once through ``extremal_trees.cli.main``
and writes ``perfbench/expected.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import gate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from extremal_trees import cli

    commands = {}
    for workload in WORKLOADS.values():
        for argv in workload.commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            commands[gate.command_key(argv)] = gate.record(argv, code, buf.getvalue())
    (HERE / "expected.json").write_text(json.dumps({"commands": commands}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
