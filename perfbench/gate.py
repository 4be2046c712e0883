"""Correctness gate: every CLI output is compared with what the seed commit gave.

``expected.json`` (written by ``make_expected.py``) holds, per command, the
exact fields of every verify row and the SHA-256 of every charpoly output.
Floats and ``detail`` are left out of the rows, so float noise from a
different eigensolver is not a failure.

One operation is one command plus one per row the command is expected to
return.  A verify row fails when it is not returned with the seed's exact
fields (a flipped ``ok``, a dropped row and a new skip all count); the
command fails on a non-zero exit, ``all_ok`` false or a changed row digest.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field

ROW_FIELDS = ("check", "m", "d", "n", "ok", "skipped", "quartic_ok", "window_ok")
_SKIPPED = ROW_FIELDS.index("skipped")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    verified: int = 0
    rows: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.verified += other.verified
        self.rows += other.rows
        self.problems.extend(other.problems)


def command_key(argv) -> str:
    return " ".join(argv)


def row_key(row: dict) -> str:
    """The exact fields of one verify row, as one space-separated line."""

    def token(value):
        if value is None:
            return "-"
        if isinstance(value, bool):
            return str(int(value))
        return str(value)

    return " ".join(token(row.get(name)) for name in ROW_FIELDS)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def record(argv, code: int, text: str) -> dict:
    """The expected entry for one command, from the output of a trusted run."""
    if code != 0:
        raise ValueError(f"{command_key(argv)} exited {code}; nothing to record")
    if argv[0] == "verify":
        rows = [row_key(r) for r in json.loads(text)["results"]]
        return {"digest": _digest(rows), "rows": rows}
    if argv[0] == "charpoly":
        return {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    raise ValueError(f"no gate for command {argv[0]!r}")


def check(expected: dict, argv, code: int, text: str) -> Outcome:
    """Gate one command's exit code and standard output against ``expected``."""
    if argv[0] == "verify":
        return _check_verify(expected, argv, code, text)
    return _check_charpoly(expected, argv, code, text)


def _nonskipped(rows) -> Counter:
    """Rows per check that were not skipped, from row keys."""
    fields = [r.split(" ") for r in rows]
    return Counter(f[0] for f in fields if f[_SKIPPED] == "0")


def _check_verify(expected: dict, argv, code: int, text: str) -> Outcome:
    want = expected["rows"]
    out = Outcome(attempted=len(want) + 1)
    name = command_key(argv)
    try:
        report = json.loads(text)
        results = report["results"]
    except (ValueError, KeyError, TypeError):
        out.failed = out.attempted
        out.problems.append(f"{name}: no verify report on stdout")
        return out
    got = [row_key(r) for r in results]
    out.rows = len(got)
    out.verified = sum(1 for r in results if r.get("ok") is True and not r.get("skipped"))
    missing = Counter(want) - Counter(got)
    out.failed = sum(missing.values())
    if missing:
        out.problems.append(f"{name}: {out.failed} seed rows not returned, e.g. "
                            f"{next(iter(missing))!r}")
    command_problems = []
    if code != 0:
        command_problems.append(f"exit code {code}")
    if report.get("all_ok") is not True:
        command_problems.append("all_ok is not true")
    if _nonskipped(got) != _nonskipped(want):
        command_problems.append(f"non-skipped rows per check {dict(_nonskipped(got))} "
                                f"!= seed {dict(_nonskipped(want))}")
    if _digest(got) != expected["digest"]:
        command_problems.append("row digest differs from the seed's")
    if command_problems:
        out.failed += 1
        out.problems.append(f"{name}: " + "; ".join(command_problems))
    return out


def _check_charpoly(expected: dict, argv, code: int, text: str) -> Outcome:
    m, d = int(argv[1]), int(argv[2])
    n = (2 * m + 1) * (d + 1)
    edges = n * d // 2
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        coeffs = [int(c) for c in json.loads(text)["coeffs"]]
    except (ValueError, KeyError, TypeError):
        coeffs = None
        problems.append("no integer coefficient list on stdout")
    if coeffs is not None:
        if len(coeffs) != n + 1 or coeffs[-1] != 1:
            problems.append(f"not monic of degree {n}")
        elif coeffs[n - 1] != 0 or coeffs[n - 2] != -edges:
            problems.append(f"c_(n-1) != 0 or c_(n-2) != -|E| = {-edges}")
        for root in (d, -1):
            if _evaluate(coeffs, root) != 0:
                problems.append(f"p({root}) != 0")
    if hashlib.sha256(text.encode()).hexdigest() != expected["sha256"]:
        problems.append("output is not byte-equal to the seed's")
    out = Outcome(attempted=1, failed=int(bool(problems)), verified=int(not problems))
    if problems:
        out.problems.append(f"{command_key(argv)}: " + "; ".join(problems))
    return out


def _evaluate(coeffs, x: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value
