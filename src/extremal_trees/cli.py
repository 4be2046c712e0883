"""Command-line front end: build/export graphs, spectra, exact characteristic
polynomials, packing and rigidity certificates, and verification sweeps.

``verify`` runs named checks from one table: for each check a guard, which
decides from (m, d) alone whether the pair is out of the check's reach, and a
run, which returns the check's rows.

Exit codes: 0 all requested work passed, 1 a verification check failed,
2 usage or parameter-domain error, an ``--out`` path that cannot be written,
or the machine ran out of memory (ask for a smaller graph), 3 internal error
(an exact internal cross-check failed or LAPACK's eigensolver did not
converge: a bug, not a mathematical counterexample).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import lru_cache

import numpy as np

from . import __version__
from .charpoly import (
    ORACLE_SIZE_GUARD,
    char_poly_exact,
    char_poly_oracle,
    divisors,
    verify_determinant_identities,
    verify_root_of_unity_identities,
)
from .errors import (
    CheckFailure,
    ConsistencyError,
    InvalidPartitionError,
    ParameterDomainError,
    SizeGuardError,
    SolverConvergenceError,
)
from .graeffe import (
    check_root_bound_inequality,
    largest_root_bound,
    verify_upper_bound_pipeline,
)
from .graphs import (
    build_extremal_graph,
    check_family_params,
    clique_partition,
    crossing_edges,
    degrees,
    export,
    is_connected,
)
from .packing import ForestPacking, clique_certificate, pack_spanning_trees, sigma
from .rigidity import check_spectral_rigidity_hypotheses
from .spectral import family_spectrum, lambda2, lambda2_window

EIGEN_SIZE_GUARD = 600
PACKING_EDGE_GUARD = 10500


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    return [int(text)]


def cmd_build(args) -> int:
    g = build_extremal_graph(args.m, args.d)
    _write_output(export(g, args.format), args.out)
    return 0


def cmd_spectrum(args) -> int:
    spectrum = family_spectrum(args.m, args.d, args.method)
    _write_output(spectrum.to_json(args.m, args.d, solver=args.method), args.out)
    return 0


def cmd_charpoly(args) -> int:
    if args.oracle:
        poly = char_poly_oracle(build_extremal_graph(args.m, args.d))
    else:
        poly = char_poly_exact(args.m, args.d)
    _write_output(json.dumps(poly.to_json_dict()), args.out)
    return 0


def cmd_pack(args) -> int:
    check_family_params(args.m, args.d)
    reason = _packing_guard(args.m, args.d)
    if reason is not None:
        raise SizeGuardError(reason)
    g = build_extremal_graph(args.m, args.d)
    if args.trees is not None:
        result = pack_spanning_trees(g, args.trees)
        ok = isinstance(result, ForestPacking)
        payload = {"m": args.m, "d": args.d, "k": args.trees, "packed": ok}
        payload["packing" if ok else "witness"] = result.to_dict()
        _write_output(json.dumps(payload), args.out)
        return 0 if ok else 1
    k_max = args.d // 2
    value = sigma(g, k_max)
    cert = clique_certificate(args.m, args.d)
    payload = {
        "m": args.m,
        "d": args.d,
        "sigma": value,
        "expected": args.m,
        "certificate": cert.to_dict(),
    }
    _write_output(json.dumps(payload), args.out)
    return 0 if value == args.m else 1


def cmd_rigidity(args) -> int:
    report = check_spectral_rigidity_hypotheses(args.r, args.d)
    payload = {
        "r": args.r,
        "d": args.d,
        "mu2": report.mu2,
        "window": [report.relaxed_threshold, report.threshold],
        "certificate": report.certificate.to_dict(),
        "condition1_holds": report.condition1_holds,
    }
    _write_output(json.dumps(payload), args.out)
    return 0


def _sweep_pairs(m_spec: str, d_spec: str) -> list[tuple[int, int]]:
    pairs = []
    for m in _parse_range(m_spec):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if d_spec == "auto":
            ds = range(2 * m + 2, 2 * m + 9)
        else:
            ds = [d for d in _parse_range(d_spec) if d >= 2 * m + 2]
        pairs.extend((m, d) for d in ds)
    return pairs


def _result(check, m, d, ok=None, skipped=False, detail="", **extra) -> dict:
    return dict(check=check, m=m, d=d, ok=ok, skipped=skipped, detail=detail, **extra)


# Guards: why the check is skipped for (m, d), or None.  Each is worked out
# from (m, d) alone, so a skipped check builds no graph.

def _unguarded(m: int, d: int) -> None:
    return None


def _eigen_guard(m: int, d: int) -> str | None:
    n = (2 * m + 1) * (d + 1)
    return f"n={n} above eigensolver guard" if n > EIGEN_SIZE_GUARD else None


def _oracle_guard(m: int, d: int) -> str | None:
    n = (2 * m + 1) * (d + 1)
    if n > ORACLE_SIZE_GUARD:
        return f"n={n} above oracle size guard {ORACLE_SIZE_GUARD}"
    return None


def _rootbound_guard(m: int, d: int) -> str | None:
    return "quartic inequality applies for m >= 2" if m < 2 else None


def _packing_guard(m: int, d: int) -> str | None:
    edges = (2 * m + 1) * (d + 1) * d // 2
    return f"|E|={edges} above packing guard" if edges > PACKING_EDGE_GUARD else None


def _rigidity_guard(m: int, d: int) -> str | None:
    # d >= 2m+2 = 6r holds for every pair, so only the family and size remain
    if (m + 1) % 3 != 0:
        return "family parameter m is not of the form 3r-1"
    return _eigen_guard(m, d)


# Runs: the rows of one check on (m, d), each as the keyword arguments of
# ``_result`` after its name, m and d.  A failed claim raises CheckFailure.

def _check_construction(m: int, d: int, seed: int) -> list[dict]:
    g = build_extremal_graph(m, d)
    degs = degrees(g)
    parts = clique_partition(g)
    problems = []
    if not (min(degs) == max(degs) == d):
        problems.append("not regular")
    if g.n != (2 * m + 1) * (d + 1):
        problems.append("wrong vertex count")
    if g.edge_count != (2 * m + 1) * (d + 1) * d // 2:
        problems.append("wrong edge count")
    if not is_connected(g):
        problems.append("disconnected")
    if crossing_edges(g, parts) != m * (2 * m + 1):
        problems.append("wrong cross-edge count")
    return [dict(ok=not problems, detail="; ".join(problems))]


def _check_lambda2(m: int, d: int, seed: int) -> list[dict]:
    val = lambda2(m, d)
    lo, hi = lambda2_window(m, d)
    return [dict(ok=True, detail=f"lambda2={val:.12g} in [{lo:.12g},{hi:.12g})")]


def _check_spectra(m: int, d: int, seed: int) -> list[dict]:
    dense = np.array(family_spectrum(m, d, "dense").values)
    blocks = np.array(family_spectrum(m, d, "blocks").values)
    gap = float(np.max(np.abs(dense - blocks)))
    return [dict(ok=gap <= 1e-8, detail=f"max elementwise gap {gap:.3e}")]


def _check_charpoly(m: int, d: int, seed: int) -> list[dict]:
    same = char_poly_exact(m, d) == char_poly_oracle(build_extremal_graph(m, d))
    return [dict(ok=same, detail="coefficientwise equal" if same else "MISMATCH")]


def _check_rootbound(m: int, d: int, seed: int) -> list[dict]:
    k = 2 * m + 1
    bounds = [largest_root_bound(n, m, d) for n in divisors(k) if n != 1]
    monotone = all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
    exact_ok = check_root_bound_inequality(m, d)
    hi = lambda2_window(m, d)[1]
    image_ok = 2 * bounds[-1] - 1 < hi
    return [dict(ok=monotone and exact_ok and image_ok,
                 detail=f"monotone={monotone} exact={exact_ok} window={image_ok}")]


def _check_pipeline(m: int, d: int, seed: int) -> list[dict]:
    report = verify_upper_bound_pipeline(m, d)
    return [
        dict(ok=True, n=row.n, root_bound=row.root_bound, max_root=row.max_root,
             quartic_ok=report.quartic_exact_ok, window_ok=row.window_ok,
             detail=f"lambda2={report.lam2:.12g}")
        for row in report.rows
    ]


def _check_packing(m: int, d: int, seed: int) -> list[dict]:
    value = sigma(build_extremal_graph(m, d), m + 1)
    cert = clique_certificate(m, d)
    return [dict(ok=value == m and cert.deficit == m,
                 detail=f"sigma={value} certificate_deficit={cert.deficit}")]


def _check_rigidity(m: int, d: int, seed: int) -> list[dict]:
    report = check_spectral_rigidity_hypotheses((m + 1) // 3, d)
    return [dict(ok=True, detail=f"mu2={report.mu2:.12g} below threshold "
                                 f"{report.threshold:.12g}, certificate deficit "
                                 f"{report.certificate.deficit}")]


# Neither identity suite reads d, and the determinant suite reads no m, so a
# sweep (pairs in order of m) computes each once per m and seed, or per seed.
@lru_cache(maxsize=1)
def _root_of_unity_report(m: int, seed: int):
    return verify_root_of_unity_identities(m, trials=25, tol=1e-10, seed=seed)


@lru_cache(maxsize=1)
def _determinant_report(seed: int):
    return verify_determinant_identities(trials=25, tol=1e-10, seed=seed)


def _check_identities(m: int, d: int, seed: int) -> list[dict]:
    rep1 = _root_of_unity_report(m, seed)
    rep2 = _determinant_report(seed)
    return [dict(ok=True, detail=f"max deviations {rep1.max_deviation:.3e}, "
                                 f"{rep2.max_deviation:.3e}")]


# name -> (guard, run), in report order
CHECKS = {
    "construction": (_unguarded, _check_construction),
    "lambda2": (_eigen_guard, _check_lambda2),
    "spectra": (_eigen_guard, _check_spectra),
    "charpoly": (_oracle_guard, _check_charpoly),
    "rootbound": (_rootbound_guard, _check_rootbound),
    "pipeline": (_eigen_guard, _check_pipeline),
    "packing": (_packing_guard, _check_packing),
    "rigidity": (_rigidity_guard, _check_rigidity),
    "identities": (_unguarded, _check_identities),
}
CHECK_NAMES = tuple(CHECKS)


def _run_check(check: str, m: int, d: int, seed: int) -> list[dict]:
    guard, run = CHECKS[check]
    reason = guard(m, d)
    if reason is not None:
        return [_result(check, m, d, skipped=True, detail=reason)]
    try:
        rows = run(m, d, seed)
    except CheckFailure as exc:
        rows = [dict(ok=False, detail=str(exc))]
    return [_result(check, m, d, **row) for row in rows]


def cmd_verify(args) -> int:
    checks = args.checks.split(",") if args.checks != "all" else list(CHECK_NAMES)
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; available: {', '.join(CHECK_NAMES)}")
    pairs = _sweep_pairs(args.m, args.d)
    if not pairs:
        raise ValueError("sweep selects no valid (m, d) pairs (need d >= 2m+2)")

    results = [row for m, d in pairs for check in checks
               for row in _run_check(check, m, d, args.seed)]
    all_ok = all(r["ok"] for r in results if not r["skipped"])
    if args.format == "json":
        payload = {
            "version": __version__,
            "seed": args.seed,
            "m": args.m,
            "d": args.d,
            "checks": checks,
            "results": results,
            "all_ok": all_ok,
        }
        _write_output(json.dumps(payload, indent=2), args.out)
    else:
        columns = ["check", "m", "d", "n", "ok", "root_bound", "max_root",
                   "quartic_ok", "window_ok", "skipped", "detail"]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for r in results:
            writer.writerow({c: r.get(c, "") for c in columns})
        _write_output(buf.getvalue(), args.out)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremal-trees",
        description="Construct the extremal family G(m,d) and verify its "
                    "spectral, packing, and rigidity properties.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct G(m,d) and export it")
    p.add_argument("m", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--format", choices=("edgelist", "dot"), default="edgelist")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("spectrum", help="adjacency spectrum of G(m,d)")
    p.add_argument("m", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--method", choices=("dense", "blocks"), default="dense")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("charpoly", help="exact characteristic polynomial of G(m,d)")
    p.add_argument("m", type=int)
    p.add_argument("d", type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", default=True,
                       help="closed-form assembly (default)")
    group.add_argument("--oracle", action="store_true",
                       help="multi-modular Hessenberg oracle on the adjacency matrix")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("pack", help="spanning tree packing of G(m,d)")
    p.add_argument("m", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--trees", type=int, default=None,
                   help="attempt exactly this many trees (default: compute sigma)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("rigidity", help="rigidity certificate and mu2 window for G(3r-1,d)")
    p.add_argument("r", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("verify", help="run named verification checks over an (m,d) sweep")
    p.add_argument("--m", default="1..3", help="range like 2..5 or a single value")
    p.add_argument("--d", default="auto",
                   help="range like 6..20, a single value, or 'auto' (2m+2..2m+8)")
    p.add_argument("--checks", default="all",
                   help="comma-separated subset of: " + ", ".join(CHECK_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterDomainError, SizeGuardError, InvalidPartitionError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; ask for a smaller m or d", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ConsistencyError, SolverConvergenceError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
