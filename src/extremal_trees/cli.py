"""Command-line front end: build/export graphs, spectra, exact characteristic
polynomials, packing and rigidity certificates, and verification sweeps.

Exit codes: 0 all requested work passed, 1 a verification check failed,
2 usage or parameter-domain error, 3 internal error (an exact internal
cross-check failed or LAPACK's eigensolver did not converge: a bug, not a
mathematical counterexample).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

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
    clique_partition,
    crossing_edges,
    degrees,
    export,
    is_connected,
)
from .packing import ForestPacking, clique_certificate, pack_spanning_trees, sigma
from .rigidity import check_spectral_rigidity_hypotheses
from .spectral import family_spectrum, lambda2, lambda2_window

CHECK_NAMES = (
    "construction",
    "lambda2",
    "spectra",
    "charpoly",
    "rootbound",
    "pipeline",
    "packing",
    "rigidity",
    "identities",
)
EIGEN_SIZE_GUARD = 600
PACKING_EDGE_GUARD = 2500


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
    spectrum = family_spectrum(args.m, args.d, args.method, args.tol)
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
    report = check_spectral_rigidity_hypotheses(args.r, args.d, args.tol)
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


class _Result(dict):
    @classmethod
    def make(cls, check, m, d, ok=None, skipped=False, detail="", **extra):
        r = cls(check=check, m=m, d=d, ok=ok, skipped=skipped, detail=detail)
        r.update(extra)
        return r


def _check_construction(m: int, d: int) -> list[_Result]:
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
    return [_Result.make("construction", m, d, not problems, detail="; ".join(problems))]


def _check_lambda2(m: int, d: int, tol: float) -> list[_Result]:
    n = (2 * m + 1) * (d + 1)
    if n > EIGEN_SIZE_GUARD:
        return [_Result.make("lambda2", m, d, skipped=True,
                             detail=f"n={n} above eigensolver guard")]
    try:
        val = lambda2(m, d, tol)
    except CheckFailure as exc:
        return [_Result.make("lambda2", m, d, False, detail=str(exc))]
    lo, hi = lambda2_window(m, d)
    return [_Result.make("lambda2", m, d, True,
                         detail=f"lambda2={val:.12g} in [{lo:.12g},{hi:.12g})")]


def _check_spectra(m: int, d: int, tol: float) -> list[_Result]:
    n = (2 * m + 1) * (d + 1)
    if n > EIGEN_SIZE_GUARD:
        return [_Result.make("spectra", m, d, skipped=True,
                             detail=f"n={n} above eigensolver guard")]
    dense = np.array(family_spectrum(m, d, "dense", tol).values)
    blocks = np.array(family_spectrum(m, d, "blocks", tol).values)
    gap = float(np.max(np.abs(dense - blocks)))
    return [_Result.make("spectra", m, d, gap <= 1e-8,
                         detail=f"max elementwise gap {gap:.3e}")]


def _check_charpoly(m: int, d: int) -> list[_Result]:
    n = (2 * m + 1) * (d + 1)
    if n > ORACLE_SIZE_GUARD:
        return [_Result.make("charpoly", m, d, skipped=True,
                             detail=f"n={n} above oracle size guard {ORACLE_SIZE_GUARD}")]
    same = char_poly_exact(m, d) == char_poly_oracle(build_extremal_graph(m, d))
    return [_Result.make("charpoly", m, d, same,
                         detail="coefficientwise equal" if same else "MISMATCH")]


def _check_rootbound(m: int, d: int) -> list[_Result]:
    if m < 2:
        return [_Result.make("rootbound", m, d, skipped=True,
                             detail="quartic inequality applies for m >= 2")]
    k = 2 * m + 1
    bounds = [largest_root_bound(n, m, d) for n in divisors(k) if n != 1]
    monotone = all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
    exact_ok = check_root_bound_inequality(m, d)
    hi = lambda2_window(m, d)[1]
    image_ok = 2 * bounds[-1] - 1 < hi
    ok = monotone and exact_ok and image_ok
    return [_Result.make("rootbound", m, d, ok,
                         detail=f"monotone={monotone} exact={exact_ok} window={image_ok}")]


def _check_pipeline(m: int, d: int, tol: float) -> list[_Result]:
    n = (2 * m + 1) * (d + 1)
    if n > EIGEN_SIZE_GUARD:
        return [_Result.make("pipeline", m, d, skipped=True,
                             detail=f"n={n} above eigensolver guard")]
    try:
        report = verify_upper_bound_pipeline(m, d, tol)
    except CheckFailure as exc:
        return [_Result.make("pipeline", m, d, False, detail=str(exc))]
    return [
        _Result.make("pipeline", m, d, True, n=row.n,
                     root_bound=row.root_bound, max_root=row.max_root,
                     quartic_ok=report.quartic_exact_ok, window_ok=row.window_ok,
                     detail=f"lambda2={report.lam2:.12g}")
        for row in report.rows
    ]


def _check_packing(m: int, d: int) -> list[_Result]:
    g = build_extremal_graph(m, d)
    if g.edge_count > PACKING_EDGE_GUARD:
        return [_Result.make("packing", m, d, skipped=True,
                             detail=f"|E|={g.edge_count} above packing guard")]
    value = sigma(g, m + 1)
    cert = clique_certificate(m, d)
    ok = value == m and cert.deficit == m
    return [_Result.make("packing", m, d, ok,
                         detail=f"sigma={value} certificate_deficit={cert.deficit}")]


def _check_rigidity(m: int, d: int, tol: float) -> list[_Result]:
    if (m + 1) % 3 != 0:
        return [_Result.make("rigidity", m, d, skipped=True,
                             detail="family parameter m is not of the form 3r-1")]
    r = (m + 1) // 3
    if d < 6 * r:
        return [_Result.make("rigidity", m, d, skipped=True,
                             detail=f"needs d >= {6 * r}")]
    n = (2 * m + 1) * (d + 1)
    if n > EIGEN_SIZE_GUARD:
        return [_Result.make("rigidity", m, d, skipped=True,
                             detail=f"n={n} above eigensolver guard")]
    try:
        report = check_spectral_rigidity_hypotheses(r, d, tol)
    except CheckFailure as exc:
        return [_Result.make("rigidity", m, d, False, detail=str(exc))]
    return [_Result.make("rigidity", m, d, True,
                         detail=f"mu2={report.mu2:.12g} below threshold "
                                f"{report.threshold:.12g}, certificate deficit "
                                f"{report.certificate.deficit}")]


def _check_identities(m: int, d: int, tol: float, seed: int) -> list[_Result]:
    try:
        rep1 = verify_root_of_unity_identities(m, trials=25, tol=1e-10, seed=seed)
        rep2 = verify_determinant_identities(trials=25, tol=1e-10, seed=seed)
    except CheckFailure as exc:
        return [_Result.make("identities", m, d, False, detail=str(exc))]
    return [_Result.make(
        "identities", m, d, True,
        detail=f"max deviations {rep1.max_deviation:.3e}, {rep2.max_deviation:.3e}",
    )]


def cmd_verify(args) -> int:
    checks = args.checks.split(",") if args.checks != "all" else list(CHECK_NAMES)
    unknown = [c for c in checks if c not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; available: {', '.join(CHECK_NAMES)}")
    pairs = _sweep_pairs(args.m, args.d)
    if not pairs:
        raise ValueError("sweep selects no valid (m, d) pairs (need d >= 2m+2)")

    results: list[_Result] = []
    for m, d in pairs:
        for check in checks:
            if check == "construction":
                results.extend(_check_construction(m, d))
            elif check == "lambda2":
                results.extend(_check_lambda2(m, d, args.tol))
            elif check == "spectra":
                results.extend(_check_spectra(m, d, args.tol))
            elif check == "charpoly":
                results.extend(_check_charpoly(m, d))
            elif check == "rootbound":
                results.extend(_check_rootbound(m, d))
            elif check == "pipeline":
                results.extend(_check_pipeline(m, d, args.tol))
            elif check == "packing":
                results.extend(_check_packing(m, d))
            elif check == "rigidity":
                results.extend(_check_rigidity(m, d, args.tol))
            elif check == "identities":
                results.extend(_check_identities(m, d, args.tol, args.seed))

    all_ok = all(r["ok"] for r in results if not r["skipped"])
    if args.format == "json":
        payload = {
            "version": __version__,
            "seed": args.seed,
            "tol": args.tol,
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
    p.add_argument("--tol", type=float, default=1e-12)
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
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("verify", help="run named verification checks over an (m,d) sweep")
    p.add_argument("--m", default="1..3", help="range like 2..5 or a single value")
    p.add_argument("--d", default="auto",
                   help="range like 6..20, a single value, or 'auto' (2m+2..2m+8)")
    p.add_argument("--checks", default="all",
                   help="comma-separated subset of: " + ", ".join(CHECK_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterDomainError, SizeGuardError, InvalidPartitionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ConsistencyError, SolverConvergenceError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
