"""Command-line front end: build/export graphs, spectra, exact characteristic
polynomials, packing and rigidity certificates, and verification sweeps.

``verify`` runs named checks from one table: for each check a guard, which
decides from (m, d) alone whether the pair is out of the check's reach, and a
run, which returns the check's rows.  Its ``charpoly`` check compares the
closed form with the multi-modular oracle block by block: the oracle divides
the closed twins out of the built graph, (x+1)^e times chi(B), and splits
the quotient B into its 2m+1 circulant blocks H_t; the check compares e, and
each block's residue modulo each prime with the closed form's factor F_n,
n = (2m+1)/gcd(t, 2m+1), over primes whose product exceeds the trace bound
on chi(B) plus the product of the factors' L1 norms, so congruence is
equality.  ``charpoly --oracle`` runs the same oracle, with the same 2m+1
blocks, and prints the lifted, expanded polynomial.  Both refuse
q = (2m+1)^2 twin classes above 300, so every m >= 9, and pairs above the
build guard; ``charpoly``, by either route, then refuses a printed degree
n = (2m+1)(d+1) above 1,500 before any polynomial work.  Its ``packing``
check proves sigma = m without a search: sigma <= m from the counted
modified-clique partition (``clique_certificate``), sigma >= m from m trees
written in closed form from Walecki's Hamiltonian paths
(``walecki_packing``) and verified on the whole graph; ``pack`` searches
sigma down from m+1.  Its JSON report has the bytes of
``json.dumps(indent=2)`` but its rows go through json's faster C encoder,
which needs each row to be a flat dict of JSON scalars; a row holding any
other value (a list, a dict, a numpy bool) is an internal error.

Exit codes: 0 all requested work passed, 1 a verification check failed,
2 a refused input (``ParameterDomainError``: a malformed or empty range,
m < 1, an unknown check, an empty sweep, d < 2m+2; ``SizeGuardError``), an
``--out`` path that cannot be written, or out of memory (ask for a smaller
graph), 3 internal error (a failed internal cross-check, LAPACK's
eigensolver not converging, or any other ``ValueError``: a bug, not a
mathematical counterexample).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from functools import cache
from itertools import chain
from types import NoneType

from . import __version__
from .charpoly import (
    ORACLE_SIZE_GUARD,
    char_poly_exact,
    char_poly_exact_blocks,
    char_poly_oracle,
    char_poly_oracle_residues,
    euler_phi,
    verify_determinant_identities,
    verify_root_of_unity_identities,
)
from .errors import (
    CheckFailure,
    ConsistencyError,
    ParameterDomainError,
    SizeGuardError,
    SolverConvergenceError,
)
from .graeffe import (
    quartic_guard,
    root_bound_inequality_holds,
    root_bound_radicands,
    verify_upper_bound_pipeline,
)
from .graphs import (
    build_extremal_graph,
    check_family_params,
    clique_crossings,
    degrees,
    export,
    is_connected,
)
from .packing import (
    ForestPacking,
    clique_certificate,
    pack_spanning_trees,
    sigma,
    walecki_packing,
)
from .rigidity import check_spectral_rigidity_hypotheses
from .spectral import eigenvalues_block_circulant, family_spectrum, lambda2, lambda2_window

EIGEN_SIZE_GUARD = 600
PACKING_EDGE_GUARD = 10500
BUILD_EDGE_GUARD = 1_000_000
# charpoly's cost grows with m far faster than with d; at this degree the
# largest m, G(18,39) with n = 1,480, takes about 1 s on a 2-core machine
CHARPOLY_DEGREE_GUARD = 1500
IDENTITIES_M_GUARD = 150


def _write_output(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _parse_range(text: str) -> list[int]:
    lo, dots, hi = text.partition("..")
    try:
        lo_i, hi_i = int(lo), int(hi if dots else lo)
    except ValueError:
        raise ParameterDomainError(f"malformed range {text!r} (use lo..hi or one integer)") from None
    if hi_i < lo_i:
        raise ParameterDomainError(f"empty range {text!r}")
    return list(range(lo_i, hi_i + 1))


def cmd_build(args) -> int:
    _refuse_above(_build_guard, args.m, args.d)
    g = build_extremal_graph(args.m, args.d)
    _write_output(export(g, args.format), args.out)
    return 0


def _refuse_above(guard, m: int, d: int) -> None:
    """Before any graph is built, raise ParameterDomainError outside the
    family's domain and SizeGuardError with the guard's reason above it."""
    check_family_params(m, d)
    reason = guard(m, d)
    if reason is not None:
        raise SizeGuardError(reason)


def cmd_spectrum(args) -> int:
    _refuse_above(_eigen_guard, args.m, args.d)
    route = family_spectrum if args.method == "dense" else eigenvalues_block_circulant
    values = route(args.m, args.d)
    payload = {"m": args.m, "d": args.d, "solver": args.method, "values": values.tolist()}
    _write_output(json.dumps(payload), args.out)
    return 0


def cmd_charpoly(args) -> int:
    if args.oracle:
        _refuse_above(_oracle_guard, args.m, args.d)
    # either route prints a polynomial of degree n
    _refuse_above(_charpoly_guard, args.m, args.d)
    if args.oracle:
        poly = char_poly_oracle(build_extremal_graph(args.m, args.d), 2 * args.m + 1)
    else:
        poly = char_poly_exact(args.m, args.d)
    _write_output(json.dumps(poly.to_json_dict()), args.out)
    return 0


def cmd_pack(args) -> int:
    _refuse_above(_packing_guard, args.m, args.d)
    if args.trees is None:
        value = sigma(build_extremal_graph(args.m, args.d), args.m + 1)
        payload = {"m": args.m, "d": args.d, "sigma": value, "expected": args.m,
                   "certificate": clique_certificate(args.m, args.d).to_dict()}
        _write_output(json.dumps(payload), args.out)
        return 0 if value == args.m else 1
    # the search sets up all k forests before it places an edge
    tree_edges = args.trees * ((2 * args.m + 1) * (args.d + 1) - 1)
    if reason := _above("k(n-1)", tree_edges, "packing", PACKING_EDGE_GUARD):
        raise SizeGuardError(reason)
    result = pack_spanning_trees(build_extremal_graph(args.m, args.d), args.trees)
    ok = isinstance(result, ForestPacking)
    payload = {"m": args.m, "d": args.d, "k": args.trees, "packed": ok}
    payload["packing" if ok else "witness"] = result.to_dict()
    _write_output(json.dumps(payload), args.out)
    return 0 if ok else 1


def cmd_rigidity(args) -> int:
    _refuse_above(_eigen_guard, 3 * args.r - 1, args.d)
    report = check_spectral_rigidity_hypotheses(args.r, args.d)
    _write_output(json.dumps(report.to_dict()), args.out)
    return 0


def _sweep_pairs(m_spec: str, d_spec: str) -> list[tuple[int, int]]:
    pairs = []
    for m in _parse_range(m_spec):
        if m < 1:
            raise ParameterDomainError(f"m must be >= 1, got {m}")
        if d_spec == "auto":
            ds = range(2 * m + 2, 2 * m + 9)
        else:
            ds = [d for d in _parse_range(d_spec) if d >= 2 * m + 2]
        pairs.extend((m, d) for d in ds)
    return pairs


# Guards: why the check is skipped for (m, d), or None.  Each is worked out
# from (m, d) alone, so a skipped check builds no graph.

def _above(size: str, value: int, guard: str, limit: int) -> str | None:
    return f"{size}={value} above {guard} guard {limit}" if value > limit else None


def _eigen_guard(m: int, d: int) -> str | None:
    return _above("n", (2 * m + 1) * (d + 1), "eigensolver", EIGEN_SIZE_GUARD)


def _oracle_guard(m: int, d: int) -> str | None:
    # G(m,d) has (2m+1)^2 classes of closed twins whatever d is
    return _above("q", (2 * m + 1) ** 2, "oracle", ORACLE_SIZE_GUARD) or _build_guard(m, d)


def _charpoly_guard(m: int, d: int) -> str | None:
    return _above("n", (2 * m + 1) * (d + 1), "charpoly", CHARPOLY_DEGREE_GUARD)


def _packing_guard(m: int, d: int) -> str | None:
    return _above("|E|", (2 * m + 1) * (d + 1) * d // 2, "packing", PACKING_EDGE_GUARD)


def _build_guard(m: int, d: int) -> str | None:
    return _above("|E|", (2 * m + 1) * (d + 1) * d // 2, "build", BUILD_EDGE_GUARD)


def _identities_guard(m: int, d: int) -> str | None:
    return _above("m", m, "identities", IDENTITIES_M_GUARD)


def _rigidity_guard(m: int, d: int) -> str | None:
    # d >= 2m+2 = 6r holds for every pair, so only the family and size remain
    if (m + 1) % 3 != 0:
        return "family parameter m is not of the form 3r-1"
    return _eigen_guard(m, d)


# Runs: the rows of one check on (m, d), each a dict of the row's ok, detail
# and any further columns, which ``_run_check`` completes with the check's
# name, m, d and skipped.  A failed claim raises CheckFailure.

def _check_construction(m: int, d: int) -> list[dict]:
    g = build_extremal_graph(m, d)
    degs = degrees(g)
    problems = []
    if not (min(degs) == max(degs) == d):
        problems.append("not regular")
    if g.n != (2 * m + 1) * (d + 1):
        problems.append("wrong vertex count")
    if g.edge_count != (2 * m + 1) * (d + 1) * d // 2:
        problems.append("wrong edge count")
    if not is_connected(g):
        problems.append("disconnected")
    if clique_crossings(m, d) != m * (2 * m + 1):
        problems.append("wrong cross-edge count")
    return [dict(ok=not problems, detail="; ".join(problems))]


def _check_lambda2(m: int, d: int) -> list[dict]:
    val = lambda2(m, d)
    lo, hi = lambda2_window(m, d)
    return [dict(ok=True, detail=f"lambda2={val:.12g} in [{lo:.12g},{hi:.12g})")]


def _check_spectra(m: int, d: int) -> list[dict]:
    gap = float(abs(family_spectrum(m, d) - eigenvalues_block_circulant(m, d)).max())
    return [dict(ok=gap <= 1e-8, detail=f"max elementwise gap {gap:.3e}")]


def _check_charpoly(m: int, d: int) -> list[dict]:
    # chi(B) congruent to prod_t F_n modulo primes whose product exceeds
    # the bounds on both sides' coefficients is equal to it
    k = 2 * m + 1
    e, factors = char_poly_exact_blocks(m, d)
    norm = math.prod(sum(map(abs, f.coeffs)) ** euler_phi(n) for n, f in factors.items())
    found, bound, primes, residues = char_poly_oracle_residues(
        build_extremal_graph(m, d), k, norm)
    if found != e:
        raise CheckFailure(f"prefactor (x+1)^{found} on the graph, (x+1)^{e} in the closed form")
    if math.prod(primes) <= bound + norm:
        raise ConsistencyError("the product of the primes does not exceed the bounds")
    for p, blocks in zip(primes, residues.tolist()):
        for t, block in enumerate(blocks):
            n = k // math.gcd(t, k)
            if block != [c % p for c in factors[n].coeffs]:
                raise CheckFailure(f"chi(H_t) differs from F_n at t={t}, n={n}, p={p}")
    return [dict(ok=True, detail="coefficientwise equal")]


def _check_rootbound(m: int, d: int) -> list[dict]:
    # each bound is its radicand's fourth root, so the integers decide the
    # order: the bounds never fall as n rises when the radicands, listed by
    # ascending n, are already sorted (equal neighbours allowed); the last is
    # that of n = 2m+1, the one the quartic inequality reads
    radicands = root_bound_radicands(m, d)
    monotone = radicands == sorted(radicands)
    exact_ok = root_bound_inequality_holds(radicands[-1], m, d)
    return [{"ok": monotone and exact_ok, "detail": f"monotone={monotone} exact={exact_ok}"}]


def _check_pipeline(m: int, d: int) -> list[dict]:
    report = verify_upper_bound_pipeline(m, d)
    # a report is returned only when every root image is below the window edge
    return [
        dict(ok=True, n=row.n, root_bound=row.root_bound, max_root=row.max_root,
             quartic_ok=report.quartic_exact_ok, window_ok=True,
             detail=f"lambda2={report.lam2:.12g}")
        for row in report.rows
    ]


def _check_packing(m: int, d: int) -> list[dict]:
    # sigma <= m: the modified cliques cross in m(2m+1) edges, fewer than the
    # (m+1)(2m) that m+1 trees need.  sigma >= m: Walecki's m trees, which
    # raise ConsistencyError unless they verify on the whole graph.
    cert = clique_certificate(m, d)
    walecki_packing(m, d)
    return [dict(ok=cert.deficit == m,
                 detail=f"sigma{'=' if cert.refutes else '>='}{m} "
                        f"certificate_deficit={cert.deficit}")]


def _check_rigidity(m: int, d: int) -> list[dict]:
    report = check_spectral_rigidity_hypotheses((m + 1) // 3, d)
    return [dict(ok=True, detail=f"mu2={report.mu2:.12g} below threshold "
                                 f"{report.threshold:.12g}, certificate deficit "
                                 f"{report.certificate.deficit}")]


# Neither identity suite reads d, and the determinant suite reads no m, so a
# process computes the first once per m, whatever order its pairs come in,
# and the second once; the identities guard admits m <= IDENTITIES_M_GUARD,
# so the first memo holds at most that many ints.
@cache
def _root_of_unity_report(m: int) -> int:
    return verify_root_of_unity_identities(m)


@cache
def _determinant_report() -> int:
    return verify_determinant_identities()


def _check_identities(m: int, d: int) -> list[dict]:
    return [dict(ok=True, detail=f"root-of-unity identities exact modulo "
                                 f"{_root_of_unity_report(m)}, determinant identities "
                                 f"exact modulo {_determinant_report()}")]


# name -> (guard, run), in report order
CHECKS = {
    "construction": (_build_guard, _check_construction),
    "lambda2": (_eigen_guard, _check_lambda2),
    "spectra": (_eigen_guard, _check_spectra),
    "charpoly": (_oracle_guard, _check_charpoly),
    "rootbound": (quartic_guard, _check_rootbound),
    "pipeline": (_eigen_guard, _check_pipeline),
    "packing": (_build_guard, _check_packing),
    "rigidity": (_rigidity_guard, _check_rigidity),
    "identities": (_identities_guard, _check_identities),
}
CHECK_NAMES = tuple(CHECKS)


def _run_check(check: str, m: int, d: int) -> list[dict]:
    guard, run = CHECKS[check]
    reason = guard(m, d)
    if reason is not None:
        return [{"check": check, "m": m, "d": d, "ok": None, "skipped": True, "detail": reason}]
    try:
        rows = run(m, d)
    except CheckFailure as exc:
        rows = [{"ok": False, "detail": str(exc)}]
    # one dict per row: the six shared keys in report order, whatever order
    # the run wrote ok and detail in, then the run's own columns
    return [{"check": check, "m": m, "d": d, "ok": None, "skipped": False, "detail": "", **row}
            for row in rows]


def _indented_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2)`` for a payload whose top-level
    "results" are flat, non-empty dicts of JSON scalars (str, int, float or
    None, bool and numpy's float64 included as subclasses), with the rows
    encoded in one call of the C encoder, which json skips whenever
    ``indent`` is set.  Any other value, a list, a dict, a numpy bool or a
    Fraction, is an internal error, refused before anything is written."""
    rows = payload["results"]
    if not all(issubclass(t, (str, int, float, NoneType))
               for t in set(map(type, chain.from_iterable(map(dict.values, rows))))):
        raise ConsistencyError("a verify row holds a value that is not a JSON scalar")
    # the encoder escapes NUL inside strings, so each NUL is a separator it
    # wrote, between two items of a row or, after "}", between two rows.
    # Each copy of the rows' text is its own statement, so at most two live.
    items = json.dumps(rows, separators=("\0", ": "))
    items = items[2:-2]
    items = items.replace("}\0{", "\n    },\n    {\n      ")
    items = items.replace("\0", ",\n      ")
    opening, closing = ("[\n    {\n      ", "\n    }\n  ]") if rows else ("[]", "")
    # strings escape newlines too, so this key can only be the top-level one
    head, _, tail = json.dumps({**payload, "results": None}, indent=2).partition(
        '\n  "results": null')
    return "".join((head, '\n  "results": ', opening, items, closing, tail))


def cmd_verify(args) -> int:
    checks = args.checks.split(",") if args.checks != "all" else list(CHECK_NAMES)
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ParameterDomainError(
            f"unknown checks {unknown}; available: {', '.join(CHECK_NAMES)}")
    pairs = _sweep_pairs(args.m, args.d)
    if not pairs:
        raise ParameterDomainError("sweep selects no valid (m, d) pairs (need d >= 2m+2)")

    results = [row for m, d in pairs for check in checks
               for row in _run_check(check, m, d)]
    all_ok = all(r["ok"] for r in results if not r["skipped"])
    if args.format == "json":
        payload = {
            "version": __version__,
            "m": args.m,
            "d": args.d,
            "checks": checks,
            "results": results,
            "all_ok": all_ok,
        }
        _write_output(_indented_json(payload), args.out)
    else:
        import csv

        columns = ["check", "m", "d", "n", "ok", "root_bound", "max_root",
                   "quartic_ok", "window_ok", "skipped", "detail"]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, restval="", extrasaction="ignore")
        writer.writeheader()
        writer.writerows(results)
        _write_output(buf.getvalue(), args.out)
    return 0 if all_ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="extremal-trees",
        description="Construct the extremal family G(m,d) and verify its "
                    "spectral, packing, and rigidity properties.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, func, *ints: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for arg in ints:
            p.add_argument(arg, type=int)
        p.set_defaults(func=func)
        return p

    p = command("build", "construct G(m,d) and export it", cmd_build, "m", "d")
    p.add_argument("--format", choices=("edgelist", "dot"), default="edgelist")

    p = command("spectrum", "adjacency spectrum of G(m,d)", cmd_spectrum, "m", "d")
    p.add_argument("--method", choices=("dense", "blocks"), default="dense")

    p = command("charpoly", "exact characteristic polynomial of G(m,d)", cmd_charpoly, "m", "d")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", default=True,
                       help="closed-form assembly (default)")
    group.add_argument("--oracle", action="store_true",
                       help="verify's multi-modular Hessenberg oracle on the 2m+1 "
                            f"blocks of the closed-twin quotient ((2m+1)^2 <= {ORACLE_SIZE_GUARD})")

    p = command("pack", "spanning tree packing of G(m,d)", cmd_pack, "m", "d")
    p.add_argument("--trees", type=int, default=None,
                   help="pack exactly this many trees (default: sigma, searched down from m+1)")

    command("rigidity", "rigidity certificate and mu2 window for G(3r-1,d)", cmd_rigidity, "r", "d")

    p = command("verify", "run named verification checks over an (m,d) sweep", cmd_verify)
    p.add_argument("--m", default="1..3", help="range like 2..5 or a single value")
    p.add_argument("--d", default="auto",
                   help="range like 6..20, a single value, or 'auto' (2m+2..2m+8)")
    p.add_argument("--checks", default="all",
                   help="comma-separated subset of: " + ", ".join(CHECK_NAMES))
    p.add_argument("--format", choices=("json", "csv"), default="json")

    # every subcommand's last option
    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterDomainError, SizeGuardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; ask for a smaller m or d", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ConsistencyError, SolverConvergenceError, ValueError) as exc:
        # any other ValueError, InvalidPartitionError included, is a bug
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
