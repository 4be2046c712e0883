"""Each parameter rule has one owner, and every public function asks it.

The walk below finds every public function of the package whose parameters
begin with (m, d), (n, m, d) or (r, d), and calls it outside the family's
domain: each must refuse with the message of ``graphs.check_family_params``
before it builds a graph.
"""

import importlib
import inspect
import pkgutil

import pytest

import extremal_trees
from extremal_trees import ParameterDomainError, graphs
from extremal_trees.graeffe import (
    check_root_bound_inequality,
    quartic_guard,
    verify_upper_bound_pipeline,
)

MODULES = [importlib.import_module(f"extremal_trees.{info.name}")
           for info in pkgutil.iter_modules(extremal_trees.__path__)]

# leading parameters, arguments outside the domain, and the family pair they
# stand for: (r, d) is the pair (3r-1, d)
CASES = [
    (("m", "d"), (1, 3), (1, 3)),
    (("n", "m", "d"), (3, 1, 3), (1, 3)),
    (("r", "d"), (1, 5), (2, 5)),
]


def public_functions(leading: tuple[str, ...]) -> list:
    return [pytest.param(fn, id=f"{module.__name__.rpartition('.')[2]}.{name}")
            for module in MODULES
            for name, fn in inspect.getmembers(module, inspect.isfunction)
            if not name.startswith("_") and fn.__module__ == module.__name__
            and tuple(inspect.signature(fn).parameters)[:len(leading)] == leading]


def family_message(m: int, d: int) -> str:
    with pytest.raises(ParameterDomainError) as exc:
        graphs.check_family_params(m, d)
    return str(exc.value)


def test_walk_finds_the_domain_functions():
    # the walk is not vacuous: it reaches the functions that once wrote a rule
    # of their own or checked none at all
    found = {p.id for leading, _, _ in CASES for p in public_functions(leading)}
    assert {"spectral.lambda2_window", "graeffe.check_root_bound_inequality",
            "graeffe.quartic_guard", "graeffe.root_bound_radicands",
            "graeffe.factor_leading_coeffs",
            "spectral.family_spectrum", "spectral.eigenvalues_block_circulant",
            "graphs.pair_record",
            "charpoly.bracket_factor", "charpoly.check_bracket_params",
            "rigidity.check_spectral_rigidity_hypotheses",
            "packing.walecki_packing"} <= found


@pytest.mark.parametrize("fn,args,pair", [
    pytest.param(p.values[0], args, pair, id=p.id)
    for leading, args, pair in CASES for p in public_functions(leading)
])
def test_out_of_domain_refused_by_the_family_owner(monkeypatch, fn, args, pair):
    built = []
    monkeypatch.setattr(graphs, "_construct", lambda m, d: built.append((m, d)))
    with pytest.raises(ParameterDomainError) as exc:
        fn(*args)
    assert str(exc.value) == family_message(*pair)
    assert built == []


@pytest.mark.parametrize("fn", public_functions(("n", "m", "d")))
def test_non_divisor_refused(fn):
    # 2 does not divide 2m+1 = 3; every divisor of an odd number is odd
    with pytest.raises(ParameterDomainError, match="divisor of 2m\\+1=3"):
        fn(2, 1, 4)


@pytest.mark.parametrize("fn", [p for p in public_functions(("n", "m", "d"))
                                if p.id.startswith("graeffe.")])
def test_graeffe_refuses_the_linear_factor(fn):
    # B_1 has degree 1, and the five-coefficient bound needs degree >= 3
    with pytest.raises(ParameterDomainError, match="n=1"):
        fn(1, 1, 4)


def test_quartic_guard_is_the_one_m_rule():
    reason = "quartic inequality applies for m >= 2"
    assert quartic_guard(1, 4) == reason
    assert quartic_guard(2, 6) is None
    with pytest.raises(ParameterDomainError) as exc:
        check_root_bound_inequality(1, 4)
    assert str(exc.value) == reason
    assert verify_upper_bound_pipeline(1, 4).quartic_exact_ok is None
    assert verify_upper_bound_pipeline(2, 6).quartic_exact_ok is True
