import json
from fractions import Fraction

import pytest

from extremal_trees import Poly


def test_normalization_strips_trailing_zeros():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly((0, 0)).degree == -1
    assert Poly().coeffs == ()


def test_arithmetic():
    p = Poly((1, 1))  # 1 + x
    q = Poly((-1, 1))  # -1 + x
    assert p * q == Poly((-1, 0, 1))
    assert p + q == Poly((0, 2))
    assert p - p == Poly()
    assert (p**3).coeffs == (1, 3, 3, 1)
    assert 2 * p == Poly((2, 2))
    assert (p - 1).coeffs == (0, 1)


def test_from_roots_and_eval():
    p = Poly.from_roots([2, 1, 0, -1])
    assert p.leading == 1 and p.degree == 4
    for r in (2, 1, 0, -1):
        assert p(r) == 0
    assert p(3) == (3 - 2) * (3 - 1) * 3 * (3 + 1)


def test_compose():
    inner = Poly((Fraction(1, 2), Fraction(1, 2)))  # (x+1)/2
    p = Poly((0, 0, 4))  # 4 z^2
    assert p.compose(inner) == Poly((1, 2, 1))  # (x+1)^2


def test_shift_down():
    assert Poly((0, 3, 0, 4)).shift_down() == Poly((3, 0, 4))
    with pytest.raises(ValueError):
        Poly((1, 1)).shift_down()


def test_derivative():
    assert Poly((5, 3, 0, 2)).derivative() == Poly((3, 0, 6))


def test_to_int():
    assert Poly((Fraction(4, 2), Fraction(1))).to_int().coeffs == (2, 1)
    with pytest.raises(ValueError):
        Poly((Fraction(1, 2),)).to_int()


def test_json_roundtrip_exact():
    p = Poly((-(10**40), 0, 3))
    data = json.loads(json.dumps(p.to_json_dict()))
    assert data["coeffs"][0] == "-" + "1" + "0" * 40
    assert Poly([int(c) for c in data["coeffs"]]) == p


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        Poly((0, 1)) ** -1
