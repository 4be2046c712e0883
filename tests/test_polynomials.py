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


def test_power_squares_only_for_the_bits_it_uses(monkeypatch):
    # square-and-multiply: e.bit_length() - 1 squarings and one product into
    # the result per set bit of e; a squaring past the top bit is thrown away
    p = Poly((Fraction(-1, 2), 3, 0, 2))
    repeated = [Poly((1,))]
    for _ in range(40):
        repeated.append(repeated[-1] * p)
    products = []
    real = Poly.__mul__

    def counted(a, b):
        products.append("square" if a is b else "result")
        return real(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    for e in range(41):
        products.clear()
        assert p**e == repeated[e]
        assert products.count("square") == max(e.bit_length() - 1, 0)
        assert products.count("result") == bin(e).count("1")


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        Poly((0, 1)) ** -1
