"""Dense univariate polynomials with exact integer or rational coefficients.

Coefficients are stored ascending by degree (coeffs[k] multiplies x^k) as
Python ints or fractions.Fraction, so all arithmetic is arbitrary precision.
Trailing zeros are stripped; the zero polynomial has empty coeffs and
degree -1.
"""

from __future__ import annotations

from typing import Sequence


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        self.coeffs = tuple(coeffs[:end])

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def from_roots(cls, roots) -> "Poly":
        """Monic polynomial prod (x - r); exact if the roots are exact."""
        p = cls((1,))
        for r in roots:
            p = p * cls((-r, 1))
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly((other,))
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        # square only while a higher bit of e is left to use the square
        result = Poly((1,))
        base = self
        while True:
            if e & 1:
                result = result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def shift_down(self) -> "Poly":
        """Exact division by x; requires zero constant term."""
        if self.coeffs and self.coeffs[0] != 0:
            raise ValueError("constant term nonzero, not divisible by x")
        return Poly(self.coeffs[1:])

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)) by Horner's rule; exact for exact coefficients."""
        result = Poly()
        for c in reversed(self.coeffs):
            result = result * inner + Poly((c,))
        return result

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        result = 0 * x
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def to_int(self) -> "Poly":
        """Coerce all coefficients to int; raises if any is non-integral."""
        from fractions import Fraction

        out = []
        for c in self.coeffs:
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise ValueError(f"non-integer coefficient {c}")
                c = c.numerator
            out.append(int(c))
        return Poly(out)

    def float_coeffs(self) -> list[float]:
        return [float(c) for c in self.coeffs]

    def to_json_dict(self) -> dict:
        """Exact serialization in x: coefficients as decimal strings, ascending."""
        return {"variable": "x", "coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c == 0:
                continue
            mono = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            if c == 1 and mono:
                terms.append(mono)
            elif c == -1 and mono:
                terms.append(f"-{mono}")
            else:
                terms.append(f"{c}{'*' + mono if mono else ''}")
        return "Poly(" + " + ".join(terms).replace("+ -", "- ") + ")"
