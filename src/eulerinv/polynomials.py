"""Exact integer polynomials, binomial coefficients and one power-series expansion.

Everything here is plain-Python arbitrary-precision arithmetic: no floats
anywhere, since the identities these objects feed are exact (the largest
check multiplies 20-digit integers).
"""
from __future__ import annotations

from typing import Iterable


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b) for a >= 0, with C(a, b) = 0 outside 0 <= b <= a."""
    if a < 0:
        raise ValueError(f"binomial expects a nonnegative first argument, got {a}")
    if b < 0 or b > a:
        return 0
    b = min(b, a - b)
    result = 1
    for i in range(1, b + 1):
        result = result * (a - b + i) // i
    return result


def multiset_count(symbols: int, size: int) -> int:
    """Number of multisets of the given size drawn from `symbols` symbols.

    Equals the coefficient of t^size in (1-t)^(-symbols); handles symbols = 0
    (empty product) without leaving binomial's domain.
    """
    if symbols == 0:
        return 1 if size == 0 else 0
    return binomial(symbols + size - 1, size)


def _normalize(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class IntPolynomial:
    """Dense univariate polynomial with integer coefficients.

    coeffs[i] is the coefficient of x^i.  The zero polynomial is the empty
    tuple; construction strips trailing zeros so degree is always
    len(coeffs) - 1.  Values are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPolynomial(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return poly_multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        return NotImplemented

    def truncated(self, degree: int) -> "IntPolynomial":
        """Drop every term of degree greater than `degree`."""
        return IntPolynomial(self.coeffs[: degree + 1])

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPolynomial", self.coeffs))

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"


def poly_multiply(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Exact convolution product of two integer polynomials."""
    if p.is_zero or q.is_zero:
        return IntPolynomial()
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return IntPolynomial(out)


def expand_negative_binomial_product(a: int, b: int, order: int) -> tuple[int, ...]:
    """Coefficients of (1-t)^(-a) * (1-t^2)^(-b) through t^order; index n holds t^n.

    The t^n coefficient is the double-count sum_j multiset(b, j) * multiset(a, n-2j):
    pick j factors of t^2, fill the rest with ordinary t's.
    """
    if a < 0 or b < 0:
        raise ValueError("exponents must be nonnegative")
    coeffs = []
    for n in range(order + 1):
        total = 0
        for j in range(n // 2 + 1):
            left = multiset_count(b, j)
            if left:
                total += left * multiset_count(a, n - 2 * j)
        coeffs.append(total)
    return tuple(coeffs)
