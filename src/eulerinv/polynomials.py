"""Binomial coefficients, one product series and one convolution.

The product series is (1-t)^(-a) (1-t^2)^(-b): negative_binomial_coefficient
gives one of its coefficients and expand_negative_binomial_product the first
several.  The type-A generating function and the r-values r(n, m) of type B
are both coefficients of it.

A polynomial is a plain tuple of integer coefficients, lowest degree first.
Everything here is plain-Python arbitrary-precision arithmetic: no floats
anywhere, since the identities these values feed are exact (the largest
check multiplies 20-digit integers).
"""
from __future__ import annotations

from math import comb


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b) for a >= 0, with C(a, b) = 0 outside 0 <= b <= a."""
    if a < 0:
        raise ValueError(f"binomial expects a nonnegative first argument, got {a}")
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def multiset_count(symbols: int, size: int) -> int:
    """Number of multisets of the given size drawn from `symbols` symbols.

    Equals the coefficient of t^size in (1-t)^(-symbols); handles symbols = 0
    (empty product) without leaving binomial's domain.
    """
    if symbols == 0:
        return 1 if size == 0 else 0
    return binomial(symbols + size - 1, size)


def poly_multiply(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Exact convolution product of two coefficient tuples, lowest degree first."""
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _check_series(a: int, b: int, order: int, name: str) -> None:
    """Raise ValueError unless a, b and order are ints, no bool among them,
    and a, b >= 0; name is the parameter the message calls order.  A
    negative order is no error: it asks for no coefficient."""
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (a, b, order)):
        got = f"a={a!r}, b={b!r}, {name}={order!r}"
        raise ValueError(f"exponents and {name} must be integers, got {got}")
    if a < 0 or b < 0:
        raise ValueError("exponents must be nonnegative")


def negative_binomial_coefficient(a: int, b: int, n: int) -> int:
    """The t^n coefficient of (1-t)^(-a) * (1-t^2)^(-b), for a, b >= 0; 0
    for n < 0.  Arguments are checked as in _check_series.

    It is the double count sum_j multiset(b, j) * multiset(a, n-2j): pick j
    factors of t^2, fill the rest with ordinary t's.
    """
    _check_series(a, b, n, "n")
    total = 0
    for j in range(n // 2 + 1):
        left = multiset_count(b, j)
        if left:
            total += left * multiset_count(a, n - 2 * j)
    return total


def expand_negative_binomial_product(a: int, b: int, order: int) -> tuple[int, ...]:
    """Coefficients of (1-t)^(-a) * (1-t^2)^(-b) through t^order; index n
    holds t^n, and a negative order gives ().  Arguments are checked as in
    _check_series."""
    _check_series(a, b, order, "order")
    return tuple(negative_binomial_coefficient(a, b, n) for n in range(order + 1))
