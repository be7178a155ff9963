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

from .permutations import _check_int


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b) for a >= 0, with C(a, b) = 0 outside 0 <= b <= a.

    Only a negative a is refused.  The types go unchecked, so
    binomial(True, 2) is 0 and binomial(4, True) is 4: one pass of
    perfbench's bijection workload calls it 26,530 times, and a check
    here would show in its time."""
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
    """Exact convolution product of two coefficient tuples, lowest degree
    first.  An operand that is not a tuple or a list raises ValueError."""
    if not (isinstance(p, (tuple, list)) and isinstance(q, (tuple, list))):
        raise ValueError(f"polynomials are tuples or lists of coefficients, got {p!r} and {q!r}")
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def negative_binomial_coefficient(a: int, b: int, n: int) -> int:
    """The t^n coefficient of (1-t)^(-a) * (1-t^2)^(-b), for a, b >= 0; 0
    for n < 0.  An a or b that is not a nonnegative int, or an n that is not
    an int, a bool among them, raises ValueError; a negative n is no error.

    It is the double count sum_j multiset(b, j) * multiset(a, n-2j): pick j
    factors of t^2, fill the rest with ordinary t's.
    """
    _check_int(a, "a")
    _check_int(b, "b")
    _check_int(n, "n", None)
    total = 0
    for j in range(n // 2 + 1):
        left = multiset_count(b, j)
        if left:
            total += left * multiset_count(a, n - 2 * j)
    return total


def expand_negative_binomial_product(a: int, b: int, order: int) -> tuple[int, ...]:
    """Coefficients of (1-t)^(-a) * (1-t^2)^(-b) through t^order; index n
    holds t^n, and a negative order gives ().  The arguments are checked as
    in negative_binomial_coefficient, order as its n."""
    _check_int(a, "a")
    _check_int(b, "b")
    _check_int(order, "order", None)
    return tuple(negative_binomial_coefficient(a, b, n) for n in range(order + 1))
