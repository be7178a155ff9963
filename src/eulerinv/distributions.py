"""Descent-number distributions over (signed) permutation classes.

Builds the involution and whole-group Eulerian polynomials by direct
enumeration, the type-B involution polynomial by its linear recurrence, the
coefficient family r(n, m) of the expanded generating function as a
coefficient of the product series in polynomials, and the symmetry /
unimodality / gamma machinery.

S_n is the all-positive slice of B_n, so each enumerated row comes from
one function with a signed flag, taking (n, signed, statistic).

Every polynomial is a plain tuple of integer coefficients, lowest degree
first, with no trailing zeros: entry k of a distribution counts the
elements with k descents.

The recurrence has one base row, row 0, and divides by n at each step from
n = 1 on; the division is exact when the coefficients are right, so a
nonzero remainder aborts loudly instead of being rounded away.  One run
yields every row up to n_max (signed_involution_recurrence_rows), so a sweep
over n computes each row once; a caller of row n alone keeps no earlier row.

A gamma vector is a plain tuple too: gamma_vector(coeffs, n) extracts it and
gamma_reconstruct(gammas, n) rebuilds the coefficients from it, n being twice
the center of symmetry.  Both work with the binomial coefficients of (1+x)^e
directly and multiply no polynomials.
"""
from __future__ import annotations

from collections import Counter, deque
from math import comb

from .permutations import (
    DES_B,
    DES_COXETER,
    _check_int,
    _statistic,
    des_coxeter,
    enumerate_group,
    enumerate_involutions,
    enumerate_signed_involutions,
)
from .polynomials import negative_binomial_coefficient


class InexactDivisionError(ArithmeticError):
    """A recurrence step did not divide evenly: the coefficients are wrong."""


def _histogram_poly(values) -> tuple[int, ...]:
    """Coefficient tuple whose entry k counts the values equal to k; it ends
    at the largest value seen, so it has no trailing zero."""
    counts = Counter(values)
    return tuple(counts[k] for k in range(max(counts, default=-1) + 1))


def involution_eulerian(n: int, signed: bool = False, statistic: str = DES_B) -> tuple[int, ...]:
    """Distribution of a descent statistic over the involutions of S_n or
    B_n, counted by the walk as it sets each involution's entries.  On S_n,
    the positive windows, both statistics count ordinary descents."""
    _statistic(statistic)  # the enumerators would take None for windows
    enumerate_ = enumerate_signed_involutions if signed else enumerate_involutions
    return _histogram_poly(enumerate_(n, statistic))


def full_eulerian(n: int, signed: bool, statistic: str = DES_B) -> tuple[int, ...]:
    """Distribution over the whole group S_n or B_n; S_n rows use des_coxeter."""
    stat = _statistic(statistic)
    return _histogram_poly(map(stat if signed else des_coxeter, enumerate_group(n, signed)))


def _recurrence_rows(n_max: int):
    """Yield type-B involution rows 0..n_max (none when n_max < 0) from the
    three-term linear recurrence, holding only the last two.

    Row 0 = (1,) is the only base row and row -1 is empty; each row n >= 1 is
    built from rows n-1 and n-2 and divided by n, which must be exact.
    """
    if n_max < 0:
        return
    prev2, prev = (), (1,)
    yield prev
    for size in range(1, n_max + 1):
        # rows n-1 and n-2 read at k, k-1 and k-2 for k = 0..n, zero outside
        shifted = zip(
            prev + (0,), (0,) + prev, prev2 + (0, 0), (0,) + prev2 + (0,), (0, 0) + prev2
        )
        row = []
        for k, (prev_k, prev_k1, prev2_k, prev2_k1, prev2_k2) in enumerate(shifted):
            total = (
                (2 * k + 1) * prev_k
                + (2 * size - 2 * k + 1) * prev_k1
                + (size - 1 + 2 * k * (k + 1)) * prev2_k
                + (2 * (size - 1) + 4 * (size - k - 1) * (k - 1)) * prev2_k1
                + ((2 * size - 3) * (size - 1) + 2 * (k - 2) * (k - 2 * size + 1)) * prev2_k2
            )
            quotient, remainder = divmod(total, size)
            if remainder:
                raise InexactDivisionError(
                    f"recurrence row n={size}, k={k}: {total} is not divisible by {size}"
                )
            row.append(quotient)
        prev2, prev = prev, tuple(row)
        yield prev


def signed_involution_recurrence_rows(n_max: int) -> list[tuple[int, ...]]:
    """Type-B involution rows 0..n_max (none when n_max < 0), from one run of
    the three-term linear recurrence, entirely without enumeration.  An
    n_max that is not an int, a bool among them, raises ValueError."""
    _check_int(n_max, "n_max", None)
    return list(_recurrence_rows(n_max))


def signed_involution_eulerian_recurrence(n: int) -> tuple[int, ...]:
    """Type-B involution distribution: row n of the same single run, with
    no earlier row kept.  An n that is not a nonnegative int, a bool among
    them, raises ValueError."""
    _check_int(n, "n")
    (row,) = deque(_recurrence_rows(n), maxlen=1)
    return row


def r_closed(n: int, m: int) -> int:
    """The x^m coefficient of the B-involution polynomial divided by
    (1-x)^(n+1): the t^n coefficient of (1-t)^-(2m+1) (1-t^2)^-(m^2), since
    sum_n r(n, m) t^n is that product.  An n or m that is not a nonnegative
    int, a bool among them, raises ValueError."""
    _check_int(n, "n")
    _check_int(m, "m")
    return negative_binomial_coefficient(2 * m + 1, m * m, n)


def is_symmetric(coeffs: tuple[int, ...], n: int) -> bool:
    """Whether coefficients, a tuple or a list, satisfy a_i = a_{n-i} for
    0 <= i <= n, reading absent coefficients as zero.  An n that is not a
    nonnegative int, a bool among them, raises ValueError."""
    _check_int(n, "n")
    padded = (*coeffs, *(0,) * (n + 1 - len(coeffs)))
    return len(padded) == n + 1 and padded == padded[::-1]


def is_unimodal(coeffs: tuple[int, ...]) -> bool:
    """Whether coefficients weakly rise and then weakly fall."""
    i = 0
    while i + 1 < len(coeffs) and coeffs[i] <= coeffs[i + 1]:
        i += 1
    while i + 1 < len(coeffs) and coeffs[i] >= coeffs[i + 1]:
        i += 1
    return i + 1 >= len(coeffs)


def gamma_vector(coeffs: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Extract the gamma expansion of a polynomial symmetric with center n/2:
    the tuple of gamma_i with coeffs = sum_i gamma_i x^i (1+x)^(n-2i).

    Works from the bottom coefficient up: gamma_i is whatever coefficient of
    x^i the previous subtractions left behind.  Entries may be negative;
    asymmetric input is rejected, and so, by is_symmetric, is an n that is
    not a nonnegative int, a bool among them.
    """
    if not is_symmetric(coeffs, n):
        raise ValueError(f"polynomial {coeffs!r} is not symmetric with doubled center {n}")
    residual = list(coeffs) + [0] * (n + 1 - len(coeffs))
    gammas = []
    for i in range(n // 2 + 1):
        g = residual[i]
        gammas.append(g)
        if g:
            # subtract g x^i (1+x)^e term by term, e = n - 2i
            e = n - 2 * i
            for j in range(e + 1):
                residual[i + j] -= g * comb(e, j)
    if any(residual):
        raise ValueError("gamma extraction left a nonzero residual")
    return tuple(gammas)


def gamma_reconstruct(gammas: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Rebuild sum_i gammas[i] x^i (1+x)^(n-2i), where n is twice the center
    of symmetry; the result has no trailing zero.  An n that is not a
    nonnegative int, a bool among them, raises ValueError."""
    _check_int(n, "n")
    if 2 * (len(gammas) - 1) > n:
        raise ValueError(
            f"{len(gammas)} gamma entries need a doubled center of at least "
            f"{2 * (len(gammas) - 1)}, got {n}"
        )
    # only the first nonzero gamma_i reaches degree n - i, so the tuple
    # ends there with a nonzero coefficient
    top = next((n - i for i, g in enumerate(gammas) if g), -1)
    coeffs = [0] * (top + 1)
    for i, g in enumerate(gammas):
        if g:
            e = n - 2 * i
            for j in range(e + 1):
                coeffs[i + j] += g * comb(e, j)
    return tuple(coeffs)
