"""Principal specializations of fundamental quasisymmetric and Schur functions.

A specialization count is the number of weakly increasing index chains into
1..m, strict at prescribed positions, that avoid index 1 at negatively
signed positions, which is exactly what substituting 0 for the first
variable of the second alphabet does.  One function takes a descent set
(positions, signs); a permutation's or a standard tableau's carries all n
signs +1, and its value is the one-alphabet value.

Counts are computed by dynamic programming over chain positions, each step
one pass of itertools.accumulate prefix sums.  The matching closed forms
(single binomial coefficients) are deliberately NOT used here: they serve
as the independent second route in the verification sweeps of checks and
in the test suite.  This module holds the counts only; the sweeps that
compare them with those closed forms live in checks.

A Schur specialization walks the standard tableaux of its shape once, in
the walk's descents mode: the walk yields each tableau's descent set,
packed into one int as it places the entries, and builds no tableau.  It
counts how many times each descent set is yielded and runs the dynamic
program once per distinct set, weighted by that count.

The dynamic program is memoized for the life of the process, keyed by the
packed descent set, n and m, three ints; it reads the strict steps and the
signs straight off the bits, in the layout of permutations.py.
fundamental_spec checks its input and packs it, so {1}, (1,) and [1] share
an entry; schur_spec passes the walk's ints as they are, with nothing to
decode.  The memo stays small because a key is a descent set, not an
object: at most 2^(n-1) strict sets per (n, m) when every sign is +1, and
2^(n-1) * 2^n with mixed signs.
"""
from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import accumulate

from .permutations import SignedDescents
from .tableaux import Shape, enumerate_syt, validate_shape


@cache
def _count_chains(mask: int, n: int, m: int) -> int:
    """Chains 1 <= i_1 <= ... <= i_n <= m with i_j < i_{j+1} where bit j of
    mask is set and i_j >= 2 where bit n + j - 1 is set: the strict
    positions and the minus signs of a packed descent set of n entries."""
    if not n:
        return 1
    if m <= 0:
        return 0
    # ways[v - 1] = chains so far ending at value v, for v in 1..m; the next
    # entry may repeat v or exceed it, or must exceed it after a strict step,
    # so its ways are prefix sums of these, shifted one value up when strict.
    # Chains climb, so a negative entry's floor of 2 only bars value 1
    ways = [1] * m
    for j in range(n):
        if mask >> j & 1:
            ways = [0, *accumulate(ways)]
            ways.pop()
        elif j:  # the first entry may take any value
            ways = list(accumulate(ways))
        if mask >> (n + j) & 1:
            ways[0] = 0
    return sum(ways)


def _check_m(m: int) -> None:
    """Raise ValueError unless m is a nonnegative int and not a bool."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 0:
        raise ValueError(f"m must be a nonnegative integer, got {m!r}")


def fundamental_spec(sdes: SignedDescents, m: int) -> int:
    """Specialize the fundamental quasisymmetric function of a signed descent
    set (positions, signs) at (1^m, 01^(m-1)): the count of weakly increasing
    chains into 1..m, strict after each position, in which negatively signed
    entries avoid index 1.  With every sign +1 this is the one-alphabet
    specialization of the descent set at 1^m.  An m that is not a
    nonnegative int, a bool among them, raises ValueError."""
    _check_m(m)
    positions, signs = sdes
    signs = tuple(signs)
    n = len(signs)
    # packed as the walk packs a descent set: bit n + j for a minus sign on
    # entry j + 1, bit i for position i; a repeated position sets one bit
    mask = 0
    bit = 1 << n
    for sign in signs:
        if sign == -1:
            mask |= bit
        elif sign != 1:
            raise ValueError(f"signs must be +1 or -1, got {list(signs)}")
        bit <<= 1
    for i in positions:
        if not 0 < i < n:
            strict = sorted(set(positions))
            raise ValueError(f"strict positions must lie in 1..{n - 1}, got {strict}")
        mask |= 1 << i
    return _count_chains(mask, n, m)


def schur_spec(shape: Shape, m: int) -> int:
    """Principal specialization of a Schur function: the sum of fundamental
    specializations over the standard tableaux of the shape.  Counts the
    semistandard fillings with entries at most m.  A bad m raises
    ValueError, as in fundamental_spec, before any tableau is walked."""
    validate_shape(shape)
    _check_m(m)
    if m == 0:
        return 1 if sum(shape) == 0 else 0
    # the walk yields well-formed descent sets, packed as the memo keys them
    n = sum(shape)
    walk = Counter(enumerate_syt(shape, True))
    return sum(count * _count_chains(mask, n, m) for mask, count in walk.items())

