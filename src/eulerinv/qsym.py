"""Principal specializations of fundamental quasisymmetric and Schur functions.

A specialization count is the number of weakly increasing index chains into
1..m, strict at prescribed positions, that avoid index 1 at negatively
signed positions, which is exactly what substituting 0 for the first
variable of the second alphabet does.  One function takes a signed descent
set, packed into one int in the layout of permutations.py, with its n; a
permutation's or a standard tableau's sets no sign bit, and its value is the
one-alphabet value.

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
signs straight off the bits.  fundamental_spec checks its input and passes
it on as it is; schur_spec, and the lemma31 and signed-schur sweeps of
checks, pass their walks' ints, which need no check.
Nothing here decodes a set.  The memo stays small because a key is a
descent set, not an object: at most 2^(n-1) strict sets per (n, m) when
every sign is +1, and 2^(n-1) * 2^n with mixed signs.
"""
from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import accumulate

from .permutations import _check_descents, _check_int
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


def fundamental_spec(mask: int, n: int, m: int) -> int:
    """Specialize the fundamental quasisymmetric function of a signed descent
    set of n entries, packed into mask, at (1^m, 01^(m-1)): the count of
    weakly increasing chains into 1..m, strict after each descent, in which
    negatively signed entries avoid index 1.  With no sign bit set this is
    the one-alphabet specialization of the descent set at 1^m.  An n or m
    that is not a nonnegative int, a bool among them, or a mask outside the
    layout of n entries raises ValueError."""
    _check_int(m, "m")
    _check_descents(mask, n)
    return _count_chains(mask, n, m)


def schur_spec(shape: Shape, m: int) -> int:
    """Principal specialization of a Schur function: the sum of fundamental
    specializations over the standard tableaux of the shape.  Counts the
    semistandard fillings with entries at most m.  A bad m raises
    ValueError, as in fundamental_spec, before any tableau is walked."""
    validate_shape(shape)
    _check_int(m, "m")
    if m == 0:
        return 1 if sum(shape) == 0 else 0
    # the walk yields well-formed descent sets, packed as the memo keys them
    n = sum(shape)
    walk = Counter(enumerate_syt(shape, True))
    return sum(count * _count_chains(mask, n, m) for mask, count in walk.items())

