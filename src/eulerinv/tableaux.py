"""Partitions, standard Young tableaux and bitableaux, and their descent sets.

Rows are numbered from the top (row 1 first), so "lower" always means a
larger row index.  A tableau is a tuple of row tuples; a bitableau is a
(plus, minus) pair of tableaux whose entries partition 1..n.

Standard tableaux are enumerated by growing the shape one entry at a time,
which enforces standardness by construction: one iterative walk in a single
generator frame keeps the row chosen for each entry on a stack and yields
when entry n is placed.  Bitableaux are enumerated by choosing the entry set
of the plus part and relabelling standard fillings of each part through the
unique order isomorphism; each minus filling is relabelled once per entry
set, not once per plus filling.  Every walk yields each object once, in the
order of the plain recursive walks that tests/oracles.py keeps as references.

Descent sets are read off a list holding the row of each entry, in the one
format of permutations.py: the pair (positions, signs), the entries i
ascending and the sign of the part holding each entry.  Every sign of a
standard tableau is +1.  On a bitableau the rows of the minus part are
numbered after all of the plus part's, so a single comparison of neighbours
tests each i and des_B is counted without building the set.  Nothing here
calls the window-side descent functions, so the two sides of the bijection
share only the type alias.
"""
from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations, compress, zip_longest
from math import comb, factorial
from operator import lt

from .permutations import SignedDescents, _check_budget, involution_count

Shape = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]
Bitableau = tuple[Tableau, Tableau]


def validate_shape(shape: Shape) -> None:
    for part in shape:
        if part <= 0:
            raise ValueError(f"partition parts must be positive, got {shape}")
    for a, b in zip(shape, shape[1:]):
        if a < b:
            raise ValueError(f"partition parts must be weakly decreasing, got {shape}")


def partitions(n: int, max_part: int | None = None) -> Iterator[Shape]:
    """Yield the partitions of n with parts bounded by max_part, largest part first."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def bipartitions(n: int) -> Iterator[tuple[Shape, Shape]]:
    """Yield all ordered pairs of partitions with total weight n."""
    for plus_weight in range(n + 1):
        for plus in partitions(plus_weight):
            for minus in partitions(n - plus_weight):
                yield plus, minus


def _syt_count(shape: Shape) -> int:
    """f^shape, the number of standard Young tableaux of a shape, by the
    hook-length formula."""
    columns = [sum(1 for part in shape if part > c) for c in range(max(shape, default=0))]
    hooks = 1
    for r, part in enumerate(shape):
        for c in range(part):
            hooks *= (part - c - 1) + (columns[c] - r - 1) + 1  # arm + leg + the cell
    return factorial(sum(shape)) // hooks


def enumerate_syt(shape: Shape) -> Iterator[Tableau]:
    """Yield every standard Young tableau of the given shape; their count
    f^shape is held to the budget.

    Entries 1..n are placed in turn, each in the top-most row that can take
    it next, then in each lower one; the walk keeps the row chosen for each
    entry on an explicit stack and yields when entry n is placed.
    """
    validate_shape(shape)
    n = sum(shape)
    _check_budget(n, _syt_count(shape), f"standard Young tableaux of shape {shape}")
    if n == 0:
        yield ()
        return
    height = len(shape)
    rows: list[list[int]] = [[] for _ in shape]
    chosen = [0] * (n + 1)  # chosen[e]: the row entry e went into
    entry, r = 1, 0  # place entry in row r or a lower one
    while True:
        while r < height:
            col = len(rows[r])
            # cells fill left to right, so only the column constraint remains
            if col < shape[r] and (r == 0 or len(rows[r - 1]) > col):
                break
            r += 1
        if r < height:
            rows[r].append(entry)
            if entry < n:
                chosen[entry] = r
                entry, r = entry + 1, 0
                continue
            yield tuple(map(tuple, rows))
        else:
            # no row takes this entry: move the previous one a row lower
            entry -= 1
            if entry == 0:
                return
            r = chosen[entry]
        rows[r].pop()
        r += 1


def enumerate_all_syt(n: int) -> Iterator[Tableau]:
    """All standard Young tableaux with n entries, over every shape; there
    are as many as involutions of S_n, and that count is held to the budget."""
    _check_budget(n, involution_count(n), "standard Young tableaux")
    for shape in partitions(n):
        yield from enumerate_syt(shape)


def syt_descent_set(tableau: Tableau) -> SignedDescents:
    """(positions, signs): the entries i whose successor i+1 sits in a
    strictly lower row, ascending, and n signs +1."""
    n = sum(map(len, tableau))
    row_of = [0] * (n + 1)  # row_of[e]: the row holding e
    for r, row in enumerate(tableau[1:], 1):  # the first row keeps row 0
        for entry in row:
            row_of[entry] = r
    return tuple(compress(range(1, n + 1), map(lt, row_of[1:], row_of[2:]))), (1,) * n


def syt_transpose(tableau: Tableau) -> Tableau:
    """The tableau whose rows are the columns of the input."""
    # zip_longest pads the short columns with None, which filter drops;
    # entries are positive, so no entry is dropped with it
    return tuple([tuple(filter(None, column)) for column in zip_longest(*tableau)])


def _relabel(tableau: Tableau, entries: tuple[int, ...]) -> Tableau:
    # entries sorted ascending; tableau entries are 1..k, and the 0 in front
    # puts entry v at index v
    lookup = (0, *entries).__getitem__
    return tuple([tuple(map(lookup, row)) for row in tableau])


def enumerate_syb(shape: tuple[Shape, Shape]) -> Iterator[Bitableau]:
    """Yield every standard Young bitableau of shape (plus, minus).

    Entries 1..n are split between the parts in all C(n, |plus|) ways; each
    part is then a standard filling of its shape, transported through the
    order isomorphism from 1..k to its entry set.  Their count
    C(n, |plus|) f^plus f^minus is held to the budget.
    """
    plus_shape, minus_shape = shape
    validate_shape(plus_shape)
    validate_shape(minus_shape)
    k = sum(plus_shape)
    n = k + sum(minus_shape)
    count = comb(n, k) * _syt_count(plus_shape) * _syt_count(minus_shape)
    _check_budget(n, count, f"standard Young bitableaux of shape {shape}")
    plus_fillings = list(enumerate_syt(plus_shape))
    minus_fillings = list(enumerate_syt(minus_shape))
    universe = range(1, n + 1)
    for plus_entries in combinations(universe, k):
        taken = set(plus_entries)
        minus_entries = tuple(v for v in universe if v not in taken)
        # each minus filling is relabelled once per split, then paired with
        # every plus filling
        minus_parts = [_relabel(m, minus_entries) for m in minus_fillings]
        for p in plus_fillings:
            plus_part = _relabel(p, plus_entries)
            for minus_part in minus_parts:
                yield plus_part, minus_part


def enumerate_all_syb(n: int) -> Iterator[Bitableau]:
    """All standard Young bitableaux with n entries, over every bipartition;
    there are as many as involutions of B_n, and that count is held to the budget."""
    _check_budget(n, involution_count(n, signed=True), "standard Young bitableaux")
    for shape in bipartitions(n):
        yield from enumerate_syb(shape)


def _levels(bitableau: Bitableau) -> list[int]:
    """levels[e] for each entry e of a bitableau with n entries: its row in
    the plus part, or n plus its row in the minus part.  Every minus level
    lies above every plus level; levels[0] is 0."""
    plus, minus = bitableau
    n = sum(map(len, plus)) + sum(map(len, minus))
    levels = [0] * (n + 1)
    for r, row in enumerate(plus[1:], 1):  # the first row keeps level 0
        for entry in row:
            levels[entry] = r
    for r, row in enumerate(minus, n):
        for entry in row:
            levels[entry] = r
    return levels


def syb_signed_descent_set(bitableau: Bitableau) -> SignedDescents:
    """Signed descent set of a bitableau.

    The sign of i is the sign of the part containing it; i is a descent when
    the signs step +,- , or when they agree and i+1 sits in a strictly lower
    row of that shared part.  On levels that is one test, levels[i+1] >
    levels[i]: a +,- step always climbs to the minus levels, and a -,+ step
    never does.
    """
    levels = _levels(bitableau)
    n = len(levels) - 1
    signs = tuple([1 if level < n else -1 for level in levels[1:]])
    return tuple(compress(range(1, n), map(lt, levels[1:], levels[2:]))), signs


def syb_des_b(bitableau: Bitableau) -> int:
    """Type-B descent number of a bitableau: |Des| plus one when the first
    sign is negative, counted in one pass over the levels.

    levels[0] = 0 plays the leading 0 of a window.  Entry 1 is the corner of
    its part, at level 0 when positive and at level n when negative, so the
    step from levels[0] climbs exactly when the first sign is negative.
    """
    levels = _levels(bitableau)
    return sum(map(lt, levels, levels[1:]))


def syb_transpose(bitableau: Bitableau) -> Bitableau:
    """Swap the parts and transpose each; sends des_B to n - des_B."""
    plus, minus = bitableau
    return syt_transpose(minus), syt_transpose(plus)
