"""Partitions, standard Young tableaux and bitableaux, and their descent sets.

Rows are numbered from the top (row 1 first), so "lower" always means a
larger row index.  A tableau is a tuple of row tuples; a bitableau is a
(plus, minus) pair of tableaux whose entries partition 1..n.

Standard tableaux are enumerated by growing the shape one entry at a time,
which enforces standardness by construction.  Bitableaux are enumerated by
choosing the entry set of the plus part and relabelling standard fillings
of each part through the unique order isomorphism.

Descent sets are read off the rows, in the formats of permutations.py: a
descent set is an ascending tuple of entries i, and a signed descent set is
the pair (positions, signs) with the sign of the part holding each entry.
Nothing here calls the window-side descent functions, so the two sides of
the bijection share only the type aliases.
"""
from __future__ import annotations

from itertools import combinations
from math import comb, factorial
from typing import Iterator

from .permutations import (
    Descents,
    SignedDescents,
    _check_budget,
    involution_count,
    signed_involution_count,
)

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
    f^shape is held to the budget."""
    validate_shape(shape)
    n = sum(shape)
    _check_budget(n, _syt_count(shape), f"standard Young tableaux of shape {shape}")
    rows: list[list[int]] = [[] for _ in shape]

    def place(entry: int) -> Iterator[Tableau]:
        if entry > n:
            yield tuple(tuple(row) for row in rows)
            return
        for r, row in enumerate(rows):
            col = len(row)
            if col >= shape[r]:
                continue
            # cells fill left to right, so only the column constraint remains
            if r > 0 and len(rows[r - 1]) <= col:
                continue
            row.append(entry)
            yield from place(entry + 1)
            row.pop()

    yield from place(1)


def enumerate_all_syt(n: int) -> Iterator[Tableau]:
    """All standard Young tableaux with n entries, over every shape; there
    are as many as involutions of S_n, and that count is held to the budget."""
    _check_budget(n, involution_count(n), "standard Young tableaux")
    for shape in partitions(n):
        yield from enumerate_syt(shape)


def syt_row_of_entry(tableau: Tableau) -> dict[int, int]:
    return {entry: r for r, row in enumerate(tableau) for entry in row}


def syt_descent_set(tableau: Tableau) -> Descents:
    """Entries i whose successor i+1 sits in a strictly lower row, ascending."""
    row_of = syt_row_of_entry(tableau)
    n = len(row_of)
    return tuple(i for i in range(1, n) if row_of[i + 1] > row_of[i])


def syt_transpose(tableau: Tableau) -> Tableau:
    """The tableau whose rows are the columns of the input."""
    if not tableau:
        return ()
    width = len(tableau[0])
    out = []
    for c in range(width):
        out.append(tuple(row[c] for row in tableau if len(row) > c))
    return tuple(out)


def _relabel(tableau: Tableau, entries: tuple[int, ...]) -> Tableau:
    # entries sorted ascending; tableau entries are 1..k
    return tuple(tuple(entries[v - 1] for v in row) for row in tableau)


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
        for p in plus_fillings:
            relabelled_plus = _relabel(p, plus_entries)
            for m in minus_fillings:
                yield relabelled_plus, _relabel(m, minus_entries)


def enumerate_all_syb(n: int) -> Iterator[Bitableau]:
    """All standard Young bitableaux with n entries, over every bipartition;
    there are as many as involutions of B_n, and that count is held to the budget."""
    _check_budget(n, signed_involution_count(n), "standard Young bitableaux")
    for shape in bipartitions(n):
        yield from enumerate_syb(shape)


def syb_signed_descent_set(bitableau: Bitableau) -> SignedDescents:
    """Signed descent set of a bitableau.

    The sign of i is the sign of the part containing it; i is a descent when
    the signs step +,- , or when they agree and i+1 sits in a strictly lower
    row of that shared part.
    """
    plus, minus = bitableau
    row_of: dict[int, int] = {}
    sign_of: dict[int, int] = {}
    for part, sign in ((plus, 1), (minus, -1)):
        for r, row in enumerate(part):
            for entry in row:
                row_of[entry] = r
                sign_of[entry] = sign
    n = len(row_of)
    signs = tuple(sign_of[i] for i in range(1, n + 1))
    positions = []
    for i in range(1, n):
        sa, sb = signs[i - 1], signs[i]
        if sa == 1 and sb == -1:
            positions.append(i)
        elif sa == sb and row_of[i + 1] > row_of[i]:
            positions.append(i)
    return tuple(positions), signs


def syb_des_b(bitableau: Bitableau) -> int:
    """Type-B descent number of a bitableau: |Des| plus one when the first
    sign is negative."""
    positions, signs = syb_signed_descent_set(bitableau)
    return len(positions) + (1 if signs and signs[0] == -1 else 0)


def syb_transpose(bitableau: Bitableau) -> Bitableau:
    """Swap the parts and transpose each; sends des_B to n - des_B."""
    plus, minus = bitableau
    return syt_transpose(minus), syt_transpose(plus)
