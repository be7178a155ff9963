"""Partitions, standard Young tableaux and bitableaux, and their descent sets.

Rows are numbered from the top, so "lower" always means a larger row index.
A tableau is a tuple of row tuples; a bitableau is a (plus, minus) pair of
tableaux whose entries partition 1..n.

A standard bitableau of shape (plus, minus) is a standard filling of plus
and minus side by side: the rows of plus, then the rows of minus, where the
first row of minus starts a second part and so lies under no other row.
One iterative walk in a single generator frame serves every enumerator.
It grows the shape one entry at a time, which enforces standardness by
construction: entries 1..n are placed in turn, each in the top-most row
that can take it next and then in each lower one, and the walk keeps the
row chosen for each entry and yields when entry n is placed.  Which rows
can take the next entry depends only on the cells filled so far, a
sub-diagram, so each walk first builds a table: for each sub-diagram of at
most n cells, the rows that can take an entry and the sub-diagram each
move leads to.  Tables are kept for the life of the process, one per
shape, bound and split: a Schur sweep walks each shape once per m, and
rebuilding the table each time was about an eighth of verify cauchy's time.
In object mode the walk yields each filling cut into its two parts, each
part without its empty rows; with `descents` or with `words` it yields an
int or a tuple of ints and builds no tableau.

A per-shape walk fills the rows of its shape: a tableau is the walk over
one part, a bitableau the walk over two.  Each yields its objects once, in
the order of the plain recursive walks that tests/oracles.py keeps as
references.  An all-shapes walk is one walk over the lattice of every
(bi)partition of n: n rows of up to n cells for tableaux, and for
bitableaux n rows of plus and then n rows of minus, from row n on.  Its
sub-diagrams of n cells are exactly the (bi)partitions of n, so it yields
every object of size n once, with no loop over the shapes, in strictly
increasing lexicographic order of the rows chosen for entries 1..n, shapes
interleaved.  With `words` set they yield each object's row word, the
rows the walk chose, and the transpose sweep of checks, which relies on
that order, reads only those.

Descent sets are ints, packed in the layout of permutations.py: bit i for
a descent at i, bit n + e - 1 for an entry e in the minus part.  They are
read off the row of each entry.  Every walk numbers the rows of plus from
0 and those of minus on from `second`, len(plus) in a per-shape walk and n
in the lattice, and the reader numbers them as a per-shape walk does.  So
an entry is negative when its row is at least `second`, a tableau is the
bitableau with no minus part, no sign bit set, and as a +,- step always
climbs and a -,+ step never does, one comparison of neighbours tests each
i.  With `descents` set each enumerator yields each object's descent set in
its place: the walk sets an entry's bits as it places the entry, so it
builds no tableau and no tuple.

A finished object, as the enumerators yield it without `descents`, has
one reader, syb_signed_descent_set, which sets the same bits in one pass
over the list of each entry's row that _row_of builds, and one map,
syb_transpose; a tableau q is read as the bitableau (q, ()).  Both reject,
through _check_standard, anything but a (plus, minus) pair of tuples or
lists, entries that are not ints or are bools, rows, columns and shapes
that are not standard, and entries other than 1..n each once.
Nothing here calls the window-side descent functions, so the two sides of
the bijection share only the layout.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from itertools import chain, zip_longest
from math import comb, factorial
from operator import lt

from .permutations import _check_budget, _check_nonnegative, involution_count

Shape = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]
Bitableau = tuple[Tableau, Tableau]


def validate_shape(shape: Shape) -> None:
    """Raise ValueError unless shape is a partition: weakly decreasing
    parts, each a positive int and not a bool."""
    for part in shape:
        if isinstance(part, bool) or not isinstance(part, int) or part <= 0:
            raise ValueError(f"partition parts must be positive integers, got {shape}")
    for a, b in zip(shape, shape[1:]):
        if a < b:
            raise ValueError(f"partition parts must be weakly decreasing, got {shape}")


def partitions(n: int) -> Iterator[Shape]:
    """Yield the partitions of n, largest part first.  An n that is not a
    nonnegative int, a bool among them, raises ValueError."""
    _check_nonnegative(n, "n")
    yield from _partitions(n, n)


def _partitions(n: int, largest: int) -> Iterator[Shape]:
    """The partitions of n with no part above largest, n taken as checked."""
    if n == 0:
        yield ()
        return
    for first in range(min(largest, n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def bipartitions(n: int) -> Iterator[tuple[Shape, Shape]]:
    """Yield all ordered pairs of partitions with total weight n; a bad n
    raises ValueError, as in partitions."""
    _check_nonnegative(n, "n")
    for plus_weight in range(n + 1):
        for plus in _partitions(plus_weight, plus_weight):
            for minus in _partitions(n - plus_weight, n - plus_weight):
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


#: The walk's table for one shape: moves[s] holds (r, t) for each row r
#: that can take the next entry when the cells filled so far form
#: sub-diagram s, top-most first, where t is s with that cell added.
_Moves = tuple[tuple[tuple[int, int], ...], ...]


@cache
def _moves(shape: Shape, second: int, size: int) -> _Moves:
    """The table of the walk over the rows of shape up to `size` cells,
    where the rows from index `second` on form a second part: its first row
    is exempt from the column rule against the row above.  The states are
    the sub-diagrams of at most `size` cells, each a tuple of row lengths,
    numbered in the order a breadth-first search from the empty one finds
    them, so state 0 is the empty filling; one of `size` cells has no move.

    Each table is built once per process and kept, as qsym keeps its chain
    counts, keyed by the three arguments; so shape must be a tuple, and
    every walk passes one whatever sequence it was given."""
    order = [(0,) * len(shape)]
    index = {order[0]: 0}
    moves = []
    for lengths in order:  # the search appends to order as it goes
        row_moves = []
        for r, col in enumerate(lengths if sum(lengths) < size else ()):
            # cells fill left to right, so only the column rule remains
            if col < shape[r] and (r == 0 or r == second or lengths[r - 1] > col):
                grown = (*lengths[:r], col + 1, *lengths[r + 1 :])
                if grown not in index:
                    index[grown] = len(order)
                    order.append(grown)
                row_moves.append((r, index[grown]))
        moves.append(tuple(row_moves))
    return tuple(moves)


def _fillings(
    shape: Shape, second: int, n: int, descents: bool = False, words: bool = False
) -> Iterator[Bitableau | int | tuple[int, ...]]:
    """Every standard filling of n entries of the rows of shape, where the
    rows from index `second` on form a second part, empty when `second` is
    the number of rows: its first row is exempt from the column rule
    against the row above.  Entries 1..n are placed in turn, each in the
    top-most row that can take it next, then in each lower one.

    The walk steps through the table of sub-diagrams of at most n cells,
    _moves, with a stack of iterators over the moves still open to each
    entry placed, and keeps the row it chose for each entry; it neither
    counts the cells of a row nor scans the rows.  So the fillings come in
    strictly increasing lexicographic order of those rows.  Where shape
    caps no row below n, as in the lattice of the all-shapes walks, the
    sub-diagrams of n cells are every shape of n that the rows allow.

    With descents set, each filling's packed signed descent set takes its
    place, built as the entries are placed: entry e sets bit e - 1 when
    e - 1 is a descent, chosen[e - 1] < chosen[e], and bit n + e - 1 when
    its row lies in the second part.  masks[e] keeps the bits of entries
    1..e beside chosen[e].  With words set, each filling's row word takes
    its place: tuple(chosen), the row of entry e in the walk's numbering
    at index e, and second - 1 at index 0, the last row of the first part,
    so that the word steps up from index 0 exactly when entry 1 lies in the
    second part.  Neither mode does any other work for a filling.  Only in
    the third are the rows kept, as lists of their entries, and each
    filling is yielded as the pair of its parts, the rows before `second`
    and the rows from it, each without its empty rows.  Asking for both
    modes raises ValueError."""
    if descents and words:
        raise ValueError("a walk yields descent sets or row words, not both")
    if n == 0:
        yield 0 if descents else (second - 1,) if words else ((), ())
        return
    # chosen[e]: the row entry e went into; chosen[0] lies under every row
    # outside words mode, so entry 1 never makes a descent and bit 0 stays clear
    chosen = [second - 1 if words else len(shape)] + [0] * n
    masks = [0] * (n + 1)
    bit = [1 << i for i in range(2 * n)]
    moves = _moves(shape, second, n)
    rows = None if descents or words else [[] for _ in shape]
    # the rows of each part, sharing their lists with rows
    plus, minus = (None, None) if rows is None else (rows[:second], rows[second:])
    stack = [iter(moves[0])]  # stack[e - 1]: the moves still open to entry e
    entry = 1
    while True:
        for r, s in stack[-1]:
            if descents:
                mask = masks[entry - 1]
                if chosen[entry - 1] < r:
                    mask += bit[entry - 1]
                if r >= second:
                    mask += bit[n + entry - 1]
                masks[entry] = mask
            elif rows is not None:
                rows[r].append(entry)
            chosen[entry] = r
            if entry < n:
                stack.append(iter(moves[s]))
                entry += 1
                break
            if descents:
                yield mask
            elif rows is None:
                yield tuple(chosen)
            else:
                yield tuple(map(tuple, filter(None, plus))), tuple(map(tuple, filter(None, minus)))
                rows[r].pop()
        else:
            # no move left for this entry: move the previous one a row lower
            stack.pop()
            entry -= 1
            if entry == 0:
                return
            if rows is not None:
                rows[chosen[entry]].pop()


def enumerate_syt(shape: Shape, descents: bool = False) -> Iterator[Tableau | int]:
    """Yield every standard Young tableau of the given shape, in the order
    of the walk, or with descents set the descent set of each, the int
    syb_signed_descent_set reads off the bitableau (tableau, ()).
    Their count f^shape is held to the budget."""
    validate_shape(shape)
    _check_budget(sum(shape), _syt_count(shape), f"standard Young tableaux of shape {shape}")
    # every row belongs to the first part, so every sign is +1: no sign bit is set
    walk = _fillings(tuple(shape), len(shape), sum(shape), descents)
    yield from walk if descents else (q for q, _ in walk)


def enumerate_all_syt(
    n: int, descents: bool = False, *, words: bool = False
) -> Iterator[Tableau | int | tuple[int, ...]]:
    """All standard Young tableaux with n entries, or their packed descent
    sets, or their row words, from one walk over the lattice of partitions
    of at most n: n rows of up to n cells each.  Each comes once, in
    strictly increasing lexicographic order of the rows chosen for entries
    1..n, so shapes interleave.  There are as many as involutions of S_n,
    and that count is held to the budget.

    With words set, a tableau's row word is the tuple whose entry e is the
    row of entry e, from 0 at the top, and whose entry 0 is n - 1: the word
    of the bitableau (tableau, ()) in enumerate_all_syb's numbering.  No
    tableau is built.  Asking for descents and words at once raises
    ValueError."""
    _check_budget(n, involution_count(n), "standard Young tableaux")
    walk = _fillings((n,) * n, n, n, descents, words)
    yield from walk if descents or words else (q for q, _ in walk)


def enumerate_syb(shape: tuple[Shape, Shape], descents: bool = False) -> Iterator[Bitableau | int]:
    """Yield every standard Young bitableau of shape (plus, minus), or with
    descents set the signed descent set of each, the int
    syb_signed_descent_set reads off the finished bitableau.

    A bitableau is a standard filling of plus and minus side by side, so
    the walk of enumerate_syt serves here too: it fills the rows of plus
    and then of minus, the first row of minus under no other, and yields
    each filling cut after the rows of plus.  Each entry is tried in the
    rows of plus before those of minus, top-most first.  Their count
    C(n, |plus|) f^plus f^minus is held to the budget.
    """
    plus_shape, minus_shape = shape
    validate_shape(plus_shape)
    validate_shape(minus_shape)
    k = sum(plus_shape)
    n = k + sum(minus_shape)
    count = comb(n, k) * _syt_count(plus_shape) * _syt_count(minus_shape)
    _check_budget(n, count, f"standard Young bitableaux of shape {shape}")
    yield from _fillings((*plus_shape, *minus_shape), len(plus_shape), n, descents)


def enumerate_all_syb(
    n: int, descents: bool = False, *, words: bool = False
) -> Iterator[Bitableau | int | tuple[int, ...]]:
    """All standard Young bitableaux with n entries, or their packed signed
    descent sets, or their row words, from one walk over the lattice of
    bipartitions of at most n: n rows of plus, then n of minus, of up to n
    cells each.  Each comes once, in strictly increasing lexicographic
    order of the rows chosen for entries 1..n, rows of plus before rows of
    minus, so shapes interleave.  There are as many as involutions of B_n,
    and that count is held to the budget.

    With words set, a bitableau's row word is the tuple whose entry e is
    the row of entry e: the rows of plus numbered 0..n-1 from the top and
    those of minus n..2n-1, as the lattice numbers them.  Its entry 0 is
    n - 1, so the word rises from entry 0 exactly when entry 1 is negative,
    and its number of rises, sum(map(lt, word, word[1:])), is the des_B of
    the bitableau.  The word fixes the bitableau, and no bitableau is
    built.  Asking for descents and words at once raises ValueError."""
    _check_budget(n, involution_count(n, signed=True), "standard Young bitableaux")
    yield from _fillings((n,) * (2 * n), n, n, descents, words)


def _row_of(bitableau: Bitableau) -> list[int]:
    """row_of[e] for each entry e of a bitableau that _check_standard has
    passed: the index of its row among the rows of plus and then those of
    minus, counted from 0, as the walk numbers them.  row_of[0] is 0."""
    rows = (*bitableau[0], *bitableau[1])
    row_of = [0] * (sum(map(len, rows)) + 1)
    for r, row in enumerate(rows[1:], 1):  # the first row keeps row 0
        for entry in row:
            row_of[entry] = r
    return row_of


def _check_standard(bitableau: Bitableau) -> None:
    """Raise ValueError unless bitableau is a (plus, minus) pair, a tuple or
    a list of two tuples or lists of rows, each row a tuple or a list; its
    entries are ints, no bool among them; each part has a partition for its
    shape and rows and columns that increase; and the entries are 1..n, each
    once, checked in that order."""
    pair = isinstance(bitableau, (tuple, list)) and len(bitableau) == 2
    if not (pair and all(isinstance(x, (tuple, list)) for x in chain(bitableau, *bitableau))):
        raise ValueError(f"a bitableau is a (plus, minus) pair of tableaux, got {bitableau}")
    entries = [*chain(*bitableau[0], *bitableau[1])]
    if any(isinstance(e, bool) or not isinstance(e, int) for e in entries):
        raise ValueError(f"a standard filling holds 1..n, each an int, got {bitableau}")
    for part in bitableau:
        validate_shape(tuple(map(len, part)))
        rows_ok = all(all(map(lt, row, row[1:])) for row in part)
        if not (rows_ok and all(all(map(lt, a, b)) for a, b in zip(part, part[1:]))):
            raise ValueError(f"rows and columns of a standard filling increase, got {bitableau}")
    if sorted(entries) != list(range(1, len(entries) + 1)):
        raise ValueError(f"a standard filling holds 1..n, each once, got {bitableau}")


def syb_signed_descent_set(bitableau: Bitableau) -> int:
    """Signed descent set of a bitableau, packed.

    The sign of i is the sign of the part containing it; i is a descent when
    the signs step +,- , or when they agree and i+1 sits in a strictly lower
    row of that shared part.  With the minus rows numbered from len(plus)
    that is one test, row_of[i] < row_of[i+1], and i is negative when
    row_of[i] >= len(plus).  row_of[0] is set under every row, as the walk
    sets chosen[0], so entry 1 is never a descent.  A filling that is not a
    standard bitableau raises ValueError.  This is also the live name of
    the benchmark tracer's tableaux.stat group.
    """
    _check_standard(bitableau)
    row_of = _row_of(bitableau)
    split = len(bitableau[0])
    row_of[0] = split + len(bitableau[1])
    n = len(row_of) - 1
    mask = 0
    for e, (above, row) in enumerate(zip(row_of, row_of[1:])):  # entry e + 1 is in row
        mask |= (above < row) << e | (row >= split) << (n + e)
    return mask


def syb_transpose(bitableau: Bitableau) -> Bitableau:
    """The transpose of a bitableau (plus, minus): (minus', plus'), the
    parts swapped and the rows of each its columns.  It sends des_B to
    n - des_B; a tableau q, read as (q, ()), goes to ((), q').  A filling
    that is not a standard bitableau raises ValueError, as in
    syb_signed_descent_set.  This is also the live name of the benchmark
    tracer's tableaux.transpose group."""
    _check_standard(bitableau)
    plus, minus = bitableau
    # zip_longest pads the short columns with None, which filter drops;
    # entries are positive, so no entry is dropped with it
    return tuple(
        tuple([tuple(filter(None, column)) for column in zip_longest(*part)])
        for part in (minus, plus)
    )
