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
The walk yields each filling's row word, the tuple of the rows it chose,
or with `descents` its descent set, an int; it keeps no rows and builds no
tableau.  One builder, _bitableau_of_word, turns a row word into its
filling, cut into its two parts, each part without its empty rows, and
each enumerator maps it over the words when asked for objects.

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
in the lattice, and the reader numbers them as the lattice does.  So an
entry is negative when its row is at least `second`, a tableau is the
bitableau with no minus part, no sign bit set, and as a +,- step always
climbs and a -,+ step never does, one comparison of neighbours tests each
i.  With `descents` set each enumerator yields each object's descent set in
its place: the walk sets an entry's bits as it places the entry, so it
builds no tableau and no tuple.

A finished object, as the enumerators yield it without a flag, is read
only through its row word in the lattice's numbering: rows of plus 0..n-1,
rows of minus n..2n-1, and n - 1 in entry 0, the word the all-shapes walks
yield with `words` set.  _word_of turns a bitableau into that word and is
the one standardness test: the word must be a lattice word within each
part, which _transpose_word tests, and _bitableau_of_word must build the
filling back from it.  On the word, syb_signed_descent_set sets the bits
of each entry, and syb_transpose is _transpose_word, the one transpose
map, the map the transpose sweep of checks applies to every word it walks
and certifies; a tableau q is read as the bitableau (q, ()).  Both reject
anything but a (plus, minus) pair of tuples or lists, entries that are not
ints or are bools, entries other than 1..n each once, and fillings that
are not standard, in that order.  Nothing here calls the window-side
descent functions, so the two sides of the bijection share only the
layout.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from itertools import chain
from math import comb, factorial

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
    shape: Shape, second: int, n: int, descents: bool = False
) -> Iterator[int | tuple[int, ...]]:
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

    Each filling is yielded as its row word, tuple(chosen): the row of
    entry e in the walk's numbering at index e, and second - 1 at index 0,
    the last row of the first part, so that the word steps up from index 0
    exactly when entry 1 lies in the second part.  _bitableau_of_word
    turns a word back into its filling.  With descents set, each filling's
    packed signed descent set takes its place, built as the entries are
    placed: entry e sets bit e - 1 when e - 1 is a descent,
    chosen[e - 1] < chosen[e], and bit n + e - 1 when its row lies in the
    second part.  bit[0] is 0, so a negative entry 1, which steps up from
    chosen[0], sets no descent bit.  masks[e] keeps the bits of entries
    1..e beside chosen[e].  Neither mode does any other work for a
    filling."""
    if n == 0:
        yield 0 if descents else (second - 1,)
        return
    chosen = [second - 1] + [0] * n  # chosen[e]: the row entry e went into
    masks = [0] * (n + 1)
    bit = [1 << i for i in range(2 * n)]
    bit[0] = 0
    moves = _moves(shape, second, n)
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
            chosen[entry] = r
            if entry < n:
                stack.append(iter(moves[s]))
                entry += 1
                break
            yield mask if descents else tuple(chosen)
        else:
            # no move left for this entry: move the previous one a row lower
            stack.pop()
            entry -= 1
            if entry == 0:
                return


def _bitableau_of_word(word: tuple[int, ...], second: int) -> Bitableau:
    """The filling whose row word is word, as a walk split at `second`
    yields it: each entry e placed in row word[e], and the rows cut into
    the pair of the rows before `second` and the rows from it, each part
    without its empty rows.  A part of n entries has at most n rows, so no
    walk numbers a row past second + n - 1."""
    rows = [[] for _ in range(second + len(word) - 1)]
    for e in range(1, len(word)):
        rows[word[e]].append(e)
    return tuple(tuple(map(tuple, filter(None, part))) for part in (rows[:second], rows[second:]))


def enumerate_syt(shape: Shape, descents: bool = False) -> Iterator[Tableau | int]:
    """Yield every standard Young tableau of the given shape, in the order
    of the walk, or with descents set the descent set of each, the int
    syb_signed_descent_set reads off the bitableau (tableau, ()).
    Each tableau is built from the walk's row word, as the first part of
    its filling.  Their count f^shape is held to the budget."""
    validate_shape(shape)
    _check_budget(sum(shape), _syt_count(shape), f"standard Young tableaux of shape {shape}")
    # every row belongs to the first part, so every sign is +1: no sign bit is set
    second = len(shape)
    walk = _fillings(tuple(shape), second, sum(shape), descents)
    yield from walk if descents else (_bitableau_of_word(word, second)[0] for word in walk)


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
    tableau is built; without either flag each is built from its word.
    Asking for descents and words at once raises ValueError."""
    _check_budget(n, involution_count(n), "standard Young tableaux")
    if descents and words:
        raise ValueError("a walk yields descent sets or row words, not both")
    walk = _fillings((n,) * n, n, n, descents)
    yield from walk if descents or words else (_bitableau_of_word(word, n)[0] for word in walk)


def enumerate_syb(shape: tuple[Shape, Shape], descents: bool = False) -> Iterator[Bitableau | int]:
    """Yield every standard Young bitableau of shape (plus, minus), or with
    descents set the signed descent set of each, the int
    syb_signed_descent_set reads off the finished bitableau.

    A bitableau is a standard filling of plus and minus side by side, so
    the walk of enumerate_syt serves here too: it fills the rows of plus
    and then of minus, the first row of minus under no other, and each
    filling is built from its row word, cut after the rows of plus.  Each
    entry is tried in the rows of plus before those of minus, top-most
    first.  Their count C(n, |plus|) f^plus f^minus is held to the budget.
    """
    plus_shape, minus_shape = shape
    validate_shape(plus_shape)
    validate_shape(minus_shape)
    k = sum(plus_shape)
    n = k + sum(minus_shape)
    count = comb(n, k) * _syt_count(plus_shape) * _syt_count(minus_shape)
    _check_budget(n, count, f"standard Young bitableaux of shape {shape}")
    second = len(plus_shape)
    walk = _fillings((*plus_shape, *minus_shape), second, n, descents)
    yield from walk if descents else (_bitableau_of_word(word, second) for word in walk)


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
    built; without either flag each is built from its word.  Asking for
    descents and words at once raises ValueError."""
    _check_budget(n, involution_count(n, signed=True), "standard Young bitableaux")
    if descents and words:
        raise ValueError("a walk yields descent sets or row words, not both")
    walk = _fillings((n,) * (2 * n), n, n, descents)
    yield from walk if descents or words else (_bitableau_of_word(word, n) for word in walk)


def _transpose_word(word: tuple[int, ...], n: int) -> tuple[int, ...] | None:
    """The row word of the transpose of the bitableau whose row word is
    word, read from that word alone, or None when word is no row word of a
    standard bitableau of size n.

    word[e] is the row of entry e as the lattice walk of enumerate_all_syb
    numbers them: the rows of plus 0..n-1, those of minus n..2n-1; word[0]
    is copied.  The transpose is (minus', plus'), whose rows are columns.
    A row takes its entries in increasing order, so the column of e,
    counted from 0, is the number of entries its row took before e: an
    entry of minus goes to the row of plus' of its column, an entry of
    plus to n plus that.  taken[r] is where the next entry of row r goes.

    The same pass tests that word is standard.  Every entry must be a row,
    0..2n-1, and the word must be a lattice word within each part: no row
    but the first of a part may take an entry when it holds as many as the
    row above.  That is taken[r - 1] > taken[r], where the first row of
    minus always passes, because the last row of plus stands n higher, and
    the first row of plus compares with taken[-1], the last slot, which
    holds 2n."""
    rows = 2 * n
    taken = [n] * n + [0] * n + [rows]
    image = [word[0]]
    for r in word[1:]:
        if not 0 <= r < rows:
            return None
        column = taken[r]
        if taken[r - 1] <= column:
            return None
        image.append(column)
        taken[r] = column + 1
    return tuple(image)


def _word_of(bitableau: Bitableau) -> tuple[int, ...]:
    """The row word of a standard bitableau, the inverse of
    _bitableau_of_word: entry e is the row of entry e, the rows of plus
    numbered 0..n-1 and those of minus n..2n-1 as the lattice numbers them,
    and entry 0 is n - 1, so that enumerate_all_syb(n, words=True) yields
    the word of each bitableau it walks.

    Raise ValueError unless bitableau is a (plus, minus) pair, a tuple or a
    list of two tuples or lists of rows, each row a tuple or a list; its
    entries are ints, no bool among them, and they are 1..n, each once; and
    the filling is standard, checked in that order.  Standard is two tests
    of the word: _transpose_word takes it, so it is a lattice word within
    each part, and the cells of entries 1..e are a pair of partitions for
    every e; and _bitableau_of_word builds the filling back from it, so
    each row increases, no row is empty and every entry sits in the row its
    word names.  Together they are the definition of a standard bitableau.
    """
    pair = isinstance(bitableau, (tuple, list)) and len(bitableau) == 2
    if not (pair and all(isinstance(x, (tuple, list)) for x in chain(bitableau, *bitableau))):
        raise ValueError(f"a bitableau is a (plus, minus) pair of tableaux, got {bitableau}")
    entries = [*chain(*bitableau[0], *bitableau[1])]
    if any(isinstance(e, bool) or not isinstance(e, int) for e in entries):
        raise ValueError(f"a standard filling holds 1..n, each an int, got {bitableau}")
    n = len(entries)
    if sorted(entries) != list(range(1, n + 1)):
        raise ValueError(f"a standard filling holds 1..n, each once, got {bitableau}")
    word = [n - 1] * (n + 1)
    plus, minus = bitableau
    for r, row in chain(enumerate(plus), enumerate(minus, n)):
        for entry in row:
            word[entry] = r
    word = tuple(word)
    filling = tuple(tuple(map(tuple, part)) for part in bitableau)
    if _transpose_word(word, n) is None or _bitableau_of_word(word, n) != filling:
        raise ValueError(f"rows and columns of a standard filling increase, got {bitableau}")
    return word


def syb_signed_descent_set(bitableau: Bitableau) -> int:
    """Signed descent set of a bitableau, packed.

    The sign of i is the sign of the part containing it; i is a descent when
    the signs step +,- , or when they agree and i+1 sits in a strictly lower
    row of that shared part.  On the row word of _word_of, whose rows of
    minus are numbered from n, under every row of plus, that is one test,
    word[i] < word[i + 1], and entry e is negative when word[e] >= n.
    Entry 1 is never a descent, so bit 0 is cleared.  A filling that is not a
    standard bitableau raises ValueError.  It stays public as the reader of
    a finished bitableau, the set the descents mode of every walk must
    match, and as the live name of the benchmark tracer's tableaux.stat
    group.
    """
    word = _word_of(bitableau)
    n = len(word) - 1
    mask = 0
    for e, (above, row) in enumerate(zip(word, word[1:])):  # entry e + 1 is in row
        mask |= (above < row) << e | (row >= n) << (n + e)
    return mask & ~1  # word[0] is n - 1, so a negative entry 1 rises from it


def syb_transpose(bitableau: Bitableau) -> Bitableau:
    """The transpose of a bitableau (plus, minus): (minus', plus'), the
    parts swapped and the rows of each its columns.  It sends des_B to
    n - des_B; a tableau q, read as (q, ()), goes to ((), q').  A filling
    that is not a standard bitableau raises ValueError, as in
    syb_signed_descent_set.

    It maps the row word of _word_of by _transpose_word, the map that
    verify transpose applies to every word of each size it walks and
    certifies, and builds the image with _bitableau_of_word; that is why it
    stays public, beside being the live name of the benchmark tracer's
    tableaux.transpose group."""
    word = _word_of(bitableau)
    n = len(word) - 1
    return _bitableau_of_word(_transpose_word(word, n), n)
