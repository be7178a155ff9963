"""Partitions, standard Young tableaux and bitableaux, and their descent sets.

Rows are numbered from the top, so "lower" always means a larger row index.
A tableau is a tuple of row tuples; a bitableau is a (plus, minus) pair of
tableaux whose entries partition 1..n.

Every walk and every reader numbers the rows of a filling of n entries one
way, the lattice's: the rows of plus 0..n-1 and those of minus n..2n-1.  A
standard bitableau of shape (plus, minus) is a standard filling of rows
capped by plus, padded with rows capped at 0 up to row n, and then by
minus, where row n, the first row of minus, lies under no other row; a row
capped at 0 takes no entry.  A tableau is the bitableau with no minus part.
One walk serves every enumerator.  It grows the shape one entry at a
time, which enforces standardness by construction: entries 1..n are
placed in turn, each in the top-most row that can take it next and then in
each lower one.  Which rows can take the next entry depends only on the
cells filled so far, a sub-diagram, so the walk first builds a table: for
each sub-diagram of at most n cells, the rows that can take an entry and
the sub-diagram each move leads to.  One path builder, _extend, reads that
table to extend paths, each the bits and the rows of the entries placed
and the sub-diagram they fill, one entry at a time in the walk's order.
It builds the walk in two halves, split at h = 2n // 3: the heads, every
way to place entries 1..h from the empty diagram, and the tails, for each
sub-diagram of h cells, every way to place entries h + 1..n from it, but
for the descent at h, which depends on the head.  A filling is a head
followed by a tail of the sub-diagram the head fills, so the heads that
reach one sub-diagram share its tails rather than walking them again.
Both halves are kept for the life of the process, one pair per row caps
and size: a Schur sweep walks each shape once per m, and rebuilding the
table each time was about an eighth of verify cauchy's time.
The walk yields each filling's row word, the tuple of the rows it chose,
or with `descents` its descent set, an int, and builds no tableau.  One
builder, _bitableau_of_word, turns a row word into its filling, cut at
row n into its two parts, each part without its empty rows, and each
enumerator maps it over the words when asked for objects.

A per-shape walk caps its rows by its shape: a tableau's shape, whose at
most n rows are all rows of plus, or a bitableau's (*plus, 0, ..., 0,
*minus), which is plus alone when minus is empty.  Each yields its objects once, in the order of the plain
recursive walks that tests/oracles.py keeps as references.  An all-shapes
walk is one walk over the lattice of every (bi)partition of n: n rows of
up to n cells for tableaux, and for bitableaux n rows of plus and then n
rows of minus.  Its sub-diagrams of n cells are exactly the
(bi)partitions of n, so it yields every object of size n once, with no
loop over the shapes, in strictly increasing lexicographic order of the
rows chosen for entries 1..n, shapes interleaved.  With `words` set they
yield each object's row word, the rows the walk chose, and the transpose
sweep of checks, which relies on that order, reads only those.

Descent sets are ints, packed in the layout of permutations.py: bit i for
a descent at i, bit n + e - 1 for an entry e in the minus part.  They are
read off the row of each entry.  An entry is negative when its row is at
least n, so a tableau is the bitableau with no sign bit set, and as a +,-
step always climbs and a -,+ step never does, one comparison of
neighbours tests each i.  With `descents` set each enumerator yields each
object's descent set in its place: the path builder sets an entry's bits
as it places the entry, so the walk builds no tableau and no tuple for a
filling.

A finished object, as the enumerators yield it without a flag, is read
only through its row word, the word the all-shapes walks yield with
`words` set: entry e is the row of entry e, and entry 0 is n - 1.
_word_of turns a bitableau into that word and is the one standardness
test: the word must be a lattice word within each part, which the
transpose map tests, and _bitableau_of_word must build the filling back
from it.  On the word, syb_signed_descent_set sets the bits of each entry,
and syb_transpose is _transposer(n)(word), the one transpose map on one
word; a tableau q is read as the bitableau (q, ()).  The transpose sweep
of checks makes one such map per size and calls it on every word it walks
and certifies, and on that word's image.  A map keeps each head it has
mapped, and each tail once for every sub-diagram its head fills; one step,
_columns, places the entries of both.  Both readers reject anything but a
(plus, minus) pair of tuples or lists, entries that are not ints or are
bools, entries other than 1..n each once, and fillings that are not
standard, in that order.  Nothing here calls the window-side descent
functions, so the two sides of the bijection share only the layout.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import cache
from itertools import chain
from math import comb, factorial

from .permutations import _check_budget, _check_int, _is_int, involution_count

Shape = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]
Bitableau = tuple[Tableau, Tableau]


def validate_shape(shape: Shape) -> None:
    """Raise ValueError unless shape is a partition: a tuple or a list of
    weakly decreasing parts, each a positive int and not a bool."""
    if not isinstance(shape, (tuple, list)):
        raise ValueError(f"a partition is a tuple or a list of parts, got {shape!r}")
    for part in shape:
        if not _is_int(part) or part <= 0:
            raise ValueError(f"partition parts must be positive integers, got {shape}")
    for a, b in zip(shape, shape[1:]):
        if a < b:
            raise ValueError(f"partition parts must be weakly decreasing, got {shape}")


def partitions(n: int) -> Iterator[Shape]:
    """Yield the partitions of n, largest part first.  An n that is not a
    nonnegative int, a bool among them, raises ValueError."""
    _check_int(n, "n")
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
    _check_int(n, "n")
    for plus_weight in range(n + 1):
        for plus in _partitions(plus_weight, plus_weight):
            for minus in _partitions(n - plus_weight, n - plus_weight):
                yield plus, minus


@cache
def _syt_count(shape: Shape) -> int:
    """f^shape, the number of standard Young tableaux of a shape, by the
    hook-length formula, kept for each shape, a tuple, once it is counted:
    a Schur sweep holds each shape's walk to the budget once per m."""
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


def _moves(shape: Shape, size: int) -> _Moves:
    """The table of the walk over the rows that shape caps, up to `size`
    cells, where the rows from index `size` on are those of minus: row
    `size` is exempt from the column rule against the row above.  The
    states are the sub-diagrams of at most `size` cells, each a tuple of
    row lengths, numbered in the order a breadth-first search from the
    empty one finds them, so state 0 is the empty filling; one of `size`
    cells has no move.  _halves reads it once per shape and keeps what it
    builds from it."""
    order = [(0,) * len(shape)]
    index = {order[0]: 0}
    moves = []
    for lengths in order:  # the search appends to order as it goes
        row_moves = []
        for r, col in enumerate(lengths if sum(lengths) < size else ()):
            # cells fill left to right, so only the column rule remains
            if col < shape[r] and (r == 0 or r == size or lengths[r - 1] > col):
                grown = (*lengths[:r], col + 1, *lengths[r + 1 :])
                if grown not in index:
                    index[grown] = len(order)
                    order.append(grown)
                row_moves.append((r, index[grown]))
        moves.append(tuple(row_moves))
    return tuple(moves)


#: A path of the walk: the packed bits of the entries placed, their rows,
#: and the sub-diagram they fill.
_Path = tuple[int, tuple[int, ...], int]


def _extend(paths: list[_Path], moves: _Moves, size: int, entries: range) -> list[_Path]:
    """Every way to place `entries` after each path, in the walk's order:
    one entry at a time, each path in turn, each in the top-most row that
    can take it, then in each lower one.  Entry e sets descent bit e - 1
    when its row lies below the path's last row, but never bit 0, and sign
    bit size + e - 1 when its row is at least `size`, a row of minus."""
    for e in entries:
        descent, sign = (1 << (e - 1)) & ~1, 1 << (size + e - 1)
        paths = [
            (bits + (rows[-1] < r) * descent + (r >= size) * sign, (*rows, r), v)
            for bits, rows, u in paths
            for r, v in moves[u]
        ]
    return paths


def _split(size: int) -> int:
    """h = 2 * size // 3, where the walk over `size` cells splits each
    filling: its heads place entries 1..h and its tails the rest.  The
    transpose map cuts its words after index h, so that its heads are the
    walk's."""
    return 2 * size // 3


#: The two halves of the walk over one shape, split at h = _split(size):
#: heads holds every path of entries 1..h, and tails[s], for each
#: sub-diagram s of h cells, holds (first, bits, rows) for each row `first`
#: that entry h + 1 can take from s, top-most first, and () for every
#: other sub-diagram.
_Tails = tuple[tuple[tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]], ...], ...]


@cache
def _halves(shape: Shape, size: int) -> tuple[tuple[_Path, ...], _Tails]:
    """Every filling of the walk over the rows that shape caps, up to
    `size` cells, as two halves built by _extend over the table
    _moves(shape, size).  With h = _split(size), the heads start from the
    empty diagram and the row word's index 0, size - 1, and place entries
    1..h.  The tails place entries h + 1..size from each sub-diagram the heads
    reach, once for all the heads that reach it, grouped by the row `first`
    of entry h + 1, each group with the bits and the rows of its tails as
    two tuples.  A tail's bits leave out the descent at h, which depends on
    the head's last row, and its rows leave out the head's.  Equal bits
    and equal rows are kept as one object: the tails of the lattice of
    size 11 hold 69,296 completions in 1.8 MB, against 8.0 MB with a copy
    of each, beside its b(7) = 6,512 heads.

    Both halves are built once per process and kept, as qsym keeps its
    chain counts, keyed by both arguments; so shape must be a tuple,
    and every walk passes one whatever sequence it was given."""
    moves = _moves(shape, size)
    h = _split(size)
    heads = _extend([(0, (size - 1,), 0)], moves, size, range(1, h + 1))
    shared = {}
    tails = [()] * len(moves)
    for s in {s for _, _, s in heads}:
        groups = []
        for first, t in moves[s]:
            start = [((first >= size) << (size + h), (first,), t)]
            found = _extend(start, moves, size, range(h + 2, size + 1))
            bits = tuple(shared.setdefault(x, x) for x, _, _ in found)
            rows = tuple(shared.setdefault(x, x) for _, x, _ in found)
            groups.append((first, bits, rows))
        tails[s] = tuple(groups)
    return tuple(heads), tuple(tails)


def _fillings(shape: Shape, n: int, descents: bool = False) -> Iterator[int | tuple[int, ...]]:
    """Every standard filling of n entries of the rows that shape caps,
    where the rows from index n on are those of minus, none when shape has
    at most n rows: row n is exempt from the column rule against the row
    above.  Entries 1..n are placed in turn, each in the top-most row that
    can take it next, then in each lower one.

    The fillings are the heads of _halves(shape, n), each followed by
    every tail of the sub-diagram it fills: heads in their order, and for
    each the tails in theirs.  Both halves keep the walk's order, so the
    fillings come in strictly increasing lexicographic order of the rows
    chosen.  Where shape caps no row below n, as in the lattice of the
    all-shapes walks, the sub-diagrams of n cells are every shape of n that
    the rows allow.

    Each filling is yielded as its row word, the head's rows and then the
    tail's: the row of entry e at index e, and n - 1 at index 0, the last
    row of plus, so that the word steps up from index 0 exactly when entry
    1 lies in a row of minus.  _bitableau_of_word turns a word back into
    its filling.  With descents set, each filling's packed signed descent
    set takes its place: the head's bits plus the tail's, and bit h, the
    descent between the halves, when the tail's first row lies below the
    head's last.  A negative entry 1 steps up from index 0 but sets no
    descent bit, so bit h is 0 when h is 0.  Neither mode does any other
    work for a filling."""
    if n == 0:
        yield 0 if descents else (-1,)
        return
    heads, tails = _halves(shape, n)
    if descents:
        rise = (1 << _split(n)) & ~1
        for bits, rows, s in heads:
            for first, tbits, _ in tails[s]:
                yield from map((bits + rise if rows[-1] < first else bits).__add__, tbits)
    else:
        for _, rows, s in heads:
            for _, _, trows in tails[s]:
                yield from map(rows.__add__, trows)


def _bitableau_of_word(word: tuple[int, ...]) -> Bitableau:
    """The filling whose row word is word, as every walk yields it: each
    entry e of n = len(word) - 1 placed in row word[e], and the rows cut
    into the pair of rows 0..n-1, those of plus, and rows n..2n-1, those
    of minus, each part without its empty rows."""
    n = len(word) - 1
    rows = [[] for _ in range(2 * n)]
    for e in range(1, n + 1):
        rows[word[e]].append(e)
    return tuple(tuple(map(tuple, filter(None, part))) for part in (rows[:n], rows[n:]))


def enumerate_syt(shape: Shape, descents: bool = False) -> Iterator[Tableau | int]:
    """Yield every standard Young tableau of the given shape, in the order
    of the walk, or with descents set the descent set of each, the int
    syb_signed_descent_set reads off the bitableau (tableau, ()).
    Each tableau is built from the walk's row word, as the first part of
    its filling.  Their count f^shape is held to the budget."""
    validate_shape(shape)
    rows = tuple(shape)
    n = sum(rows)
    _check_budget(n, _syt_count(rows), f"standard Young tableaux of shape {shape}")
    # a shape of n cells has at most n rows, all of plus: no sign bit is set
    walk = _fillings(rows, n, descents)
    yield from walk if descents else (_bitableau_of_word(word)[0] for word in walk)


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
    walk = _fillings((n,) * n, n, descents)
    yield from walk if descents or words else (_bitableau_of_word(word)[0] for word in walk)


def enumerate_syb(shape: tuple[Shape, Shape], descents: bool = False) -> Iterator[Bitableau | int]:
    """Yield every standard Young bitableau of shape (plus, minus), or with
    descents set the signed descent set of each, the int
    syb_signed_descent_set reads off the finished bitableau.

    A bitableau is a standard filling of plus and minus side by side, so
    the walk of enumerate_syt serves here too: it fills the rows of plus,
    then rows capped at 0 up to row n, and then the rows of minus, the
    first of them under no other, and each filling is built from its row
    word, cut at row n.  Each entry is tried in the rows of plus before
    those of minus, top-most first.  Their count C(n, |plus|) f^plus
    f^minus is held to the budget.  Anything but a (plus, minus) pair of
    partitions raises ValueError at the first next().
    """
    if not (isinstance(shape, (tuple, list)) and len(shape) == 2):
        raise ValueError(f"a bitableau shape is a (plus, minus) pair of partitions, got {shape!r}")
    plus, minus = shape
    validate_shape(plus)
    validate_shape(minus)
    k = sum(plus)
    n = k + sum(minus)
    count = comb(n, k) * _syt_count(tuple(plus)) * _syt_count(tuple(minus))
    _check_budget(n, count, f"standard Young bitableaux of shape {shape}")
    # rows capped at 0 put minus at row n; with no minus this is the walk of
    # enumerate_syt, which keeps one pair of halves for both
    caps = (*plus, *(0,) * (n - len(plus)), *minus) if minus else tuple(plus)
    walk = _fillings(caps, n, descents)
    yield from walk if descents else map(_bitableau_of_word, walk)


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
    walk = _fillings((n,) * (2 * n), n, descents)
    yield from walk if descents or words else map(_bitableau_of_word, walk)


def _columns(entries: tuple[int, ...], taken: list[int], rows: int) -> tuple[int, ...] | None:
    """The transpose's rows of entries, placed in turn after the cells
    that taken counts, or None when one of them cannot be placed: the one
    step of the transpose map, for the head and the tail of a word alike.

    An entry is a row of the lattice, the rows of plus 0..n-1 and those of
    minus n..2n-1, with rows = 2n.  A row takes its entries in increasing
    order, so the column of an entry, counted from 0, is the number of
    entries its row took before it: an entry of minus goes to the row of
    plus' of its column, an entry of plus to n plus that.  taken[r] is
    where the next entry of row r goes, and each entry placed moves it on.

    The same step tests that the entries extend a standard filling.  Every
    entry must be a row, 0..rows-1, and no row but the first of a part may
    take an entry when it holds as many as the row above.  That is
    taken[r - 1] > taken[r], where the first row of minus always passes,
    because the last row of plus stands n higher, and the first row of
    plus compares with taken[-1], the last slot, which holds 2n."""
    image = []
    for r in entries:
        if not 0 <= r < rows:
            return None
        column = taken[r]
        if taken[r - 1] <= column:
            return None
        image.append(column)
        taken[r] = column + 1
    return tuple(image)


#: What a table of _transposer gives for a head or a tail not mapped yet.
_UNMAPPED = object()


def _transposer(n: int) -> Callable[[tuple[int, ...]], tuple[int, ...] | None]:
    """The transpose map of size n, as a function: it takes the row word of
    a bitableau of size n and gives the row word of its transpose, read
    from that word alone, or None for a word that is no row word of a
    standard bitableau of size n.

    word[e] is the row of entry e as the lattice walk of enumerate_all_syb
    numbers them; word[0] is copied.  The transpose is (minus', plus'),
    whose rows are columns, and _columns maps the entries in turn.

    A word is cut after index h = _split(n), as the walk cuts it into a
    head and a tail.  Each head is mapped once, and its image prefix, the
    taken slots it leaves and the tail memo of those slots are kept by the
    head itself.  Each tail is mapped from a copy of the slots, and its
    image is kept by the slots, as a tuple, and then by the tail: heads
    that fill one sub-diagram share its tails, and a tail is mapped once
    for them all.  The images of the row words of size n are those row
    words again, so one map serves both directions, and nothing it keeps
    depends on the order in which words come.  What it keeps lives as long
    as the function, one size."""
    rows = 2 * n
    h = _split(n) + 1
    heads = {}
    memo = {}

    def transpose(word: tuple[int, ...]) -> tuple[int, ...] | None:
        head = word[:h]
        mapped = heads.get(head, _UNMAPPED)
        if mapped is _UNMAPPED:
            taken = [n] * n + [0] * n + [rows]
            mapped = _columns(head[1:], taken, rows)
            if mapped is not None:
                mapped = head[:1] + mapped, taken, memo.setdefault(tuple(taken), {})
            heads[head] = mapped
        if mapped is None:
            return None
        prefix, taken, tails = mapped
        tail = word[h:]
        image = tails.get(tail, _UNMAPPED)
        if image is _UNMAPPED:
            image = tails[tail] = _columns(tail, taken.copy(), rows)
        return None if image is None else prefix + image

    return transpose


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
    of the word: the transpose map takes it, so it is a lattice word within
    each part, and the cells of entries 1..e are a pair of partitions for
    every e; and _bitableau_of_word builds the filling back from it, so
    each row increases, no row is empty and every entry sits in the row its
    word names.  Together they are the definition of a standard bitableau.
    """
    pair = isinstance(bitableau, (tuple, list)) and len(bitableau) == 2
    if not (pair and all(isinstance(x, (tuple, list)) for x in chain(bitableau, *bitableau))):
        raise ValueError(f"a bitableau is a (plus, minus) pair of tableaux, got {bitableau}")
    entries = [*chain(*bitableau[0], *bitableau[1])]
    if not all(map(_is_int, entries)):
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
    if _transposer(n)(word) is None or _bitableau_of_word(word) != filling:
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

    It maps the row word of _word_of by _transposer(n), the map that
    verify transpose applies to every word of each size it walks and
    certifies, and builds the image with _bitableau_of_word; that is why it
    stays public, beside being the live name of the benchmark tracer's
    tableaux.transpose group."""
    word = _word_of(bitableau)
    return _bitableau_of_word(_transposer(len(word) - 1)(word))
