"""Permutations of S_n and signed permutations of B_n with descent statistics.

A permutation is a window tuple (w(1), ..., w(n)) of distinct values; a
signed permutation additionally carries signs, the implicit symmetry being
w(-a) = -w(a).  Involutions are generated constructively (fixed points with
free signs, 2-cycles with a shared sign) rather than by filtering the full
group: B_9 has about 1.9 * 10^11 elements but only 168,992 involutions.
One walk serves both groups: the involutions of S_n are the involutions of
B_n with no negative entry, and the S_n walk is that all-positive slice.
The walk is iterative and runs in a single generator frame, with an explicit
stack of the choices still open on its path, so a window reaches the caller
through no chain of nested generators.  Given DES_B or DES_COXETER, the
walk yields each involution's descent number in place of its window: every
step compares the neighbours it completes, so a row of involutions is
counted with no tuple built and no second pass over any window.

A count walk stops stepping once n // 2 slots are still open, a fixed
cut as the tableau walk's split at 2n // 3 is.  What is left to count
there depends only on the open slots and on how each set slot beside
one of them, the leading 0 and the sentinel past slot n - 1 included,
compares with the values the open slots can take: those values belong to
the open slots, so no set slot holds one.  The walk therefore keys its
memo of tails, the counts of every completion in walk order, by the open
slots and the bisect rank of each such neighbour among their sorted
values; the key is exact.  A tail that is not in the memo yet is built
from the steps of its open slots, each followed by the memoized tail of
the slots that step leaves open, under the same key, shifted by the
step's count: so a smaller tail is counted once, and joined into each
larger one by C iterators.  The walk yields each tail as one block, the
count so far plus each count of the tail, and returns the chain of its
blocks, so a count reaches the caller through C iterators alone.  The
memo lives for one walk, and a walk of windows never reads it.

The type-B descent number compares neighbours of (0, w(1), ..., w(n))
under the colored order -1 < -2 < ... < -n < 0 < 1 < ... < n, mapped onto
the integers by v -> v for v > 0 and v -> -(n+1) - v for v < 0; the
Coxeter number compares them as integers.  For a window on its own, as the
group walk yields them, des_b and des_coxeter count in one pass over it,
with no descent set built; they are also the reference for the walk.

A signed descent set of n entries is one int, the one format of the
package, for windows and (bi)tableaux alike: bit i, for 1 <= i < n, is set
when i is a descent, and bit n + e - 1 when entry e has sign -1.  Bit 0 is
always clear, and no bit at or past 2n is set; _check_descents holds a set
to this layout.  The int alone does not give n, so whoever reads one knows
its n.  signed_descent_set reads a window's in one pass; the tableau side
builds the same int by its own code, and a -,+ sign step is never a
descent on either side.  S_n is the all-positive slice of B_n, so the
descent set of a permutation is its signed descent set with no sign bit
set.  unpack_descents turns an int back into the pair (positions, signs),
the positions ascending and one +1/-1 sign per entry, for printing; it is
plumbing only, and reads no descent rule.

Every enumerator, here and in the tableau walks, holds the number of objects
it is about to generate to one cap, which _check_budget reads when the walk
starts, at its first next().  The count is also where an n that is not a
nonnegative int, a bool among them, is rejected, by _check_nonnegative, so
a walk over involutions or tableaux raises ValueError at its first next()
too.  The cap lives in a context variable: it is DEFAULT_BUDGET unless an
enclosing ``with enumeration_budget(cap):`` block has set it, so a caller
sets it once and every walk below sees the same value.
"""
from __future__ import annotations

from bisect import bisect
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from functools import cache
from itertools import chain
from itertools import permutations as _itertools_permutations
from itertools import product as _itertools_product
from math import factorial

Window = tuple[int, ...]

#: Cap on objects a single enumeration call may generate.
DEFAULT_BUDGET = 20_000_000

#: The cap in force; only enumeration_budget sets it.
_BUDGET: ContextVar[int] = ContextVar("enumeration_budget", default=DEFAULT_BUDGET)


class BudgetExceededError(RuntimeError):
    """The requested enumeration would exceed the configured object budget."""


@contextmanager
def enumeration_budget(cap: int) -> Iterator[None]:
    """Hold every enumeration inside the block to ``cap`` objects per call,
    restoring the cap in force before on exit, as decimal.localcontext does.

    The cap belongs to the current thread or context: a new thread starts
    at DEFAULT_BUDGET.  A cap that is not an int of at least 1, a bool
    among them, raises ValueError on entry, before any cap is set.
    """
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise ValueError(f"enumeration budget must be an integer of at least 1, got {cap!r}")
    token = _BUDGET.set(cap)
    try:
        yield
    finally:
        _BUDGET.reset(token)


def _check_budget(n: int, count: int, what: str) -> None:
    cap = _BUDGET.get()
    if count > cap:
        raise BudgetExceededError(
            f"enumerating {what} for n={n} needs {count} objects, over the budget of {cap}"
        )


def _check_nonnegative(value: int, name: str) -> None:
    """Raise ValueError unless value is a nonnegative int and not a bool;
    name is the parameter the message names."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def _check_descents(mask: int, n: int) -> None:
    """Raise ValueError unless mask is a packed descent set of n entries, in
    the layout of the module docstring: an int, not a bool, below 2^(2n)
    with bit 0 clear.  A bad n raises as in _check_nonnegative."""
    _check_nonnegative(n, "n")
    if isinstance(mask, bool) or not isinstance(mask, int) or mask < 0 or mask >> 2 * n or mask & 1:
        raise ValueError(
            f"a packed descent set of {n} entries is an int below 2**{2 * n} "
            f"with bit 0 clear, got {mask!r}"
        )


def signed_descent_set(window: Window) -> int:
    """Signed descent set (Des(w), epsilon) of a signed window, packed into
    one int in the layout of the module docstring.

    i is a descent when the signs step +,- , or when they agree and the
    absolute values step down; a -,+ step is never a descent.  In one pass
    over the window: before a negative entry that is w(i) > 0 or
    w(i) < w(i+1), and before a positive one it is w(i) > w(i+1).
    """
    mask = 0
    bit = 1  # the descent bit of the entry before v
    sign = 1 << len(window)  # the sign bit of v
    prev = 0  # a leading 0 is never a descent under either test
    for v in window:
        if v < 0:
            mask |= sign
            if prev > 0 or prev < v:
                mask |= bit
        elif prev > v:
            mask |= bit
        prev = v
        bit <<= 1
        sign <<= 1
    return mask


def unpack_descents(mask: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pair (positions, signs) of the packed descent set of n entries,
    in the layout of the module docstring.  A mask outside that layout
    raises ValueError, as in _check_descents."""
    _check_descents(mask, n)
    return (
        tuple([i for i in range(1, n) if mask >> i & 1]),
        tuple([-1 if mask >> i & 1 else 1 for i in range(n, 2 * n)]),
    )


def des_b(window: Window) -> int:
    """Type-B descent number of a signed window: descents of
    (0, w(1), ..., w(n)) under the colored order, counted in one pass."""
    shift = -len(window) - 1
    count = 0
    prev = 0
    for v in window:
        if v < 0:
            v = shift - v
        if prev > v:
            count += 1
        prev = v
    return count


def des_coxeter(window: Window) -> int:
    """Descent number of a signed window in the Coxeter sense: natural
    integer order with w(0) = 0 prepended.

    On an unsigned window the leading 0 is never a descent, so this is also
    the type-A descent number |Des(w)|.
    """
    count = 0
    prev = 0
    for v in window:
        if prev > v:
            count += 1
        prev = v
    return count


DES_B = "desB"
DES_COXETER = "desCoxeter"
_STATISTICS = {DES_B: des_b, DES_COXETER: des_coxeter}


def _statistic(name: str):
    """The per-window function of a statistic named DES_B or DES_COXETER."""
    try:
        return _STATISTICS[name]
    except KeyError:
        raise ValueError(f"unknown statistic {name!r}; expected desB or desCoxeter") from None


def involution_count(n: int, signed: bool = False) -> int:
    """Number of involutions in B_n (signed) or S_n:
    c(n) = f (c(n-1) + (n-1) c(n-2)), with f = 2 for B_n and 1 for S_n.
    An n that is not a nonnegative int, a bool among them, raises ValueError."""
    _check_nonnegative(n, "n")
    factor = 2 if signed else 1
    a, b = 0, 1  # c(-1) = 0 makes the step at k = 1 give c(1) = f
    for k in range(1, n + 1):
        a, b = b, factor * (b + (k - 1) * a)
    return b


#: One choice of the involution walk, (i, w(i), j, w(j), rest, pairs): set
#: slots i and j, counted from 0, leave the slots in rest open, and compare
#: each slot s in pairs with slot s + 1.
_Step = tuple[int, int, int, int, tuple[int, ...], tuple[int, ...]]


def _involution_walk(n: int, signed: bool, statistic: str | None) -> Iterator[Window | int]:
    """Each involution of B_n (signed) or S_n once, in lexicographic window
    order: the S_n walk is the B_n walk without its negative candidates.
    Given a statistic, each involution's descent number takes its place.
    An unknown statistic raises ValueError at the call.

    Fixed points take either sign; the two positions of a 2-cycle must agree
    in sign for the square to be the identity.  The smallest open slot takes
    each candidate in turn, one _Step each; a fixed point is the step with
    i = j, which writes its slot twice.  The walk keeps an explicit stack of
    step iterators, one for each tuple of open slots on the current path,
    and yields from this one frame.  The steps of each open tuple are built
    once per call, and a walk of windows sets the last open slot in place
    rather than pushing it.

    To count, the slots hold ranks in the order counted, followed by a
    sentinel above every rank and the leading 0, which is slot -1.  A step
    lists the neighbouring pairs it completes, and the stack carries the
    count so far with each step iterator.  A walk of windows lists no pairs.

    A count walk steps only while more than n // 2 slots are open.  Past
    that it yields a block, the count so far plus each count of a tail:
    the counts of the pairs still open, for every way to fill the open
    slots, in walk order.  The walk returns itertools.chain.from_iterable
    over its blocks, so a count passes through C iterators alone.  A tail
    is kept for the rest of the walk under the key (rest, ranks): ranks
    holds the bisect rank of each set slot beside an open one, slots -1 and
    n included, among the sorted candidate values of rest.  The candidates
    of rest are the values of its own slots, so no set slot holds one, and
    a tail compares only candidates with each other and with these
    neighbours: the ranks decide every comparison, and the key is exact.
    A missing tail is built from the steps of rest, each followed by the
    tail, under the same key, of the slots it leaves open, shifted by the
    step's count; the tail of no open slot is the one count 0.  A walk of
    windows never reads a tail.
    """
    counting = statistic is not None
    if counting:
        _statistic(statistic)
    shift = -n - 1 if statistic == DES_B else 0

    def entry(slot: int, sign: int) -> int:
        # sign * w, w = slot + 1, with -w ranked -(n+1) + w when counting des_b
        return shift + slot + 1 if shift and sign < 0 else sign * (slot + 1)

    def step(i: int, j: int, sign: int, rest: tuple[int, ...]) -> _Step:
        # a 2-cycle (i j), or the fixed point i = j, with the given sign
        ends = sorted({i - 1, i, j - 1, j}) if counting else ()
        pairs = tuple(s for s in ends if s < n - 1 and s not in rest and s + 1 not in rest)
        return (i, entry(j, sign), j, entry(i, sign), rest, pairs)

    def steps(open_: tuple[int, ...]) -> list[_Step]:
        # Candidates for the entry at p ascending in the natural integer
        # order: -q for q descending and -p (B_n only), then +p, then +q
        # ascending.
        p, rest = open_[0], open_[1:]
        cycles = [(q, rest[:idx] + rest[idx + 1 :]) for idx, q in enumerate(rest)]
        out = []
        if signed:
            out += [step(p, q, -1, left) for q, left in reversed(cycles)]
            out.append(step(p, p, -1, rest))
        out.append(step(p, p, 1, rest))
        out += [step(p, q, 1, left) for q, left in cycles]
        return out

    @cache
    def border(rest: tuple[int, ...]) -> tuple[list[int], list[int]]:
        # the candidate values of rest ascending, and the set slots beside rest
        signs = (-1, 1) if signed else (1,)
        values = sorted(entry(k, sign) for k in rest for sign in signs)
        return values, sorted({s for k in rest for s in (k - 1, k + 1)}.difference(rest))

    if n == 0:
        return iter([0 if counting else ()])
    window = [0] * n + ([n + 1, 0] if counting else [])
    negative = [entry(k, -1) for k in range(n)]  # the fixed point w(k) < 0
    # the steps of each open tuple, in a dict rather than functools.cache as
    # border is: a get costs a walk of windows less per push than that call
    memo: dict[tuple[int, ...], list[_Step]] = {}
    tails: dict[tuple[tuple[int, ...], tuple[int, ...]], list[int]] = {((), ()): [0]}

    def tail(rest: tuple[int, ...]) -> list[int]:
        # the counts of every completion of rest, in walk order
        values, beside = border(rest)
        key = rest, tuple([bisect(values, window[s]) for s in beside])
        out = tails.get(key)
        if out is None:
            out = []
            todo = memo.get(rest)
            if todo is None:
                todo = memo[rest] = steps(rest)
            for i, a, j, b, left, pairs in todo:
                window[i] = a
                window[j] = b
                count = 0
                for s in pairs:
                    if window[s] > window[s + 1]:
                        count += 1
                out += map(count.__add__, tail(left))
            tails[key] = out
        return out

    cut = n // 2 if counting else 1

    def walk() -> Iterator[Iterator[int] | Window]:
        # a window at a time, or a block of counts at a time
        stack = [(iter(steps(tuple(range(n)))), 0)]
        while stack:
            choices, below = stack[-1]
            for i, a, j, b, rest, pairs in choices:
                window[i] = a
                window[j] = b
                count = below
                if pairs:  # none in a walk of windows, which skips the loop
                    for s in pairs:
                        if window[s] > window[s + 1]:
                            count += 1
                if len(rest) > cut:
                    todo = memo.get(rest)
                    if todo is None:
                        todo = memo[rest] = steps(rest)
                    stack.append((iter(todo), count))
                    break
                if counting:
                    yield map(count.__add__, tail(rest))
                elif rest:  # one open slot left: a fixed point
                    k = rest[0]
                    if signed:
                        window[k] = negative[k]
                        yield tuple(window)
                    window[k] = k + 1
                    yield tuple(window)
                else:
                    yield tuple(window)
            else:
                stack.pop()

    return chain.from_iterable(walk()) if counting else walk()


def enumerate_involutions(n: int, statistic: str | None = None) -> Iterator[Window | int]:
    """Yield each involution of S_n once, in lexicographic window order; given
    DES_B or DES_COXETER, yield its descent number instead.  On S_n both
    count ordinary descents.

    A generator function, so that the budget and n checks run at the first
    next(), and so that perfbench/tracer.py, which counts the objects of a
    generator function only, counts what it yields.  A count resumes this
    one Python frame, as the counting walk hands over C iterators; a window
    also resumes the walk's own frame."""
    _check_budget(n, involution_count(n), "involutions of the symmetric group")
    yield from _involution_walk(n, False, statistic)


def enumerate_signed_involutions(n: int, statistic: str | None = None) -> Iterator[Window | int]:
    """Yield each involution of B_n once, in lexicographic window order; given
    DES_B or DES_COXETER, yield des_b or des_coxeter of it instead.  A
    generator function, as enumerate_involutions is and for its reasons."""
    _check_budget(n, involution_count(n, signed=True), "involutions of the hyperoctahedral group")
    yield from _involution_walk(n, True, statistic)


def enumerate_group(n: int, signed: bool) -> Iterator[Window]:
    """Yield all of S_n (n! windows) or B_n (2^n n! windows); a bad n
    raises ValueError at the first next(), as in involution_count."""
    _check_nonnegative(n, "n")
    order = factorial(n) * (2**n if signed else 1)
    name = "the hyperoctahedral group" if signed else "the symmetric group"
    _check_budget(n, order, name)
    if not signed:
        yield from _itertools_permutations(range(1, n + 1))
        return
    # sign vectors run from all plus to all minus, the last position fastest
    for perm in _itertools_permutations(range(1, n + 1)):
        yield from _itertools_product(*[(v, -v) for v in perm])
