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
through no chain of nested generators.

Descent numbers are counted in one pass over the window, with no descent
set built: the type-B number compares neighbours of (0, w(1), ..., w(n))
under the colored order -1 < -2 < ... < -n < 0 < 1 < ... < n, mapped onto
the integers by v -> v for v > 0 and v -> -(n+1) - v for v < 0.  The
signed descent set stays for the checks that need the sets themselves, as
plain tuples: the pair (positions, signs), with the positions ascending and
one +1/-1 sign per entry of the window.  A -,+ sign step is never a
descent.  S_n is the all-positive slice of B_n, so the descent set of a
permutation is its signed descent set, every sign +1.  The tableau side of
the bijection builds the same format by its own code.

Every enumerator, here and in the tableau walks, holds the number of objects
it is about to generate to one cap, which _check_budget reads when the walk
starts, at its first next().  The count is also where a negative n is
rejected, so a walk over involutions or tableaux raises ValueError at its
first next() too.  The cap lives in a context variable: it is
DEFAULT_BUDGET unless an enclosing ``with enumeration_budget(cap):`` block
has set it, so a caller sets it once and every walk below sees the same value.
"""
from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import permutations as _itertools_permutations
from itertools import product as _itertools_product
from math import factorial

Window = tuple[int, ...]
#: (positions, signs): descent positions ascending, and one +1/-1 sign for
#: each of the n positions; the one descent-set format, for windows and
#: (bi)tableaux alike.
SignedDescents = tuple[tuple[int, ...], tuple[int, ...]]

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
    at DEFAULT_BUDGET.
    """
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


def signed_descent_set(window: Window) -> SignedDescents:
    """Signed descent set (Des(w), epsilon) of a signed window.

    i is a descent when the signs step +,- , or when they agree and the
    absolute values step down; a -,+ step is never a descent.  In one pass
    over the window: before a positive entry that is w(i) > w(i+1), and
    before a negative one it is w(i) > 0 or w(i) < w(i+1).
    """
    positions = []
    signs = []
    prev = 0  # a leading 0 is never a descent under either test
    for i, v in enumerate(window):
        if v > 0:
            signs.append(1)
            if prev > v:
                positions.append(i)
        else:
            signs.append(-1)
            if prev > 0 or prev < v:
                positions.append(i)
        prev = v
    return tuple(positions), tuple(signs)


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


def involution_count(n: int, signed: bool = False) -> int:
    """Number of involutions in B_n (signed) or S_n:
    c(n) = f (c(n-1) + (n-1) c(n-2)), with f = 2 for B_n and 1 for S_n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    factor = 2 if signed else 1
    a, b = 0, 1  # c(-1) = 0 makes the step at k = 1 give c(1) = f
    for k in range(1, n + 1):
        a, b = b, factor * (b + (k - 1) * a)
    return b


#: One choice of the involution walk, (i, w(i), j, w(j), rest): set the
#: entries at positions i and j, counted from 0, and leave the positions in
#: rest open.
_Step = tuple[int, int, int, int, tuple[int, ...]]


def _involution_walk(n: int, signed: bool) -> Iterator[Window]:
    """Each involution of B_n (signed) or S_n once, in lexicographic window
    order: the S_n walk is the B_n walk without its negative candidates.

    Fixed points take either sign; the two positions of a 2-cycle must agree
    in sign for the square to be the identity.  The smallest open position
    takes each candidate in turn, one _Step each; a fixed point is the step
    with i = j, which writes its slot twice.  The walk keeps an explicit
    stack of step iterators, one for each tuple of open positions on the
    current path, and yields from this one frame.  The steps of each open
    tuple are built once per call, and the last open position is set in
    place rather than pushed.
    """
    if n == 0:
        yield ()
        return
    window = [0] * n  # 0-based: window[i] is w(i + 1)
    memo: dict[tuple[int, ...], list[_Step]] = {}

    def steps(open_: tuple[int, ...]) -> list[_Step]:
        # Candidates for the entry at p ascending in the natural integer
        # order, positions counted from 1 here: -q for q descending and -p
        # (B_n only), then +p, then +q ascending.
        p, rest = open_[0], open_[1:]
        out = []
        if signed:
            for idx in range(len(rest) - 1, -1, -1):
                q = rest[idx]
                out.append((p, -q - 1, q, -p - 1, rest[:idx] + rest[idx + 1 :]))
            out.append((p, -p - 1, p, -p - 1, rest))
        out.append((p, p + 1, p, p + 1, rest))
        for idx, q in enumerate(rest):
            out.append((p, q + 1, q, p + 1, rest[:idx] + rest[idx + 1 :]))
        return out

    stack = [iter(steps(tuple(range(n))))]
    while stack:
        for i, a, j, b, rest in stack[-1]:
            window[i] = a
            window[j] = b
            if len(rest) > 1:
                todo = memo.get(rest)
                if todo is None:
                    todo = memo[rest] = steps(rest)
                stack.append(iter(todo))
                break
            if rest:  # one open position left: a fixed point
                k = rest[0]
                if signed:
                    window[k] = -k - 1
                    yield tuple(window)
                window[k] = k + 1
            yield tuple(window)
        else:
            stack.pop()


def enumerate_involutions(n: int) -> Iterator[Window]:
    """Yield each involution of S_n once, in lexicographic window order."""
    _check_budget(n, involution_count(n), "involutions of the symmetric group")
    yield from _involution_walk(n, signed=False)


def enumerate_signed_involutions(n: int) -> Iterator[Window]:
    """Yield each involution of B_n once, in lexicographic window order."""
    _check_budget(n, involution_count(n, signed=True), "involutions of the hyperoctahedral group")
    yield from _involution_walk(n, signed=True)


def enumerate_group(n: int, signed: bool) -> Iterator[Window]:
    """Yield all of S_n (n! windows) or B_n (2^n n! windows)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    order = factorial(n) * (2**n if signed else 1)
    name = "the hyperoctahedral group" if signed else "the symmetric group"
    _check_budget(n, order, name)
    if not signed:
        yield from _itertools_permutations(range(1, n + 1))
        return
    # sign vectors run from all plus to all minus, the last position fastest
    for perm in _itertools_permutations(range(1, n + 1)):
        yield from _itertools_product(*[(v, -v) for v in perm])
