"""Independent brute-force oracles for the test suite.

Nothing here imports the library's computation paths for the quantities it
checks: series are multiplied naively, chains and tableaux are enumerated by
filtering, and descents are recounted straight from the defining total
orders.  Slow and obviously correct is the point.  The plain recursive
involution and tableau walks are kept here too, as references for the order
in which the library's faster walks must yield.
"""
from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement, permutations, product


def naive_truncated_product(factor_lists, order):
    """Multiply truncated series given as coefficient lists, term by term."""
    acc = [1] + [0] * order
    for factor in factor_lists:
        out = [0] * (order + 1)
        for i, a in enumerate(acc):
            for j in range(order + 1 - i):
                out[i + j] += a * factor[j] if j < len(factor) else 0
        acc = out
    return acc


def geometric(order):
    """1 + t + t^2 + ... truncated."""
    return [1] * (order + 1)


def geometric_squares(order):
    """1 + t^2 + t^4 + ... truncated."""
    return [1 if i % 2 == 0 else 0 for i in range(order + 1)]


def colored_order_key(x):
    # -1 < -2 < ... < 0 < 1 < 2 < ... : negatives sort below zero by
    # increasing absolute value
    return (0, -x) if x < 0 else (1, x)


def colored_descent_count(window):
    """Descents of a signed window under the colored total order, with an
    implicit leading zero."""
    count = 0
    prev = 0
    for v in window:
        if colored_order_key(prev) > colored_order_key(v):
            count += 1
        prev = v
    return count


def signed_group_by_sign_vectors(n):
    """All of B_n, each permutation of 1..n multiplied by every sign vector
    in turn, from all plus to all minus."""
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            yield tuple(s * v for s, v in zip(signs, perm))


def is_involution(window):
    """Whether composing the (possibly signed) window with itself is the identity."""
    n = len(window)
    values = {abs(v) for v in window}
    if values != set(range(1, n + 1)):
        return False
    for i in range(1, n + 1):
        j = window[i - 1]
        image = window[abs(j) - 1]
        if j < 0:
            image = -image
        if image != i:
            return False
    return True


def inverse(window):
    """Inverse of a (possibly signed) window."""
    n = len(window)
    out = [0] * n
    for i, v in enumerate(window, start=1):
        if v > 0:
            out[v - 1] = i
        else:
            out[-v - 1] = -i
    return tuple(out)


def involutions_by_recursive_walk(n, signed):
    """Involutions of B_n (signed) or S_n in the order of the recursive walk:
    the smallest open position p takes each candidate w(p) in ascending
    order, -q for q descending and -p (B_n only), then +p, then +q ascending,
    and a 2-cycle (p q) gives its partner the same sign."""
    window = [0] * (n + 1)
    out = []

    def fill(available):
        if not available:
            out.append(tuple(window[1:]))
            return
        p, rest = available[0], available[1:]
        if signed:
            for idx in range(len(rest) - 1, -1, -1):
                q = rest[idx]
                window[p], window[q] = -q, -p
                fill(rest[:idx] + rest[idx + 1 :])
            window[p] = -p
            fill(rest)
        window[p] = p
        fill(rest)
        for idx, q in enumerate(rest):
            window[p], window[q] = q, p
            fill(rest[:idx] + rest[idx + 1 :])

    fill(tuple(range(1, n + 1)))
    return out


def count_chains(n, strict_positions, minimums, m):
    """Count chains 1 <= i_1 <= ... <= i_n <= m by full enumeration of the
    weakly increasing sequences, keeping those strict at each given position
    j (i_j < i_{j+1}) and at least minimums[j-1] at each position j."""
    strict = set(strict_positions)
    total = 0
    for chain in combinations_with_replacement(range(1, m + 1), n):
        ok = all(chain[j] >= minimums[j] for j in range(n))
        if ok and all(chain[j - 1] < chain[j] for j in strict):
            total += 1
    return total


def count_ssyt(shape, m):
    """Semistandard tableaux of the shape with entries at most m: weakly
    increasing rows, strictly increasing columns."""
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]

    def fill(idx, grid):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r, c - 1])
        if r > 0:
            lo = max(lo, grid[r - 1, c] + 1)
        total = 0
        for v in range(lo, m + 1):
            grid[r, c] = v
            total += fill(idx + 1, grid)
        grid.pop((r, c), None)
        return total

    return fill(0, {})


def standard_fillings_by_filtering(shape):
    """All standard tableaux of a small shape, built by trying every
    permutation of the entries row-major and filtering."""
    n = sum(shape)
    out = []
    for perm in permutations(range(1, n + 1)):
        rows = []
        pos = 0
        for length in shape:
            rows.append(tuple(perm[pos : pos + length]))
            pos += length
        ok = all(a < b for row in rows for a, b in zip(row, row[1:]))
        for r in range(1, len(rows)):
            for c in range(len(rows[r])):
                if rows[r - 1][c] >= rows[r][c]:
                    ok = False
        if ok:
            out.append(tuple(rows))
    return out


def standard_fillings_by_placing(shape):
    """Standard tableaux of a shape in the order of the recursive walk:
    entries 1..n placed in turn, each tried in every row from the top that
    has room and lies under a longer row."""
    n = sum(shape)
    rows = [[] for _ in shape]

    def place(entry):
        if entry > n:
            yield tuple(tuple(row) for row in rows)
            return
        for r, row in enumerate(rows):
            col = len(row)
            if col >= shape[r]:
                continue
            if r > 0 and len(rows[r - 1]) <= col:
                continue
            row.append(entry)
            yield from place(entry + 1)
            row.pop()

    return list(place(1))


def bitableaux_by_pairing(plus_shape, minus_shape):
    """Standard bitableaux of shape (plus, minus) in the order of the pairing
    walk: each entry set of the plus part ascending, then each plus filling,
    then each minus filling, both relabelled afresh for every pair."""
    k = sum(plus_shape)
    n = k + sum(minus_shape)
    plus_fillings = standard_fillings_by_placing(plus_shape)
    minus_fillings = standard_fillings_by_placing(minus_shape)

    def relabel(tableau, entries):
        return tuple(tuple(entries[v - 1] for v in row) for row in tableau)

    out = []
    for plus_entries in combinations(range(1, n + 1), k):
        minus_entries = tuple(v for v in range(1, n + 1) if v not in plus_entries)
        for p in plus_fillings:
            for q in minus_fillings:
                out.append((relabel(p, plus_entries), relabel(q, minus_entries)))
    return out


def transpose_by_columns(tableau):
    """The columns of a tableau, read top to bottom, as its rows."""
    if not tableau:
        return ()
    return tuple(
        tuple(row[c] for row in tableau if len(row) > c) for c in range(len(tableau[0]))
    )


def signed_descent_set_by_definition(window):
    """(Des(w), signs): i is a descent when the signs step +,- , or when they
    agree and the absolute values step down."""
    signs = tuple(1 if v > 0 else -1 for v in window)
    positions = tuple(
        i
        for i in range(1, len(window))
        if (signs[i - 1], signs[i]) == (1, -1)
        or (signs[i - 1] == signs[i] and abs(window[i - 1]) > abs(window[i]))
    )
    return positions, signs


def tableau_shape(tableau):
    return tuple(len(row) for row in tableau)


def is_standard_tableau(tableau):
    """Rows and columns strictly increase and the shape is a partition."""
    shape = tableau_shape(tableau)
    if any(part <= 0 for part in shape) or any(a < b for a, b in zip(shape, shape[1:])):
        return False
    for row in tableau:
        for a, b in zip(row, row[1:]):
            if a >= b:
                return False
    for r in range(1, len(tableau)):
        for c in range(len(tableau[r])):
            if tableau[r - 1][c] >= tableau[r][c]:
                return False
    return True


def telephone_number(n):
    """Involutions of the symmetric group, by the classic recurrence."""
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b if n >= 1 else 1


def signed_telephone_number(n):
    """Involutions of the hyperoctahedral group, by its recurrence."""
    if n == 0:
        return 1
    a, b = 1, 2
    for k in range(2, n + 1):
        a, b = b, 2 * b + 2 * (k - 1) * a
    return b


def r_by_recurrence(n, m):
    """r(n, m), the x^m coefficient of I_n^B(x) / (1-x)^(n+1), by the
    two-term recurrence in n from r(0, m) = 1 and r(1, m) = 2m + 1; every
    division by n must be exact."""
    prev2, prev = 1, 2 * m + 1
    if n == 0:
        return prev2
    for size in range(2, n + 1):
        total = (2 * m + 1) * prev + (2 * m * m + 2 * m + size - 1) * prev2
        quotient, remainder = divmod(total, size)
        if remainder:
            raise ArithmeticError(f"r-recurrence n={size}, m={m}: {total} is not divisible")
        prev2, prev = prev, quotient
    return prev


def guo_zeng_counterexample_search(length_max=5, bound=3):
    """Exhaustively search small integer instances for a violation of the
    averaging lemma; returns the first violation or None."""
    for length in range(1, length_max + 1):
        decreasing_xs = [
            x
            for x in product(range(bound, -1, -1), repeat=length)
            if all(a >= b for a, b in zip(x, x[1:]))
        ]
        for a in product(range(-bound, bound + 1), repeat=length):
            prefix = 0
            ok = True
            for v in a:
                prefix += v
                if prefix < 0:
                    ok = False
                    break
            if not ok:
                continue
            for x in decreasing_xs:
                if sum(ai * xi for ai, xi in zip(a, x)) < 0:
                    return a, x
    return None


def convolve(p, q):
    """Product of two coefficient lists, term by term."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def gamma_by_convolution(coeffs, n):
    """Gamma expansion of a polynomial symmetric about n/2, subtracting
    x^i (1+x)^(n-2i) with each power of (1+x) multiplied out by repeated
    convolution; None when a nonzero residual is left."""
    powers = [[1]]
    for _ in range(n):
        powers.append(convolve(powers[-1], [1, 1]))
    residual = list(coeffs) + [0] * (n + 1 - len(coeffs))
    gammas = []
    for i in range(n // 2 + 1):
        g = residual[i]
        gammas.append(g)
        for j, c in enumerate(powers[n - 2 * i]):
            residual[i + j] -= g * c
    return None if any(residual) else tuple(gammas)


def guo_zeng_instances_by_randint(trials, length_max, seed):
    """The averaging-lemma instances as first written: randint draws,
    prefix sums differenced by index, weights sorted decreasing."""
    rng = random.Random(seed)
    for _ in range(trials):
        length = rng.randint(1, length_max)
        prefix = [rng.randint(0, 12) for _ in range(length)]
        a = [prefix[0]] + [prefix[i] - prefix[i - 1] for i in range(1, length)]
        x = sorted((rng.randint(0, 12) for _ in range(length)), reverse=True)
        yield a, x
