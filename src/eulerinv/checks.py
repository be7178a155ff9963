"""Verification sweeps: every identity the library can check, as reports.

Every sweep a command runs lives here, the specialization sweeps among
them: qsym computes only the chain-count side, and the binomial closed forms
and series it is compared with are computed here.  Each sweep compares two
independently computed sides of an identity and emits one record per
checked case, in deterministic (n, k) order, handing the report its values
(integers, rows, gamma vectors) as they are.  Hard identities get pass/fail
records; open questions and known print discrepancies get note records that
never fail a run.

The transpose sweep checks that transposition is a bijection, and its
failure names the first violating object.  It builds no object, no
transpose and no set: each all-shapes walk yields row words, not
objects, and the one transpose map, which tableaux._transposer makes
with the word's layout and syb_transpose applies to one word, gives each
word's transpose's word and tests that the word is standard.  One map
serves a size: it maps each head once, and each tail once for every
sub-diagram its head fills.  The descent numbers are counted on the
words, and transposing twice is checked by calling the same map on each
image.  The words come in strictly rising order, so a repeat is a word
not above the one before.  Only a failure rebuilds an object, the first
violating one, from its word, through the one builder of tableaux,
_bitableau_of_word, and only when the map takes that word: a word it
refuses is named as it is.

Descent sets from windows and tableau walks alike are the packed ints of
permutations.py and reach fundamental_spec as they are; only a failing
sdes-bijection record unpacks any, to name the first set that differs.
"""
from __future__ import annotations

from collections import Counter
from itertools import islice, repeat
from math import comb, factorial
from operator import lt, mul, sub

from . import reference
from .distributions import (
    DES_B,
    DES_COXETER,
    gamma_reconstruct,
    gamma_vector,
    involution_eulerian,
    is_symmetric,
    is_unimodal,
    r_closed,
    signed_involution_recurrence_rows,
)
from .permutations import (
    _check_int,
    des_b,
    enumerate_group,
    enumerate_involutions,
    enumerate_signed_involutions,
    involution_count,
    signed_descent_set,
    unpack_descents,
)
from .polynomials import binomial, expand_negative_binomial_product, poly_multiply
from .qsym import fundamental_spec, schur_spec
from .reports import Report, int_list
from .tableaux import (
    _bitableau_of_word,
    _syt_count,
    _transposer,
    bipartitions,
    enumerate_all_syb,
    enumerate_all_syt,
    enumerate_syb,
    partitions,
)

#: Seed for the randomized lemma check; fixed so runs are reproducible.
DEFAULT_SEED = 271828
#: Prefix sums and weights of a lemma instance are drawn from range(LEMMA_VALUE_BOUND).
LEMMA_VALUE_BOUND = 13


def verify_recurrence_route(n_max: int = 9) -> Report:
    """Type-B involution rows from one run of the recurrence against
    brute-force enumeration, coefficient by coefficient.

    The enumeration runs first, so an n_max past the enumeration budget
    fails there before the recurrence holds rows 0..n_max in memory."""
    report = Report()
    enum_rows = [involution_eulerian(n, signed=True) for n in range(1, n_max + 1)]
    rows = signed_involution_recurrence_rows(n_max)
    for n, enum_row in enumerate(enum_rows, start=1):
        report.compare("recurrence-vs-enumeration", (("n", n),), rows[n], enum_row)
    return report


def verify_genfun_a(n_max: int = 8, m_max: int = 6) -> Report:
    """Coefficient extraction of the symmetric-group generating identity:
    the x^m coefficient of I_n(x)/(1-x)^(n+1) must equal the t^n coefficient
    of (1-t)^-(m+1) (1-t^2)^-(m(m+1)/2)."""
    report = Report()
    rows = [involution_eulerian(n) for n in range(n_max + 1)]
    for m in range(m_max + 1):
        series = expand_negative_binomial_product(m + 1, m * (m + 1) // 2, n_max)
        for n in range(n_max + 1):
            lhs = sum(c * binomial(n + m - j, n) for j, c in enumerate(rows[n]))
            report.compare("genfun-a", (("n", n), ("m", m)), lhs, series[n])
    return report


def verify_genfun_b(n_max: int = 8, k_max: int = 8) -> Report:
    """Coefficient extraction of the hyperoctahedral generating identity:
    the x^k coefficient of I_n^B(x)/(1-x)^(n+1) must equal r(n, k), the t^n
    coefficient of (1-t)^-(2k+1) (1-t^2)^-(k^2)."""
    report = Report()
    for n in range(n_max + 1):
        row = involution_eulerian(n, signed=True)
        for k in range(k_max + 1):
            lhs = sum(c * binomial(n + k - j, n) for j, c in enumerate(row))
            report.compare("genfun-b", (("n", n), ("k", k)), lhs, r_closed(n, k))
    return report


def verify_signed_spec_closed_form(n_max: int = 4, m_max: int = 6) -> Report:
    """Exhaustively check, over every signed permutation of each B_n, that the
    chain-count specialization equals C(n + m - 1 - des_B, n).  A record
    whose walk saw other than the 2^n n! elements of B_n fails and names
    how many it saw."""
    report = Report()
    for n in range(n_max + 1):
        order = 2**n * factorial(n)
        for m in range(1, m_max + 1):
            seen = 0
            for w in enumerate_group(n, signed=True):
                seen += 1
                lhs = fundamental_spec(signed_descent_set(w), n, m)
                rhs = binomial(n + m - 1 - des_b(w), n)
                if lhs != rhs:
                    params = (("n", n), ("m", m), ("w", " ".join(map(str, w))))
                    report.compare("signed-spec-closed-form", params, lhs, rhs)
                    break
            else:
                params = (("n", n), ("m", m))
                ok = seen == order
                lhs = "chain-count" + ("" if ok else f", {seen} elements, expected {order}")
                report.check("signed-spec-closed-form", params, ok, lhs, "binomial")
    return report


def verify_cauchy_spec(n_max: int = 6, m_max: int = 4) -> Report:
    """Check that summing Schur specializations over all partitions of n
    matches the t^n coefficient of (1-t)^(-m) (1-t^2)^(-C(m,2))."""
    report = Report()
    for m in range(m_max + 1):
        series = expand_negative_binomial_product(m, binomial(m, 2), n_max)
        for n in range(n_max + 1):
            lhs = sum(schur_spec(shape, m) for shape in partitions(n))
            report.compare("cauchy-specialization", (("n", n), ("m", m)), lhs, series[n])
    return report


def verify_signed_schur_spec(n_max: int = 5, m_max: int = 4) -> Report:
    """Check, shape pair by shape pair, that summing signed specializations
    over the bitableaux of a bipartition factors as the product of the two
    Schur specializations at m and m-1 variables.  A record whose walk
    yielded other than C(n, |plus|) f^plus f^minus bitableaux fails and
    names how many it yielded: a walk of none gives 0 == 0 * 0."""
    report = Report()
    for n in range(n_max + 1):
        for plus, minus in bipartitions(n):
            # each distinct descent set once, weighted by how often it is
            # yielded, and its chains counted once for every m
            walk = Counter(enumerate_syb((plus, minus), True)).items()
            total = sum(count for _, count in walk)
            expected = comb(n, sum(plus)) * _syt_count(plus) * _syt_count(minus)
            for m in range(1, m_max + 1):
                lhs = sum(count * fundamental_spec(mask, n, m) for mask, count in walk)
                rhs = schur_spec(plus, m) * schur_spec(minus, m - 1)
                params = (
                    ("n", n),
                    ("plus", ".".join(map(str, plus)) or "0"),
                    ("minus", ".".join(map(str, minus)) or "0"),
                    ("m", m),
                )
                if total == expected:
                    report.compare("signed-schur-factorization", params, lhs, rhs)
                else:
                    lhs = f"{lhs} from {total} bitableaux, expected {expected}"
                    report.check("signed-schur-factorization", params, False, lhs, rhs)
    return report


def _tally(total: int, noun: str, expected: int) -> str:
    """How many objects a walk yielded, and how many it should have, when
    those differ."""
    return f"{total} {noun}" + ("" if total == expected else f", expected {expected}")


def verify_descent_multiset_bijection(signed_n_max: int = 6, unsigned_n_max: int = 7) -> Report:
    """Descent-preserving bijection consequences, checked as multiset
    equalities: signed descent sets over B-involutions against bitableaux,
    and descent sets over involutions against standard tableaux.

    Both sides count packed descent sets, so a record passes when the two
    Counters of ints agree and each side holds involution_count(n, signed=...)
    sets: two walks of nothing agree.  A side of another size names the
    count it should have.  A failure unpacks only the sets whose
    multiplicities differ and names the first as (positions, signs), in
    natural tuple order, with its count on each side; its signs are printed
    only when one is -1."""
    report = Report()
    families = (
        ("sdes-multiset-signed", signed_n_max, True, enumerate_signed_involutions,
         enumerate_all_syb, "bitableaux"),
        ("des-multiset-unsigned", unsigned_n_max, False, enumerate_involutions,
         enumerate_all_syt, "tableaux"),
    )
    for check, n_max, signed, involutions, tableaux, noun in families:
        for n in range(n_max + 1):
            perm_side = Counter(map(signed_descent_set, involutions(n)))
            tab_side = Counter(tableaux(n, True))
            expected = involution_count(n, signed=signed)
            lhs = _tally(perm_side.total(), "involutions", expected)
            rhs = _tally(tab_side.total(), noun, expected)
            ok = perm_side == tab_side and tab_side.total() == expected
            if perm_side != tab_side:
                # a set whose counts differ has an item in one Counter alone
                differ = {unpack_descents(d, n): d for d, _ in perm_side.items() ^ tab_side.items()}
                (positions, signs), mask = min(differ.items())
                witness = "Des={" + int_list(positions) + "}"
                if -1 in signs:
                    witness += " signs=" + "".join("+" if s > 0 else "-" for s in signs)
                lhs += f", {perm_side[mask]} with {witness}"
                rhs += f", {tab_side[mask]} with {witness}"
            report.check(check, (("n", n),), ok, lhs, rhs)
    return report


def verify_transpose_complement(signed_n_max: int = 6, unsigned_n_max: int = 7) -> Report:
    """Transposition sends descent numbers to their complements: n - des_B on
    bitableaux, n - 1 - des on tableaux; both maps are involutive bijections.

    One record per n.  It fails when the walk yields other than
    involution_count(n, signed=...) objects, the count it then names, or
    when any object violates the rule.  An object violates the rule when
    its row word or its transpose's is not that of a standard bitableau,
    when a tableau's word has an entry past row n - 1, in the rows of
    minus, when its transpose's descent number is not the complement of
    its own, when transposing twice does not give it back, or when its row
    word does not exceed the previous object's.  A failure names the first
    violating object in walk order, rebuilt from its row word by
    tableaux._bitableau_of_word, the builder every per-shape walk maps over
    its words, when the transpose map takes that word and its entries lie
    in the walk's rows; a word it refuses, with an entry outside the rows
    or no lattice word, or a tableau's word that reaches the rows of minus,
    fixes no object of the walk, and the failure names the row word
    itself.

    No object and no transpose is built.  Each walk yields row words, and
    one map of _transposer(n) per size is called twice per word: on the
    row word, giving its transpose's word and testing on the way that the
    word is standard, and, when that image is a word, on the image.  The
    map keeps each head it has mapped, and each tail once for every
    sub-diagram its heads fill, for both directions at once, until that
    size ends.  Both descent numbers are counted on the words: des_B is
    the number of rises, word[i] < word[i + 1], where word[0], n - 1, is
    below word[1] exactly when entry 1 is negative.  A tableau q is read
    as the bitableau (q, ()): its des_B is des(q) and its transpose is
    ((), q'), whose des_B is des(q') + 1 from n = 1 on, so n - des_B is the
    rule for both walks.
    Transposing twice is checked on the image word alone, which the map
    must send back to the object's own word; the images of the bitableaux
    of one size are their row words again, so there that call finds each
    head and tail mapped.

    The walk of each size yields its objects in strictly increasing
    lexicographic order of their row words, so a word that is not above
    the one before, a repeated object or two objects with one word, is a
    violation, and the sweep keeps the previous word, beside the map's
    heads and tail images of the size it walks.  Distinct words and a
    transpose that transposes back make the map injective: two objects
    with one image would have one word, and the count makes it onto: the
    walk yields every object of its size.  Each size is walked once."""
    report = Report()
    families = (
        ("transpose-signed", signed_n_max, True, enumerate_all_syb, lambda q: q, "bitableaux"),
        ("transpose-unsigned", unsigned_n_max, False, enumerate_all_syt, lambda q: q[0], "tableaux"),
    )
    for check, n_max, signed, walk, shown, noun in families:
        for n in range(n_max + 1):
            previous = ()
            total = bad = 0
            transpose = _transposer(n)
            for row in walk(n):
                total += 1
                image = transpose(row)
                if not signed and image is not None and max(row) >= n:
                    image = None  # a tableau's word in the rows of minus
                if (
                    image is None
                    or transpose(image) != row
                    or sum(map(lt, row, row[1:])) + sum(map(lt, image, image[1:])) != n
                    or row <= previous
                ):
                    bad += 1
                    if bad == 1:  # a word the map refuses fixes no object
                        first = shown(_bitableau_of_word(row)) if image else f"row word {row}"
                previous = row
            expected = involution_count(n, signed=signed)
            lhs = _tally(total, noun, expected)
            rhs = f"{bad} violations" + (f", first {first}" if bad else "")
            report.check(check, (("n", n),), bad == 0 and total == expected, lhs, rhs)
    return report


def _proof_coefficients(n: int, k: int) -> tuple[tuple[int, int, int], tuple[int, int, int, int]]:
    a = (2 * k + 1, 2 * n - 4 * k + 2, -2 * n + 2 * k - 3)
    d = (
        n + 2 * k * k + 2 * k - 1,
        4 * n * k - 3 * n - 6 * k * k + 2 * k + 3,
        2 * n * n - 8 * n * k + 9 * n + 6 * k * k - 10 * k + 1,
        -2 * n * n + 4 * n * k - 7 * n - 2 * k * k + 6 * k - 3,
    )
    return a, d


def verify_proof_identity(n_max: int = 20) -> Report:
    """The difference decomposition behind the unimodality proof.

    For each n the seven-term identity for n (I(n,k) - I(n,k-1)) is checked
    at every k, and the sign facts the proof feeds to the averaging lemma
    are checked on 0 <= k <= floor(n/2).  The one exception is D0+D1 >= 0,
    which the proof only needs for k >= 1 (it evaluates to 2 - 2n at k = 0,
    where the remaining terms of the identity vanish anyway); that boundary
    value is recorded as a note.
    """
    report = Report()
    rows = signed_involution_recurrence_rows(n_max)
    for n in range(3, n_max + 1):
        # three zeros in front and enough behind: index k + 3 holds coefficient k
        row, prev, prev2 = ((0,) * 3 + r + (0,) * (n + 4 - len(r)) for r in rows[n : n - 3 : -1])
        facts_ok = True
        for k in range(n + 4):
            a, d = _proof_coefficients(n, k)
            lhs = n * (row[k + 3] - row[k + 2])
            rhs = (
                a[0] * prev[k + 3]
                + a[1] * prev[k + 2]
                + a[2] * prev[k + 1]
                + d[0] * prev2[k + 3]
                + d[1] * prev2[k + 2]
                + d[2] * prev2[k + 1]
                + d[3] * prev2[k]
            )
            if lhs != rhs:
                report.compare("proof-identity", (("n", n), ("k", k)), lhs, rhs)
            # the identity and the zero sums hold for every k; sign facts on the proof's range
            facts_ok = facts_ok and lhs == rhs and sum(a) == 0 and sum(d) == 0
            if k <= n // 2:
                facts_ok = facts_ok and min(a[0], a[0] + a[1], d[0], d[0] + d[1] + d[2]) >= 0
                facts_ok = facts_ok and (k == 0 or d[0] + d[1] >= 0)
        facts = "identity and sign facts"
        report.check("proof-identity", (("n", n),), facts_ok, facts, f"k=0..{n + 3}")
    if n_max >= 3:
        report.note(
            "proof-identity",
            (("k", 0),),
            "D0+D1 = 2-2n at k=0",
            "averaging lemma unused there; single-term positivity suffices",
        )
    return report


def r_log_concavity_failure(n: int) -> int | None:
    """First k in 2..n-1 with r(n, k)^2 < r(n, k-1) r(n, k+1), or None.

    The scan reads r(n, k) from k = 1 on, each value once, because
    r(n, 0) = 1 makes k = 1 fail for every n >= 47, which says nothing
    about the sequence.
    """
    before, here = r_closed(n, 1), r_closed(n, 2)
    for k in range(2, n):
        after = r_closed(n, k + 1)
        if here * here < before * after:
            return k
        before, here = here, after
    return None


#: The convolution route of verify_counterexample_89 runs to this n.
_CONVOLUTION_N_MAX = 8


def verify_counterexample_89() -> Report:
    """The degree-89 non-log-concavity witness, plus the convolution identity
    that backs it at desk scale.

    r(89, .) is computed from the closed form; the two exact products are
    pinned to their published values.  The convolution route multiplies the
    enumerated involution row by the binomial polynomial q and truncates,
    re-deriving r(n, k) for every k <= n <= _CONVOLUTION_N_MAX.
    """
    report = Report()
    r1, r2, r3 = r_closed(89, 1), r_closed(89, 2), r_closed(89, 3)
    report.compare("r89-square", (("k", 2),), r2 * r2, reference.R89_SQUARE_AT_2)
    report.compare("r89-product", (("k", "1*3"),), r1 * r3, reference.R89_PRODUCT_1_3)
    report.less("r89-strict-inequality", (), r2 * r2, r1 * r3)
    k = r_log_concavity_failure(89)
    report.check(
        "r89-not-log-concave",
        (("first_failing_k", k),),
        k is not None,
        "log-concavity violated",
        "no k >= 1 violated" if k is None else f"r(89,{k})^2 < r(89,{k - 1})*r(89,{k + 1})",
    )
    for n in range(_CONVOLUTION_N_MAX + 1):
        row = involution_eulerian(n, signed=True)
        q = tuple(binomial(n + k, k) for k in range(n + 1))
        product = poly_multiply(row, q)[: n + 1]
        expected = tuple(r_closed(n, k) for k in range(n + 1))
        report.compare("r-convolution", (("n", n),), product, expected)
    return report


def _lemma_instances(trials: int, length_max: int, seed: int):
    """(a, x) instances for the averaging lemma, in a fixed random stream.

    Prefix sums are drawn nonnegative and differenced into a, so every
    instance meets the hypothesis; x is drawn and sorted decreasing.

    Every draw comes straight from ``Random(seed).getrandbits`` by the rule
    of ``Random._randbelow``: to draw below a bound, take as many bits as
    the bound has and draw again while the value is not below it.  The
    length is 1 plus a draw below length_max; each prefix value and weight
    is a draw below LEMMA_VALUE_BOUND.  The value filter is lazy, so draws
    are taken one at a time in stream order, and the instances equal those
    of ``randint(1, length_max)`` and ``randint(0, LEMMA_VALUE_BOUND - 1)``.
    """
    import random  # here, so that importing the CLI does not load it
    getrandbits = random.Random(seed).getrandbits
    length_bits = length_max.bit_length()
    value_bits = LEMMA_VALUE_BOUND.bit_length()
    values = filter(LEMMA_VALUE_BOUND.__gt__, map(getrandbits, repeat(value_bits)))
    for _ in range(trials):
        length = getrandbits(length_bits)
        while length >= length_max:
            length = getrandbits(length_bits)
        length += 1
        prefix = list(islice(values, length))
        a = [prefix[0], *map(sub, prefix[1:], prefix)]
        x = sorted(islice(values, length), reverse=True)
        yield a, x


def check_guo_zeng_lemma(
    trials: int = 10_000, length_max: int = 8, seed: int = DEFAULT_SEED
) -> Report:
    """Randomized check of the averaging lemma: against any weakly decreasing
    nonnegative weights, a sequence with nonnegative prefix sums has a
    nonnegative weighted sum.

    Instances are built so the hypothesis holds by construction, which keeps
    every trial productive.  A counterexample fails the record and names
    its a and x; with none, the record passes only when `trials` instances
    were drawn, and otherwise names how many were, so a draw of nothing
    fails.  Unless trials and length_max are ints of at least 1 and seed a
    nonnegative int, no bool among them, ValueError is raised.
    """
    _check_int(trials, "trials", 1)
    _check_int(length_max, "length_max", 1)
    _check_int(seed, "seed")
    report = Report()
    params = (("trials", trials), ("length_max", length_max), ("seed", seed))
    drawn = 0
    for drawn, (a, x) in enumerate(_lemma_instances(trials, length_max, seed), 1):
        if sum(map(mul, a, x)) < 0:
            report.check("guo-zeng-lemma", params, False, f"a={int_list(a)}", f"x={int_list(x)}")
            return report
    lhs = _tally(drawn, "trials", trials)
    report.check("guo-zeng-lemma", params, drawn == trials, lhs, "0 counterexamples")
    return report


def check_des_statistic_conjecture(n_max: int = 7) -> Report:
    """Compare the two type-B descent statistics over involutions.

    Equality is a hard assertion for n <= 5 (the confirmed range) and an
    open question beyond, so larger n produce note records carrying both
    polynomials whatever the outcome.  A hard record whose rows do not sum
    to the number of involutions of B_n fails and names their sum: two
    empty rows, from a walk that yields nothing, agree.
    """
    report = Report()
    for n in range(n_max + 1):
        colored = involution_eulerian(n, signed=True, statistic=DES_B)
        coxeter = involution_eulerian(n, signed=True, statistic=DES_COXETER)
        if n <= 5:
            total, expected = sum(colored), involution_count(n, signed=True)
            if total == expected:
                report.compare("des-statistics-agree", (("n", n),), colored, coxeter)
            else:
                lhs, rhs = f"rows summing to {total}", f"expected {expected}"
                report.check("des-statistics-agree", (("n", n),), False, lhs, rhs)
        else:
            params = (("n", n), ("equal", colored == coxeter))
            report.note("des-statistics-agree", params, colored, coxeter)
    return report


def reference_table_report() -> Report:
    """Recompute every published reference row and compare.

    The n = 6 type-B row is handled specially: enumeration decides the
    disputed x^3 coefficient, the published gamma expansion must rebuild the
    enumerated row, and the printed 632 is flagged as a note."""
    report = Report()
    for n, expected in sorted(reference.INVOLUTION_ROWS_A.items()):
        computed = involution_eulerian(n)
        report.compare("table-a", (("n", n),), computed, expected)
    rows_b = {n: involution_eulerian(n, signed=True) for n in reference.INVOLUTION_ROWS_B_PRINTED}
    for n, expected in sorted(reference.INVOLUTION_ROWS_B_PRINTED.items()):
        computed = rows_b[n]
        if n != 6:
            report.compare("table-b", (("n", n),), computed, expected)
            continue
        gamma_row = gamma_reconstruct(reference.GAMMA_ROWS_B[6], 6)
        report.compare("table-b-gamma-expansion", (("n", n),), computed, gamma_row)
        total = involution_count(n, signed=True)
        report.compare("table-b-total", (("n", n),), sum(computed), total)
        if computed != expected:
            report.note(
                "table-b-print-discrepancy",
                (("n", n),),
                f"printed row {int_list(expected)}",
                f"enumeration gives {int_list(computed)}",
            )
    for n, expected in sorted(reference.GAMMA_ROWS_B.items()):
        gammas = gamma_vector(rows_b[n], n)
        report.compare("table-gamma-b", (("n", n),), gammas, expected)
    rows = signed_involution_recurrence_rows(12)
    for n in range(1, 13):
        row = rows[n]
        ok = is_symmetric(row, n) and is_unimodal(row)
        report.check("table-shape", (("n", n),), ok, "symmetric and unimodal", row)
    return report
