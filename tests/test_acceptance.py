"""Acceptance suite: one test per criterion, exact integer tolerances.

Each test prints a single pass line when it completes; a pytest failure in a
test IS the criterion's fail line.  Everything here is exact arithmetic, so
"tolerance" always means equality of arbitrary-precision integers.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""
from collections import Counter
from math import comb

from eulerinv import checks
from eulerinv.distributions import (
    gamma_vector,
    involution_eulerian,
    is_symmetric,
    is_unimodal,
    r_closed,
    signed_involution_eulerian_recurrence,
    signed_involution_recurrence_rows,
)
from eulerinv.permutations import (
    des_b,
    enumerate_group,
    enumerate_involutions,
    enumerate_signed_involutions,
    signed_descent_set,
)
from eulerinv.qsym import fundamental_spec, schur_spec
from eulerinv.tableaux import (
    _bitableau_of_word,
    enumerate_all_syb,
    enumerate_all_syt,
    partitions,
    syb_signed_descent_set,
    syb_transpose,
)
from oracles import count_ssyt, transpose_by_columns

ROWS_A = {
    1: (1,),
    2: (1, 1),
    3: (1, 2, 1),
    4: (1, 4, 4, 1),
    5: (1, 6, 12, 6, 1),
    6: (1, 9, 28, 28, 9, 1),
}
ROWS_B = {
    1: (1, 1),
    2: (1, 4, 1),
    3: (1, 9, 9, 1),
    4: (1, 17, 40, 17, 1),
    5: (1, 28, 127, 127, 28, 1),
}
GAMMA_B = {1: (1,), 2: (1, 2), 3: (1, 6), 4: (1, 13, 8), 5: (1, 23, 48), 6: (1, 37, 168, 56)}


def passed(number, label):
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def test_criterion_01_small_reference_tables():
    for n, row in ROWS_A.items():
        assert involution_eulerian(n) == row, n
    for n, row in ROWS_B.items():
        assert involution_eulerian(n, signed=True) == row, n
    passed(1, "reference rows (A: n<=6, B: n<=5) by brute force")


def test_criterion_02_row_six_reconciliation():
    row = involution_eulerian(6, signed=True)
    assert sum(row) == 1384
    assert row == (1, 43, 331, 634, 331, 43, 1)
    report = checks.reference_table_report()
    assert report.ok
    flags = [r for r in report if r.check == "table-b-print-discrepancy"]
    assert len(flags) == 1 and "632" in flags[0].lhs
    passed(2, "n=6 row sums to 1384, matches gamma expansion, 632 flagged")


def test_criterion_03_recurrence_matches_enumeration():
    for n in range(3, 10):
        rec = signed_involution_eulerian_recurrence(n)
        enum = involution_eulerian(n, signed=True)
        assert rec == enum, n
    passed(3, "recurrence equals brute force for 3<=n<=9, divisions exact")


def test_criterion_04_generating_identities():
    assert checks.verify_genfun_b(8, 8).ok
    assert checks.verify_genfun_a(8, 6).ok
    passed(4, "generating identities (B: n,k<=8; A: n<=8, m<=6)")


def test_criterion_05_signed_specialization_closed_form():
    for n in range(5):
        for w in enumerate_group(n, signed=True):
            sdes = signed_descent_set(w)
            expected_descents = des_b(w)
            for m in range(1, 7):
                assert fundamental_spec(sdes, n, m) == comb(n + m - 1 - expected_descents, n), (w, m)
    passed(5, "signed specialization equals its closed form over B_n, n<=4, m<=6")


def test_criterion_06_schur_specializations():
    for n in range(6):
        for shape in partitions(n):
            for m in range(5):
                assert schur_spec(shape, m) == count_ssyt(shape, m), (shape, m)
    assert checks.verify_cauchy_spec(6, 4).ok
    assert checks.verify_signed_schur_spec(5, 4).ok
    passed(6, "Schur specializations vs SSYT oracle, product-series and factorization checks")


def test_criterion_07_descent_multiset_bijection():
    for n in range(7):
        perm = Counter(signed_descent_set(w) for w in enumerate_signed_involutions(n))
        tab = Counter(syb_signed_descent_set(_bitableau_of_word(w)) for w in enumerate_all_syb(n))
        assert perm == tab, n
    for n in range(8):
        perm = Counter(signed_descent_set(w) for w in enumerate_involutions(n))
        # a tableau's row word builds the bitableau (q, ())
        tab = Counter(syb_signed_descent_set(_bitableau_of_word(w)) for w in enumerate_all_syt(n))
        assert perm == tab, n
    passed(7, "descent multisets agree with (bi)tableaux (B: n<=6, A: n<=7)")


def test_criterion_08_transpose_complementation():
    def des_b(mask, n):  # descents, and one more when entry 1 is negative
        return (mask & ((1 << n) - 1)).bit_count() + (mask >> n & 1)

    for n in range(7):
        for q in map(_bitableau_of_word, enumerate_all_syb(n)):
            image = syb_signed_descent_set(syb_transpose(q))
            assert des_b(image, n) == n - des_b(syb_signed_descent_set(q), n)
    for n in range(1, 8):
        for q, _ in map(_bitableau_of_word, enumerate_all_syt(n)):
            des = syb_signed_descent_set((q, ())).bit_count()  # a tableau sets no sign bit
            t = transpose_by_columns(q)
            assert syb_signed_descent_set((t, ())).bit_count() == n - 1 - des
    passed(8, "transpose complements descent numbers on all (bi)tableaux")


def test_criterion_09_unimodality_at_scale():
    for n in range(41):
        poly = signed_involution_eulerian_recurrence(n)
        assert is_symmetric(poly, n), n
        assert is_unimodal(poly), n
    assert checks.verify_proof_identity(20).ok
    passed(9, "rows symmetric+unimodal to n=40; difference decomposition to n=20")


def test_criterion_10_counterexample_89():
    r1, r2, r3 = r_closed(89, 1), r_closed(89, 2), r_closed(89, 3)
    assert r2 * r2 == 113789153706560010000
    assert r1 * r3 == 114890217312335629500
    assert r2 * r2 < r1 * r3
    assert checks.verify_counterexample_89().ok
    passed(10, "degree-89 witness exact, convolution identity to n=8")


def test_criterion_11_gamma_table_and_signs():
    for n, expected in GAMMA_B.items():
        poly = involution_eulerian(n, signed=True)
        assert gamma_vector(poly, n) == expected, n
    rows = signed_involution_recurrence_rows(30)
    for n in range(1, 31):
        assert min(gamma_vector(rows[n], n)) >= 0, n
    passed(11, "gamma rows match for n<=6; entries nonnegative to n=30")


def test_criterion_12_descent_statistic_agreement():
    for n in range(6):
        colored = involution_eulerian(n, signed=True, statistic="desB")
        coxeter = involution_eulerian(n, signed=True, statistic="desCoxeter")
        assert colored == coxeter, n
    report = checks.check_des_statistic_conjecture(7)
    assert report.ok
    reported = {r.params[0][1] for r in report if r.status == "note"}
    assert reported == {6, 7}
    passed(12, "statistics agree for n<=5 (hard); n=6,7 reported")
