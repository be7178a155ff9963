import re
from collections import Counter
from math import comb

import pytest

from eulerinv import checks, distributions
from eulerinv.distributions import (
    DES_B,
    DES_COXETER,
    full_eulerian,
    gamma_reconstruct,
    gamma_vector,
    involution_eulerian,
    is_symmetric,
    is_unimodal,
    r_closed,
    signed_involution_eulerian_recurrence,
    signed_involution_recurrence_rows,
)
from eulerinv.polynomials import binomial, expand_negative_binomial_product
from eulerinv.tableaux import _bitableau_of_word, enumerate_all_syb, syb_signed_descent_set
from oracles import (
    gamma_by_convolution,
    geometric,
    geometric_squares,
    naive_truncated_product,
    r_by_recurrence,
    signed_telephone_number,
    telephone_number,
    type_a_involution_row,
)

INVOLUTION_ROWS = {
    1: (1,),
    2: (1, 1),
    3: (1, 2, 1),
    4: (1, 4, 4, 1),
    5: (1, 6, 12, 6, 1),
    6: (1, 9, 28, 28, 9, 1),
}

SIGNED_ROWS = {
    1: (1, 1),
    2: (1, 4, 1),
    3: (1, 9, 9, 1),
    4: (1, 17, 40, 17, 1),
    5: (1, 28, 127, 127, 28, 1),
}


def test_involution_rows():
    assert involution_eulerian(0) == (1,)
    for n, row in INVOLUTION_ROWS.items():
        assert involution_eulerian(n) == row


def test_signed_involution_rows():
    for n, row in SIGNED_ROWS.items():
        assert involution_eulerian(n, signed=True) == row


def test_signed_involution_row_six_reconciliation():
    # the disputed row: enumeration decides 634, and the total must be b(6)
    row = involution_eulerian(6, signed=True)
    assert row == (1, 43, 331, 634, 331, 43, 1)
    assert sum(row) == 1384


def test_totals_match_counting_recurrences():
    for n in range(0, 8):
        assert sum(involution_eulerian(n)) == telephone_number(n)
        assert sum(involution_eulerian(n, signed=True)) == signed_telephone_number(n)


def test_full_eulerian_examples():
    assert full_eulerian(2, signed=False) == (1, 1)
    assert full_eulerian(2, signed=True) == (1, 6, 1)
    assert full_eulerian(1, signed=True) == (1, 1)
    assert full_eulerian(3, signed=True, statistic="desCoxeter") == (1, 23, 23, 1)
    for n in range(1, 7):
        # the Eulerian numbers A(n, k), from their alternating-sum closed form
        eulerian = tuple(
            sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1)) for k in range(n)
        )
        for statistic in (DES_B, DES_COXETER):
            assert full_eulerian(n, signed=False, statistic=statistic) == eulerian, (n, statistic)


def test_involution_rows_match_the_oracle_under_both_statistics():
    for n in range(0, 9):
        expected = type_a_involution_row(n)
        for statistic in (DES_B, DES_COXETER):
            assert involution_eulerian(n, statistic=statistic) == expected, (n, statistic)


def test_unknown_statistic_rejected():
    for signed in (False, True):
        # None, which the enumerators take for windows, is no statistic here
        for statistic in ("major", None):
            with pytest.raises(ValueError, match="unknown statistic"):
                involution_eulerian(3, signed, statistic=statistic)
    for signed in (False, True):
        with pytest.raises(ValueError, match="unknown statistic"):
            full_eulerian(3, signed, "bogus")


def _record_involution_walks(monkeypatch) -> list[list]:
    """Wrap both involution enumerators where distributions calls them; each
    call appends [signed, n, statistic, objects yielded]."""
    walks = []
    for signed, name in ((False, "enumerate_involutions"), (True, "enumerate_signed_involutions")):

        def recorded(n, statistic=None, signed=signed, original=getattr(distributions, name)):
            record = [signed, n, statistic, 0]
            walks.append(record)
            for item in original(n, statistic):
                record[3] += 1
                yield item

        monkeypatch.setattr(distributions, name, recorded)
    return walks


@pytest.mark.parametrize("statistic", [DES_B, DES_COXETER])
@pytest.mark.parametrize("signed", [False, True])
def test_an_involution_row_is_one_walk_yielding_each_involution_once(monkeypatch, signed, statistic):
    # the benchmark counts objects at the public enumerators, so a row must
    # take its counts from them, one yield per involution
    walks = _record_involution_walks(monkeypatch)
    row = involution_eulerian(7, signed, statistic)
    count = signed_telephone_number(7) if signed else telephone_number(7)
    assert walks == [[signed, 7, statistic, count]]
    assert sum(row) == count


def test_the_statistic_conjecture_walks_each_signed_n_once_per_statistic(monkeypatch):
    walks = _record_involution_walks(monkeypatch)
    assert checks.check_des_statistic_conjecture(5).ok
    assert walks == [
        [True, n, statistic, signed_telephone_number(n)]
        for n in range(6)
        for statistic in (DES_B, DES_COXETER)
    ]


def test_recurrence_small_rows():
    assert signed_involution_eulerian_recurrence(3) == (1, 9, 9, 1)
    assert signed_involution_eulerian_recurrence(0) == (1,)
    with pytest.raises(ValueError, match="nonnegative"):
        signed_involution_eulerian_recurrence(-1)


def test_recurrence_decomposition_by_hand():
    # row 3, middle coefficient: 3*9 = 3*4 + 5*1 + 6*1 + 4*1
    assert 3 * 9 == 3 * 4 + 5 * 1 + 6 * 1 + 4 * 1
    # row 4, center: 4*40 = 5*9 + 5*9 + 15*1 + 10*4 + 15*1
    assert 4 * 40 == 5 * 9 + 5 * 9 + 15 * 1 + 10 * 4 + 15 * 1
    assert signed_involution_eulerian_recurrence(4) == (1, 17, 40, 17, 1)


def test_recurrence_agrees_with_enumeration():
    for n in range(1, 8):
        assert signed_involution_eulerian_recurrence(n) == involution_eulerian(n, signed=True), n


def test_bitableau_route_gives_same_polynomial():
    for n in range(0, 7):
        # des_B: the descents, and one more when entry 1 is negative
        masks = (syb_signed_descent_set(_bitableau_of_word(w)) for w in enumerate_all_syb(n))
        histogram = Counter((m & ((1 << n) - 1)).bit_count() + (m >> n & 1) for m in masks)
        row = tuple(histogram.get(k, 0) for k in range(n + 1))
        assert row == involution_eulerian(n, signed=True), n


def test_r_closed_values():
    for m in range(0, 6):
        assert r_closed(0, m) == 1
        assert r_closed(1, m) == 2 * m + 1
    assert r_closed(2, 1) == 7
    for n, m in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            r_closed(n, m)


@pytest.mark.parametrize("bad", [True, False, 2.0, "2", None])
def test_recurrence_and_r_closed_reject_a_bool_or_non_int_n(bad):
    # True once read as n = 1, and 2.0 raised TypeError from range
    with pytest.raises(ValueError, match=re.escape(f"n must be a nonnegative integer, got {bad!r}")):
        signed_involution_eulerian_recurrence(bad)
    with pytest.raises(ValueError, match=re.escape(f"n must be a nonnegative integer, got {bad!r}")):
        r_closed(bad, 1)
    with pytest.raises(ValueError, match=re.escape(f"m must be a nonnegative integer, got {bad!r}")):
        r_closed(1, bad)
    with pytest.raises(ValueError, match=re.escape(f"n_max must be an integer, got {bad!r}")):
        signed_involution_recurrence_rows(bad)
    # a negative int n_max still means no rows
    assert signed_involution_recurrence_rows(-1) == []


def test_r_recurrence_values():
    assert r_by_recurrence(2, 1) == 7
    assert r_by_recurrence(2, 0) == 1
    assert r_by_recurrence(3, 1) == r_closed(3, 1)


def test_r_three_routes_agree():
    order = 20
    for m in range(0, 7):
        # sum_n r(n, m) t^n = (1-t)^-(2m+1) (1-t^2)^-(m^2), multiplied out factor by factor
        series = naive_truncated_product(
            [geometric(order)] * (2 * m + 1) + [geometric_squares(order)] * (m * m), order
        )
        for n in range(0, order + 1):
            closed = r_closed(n, m)
            assert closed == r_by_recurrence(n, m)
            assert closed == series[n], (n, m)


def test_genfun_hand_checks():
    # type B at n=1, k=1: 1*C(2,1) + 1*C(1,1) = 3 = r(1,1)
    row = involution_eulerian(1, signed=True)
    assert sum(c * binomial(1 + 1 - j, 1) for j, c in enumerate(row)) == 3 == r_closed(1, 1)
    # type A at n=1, m=1 against the series route
    series = expand_negative_binomial_product(2, 1, 1)
    assert binomial(2, 1) == series[1] == 2


def test_genfun_a_with_frozen_row_six():
    # the published n=6 row feeds the left side directly
    row = INVOLUTION_ROWS[6]
    for m in range(0, 5):
        lhs = sum(c * binomial(6 + m - j, 6) for j, c in enumerate(row))
        series = expand_negative_binomial_product(m + 1, m * (m + 1) // 2, 6)
        assert lhs == series[6], m


def test_inexact_division_aborts_loudly():
    # neither recurrence trips its abort here: every division is exact
    signed_involution_eulerian_recurrence(40)
    assert r_by_recurrence(50, 6) == r_closed(50, 6)


def test_is_symmetric():
    assert is_symmetric(SIGNED_ROWS[5], 5)
    assert not is_symmetric((1, 2), 1)
    assert is_symmetric((), 3)
    assert is_symmetric((0, 1), 2)
    assert not is_symmetric((0, 1), 0)
    assert not is_symmetric((1, 2, 1), 0)


@pytest.mark.parametrize("n", [True, -1, 2.0, None])
def test_is_symmetric_rejects_an_n_that_is_no_nonnegative_int(n):
    # True was once taken as 1, so (1, 2, 1) read as asymmetric
    with pytest.raises(ValueError, match="n must be a nonnegative integer"):
        is_symmetric((1, 2, 1), n)


def test_is_symmetric_and_gamma_vector_take_a_list_as_a_tuple():
    # poly_multiply, gamma_reconstruct and is_unimodal take lists too
    for coeffs, n in (((1, 2, 1), 2), ((1, 2, 1), 3), ((0, 1), 2), ((1, 17, 40, 17, 1), 4), ((), 2)):
        assert is_symmetric(list(coeffs), n) == is_symmetric(coeffs, n), (coeffs, n)
    assert not is_symmetric([1, 2, 1, 0], 2)
    for coeffs, n in (((1, 2, 1), 2), ((0, 1), 2), ((1, 17, 40, 17, 1), 4)):
        assert gamma_vector(list(coeffs), n) == gamma_vector(coeffs, n), (coeffs, n)
    with pytest.raises(ValueError, match="not symmetric"):
        gamma_vector([1, 2], 1)


def test_is_unimodal():
    assert is_unimodal((1, 17, 40, 17, 1))
    assert not is_unimodal((1, 0, 1))
    assert is_unimodal((5,))
    assert is_unimodal(())
    assert is_unimodal((1, 1, 2, 2, 1))


def test_gamma_vector_examples():
    assert gamma_vector((1, 17, 40, 17, 1), 4) == (1, 13, 8)
    row6 = signed_involution_eulerian_recurrence(6)
    assert gamma_vector(row6, 6) == (1, 37, 168, 56)
    assert gamma_vector((1, 4, 6, 4, 1), 4) == (1, 0, 0)
    assert gamma_vector((1, 2, 1), 2) == (1, 0)


def test_gamma_vector_roundtrip():
    for n in range(0, 13):
        poly = signed_involution_eulerian_recurrence(n)
        gv = gamma_vector(poly, n)
        assert gamma_reconstruct(gv, n) == poly
        assert len(gv) == n // 2 + 1
    # a zero bottom gamma leaves the top coefficient zero, and no trailing zero is kept
    for poly, n in (((0, 1), 2), ((0, 0, 3), 4), ((), 4)):
        assert gamma_reconstruct(gamma_vector(poly, n), n) == poly


def test_gamma_vector_rejects_asymmetric():
    with pytest.raises(ValueError):
        gamma_vector((1, 2), 1)


def test_gamma_vector_rejects_a_nonzero_residual(monkeypatch):
    import eulerinv.distributions as distributions

    # C(2, 2) off by one leaves -1 at x^2, which no later gamma_i reaches
    monkeypatch.setattr(distributions, "comb", lambda a, b: comb(a, b) + ((a, b) == (2, 2)))
    with pytest.raises(ValueError, match="nonzero residual"):
        gamma_vector((1, 4, 1), 2)


def test_gamma_vector_allows_negative_entries():
    # symmetric but not gamma-positive
    gv = gamma_vector((1, 0, 1), 2)
    assert gv == (1, -2)
    assert min(gv) < 0
    assert gamma_reconstruct(gv, 2) == (1, 0, 1)


def test_recurrence_rows_symmetric_and_unimodal_to_40():
    for n in range(0, 41):
        poly = signed_involution_eulerian_recurrence(n)
        assert is_symmetric(poly, n)
        assert is_unimodal(poly)


def test_involution_rows_symmetric():
    for n in range(1, 9):
        assert is_symmetric(involution_eulerian(n), n - 1)


def test_recurrence_rows_come_from_one_pass():
    rows = signed_involution_recurrence_rows(300)
    assert len(rows) == 301
    for m, row in enumerate(rows):
        assert sum(row) == signed_telephone_number(m), m
    for n in (0, 1, 2, 3, 17, 60):
        assert signed_involution_recurrence_rows(n) == rows[: n + 1]
        assert signed_involution_eulerian_recurrence(n) == rows[n]
    assert signed_involution_recurrence_rows(-1) == []


def test_recurrence_rows_match_enumeration():
    for n, row in enumerate(signed_involution_recurrence_rows(8)):
        assert row == involution_eulerian(n, signed=True), n


def test_recurrence_rows_abort_on_inexact_division(monkeypatch):
    import eulerinv.distributions as distributions

    # every quotient now comes with a remainder; the first step is n=1, k=0
    monkeypatch.setattr(distributions, "divmod", lambda a, b: (a // b, 1), raising=False)
    message = r"^recurrence row n=1, k=0: 1 is not divisible by 1$"
    with pytest.raises(distributions.InexactDivisionError, match=message):
        signed_involution_recurrence_rows(3)


def test_gamma_vector_matches_convolution_oracle():
    for n, row in enumerate(signed_involution_recurrence_rows(120)):
        gv = gamma_vector(row, n)
        assert gv == gamma_by_convolution(row, n), n
        assert gamma_reconstruct(gv, n) == row, n
    for n in range(1, 10):
        poly = involution_eulerian(n)
        gv = gamma_vector(poly, n - 1)
        assert gv == gamma_by_convolution(poly, n - 1), n
        assert gamma_reconstruct(gv, n - 1) == poly, n


@pytest.mark.parametrize("n", [True, 2.0, -1, "2"])
def test_gamma_functions_reject_an_n_that_is_no_nonnegative_int(n):
    # a bool is no int here: True would otherwise rebuild (1, 1), as n = 1 does
    with pytest.raises(ValueError, match=f"n must be a nonnegative integer, got {n!r}"):
        gamma_reconstruct((1,), n)
    with pytest.raises(ValueError, match=f"n must be a nonnegative integer, got {n!r}"):
        gamma_vector((1, 4, 1), n)


def test_gamma_reconstruct_rejects_too_many_entries():
    with pytest.raises(ValueError, match="doubled center"):
        gamma_reconstruct((1, 2, 3), 3)
    assert gamma_reconstruct((1, 2, 3), 4) == (1, 6, 13, 6, 1)
