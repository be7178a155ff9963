from collections import Counter

import pytest

from eulerinv.distributions import (
    GammaVector,
    first_log_concavity_failure,
    full_eulerian,
    gamma_vector,
    involution_eulerian,
    is_symmetric,
    is_unimodal,
    r_closed,
    signed_involution_eulerian,
    signed_involution_eulerian_recurrence,
    signed_involution_recurrence_rows,
)
from eulerinv.polynomials import binomial, expand_negative_binomial_product
from eulerinv.tableaux import enumerate_all_syb, syb_des_b
from oracles import (
    gamma_by_convolution,
    r_by_recurrence,
    signed_telephone_number,
    telephone_number,
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
        assert signed_involution_eulerian(n) == row


def test_signed_involution_row_six_reconciliation():
    # the disputed row: enumeration decides 634, and the total must be b(6)
    row = signed_involution_eulerian(6)
    assert row == (1, 43, 331, 634, 331, 43, 1)
    assert sum(row) == 1384


def test_totals_match_counting_recurrences():
    for n in range(0, 8):
        assert sum(involution_eulerian(n)) == telephone_number(n)
        assert sum(signed_involution_eulerian(n)) == signed_telephone_number(n)


def test_full_eulerian_examples():
    assert full_eulerian(2, signed=False) == (1, 1)
    assert full_eulerian(2, signed=True) == (1, 6, 1)
    assert full_eulerian(1, signed=True) == (1, 1)
    assert full_eulerian(3, signed=True, statistic="desCoxeter") == (1, 23, 23, 1)


def test_unknown_statistic_rejected():
    with pytest.raises(ValueError):
        signed_involution_eulerian(2, statistic="major")


def test_recurrence_small_rows():
    assert signed_involution_eulerian_recurrence(3) == (1, 9, 9, 1)
    assert signed_involution_eulerian_recurrence(0) == (1,)


def test_recurrence_decomposition_by_hand():
    # row 3, middle coefficient: 3*9 = 3*4 + 5*1 + 6*1 + 4*1
    assert 3 * 9 == 3 * 4 + 5 * 1 + 6 * 1 + 4 * 1
    # row 4, center: 4*40 = 5*9 + 5*9 + 15*1 + 10*4 + 15*1
    assert 4 * 40 == 5 * 9 + 5 * 9 + 15 * 1 + 10 * 4 + 15 * 1
    assert signed_involution_eulerian_recurrence(4) == (1, 17, 40, 17, 1)


def test_recurrence_agrees_with_enumeration():
    for n in range(1, 8):
        assert signed_involution_eulerian_recurrence(n) == signed_involution_eulerian(n), n


def test_bitableau_route_gives_same_polynomial():
    for n in range(0, 7):
        histogram = Counter(syb_des_b(q) for q in enumerate_all_syb(n))
        row = tuple(histogram.get(k, 0) for k in range(n + 1))
        assert row == signed_involution_eulerian(n), n


def test_r_closed_values():
    for m in range(0, 6):
        assert r_closed(0, m) == 1
        assert r_closed(1, m) == 2 * m + 1
    assert r_closed(2, 1) == 7


def test_r_recurrence_values():
    assert r_by_recurrence(2, 1) == 7
    assert r_by_recurrence(2, 0) == 1
    assert r_by_recurrence(3, 1) == r_closed(3, 1)


def test_r_three_routes_agree():
    for n in range(0, 21):
        for m in range(0, 7):
            closed = r_closed(n, m)
            assert closed == r_by_recurrence(n, m)
            series = expand_negative_binomial_product(2 * m + 1, m * m, n)
            assert closed == series[n]


def test_genfun_hand_checks():
    # type B at n=1, k=1: 1*C(2,1) + 1*C(1,1) = 3 = r(1,1)
    row = signed_involution_eulerian(1)
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


def test_is_unimodal():
    assert is_unimodal((1, 17, 40, 17, 1))
    assert not is_unimodal((1, 0, 1))
    assert is_unimodal((5,))
    assert is_unimodal(())
    assert is_unimodal((1, 1, 2, 2, 1))


def test_is_log_concave():
    assert first_log_concavity_failure((1, 2, 1)) is None
    assert first_log_concavity_failure((1, 1, 2)) is not None
    prefix = [r_closed(89, k) for k in range(4)]
    assert first_log_concavity_failure(prefix) is not None


def test_gamma_vector_examples():
    assert gamma_vector((1, 17, 40, 17, 1), 4).gammas == (1, 13, 8)
    row6 = signed_involution_eulerian_recurrence(6)
    assert gamma_vector(row6, 6).gammas == (1, 37, 168, 56)
    assert gamma_vector((1, 4, 6, 4, 1), 4).gammas == (1, 0, 0)
    assert gamma_vector((1, 2, 1), 2).gammas == (1, 0)


def test_gamma_vector_roundtrip():
    for n in range(0, 13):
        poly = signed_involution_eulerian_recurrence(n)
        gv = gamma_vector(poly, n)
        assert gv.reconstruct() == poly
        assert len(gv.gammas) == n // 2 + 1
    # a zero bottom gamma leaves the top coefficient zero, and no trailing zero is kept
    for poly, n in (((0, 1), 2), ((0, 0, 3), 4), ((), 4)):
        assert gamma_vector(poly, n).reconstruct() == poly


def test_gamma_vector_rejects_asymmetric():
    with pytest.raises(ValueError):
        gamma_vector((1, 2), 1)


def test_gamma_vector_allows_negative_entries():
    # symmetric but not gamma-positive
    gv = gamma_vector((1, 0, 1), 2)
    assert gv.gammas == (1, -2)
    assert not gv.is_nonnegative
    assert gv.reconstruct() == (1, 0, 1)


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
        assert row == signed_involution_eulerian(n), n


def test_recurrence_rows_abort_on_inexact_division(monkeypatch):
    import eulerinv.distributions as distributions

    # every quotient now comes with a remainder; the first step is n=3, k=0
    monkeypatch.setattr(distributions, "divmod", lambda a, b: (a // b, 1), raising=False)
    message = r"^recurrence row n=3, k=0: 3 is not divisible by 3$"
    with pytest.raises(distributions.InexactDivisionError, match=message):
        signed_involution_recurrence_rows(3)


def test_gamma_vector_matches_convolution_oracle():
    for n, row in enumerate(signed_involution_recurrence_rows(120)):
        gv = gamma_vector(row, n)
        assert gv.gammas == gamma_by_convolution(row, n), n
        assert gv.reconstruct() == row, n
    for n in range(1, 10):
        poly = involution_eulerian(n)
        gv = gamma_vector(poly, n - 1)
        assert gv.gammas == gamma_by_convolution(poly, n - 1), n
        assert gv.reconstruct() == poly, n


def test_gamma_reconstruct_rejects_too_many_entries():
    with pytest.raises(ValueError, match="doubled center"):
        GammaVector(3, (1, 2, 3)).reconstruct()
    assert GammaVector(4, (1, 2, 3)).reconstruct() == (1, 6, 13, 6, 1)
