from itertools import combinations, product
from math import comb

import pytest

from eulerinv.permutations import des_b, enumerate_group, signed_descent_set, unpack_descents
from eulerinv.checks import (
    verify_cauchy_spec,
    verify_signed_schur_spec,
    verify_signed_spec_closed_form,
)
from eulerinv.qsym import _count_chains, fundamental_spec, schur_spec
from eulerinv.tableaux import enumerate_syt, partitions, syb_signed_descent_set
from oracles import count_chains, count_ssyt, signed_descent_set_by_definition


@pytest.fixture(autouse=True)
def cold_memo():
    """Start every test with an empty chain-count memo, so that no test
    passes on what an earlier one cached."""
    _count_chains.cache_clear()


def _packed(strict, signs):
    """A descent set packed by hand: bit i for each strict position i, bit
    n + j where signs[j] is -1."""
    n = len(signs)
    return sum(1 << i for i in strict) + sum(1 << (n + j) for j, s in enumerate(signs) if s < 0)


def test_fundamental_spec_examples():
    assert fundamental_spec(0, 2, 2) == 3
    assert fundamental_spec(0b10, 2, 2) == 1  # Des = {1}
    assert fundamental_spec(0, 3, 1) == 1
    assert fundamental_spec(0, 0, 5) == 1
    assert fundamental_spec(0, 2, 0) == 0


@pytest.mark.parametrize(
    "n, strict, m",
    [
        (2, (), -1),
        (2, {5}, 3),
        (2, {0}, 3),
        (2, {4}, 3),
        (0, {1}, 2),
        (2, (), 2.0),
        (2, (), "2"),
        (2, (), True),
        (0, (), False),
    ],
)
def test_fundamental_spec_rejects_bad_input(n, strict, m):
    # m not a nonnegative int (a bool is none), or a mask setting the bits
    # in strict, one of them outside the layout of n entries: bit 0 or a
    # bit at or past 2n
    with pytest.raises(ValueError):
        fundamental_spec(sum(1 << i for i in strict), n, m)


def test_every_route_to_a_set_reaches_one_memo_entry():
    # Des = {1} with every sign +1: from a window, a tableau read as the
    # bitableau with no minus part and the walk of its shape
    walk = enumerate_syt((2, 1), True)
    routes = [
        signed_descent_set((2, 1, 3)),
        syb_signed_descent_set((((1, 3), (2,)), ())),
        *(mask for mask in walk if mask == 0b10),
    ]
    assert len(routes) == 3
    assert {fundamental_spec(mask, 3, 3) for mask in routes} == {4}
    assert _count_chains.cache_info().currsize == 1
    # mixed signs, a +,- step at 1: from a window and a bitableau
    routes = [signed_descent_set((1, -2)), syb_signed_descent_set((((1,),), ((2,),)))]
    assert routes == [0b1010, 0b1010]
    assert {fundamental_spec(mask, 2, 3) for mask in routes} == {3}
    assert _count_chains.cache_info().currsize == 2


def test_a_schur_specialization_fills_the_memo_that_fundamental_spec_reads():
    assert schur_spec((2, 1), 3) == 8
    walk = set(enumerate_syt((2, 1), True))
    assert walk == {1 << 1, 1 << 2}  # Des={1} and Des={2}, every sign +1
    assert {unpack_descents(mask, 3) for mask in walk} == {((1,), (1, 1, 1)), ((2,), (1, 1, 1))}
    assert _count_chains.cache_info()[:2] == (0, 2)  # hits, misses
    # the same sets through fundamental_spec, each one memo hit
    assert fundamental_spec(0b10, 3, 3) + fundamental_spec(0b100, 3, 3) == 8
    assert _count_chains.cache_info()[:2] == (2, 2)


def test_fundamental_spec_closed_form():
    # all-plus signs give the one-alphabet value C(n + m - 1 - |D|, n)
    for n in range(0, 7):
        plus = (1,) * n
        for size in range(max(n, 1)):
            for strict in combinations(range(1, n), size):
                for m in range(1, 9):
                    assert fundamental_spec(_packed(strict, plus), n, m) == comb(
                        n + m - 1 - len(strict), n
                    ), (n, strict, m)


def test_fundamental_spec_of_a_signed_window_examples():
    assert fundamental_spec(signed_descent_set((-1,)), 1, 3) == 2
    # identity: unconstrained multiset count
    for n in range(0, 5):
        identity = tuple(range(1, n + 1))
        for m in range(1, 5):
            assert fundamental_spec(signed_descent_set(identity), n, m) == comb(n + m - 1, n)
    # the one-descent, trailing-minus window: only the chain (1, 2) survives
    assert fundamental_spec(signed_descent_set((2, -1)), 2, 2) == 1


def test_count_chains_against_chain_enumeration():
    # every strict set and every +-1 sign vector; the chain enumeration
    # takes a floor per entry, 2 where the sign is -1 and 1 elsewhere
    sets = [
        (strict, signs, m)
        for n in range(0, 7)
        for m in range(0, 6)
        for size in range(max(n, 1))
        for strict in combinations(range(1, n), size)
        for signs in product((1, -1), repeat=n)
    ]
    cases = [(_packed(strict, signs), len(signs), m) for strict, signs, m in sets]
    expected = [
        count_chains(len(signs), strict, [1 if s > 0 else 2 for s in signs], m)
        for strict, signs, m in sets
    ]
    # once cold and once from the memo: both must match the enumeration
    for _ in ("cold", "warm"):
        for case, count in zip(cases, expected):
            assert _count_chains(*case) == count, case
    assert _count_chains.cache_info()[:2] == (len(cases), len(cases))  # hits, misses


def test_fundamental_spec_packs_as_unpack_descents_reads():
    # fundamental_spec accepts exactly the masks packed from a strict set
    # and a sign vector, passes each to the memo as its key, and
    # unpack_descents reads each back into its pair
    for n in range(0, 5):
        pairs = {
            _packed(strict, signs): (strict, signs)
            for size in range(max(n, 1))
            for strict in combinations(range(1, n), size)
            for signs in product((1, -1), repeat=n)
        }
        for mask in range(-1, 1 << (2 * n + 1)):
            if mask not in pairs:
                with pytest.raises(ValueError):
                    fundamental_spec(mask, n, 2)
                continue
            _count_chains.cache_clear()
            value = fundamental_spec(mask, n, 2)
            assert _count_chains.cache_info().currsize == 1
            assert _count_chains(mask, n, 2) == value
            assert _count_chains.cache_info()[:2] == (1, 1), mask
            assert unpack_descents(mask, n) == pairs[mask]


@pytest.mark.parametrize(
    "sdes, m, message",
    [
        ((0b1, 2), 2, "a packed descent set of 2 entries is an int below 2**4 with bit 0 clear, got 1"),
        ((0b10000, 2), 2, "a packed descent set of 2 entries is an int below 2**4 with bit 0 clear, got 16"),
        ((-2, 2), 2, "a packed descent set of 2 entries is an int below 2**4 with bit 0 clear, got -2"),
        ((0, 2), True, "m must be a nonnegative integer, got True"),
        ((True, 2), 2, "a packed descent set of 2 entries is an int below 2**4 with bit 0 clear, got True"),
        ((0, True), 2, "n must be a nonnegative integer, got True"),
    ],
)
def test_fundamental_spec_keeps_its_error_texts(sdes, m, message):
    # (mask, n): bit 0 set, a bit at 2n, a negative mask, a bool m, a bool
    # mask and a bool n
    with pytest.raises(ValueError) as raised:
        fundamental_spec(*sdes, m)
    assert str(raised.value) == message
    assert _count_chains.cache_info().currsize == 0


@pytest.mark.parametrize("sdes", [(1 << 5, 2), (0b1, 2), (-1, 2), (2.0, 2), (0b10, 0)])
def test_fundamental_spec_rejects_a_packed_set_outside_the_layout(sdes):
    # (mask, n): a mask outside the layout of n entries, each time it is asked
    for _ in range(2):
        with pytest.raises(ValueError):
            fundamental_spec(*sdes, 2)
    assert _count_chains.cache_info().currsize == 0


def test_fundamental_spec_against_chain_enumeration():
    for n in range(0, 4):
        for w in enumerate_group(n, signed=True):
            positions, signs = signed_descent_set_by_definition(w)
            minimums = tuple(2 if s == -1 else 1 for s in signs)
            for m in range(1, 5):
                assert fundamental_spec(signed_descent_set(w), n, m) == count_chains(
                    n, positions, minimums, m
                ), (w, m)


def test_fundamental_spec_closed_form_exhaustive():
    for n in range(0, 5):
        for w in enumerate_group(n, signed=True):
            mask = signed_descent_set(w)
            for m in range(1, 7):
                assert fundamental_spec(mask, n, m) == comb(n + m - 1 - des_b(w), n)


def test_schur_spec_examples():
    assert schur_spec((1, 1), 2) == 1
    assert schur_spec((5,), 1) == 1
    assert schur_spec((2, 1), 2) == 2
    assert schur_spec((), 0) == 1
    assert schur_spec((2,), 0) == 0


def test_schur_spec_matches_ssyt_oracle():
    for n in range(0, 6):
        for shape in partitions(n):
            for m in range(0, 5):
                assert schur_spec(shape, m) == count_ssyt(shape, m), (shape, m)


def test_schur_spec_matches_the_per_tableau_sum():
    for n in range(0, 9):
        for shape in partitions(n):
            masks = [syb_signed_descent_set((q, ())) for q in enumerate_syt(shape)]
            for m in range(0, 6):
                per_tableau = sum(fundamental_spec(mask, n, m) for mask in masks)
                assert schur_spec(shape, m) == per_tableau, (shape, m)


def test_specializations_weakly_increase_in_m():
    for n in range(0, 5):
        for shape in partitions(n):
            values = [schur_spec(shape, m) for m in range(6)]
            assert all(a <= b for a, b in zip(values, values[1:]))
    for w in enumerate_group(3, signed=True):
        mask = signed_descent_set(w)
        values = [fundamental_spec(mask, 3, m) for m in range(1, 7)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_verify_cauchy_spec():
    report = verify_cauchy_spec(6, 4)
    assert report.ok
    by_params = {record.params: record for record in report}
    assert by_params[(("n", 1), ("m", 2))].lhs == "2"
    assert by_params[(("n", 2), ("m", 2))].lhs == "4"
    assert by_params[(("n", 0), ("m", 3))].lhs == "1"


def test_verify_signed_schur_spec():
    report = verify_signed_schur_spec(4, 4)
    assert report.ok
    by_params = {record.params: record for record in report}
    assert by_params[(("n", 1), ("plus", "1"), ("minus", "0"), ("m", 2))].lhs == "2"
    assert by_params[(("n", 1), ("plus", "0"), ("minus", "1"), ("m", 2))].lhs == "1"
    assert by_params[(("n", 2), ("plus", "1"), ("minus", "1"), ("m", 2))].lhs == "2"


def test_specialization_sweeps_fail_when_one_side_is_wrong(monkeypatch):
    from eulerinv import checks

    def zeros(a, b, order):
        return (0,) * (order + 1)

    monkeypatch.setattr(checks, "expand_negative_binomial_product", zeros)
    failure = verify_cauchy_spec(1, 1).failures[0]
    assert (failure.params, failure.lhs, failure.rhs) == ((("n", 0), ("m", 0)), "1", "0")
    monkeypatch.setattr(checks, "schur_spec", lambda shape, m: 0)
    failure = verify_signed_schur_spec(0, 1).failures[0]
    assert (failure.lhs, failure.rhs) == ("1", "0")


def test_sweeps_count_chains_only_on_sets_fundamental_spec_takes(monkeypatch):
    # lemma31 and signed-schur skip fundamental_spec's layout check, so every
    # set their walks hand the chain count must be one that check accepts
    from eulerinv import checks

    seen = set()

    def recording(mask, n, m):
        seen.add((mask, n, m))
        return _count_chains(mask, n, m)

    monkeypatch.setattr(checks, "_count_chains", recording)
    assert verify_signed_spec_closed_form(3, 3).ok and verify_signed_schur_spec(3, 3).ok
    assert {n for _, n, _ in seen} == {0, 1, 2, 3}
    for mask, n, m in seen:
        assert fundamental_spec(mask, n, m) == _count_chains(mask, n, m), (mask, n, m)


def test_verify_signed_spec_closed_form():
    assert verify_signed_spec_closed_form(3, 5).ok


def test_signed_spec_closed_form_failure_names_the_first_element(monkeypatch):
    from eulerinv import checks

    # C(3, 2) is the closed form at n = 2 wherever m - 1 - des_B = 1
    monkeypatch.setattr(checks, "comb", lambda a, b: comb(a, b) + ((a, b) == (3, 2)))
    report = verify_signed_spec_closed_form(2, 4)
    assert [r.status for r in report] == ["pass"] * 9 + ["fail"] * 3
    assert [(r.check, r.params, r.lhs, r.rhs) for r in report.failures] == [
        ("signed-spec-closed-form", (("n", 2), ("m", 2), ("w", "1 2")), "3", "4"),
        ("signed-spec-closed-form", (("n", 2), ("m", 3), ("w", "1 -2")), "3", "4"),
        ("signed-spec-closed-form", (("n", 2), ("m", 4), ("w", "-2 -1")), "3", "4"),
    ]
    passing = report[0]
    assert (passing.params, passing.lhs, passing.rhs) == ((("n", 0), ("m", 1)), "chain-count", "binomial")
    # a failure is an unequal pair of numbers; a pass names the two routes it agreed on
    assert report.failures[0].plain() == "signed-spec-closed-form n=2 m=2 w=1 2: fail (3 != 4)"
    assert passing.plain() == "signed-spec-closed-form n=0 m=1: pass (chain-count | binomial)"
