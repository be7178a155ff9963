import re
import threading
from collections import Counter
from functools import partial
from itertools import islice

import pytest

from eulerinv.permutations import (
    DEFAULT_BUDGET,
    DES_B,
    DES_COXETER,
    BudgetExceededError,
    des_b,
    des_coxeter,
    enumerate_group,
    enumerate_involutions,
    enumerate_signed_involutions,
    enumeration_budget,
    involution_count,
    signed_descent_set,
    unpack_descents,
)
from eulerinv.tableaux import (
    _bitableau_of_word,
    enumerate_all_syb,
    enumerate_all_syt,
    syb_signed_descent_set,
)
from oracles import (
    colored_descent_count,
    involutions_by_recursive_walk,
    inverse,
    is_involution,
    signed_descent_set_by_definition,
    signed_group_by_sign_vectors,
    signed_telephone_number,
    telephone_number,
)


def test_signed_descent_set_of_a_permutation_sets_no_sign_bit():
    # a permutation is an all-positive signed window: its descent set is the
    # positions, bit i for a descent at i, and no sign bit is set
    assert signed_descent_set((1, 2, 3, 4)) == 0
    assert signed_descent_set((5, 4, 3, 2, 1)) == 0b11110
    assert signed_descent_set((2, 1, 3)) == 0b10
    assert signed_descent_set(()) == 0


def test_signed_descent_set_examples():
    # bit n + e - 1 marks the minus sign of entry e
    assert signed_descent_set((1, 2)) == 0
    assert signed_descent_set((-1, 2)) == 0b0100
    assert signed_descent_set((2, -1)) == 0b1010
    assert unpack_descents(signed_descent_set((2, -1)), 2) == ((1,), (1, -1))


def test_unpack_descents_reads_the_documented_layout():
    # bit i marks the descent at i, bit n + e - 1 the minus sign of entry e
    assert unpack_descents(0, 0) == ((), ())
    assert unpack_descents(0, 3) == ((), (1, 1, 1))
    assert unpack_descents(0b000110, 3) == ((1, 2), (1, 1, 1))
    assert unpack_descents(0b101010, 3) == ((1,), (-1, 1, -1))
    assert unpack_descents(0b1010, 2) == signed_descent_set_by_definition((2, -1))
    assert unpack_descents(0b0100, 2) == signed_descent_set_by_definition((-1, 2))


@pytest.mark.parametrize(
    "mask, n, message",
    [
        (0b1, 2, "a packed descent set of 2 entries is an int below 2**4 with bit 0 clear, got 1"),
        (0b10000, 2, "a packed descent set of 2 entries is an int below 2**4 with bit 0 clear, got 16"),
        (0b10, 0, "a packed descent set of 0 entries is an int below 2**0 with bit 0 clear, got 2"),
        (-2, 2, "a packed descent set of 2 entries is an int below 2**4 with bit 0 clear, got -2"),
        (True, 2, "a packed descent set of 2 entries is an int below 2**4 with bit 0 clear, got True"),
        (0, -1, "n must be a nonnegative integer, got -1"),
        (0, 2.0, "n must be a nonnegative integer, got 2.0"),
        (0, True, "n must be a nonnegative integer, got True"),
    ],
)
def test_unpack_descents_keeps_its_error_texts(mask, n, message):
    # bit 0 set, a bit at or past 2n, a negative mask, a bool mask, and an n
    # that is no count
    with pytest.raises(ValueError) as raised:
        unpack_descents(mask, n)
    assert str(raised.value) == message


def test_signed_descent_set_matches_the_definition():
    for n in range(0, 6):
        for w in enumerate_group(n, signed=True):
            sdes = unpack_descents(signed_descent_set(w), n)
            assert sdes == signed_descent_set_by_definition(w), w


def _assert_well_formed(mask, n, source):
    # unpack_descents raises on a set outside the layout of n entries
    positions, signs = unpack_descents(mask, n)
    # a -,+ sign rise can never be a descent position
    assert not any(signs[i - 1] == -1 and signs[i] == 1 for i in positions), source


def test_descent_set_producers_build_well_formed_sets():
    for n in range(0, 7):
        for w in enumerate_signed_involutions(n):
            _assert_well_formed(signed_descent_set(w), n, w)
        for q in map(_bitableau_of_word, enumerate_all_syb(n)):
            _assert_well_formed(syb_signed_descent_set(q), n, q)
        # permutations and standard tableaux give the same sets, no sign bit set
        for w in enumerate_involutions(n):
            _assert_well_formed(signed_descent_set(w), n, w)
            assert signed_descent_set(w) >> n == 0, w
        for q, _ in map(_bitableau_of_word, enumerate_all_syt(n)):
            _assert_well_formed(syb_signed_descent_set((q, ())), n, q)
            assert syb_signed_descent_set((q, ())) >> n == 0, q
    for n in range(0, 5):
        for w in enumerate_group(n, signed=True):
            _assert_well_formed(signed_descent_set(w), n, w)


def test_des_b_examples():
    assert des_b(tuple(range(1, 8))) == 0
    assert des_b((-1, 2)) == 1
    assert des_b(()) == 0


def test_des_b_row_n4():
    histogram = Counter(des_b(w) for w in enumerate_signed_involutions(4))
    assert tuple(histogram[k] for k in range(5)) == (1, 17, 40, 17, 1)


def test_des_b_matches_colored_order_count():
    for n in range(0, 7):
        for w in enumerate_group(n, signed=True):
            assert des_b(w) == colored_descent_count(w), w
    for n in range(7, 9):
        for w in enumerate_signed_involutions(n):
            assert des_b(w) == colored_descent_count(w), w


def test_des_coxeter_is_type_a_descent_number_on_unsigned_windows():
    for n in range(0, 8):
        for w in enumerate_group(n, signed=False):
            mask = signed_descent_set(w)
            assert mask >> n == 0 and des_coxeter(w) == mask.bit_count(), w


def test_signed_group_matches_sign_vector_construction():
    for n in range(0, 6):
        assert list(enumerate_group(n, signed=True)) == list(signed_group_by_sign_vectors(n)), n


def test_involution_enumerators_match_filtered_group():
    for n in range(0, 7):
        for signed, enumerate_ in (
            (False, enumerate_involutions),
            (True, enumerate_signed_involutions),
        ):
            expected = sorted(w for w in enumerate_group(n, signed) if is_involution(w))
            assert list(enumerate_(n)) == expected, (n, signed)


@pytest.mark.parametrize("n", range(0, 10))
def test_involution_enumerators_match_the_recursive_walk(n):
    assert list(enumerate_involutions(n)) == involutions_by_recursive_walk(n, signed=False)
    assert list(enumerate_signed_involutions(n)) == involutions_by_recursive_walk(n, signed=True)


@pytest.mark.parametrize(("signed", "n_max"), [(True, 9), (False, 12)])
def test_walk_counts_match_the_per_window_statistics_in_walk_order(signed, n_max):
    # desB and desCoxeter give equal rows for every n <= 9, so only a check
    # window by window tells a count in the wrong order from a right one;
    # S_12 reads tails of six open slots, as poly --kind invA --n 12 does
    enumerate_ = enumerate_signed_involutions if signed else enumerate_involutions
    for n in range(n_max + 1):
        walks = zip(enumerate_(n), enumerate_(n, DES_B), enumerate_(n, DES_COXETER), strict=True)
        for w, colored, coxeter in walks:
            assert colored == (des_b(w) if signed else des_coxeter(w)) == colored_descent_count(w), w
            assert coxeter == des_coxeter(w), w


def test_interleaved_involution_walks_do_not_share_state():
    starts = [
        lambda: enumerate_signed_involutions(5),
        lambda: enumerate_involutions(6),
        lambda: enumerate_signed_involutions(4),
        lambda: enumerate_signed_involutions(4),
        lambda: enumerate_signed_involutions(5, DES_B),
        lambda: enumerate_involutions(6, DES_COXETER),
        lambda: enumerate_signed_involutions(4, DES_COXETER),
        # tails of 3-4 open slots recur under different heads at these sizes
        lambda: enumerate_signed_involutions(7, DES_B),
        lambda: enumerate_involutions(9, DES_COXETER),
        # one n and the same open slots, but each statistic orders the
        # entries its own way, so equal keys can hold different tails
        lambda: enumerate_signed_involutions(8, DES_B),
        lambda: enumerate_signed_involutions(8, DES_COXETER),
    ]
    walks = [start() for start in starts]
    seen: list[list] = [[] for _ in walks]
    # the second copy of B_4 runs three windows ahead of the first
    seen[3].extend(islice(walks[3], 3))
    live = set(range(len(walks)))
    while live:  # one window from each unfinished walk per round
        for k in sorted(live):
            w = next(walks[k], None)
            if w is None:
                live.discard(k)
            else:
                seen[k].append(w)
    assert [len(windows) for windows in seen] == [
        involution_count(5, signed=True),
        involution_count(6),
        involution_count(4, signed=True),
        involution_count(4, signed=True),
        involution_count(5, signed=True),
        involution_count(6),
        involution_count(4, signed=True),
        involution_count(7, signed=True),
        involution_count(9),
        involution_count(8, signed=True),
        involution_count(8, signed=True),
    ]
    assert seen == [list(start()) for start in starts]
    # a rerun would read a memo shared by the two B_8 walks the same way, so
    # they are also held to the statistic of each window, which reads none
    windows = list(enumerate_signed_involutions(8))
    assert seen[-2:] == [list(map(des_b, windows)), list(map(des_coxeter, windows))]


def test_des_coxeter_examples():
    assert des_coxeter((1, 2, 3)) == 0
    assert des_coxeter((-1,)) == 1
    assert des_coxeter((2, 1)) == 1


def test_descent_statistics_bounded():
    for n in range(0, 6):
        for w in enumerate_group(n, signed=True):
            assert 0 <= des_b(w) <= n
            assert 0 <= des_coxeter(w) <= n


def test_group_eulerian_polynomial_same_for_both_statistics():
    for n in range(1, 7):
        by_colored = Counter(des_b(w) for w in enumerate_group(n, signed=True))
        by_coxeter = Counter(des_coxeter(w) for w in enumerate_group(n, signed=True))
        assert by_colored == by_coxeter, n


def test_is_involution():
    assert is_involution((1, 2, 3))
    assert is_involution((2, 1))
    assert not is_involution((-2, 1))
    assert is_involution((-2, -1))
    assert not is_involution((2, 3, 1))
    assert is_involution(())


def test_enumerate_involutions_counts():
    assert len(list(enumerate_involutions(0))) == 1
    assert len(list(enumerate_involutions(3))) == 4
    assert len(list(enumerate_involutions(6))) == 76
    for n in range(0, 9):
        windows = list(enumerate_involutions(n))
        assert len(windows) == len(set(windows)) == telephone_number(n)
        assert all(is_involution(w) for w in windows)
        for statistic in (DES_B, DES_COXETER):
            assert sum(1 for _ in enumerate_involutions(n, statistic)) == telephone_number(n), (n, statistic)


def _strictly_increasing(windows):
    return all(a < b for a, b in zip(windows, windows[1:]))


def test_enumerate_involutions_lexicographic():
    for n in range(0, 9):
        assert _strictly_increasing(list(enumerate_involutions(n))), n
    assert next(enumerate_involutions(4)) == (1, 2, 3, 4)


def test_enumerate_signed_involutions_counts():
    assert list(enumerate_signed_involutions(1)) == [(-1,), (1,)]
    assert len(list(enumerate_signed_involutions(2))) == 6
    assert len(list(enumerate_signed_involutions(4))) == 76
    for n in range(0, 10):
        seen = set()
        count = 0
        for w in enumerate_signed_involutions(n):
            count += 1
            seen.add(w)
            assert is_involution(w)
        assert count == len(seen) == signed_telephone_number(n), n
        for statistic in (DES_B, DES_COXETER):
            assert sum(1 for _ in enumerate_signed_involutions(n, statistic)) == count, (n, statistic)


def test_enumerate_signed_involutions_lexicographic():
    for n in range(0, 9):
        assert _strictly_increasing(list(enumerate_signed_involutions(n))), n


def test_involutions_are_the_all_positive_signed_involutions_in_order():
    for n in range(0, 9):
        positive = [w for w in enumerate_signed_involutions(n) if min(w, default=1) > 0]
        assert list(enumerate_involutions(n)) == positive, n


@pytest.mark.parametrize(
    "enumerate_",
    [
        enumerate_involutions,
        enumerate_signed_involutions,
        enumerate_all_syt,
        enumerate_all_syb,
        pytest.param(partial(enumerate_involutions, statistic=DES_B), id="enumerate_involutions-desB"),
        pytest.param(
            partial(enumerate_signed_involutions, statistic=DES_B), id="enumerate_signed_involutions-desB"
        ),
        pytest.param(
            partial(enumerate_signed_involutions, statistic=DES_COXETER),
            id="enumerate_signed_involutions-desCoxeter",
        ),
    ],
)
def test_involution_enumerators_raise_at_the_first_next_only(enumerate_):
    walk = enumerate_(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        next(walk)
    with enumeration_budget(3):
        walk = enumerate_(4)
        with pytest.raises(BudgetExceededError, match="n=4"):
            next(walk)


@pytest.mark.parametrize("enumerate_", [enumerate_involutions, enumerate_signed_involutions])
def test_an_unknown_statistic_raises_at_the_first_next_only(enumerate_):
    walk = enumerate_(3, "major")
    with pytest.raises(ValueError, match="unknown statistic 'major'"):
        next(walk)


def test_enumerate_group_raises_on_negative_n_at_the_first_next():
    for signed in (False, True):
        walk = enumerate_group(-1, signed)
        with pytest.raises(ValueError, match="nonnegative"):
            next(walk)


def test_involution_counts_reject_negative_n_and_match_the_oracles():
    for signed in (False, True):
        with pytest.raises(ValueError, match="nonnegative"):
            involution_count(-1, signed=signed)
    for n in range(0, 31):
        assert involution_count(n) == telephone_number(n), n
        assert involution_count(n, signed=True) == signed_telephone_number(n), n


@pytest.mark.parametrize("n", [True, 2.0])
def test_counts_and_walks_reject_an_n_that_is_no_int(n):
    # a bool is no count, though True == 1: the walk of n = 1 must not run
    message = re.escape(f"n must be a nonnegative integer, got {n!r}")
    for signed in (False, True):
        with pytest.raises(ValueError, match=message):
            involution_count(n, signed=signed)
        with pytest.raises(ValueError, match=message):
            list(enumerate_group(n, signed))
    for walk in (enumerate_involutions, enumerate_signed_involutions):
        with pytest.raises(ValueError, match=message):
            list(walk(n))


def test_involutions_equal_their_inverses():
    for n in range(0, 6):
        for w in enumerate_signed_involutions(n):
            assert inverse(w) == w
            assert signed_descent_set(inverse(w)) == signed_descent_set(w)


def test_enumerate_group_counts():
    assert len(list(enumerate_group(3, signed=False))) == 6
    assert len(list(enumerate_group(2, signed=True))) == 8
    assert len(list(enumerate_group(1, signed=True))) == 2
    assert len(set(enumerate_group(3, signed=True))) == 48


def test_budget_exceeded_names_n():
    with enumeration_budget(1000):
        with pytest.raises(BudgetExceededError, match="n=12"):
            list(enumerate_group(12, signed=True))
        with pytest.raises(BudgetExceededError, match="n=9"):
            list(enumerate_signed_involutions(9))
    # generous budget passes
    with enumeration_budget(10):
        assert len(list(enumerate_group(3, signed=False))) == 6


def _cap_in_force() -> int:
    """The cap an enumeration started here meets, read from the error of a
    walk far over any cap."""
    with pytest.raises(BudgetExceededError) as excinfo:
        next(enumerate_group(30, signed=True))
    return int(str(excinfo.value).rsplit(" ", 1)[1])


def test_enumeration_budget_restores_the_cap_on_exit():
    assert _cap_in_force() == DEFAULT_BUDGET
    with enumeration_budget(10):
        assert _cap_in_force() == 10
    assert _cap_in_force() == DEFAULT_BUDGET
    with pytest.raises(BudgetExceededError, match="n=4 needs 24 objects, over the budget of 10"):
        with enumeration_budget(10):
            list(enumerate_group(4, signed=False))
    assert _cap_in_force() == DEFAULT_BUDGET


def test_nested_enumeration_budget_restores_the_outer_cap():
    with enumeration_budget(10):
        with enumeration_budget(100):
            assert _cap_in_force() == 100
            assert len(list(enumerate_group(4, signed=False))) == 24
        assert _cap_in_force() == 10
        with pytest.raises(BudgetExceededError, match="over the budget of 5"):
            with enumeration_budget(5):
                list(enumerate_group(3, signed=False))
        assert _cap_in_force() == 10
    assert _cap_in_force() == DEFAULT_BUDGET


@pytest.mark.parametrize("cap", ["5", 0, -5, 2.5, True, False, None])
def test_enumeration_budget_rejects_a_cap_that_is_no_positive_int(cap):
    with pytest.raises(ValueError, match="enumeration budget must be an integer of at least 1"):
        with enumeration_budget(cap):
            pytest.fail("the block ran under a bad cap")
    assert _cap_in_force() == DEFAULT_BUDGET


def test_a_new_thread_starts_at_the_default_cap():
    seen = []
    with enumeration_budget(10):
        worker = threading.Thread(target=lambda: seen.append(_cap_in_force()))
        worker.start()
        worker.join()
        assert _cap_in_force() == 10
    assert seen == [DEFAULT_BUDGET]


def test_counting_recurrences():
    assert [involution_count(n) for n in range(8)] == [1, 1, 2, 4, 10, 26, 76, 232]
    assert [involution_count(n, signed=True) for n in range(7)] == [1, 2, 6, 20, 76, 312, 1384]
    assert involution_count(9, signed=True) == 168_992
