import threading
from collections import Counter
from itertools import islice

import pytest

from eulerinv.permutations import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    des_b,
    des_coxeter,
    descent_set,
    enumerate_group,
    enumerate_involutions,
    enumerate_signed_involutions,
    enumeration_budget,
    involution_count,
    signed_descent_set,
    signed_involution_count,
)
from eulerinv.tableaux import (
    enumerate_all_syb,
    enumerate_all_syt,
    syb_signed_descent_set,
    syt_descent_set,
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


def test_descent_set():
    assert descent_set((1, 2, 3, 4)) == ()
    assert descent_set((5, 4, 3, 2, 1)) == (1, 2, 3, 4)
    assert descent_set((2, 1, 3)) == (1,)
    assert descent_set(()) == ()


def test_signed_descent_set_examples():
    assert signed_descent_set((1, 2)) == ((), (1, 1))
    assert signed_descent_set((-1, 2)) == ((), (-1, 1))
    assert signed_descent_set((2, -1)) == ((1,), (1, -1))


def test_signed_descent_set_matches_the_definition():
    for n in range(0, 6):
        for w in enumerate_group(n, signed=True):
            assert signed_descent_set(w) == signed_descent_set_by_definition(w), w


def _assert_well_formed(sdes, n, source):
    positions, signs = sdes
    assert list(positions) == sorted(set(positions)), source
    assert all(1 <= i <= n - 1 for i in positions), source
    assert len(signs) == n and all(s in (1, -1) for s in signs), source
    # a -,+ sign rise can never be a descent position
    assert not any(signs[i - 1] == -1 and signs[i] == 1 for i in positions), source


def test_descent_set_producers_build_well_formed_sets():
    for n in range(0, 7):
        for w in enumerate_signed_involutions(n):
            _assert_well_formed(signed_descent_set(w), n, w)
        for q in enumerate_all_syb(n):
            _assert_well_formed(syb_signed_descent_set(q), n, q)
        # an unsigned set meets the same conditions with every sign plus
        for w in enumerate_involutions(n):
            _assert_well_formed((descent_set(w), (1,) * n), n, w)
        for q in enumerate_all_syt(n):
            _assert_well_formed((syt_descent_set(q), (1,) * n), n, q)
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
            assert des_coxeter(w) == len(descent_set(w)), w


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


def test_interleaved_involution_walks_do_not_share_state():
    starts = [
        lambda: enumerate_signed_involutions(5),
        lambda: enumerate_involutions(6),
        lambda: enumerate_signed_involutions(4),
        lambda: enumerate_signed_involutions(4),
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
        signed_involution_count(5),
        involution_count(6),
        signed_involution_count(4),
        signed_involution_count(4),
    ]
    assert seen == [list(start()) for start in starts]


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


def test_enumerate_signed_involutions_lexicographic():
    for n in range(0, 9):
        assert _strictly_increasing(list(enumerate_signed_involutions(n))), n


def test_involutions_are_the_all_positive_signed_involutions_in_order():
    for n in range(0, 9):
        positive = [w for w in enumerate_signed_involutions(n) if min(w, default=1) > 0]
        assert list(enumerate_involutions(n)) == positive, n


@pytest.mark.parametrize(
    "enumerate_",
    [enumerate_involutions, enumerate_signed_involutions, enumerate_all_syt, enumerate_all_syb],
)
def test_involution_enumerators_raise_at_the_first_next_only(enumerate_):
    walk = enumerate_(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        next(walk)
    with enumeration_budget(3):
        walk = enumerate_(4)
        with pytest.raises(BudgetExceededError, match="n=4"):
            next(walk)


def test_involution_counts_reject_negative_n_and_match_the_oracles():
    for count in (involution_count, signed_involution_count):
        with pytest.raises(ValueError, match="nonnegative"):
            count(-1)
    for n in range(0, 31):
        assert involution_count(n) == telephone_number(n), n
        assert signed_involution_count(n) == signed_telephone_number(n), n


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
    assert [signed_involution_count(n) for n in range(7)] == [1, 2, 6, 20, 76, 312, 1384]
    assert signed_involution_count(9) == 168_992
