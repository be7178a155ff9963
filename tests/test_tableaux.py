from collections import Counter
from functools import partial
from itertools import accumulate, permutations, zip_longest
from operator import lt

import pytest

from eulerinv import checks, tableaux
from eulerinv.permutations import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    enumerate_involutions,
    enumerate_signed_involutions,
    enumeration_budget,
    signed_descent_set,
    unpack_descents,
)
from eulerinv.qsym import schur_spec
from eulerinv.tableaux import (
    bipartitions,
    enumerate_all_syb,
    enumerate_all_syt,
    enumerate_syb,
    enumerate_syt,
    partitions,
    syb_signed_descent_set,
    syb_transpose,
    validate_shape,
)
from oracles import (
    bitableau_descent_set_by_definition,
    bitableaux_by_pairing,
    bitableaux_by_placing,
    is_standard_bitableau,
    is_standard_tableau,
    signed_telephone_number,
    standard_fillings_by_filtering,
    standard_fillings_by_placing,
    sub_diagram_count,
    tableau_shape,
    telephone_number,
    transpose_by_columns,
)


def test_partitions():
    assert list(partitions(0)) == [()]
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(list(partitions(8))) == 22


def test_bipartitions():
    pairs = list(bipartitions(2))
    assert ((), (2,)) in pairs and ((1,), (1,)) in pairs
    assert len(pairs) == 1 * 2 + 1 * 1 + 2 * 1  # p(0)p(2) + p(1)p(1) + p(2)p(0)


@pytest.mark.parametrize("n", [-1, True, 2.5])
def test_partitions_reject_an_n_that_is_no_nonnegative_int(n):
    # -1 once yielded nothing and True the partitions of 1
    for walk in (partitions, bipartitions):
        with pytest.raises(ValueError, match="n must be a nonnegative integer"):
            next(walk(n))


def test_validate_shape():
    validate_shape((3, 1))
    with pytest.raises(ValueError):
        validate_shape((1, 3))
    with pytest.raises(ValueError):
        validate_shape((2, 0))
    # a float once died in range(), a str in <=, and True was walked as 1
    for shape in [(2.0,), (True,), ("2",), (2, 1.0)]:
        with pytest.raises(ValueError, match="partition parts must be positive integers"):
            validate_shape(shape)
        for descents in (False, True):
            with pytest.raises(ValueError, match="partition parts must be positive integers"):
                next(enumerate_syt(shape, descents))
        with pytest.raises(ValueError, match="partition parts must be positive integers"):
            schur_spec(shape, 3)
    # an int once died in iter(), and a str was read part by part
    for shape in [5, "21", None]:
        with pytest.raises(ValueError, match="a partition is a tuple or a list of parts"):
            validate_shape(shape)
        for descents in (False, True):
            with pytest.raises(ValueError, match="a partition is a tuple or a list of parts"):
                next(enumerate_syt(shape, descents))
        with pytest.raises(ValueError, match="a partition is a tuple or a list of parts"):
            schur_spec(shape, 3)


def test_enumerate_syt_counts():
    assert len(list(enumerate_syt((6,)))) == 1
    assert len(list(enumerate_syt((1, 1, 1)))) == 1
    assert list(enumerate_syt((2, 1))) == [((1, 2), (3,)), ((1, 3), (2,))]


def test_enumerate_syt_against_filtering_oracle():
    for n in range(0, 6):
        for shape in partitions(n):
            got = sorted(enumerate_syt(shape))
            assert got == sorted(standard_fillings_by_filtering(shape)), shape
            assert all(is_standard_tableau(q) and tableau_shape(q) == shape for q in got)


def _row_word(bitableau):
    """The row word of a filling of n entries as every walk numbers the
    rows: the row of entry e at index e, the rows of minus from n on, and
    n - 1 at index 0."""
    plus, minus = bitableau
    n = sum(map(len, plus)) + sum(map(len, minus))
    word = [n - 1] * (n + 1)
    for r, row in [*enumerate(plus), *enumerate(minus, n)]:
        for entry in row:
            word[entry] = r
    return tuple(word)


def _lattice_bitableaux(n):
    """The bitableaux of size n in the lattice walk's order, each built from
    the row word enumerate_all_syb yields by the library's one builder."""
    return map(tableaux._bitableau_of_word, enumerate_all_syb(n))


def _lattice_tableaux(n):
    """The tableaux of size n in the lattice walk's order: the plus part of
    the filling each row word of enumerate_all_syt builds."""
    return (tableaux._bitableau_of_word(word)[0] for word in enumerate_all_syt(n))


def _assert_the_walks_follow(expected, n, got_objects, got_words, got_masks, word_of=_row_word):
    # the three modes of one walk, each an iterator, against the pairs
    # (object, its descent set by definition) in the reference walk's order
    missing = None, None
    for got, (q, _) in zip_longest(got_objects, expected, fillvalue=missing):
        assert got == q
    for got, (q, _) in zip_longest(got_words, expected, fillvalue=missing):
        assert q is not None and got == word_of(q)
    for got, (_, des) in zip_longest(got_masks, expected, fillvalue=missing):
        assert got is not None and unpack_descents(got, n) == des


def test_the_split_walks_yield_the_sequences_of_the_reference_walks():
    # the walk places entries 1..2n // 3 and reads the rest of each filling
    # from a table, yet every mode must yield the reference walks' sequence:
    # every shape of n <= 8 and the lattices of n <= 9.  n = 0, 1 and 2
    # place 0, 0 and 1 entries before the table.  A tableau q is read as
    # (q, ()), and a per-shape walk's words come from _fillings: they are
    # the lattice words, the rows of minus numbered from n, that _word_of
    # gives for its objects, as _row_word does for the lattice walks
    def with_descents(objects):
        return [(q, bitableau_descent_set_by_definition(q)) for q in objects]

    for n in range(10):
        signed, unsigned = [], []
        for plus, minus in bipartitions(n):
            expected = with_descents(bitableaux_by_placing(plus, minus))
            signed += expected
            if n <= 8:
                _assert_the_walks_follow(
                    expected,
                    n,
                    enumerate_syb((plus, minus)),
                    tableaux._fillings((*plus, *(0,) * (n - len(plus)), *minus), n),
                    enumerate_syb((plus, minus), True),
                    tableaux._word_of,
                )
        for shape in partitions(n):
            expected = with_descents((q, ()) for q in standard_fillings_by_placing(shape))
            unsigned += expected
            if n <= 8:
                _assert_the_walks_follow(
                    expected,
                    n,
                    ((q, ()) for q in enumerate_syt(shape)),
                    tableaux._fillings(shape, n),
                    enumerate_syt(shape, True),
                    tableaux._word_of,
                )
        # a lattice walk yields the objects of every shape of size n in the
        # order of their row words
        in_word_order = partial(sorted, key=lambda pair: _row_word(pair[0]))
        _assert_the_walks_follow(
            in_word_order(signed),
            n,
            _lattice_bitableaux(n),
            enumerate_all_syb(n),
            enumerate_all_syb(n, True),
        )
        _assert_the_walks_follow(
            in_word_order(unsigned),
            n,
            ((q, ()) for q in _lattice_tableaux(n)),
            enumerate_all_syt(n),
            enumerate_all_syt(n, True),
        )


def test_each_table_has_one_state_per_sub_diagram():
    for n in range(9):
        for shape in partitions(n):
            assert len(tableaux._moves(shape, n)) == sub_diagram_count(shape), shape
    # the rows capped at 0 between plus and minus add no state
    for n in range(7):
        for plus, minus in bipartitions(n):
            table = tableaux._moves((*plus, *(0,) * (n - len(plus)), *minus), n)
            assert len(table) == sub_diagram_count(plus) * sub_diagram_count(minus), (plus, minus)
    # the lattice tables of the all-shapes walks: one state per partition, or
    # per bipartition, of each size up to n, and no move from one of size n
    for n in range(8):
        for caps, shapes in (((n,) * n, partitions), ((n,) * (2 * n), bipartitions)):
            table = tableaux._moves(caps, n)
            assert len(table) == sum(1 for k in range(n + 1) for _ in shapes(k)), (n, shapes)
            assert sum(not moves for moves in table) == sum(1 for _ in shapes(n)), (n, shapes)


def test_each_table_is_built_once_per_shape():
    # a Schur sweep walks each shape once per m; the halves of a shape's walk
    # and its count f^shape are built at its first walk and kept, so verify
    # cauchy builds one of each per partition of 1..10; the shape of 0 needs
    # no halves, but its count is held to the budget too
    tables = tableaux._halves, tableaux._syt_count
    for table in tables:
        table.cache_clear()
    try:
        assert checks.verify_cauchy_spec(10, 6).ok
        halves, counts = (table.cache_info() for table in tables)
    finally:
        for table in tables:
            table.cache_clear()
    shapes = sum(1 for n in range(1, 11) for _ in partitions(n))
    assert shapes == 138
    assert halves.misses == halves.currsize == shapes
    assert halves.hits == 5 * shapes  # m = 2..6
    assert counts.misses == counts.currsize == shapes + 1
    assert counts.hits == 5 * (shapes + 1)


def test_interleaved_walks_of_one_shape_yield_what_walks_in_turn_yield():
    # walks of one shape run side by side must keep no state but their own
    for n in range(8):
        for shape in partitions(n):
            walks = (shape, False), (shape, False), (shape, True)
            interleaved = list(zip(*(enumerate_syt(*walk) for walk in walks)))
            in_turn = [list(enumerate_syt(*walk)) for walk in walks]
            assert interleaved == list(zip(*in_turn)), shape
            assert len(interleaved) == len(in_turn[0]) == len(in_turn[2])


def test_enumerate_syb_against_pairing_oracle():
    for n in range(0, 7):
        for plus, minus in bipartitions(n):
            got = sorted(enumerate_syb((plus, minus)))
            assert got == sorted(bitableaux_by_pairing(plus, minus)), (plus, minus)


@pytest.mark.parametrize(
    "shape",
    [
        ((1,), (1, 2)),
        ((0,), ()),
        ((2, 3), ()),
        ((), (1, 0)),
        ((2.0,), ()),
        ((), (True,)),
        (("2",), (1,)),
        # not a (plus, minus) pair: these once died in Python's own unpacking
        5,
        ((1,),),
        ((1,), (1,), (1,)),
        "ab",
    ],
)
def test_enumerate_syb_rejects_a_part_that_is_no_partition(shape):
    pair = isinstance(shape, tuple) and len(shape) == 2
    message = "partition parts must be" if pair else "a bitableau shape is a \\(plus, minus\\) pair"
    walk = enumerate_syb(shape)  # refused at the first next() only
    with pytest.raises(ValueError, match=message):
        next(walk)


def test_enumerate_syb_takes_list_parts():
    # as validate_shape and enumerate_syt do; each part may be a list
    assert list(enumerate_syb(([1], ()))) == [(((1,),), ())]
    assert list(enumerate_syb(([1], ()), True)) == [0]  # ((), (1,))
    assert list(enumerate_syb(((), [1]))) == [((), ((1,),))]
    assert list(enumerate_syb(((), [1]), True)) == [1 << 1]  # ((), (-1,)): the sign bit of entry 1
    for plus, minus in (([1], [1]), ([2, 1], [1]), ((1, 1), [2])):
        shape = (tuple(plus), tuple(minus))
        assert list(enumerate_syb((plus, minus))) == list(enumerate_syb(shape))
        assert list(enumerate_syb((plus, minus), True)) == list(enumerate_syb(shape, True))
    # the walk keys its kept table by a tuple, whatever sequence it was given
    assert list(enumerate_syt([2, 1])) == list(enumerate_syt((2, 1)))
    assert list(enumerate_syt([2, 1], True)) == list(enumerate_syt((2, 1), True))


def test_the_descents_walk_of_a_shape_yields_the_descent_set_of_each_tableau_in_walk_order():
    for n in range(10):
        for shape in partitions(n):
            masks = list(enumerate_syt(shape, True))
            assert all(type(mask) is int for mask in masks)
            assert masks == [syb_signed_descent_set((q, ())) for q in enumerate_syt(shape)], shape
            # a tableau has every sign +1, so no bit from n up is set
            assert all(mask >> n == 0 for mask in masks), shape
    assert list(enumerate_syt((), True)) == [0]


def test_the_descents_walk_of_a_bipartition_yields_syb_signed_descent_set_in_walk_order():
    shapes = [(n, shape) for n in range(9) for shape in bipartitions(n)]
    # n = 0, an empty plus part and an empty minus part are all among them
    assert (0, ((), ())) in shapes and (3, ((), (2, 1))) in shapes and (3, ((2, 1), ())) in shapes
    for n, shape in shapes:
        got = list(enumerate_syb(shape, True))
        assert got == list(map(syb_signed_descent_set, enumerate_syb(shape))), shape
    assert list(enumerate_syb(((), ()), True)) == [0]
    # with no plus part every sign is -1, with no minus part every sign is +1;
    # bit 0 is never set
    assert list(enumerate_syb(((), (1, 1)), True)) == [0b1110]  # ((1,), (-1, -1))
    assert list(enumerate_syb(((1, 1), ()), True)) == [0b0010]  # ((1,), (1, 1))
    assert list(enumerate_syb(((1,), (1,)), True)) == [0b1010, 0b0100]


def test_the_descents_walks_over_all_shapes_keep_the_walk_order():
    for n in range(9):
        got = list(enumerate_all_syt(n, True))
        assert got == [syb_signed_descent_set((q, ())) for q in _lattice_tableaux(n)]
    for n in range(7):
        got = list(enumerate_all_syb(n, True))
        assert got == list(map(syb_signed_descent_set, _lattice_bitableaux(n)))


def test_descents_walks_are_held_to_the_budget_at_the_first_next_only():
    # every cap is at least 1, so only a walk of two or more objects can be refused
    starts = [
        (n, partial(enumerate_syt, shape, True), len(standard_fillings_by_filtering(shape)))
        for n in range(7)
        for shape in partitions(n)
    ]
    starts += [
        (n, partial(enumerate_syb, shape, True), len(bitableaux_by_pairing(*shape)))
        for n in range(6)
        for shape in bipartitions(n)
    ]
    starts += [(n, partial(enumerate_all_syt, n, True), telephone_number(n)) for n in range(7)]
    starts += [(n, partial(enumerate_all_syb, n, True), signed_telephone_number(n)) for n in range(6)]
    for n, start, count in starts:
        with enumeration_budget(count):
            assert sum(1 for _ in start()) == count
        if count == 1:
            continue
        with enumeration_budget(count - 1):
            walk = start()
            with pytest.raises(BudgetExceededError, match=f"n={n} needs {count} objects"):
                next(walk)


def _des_b(mask, n):
    """des_B read off a packed signed descent set of n entries: its
    descents, and one more when entry 1 is negative."""
    return (mask & ((1 << n) - 1)).bit_count() + (mask >> n & 1)


def test_a_tableau_transposes_to_its_column_reading():
    # a tableau q is the bitableau (q, ()), whose transpose is ((), q')
    for n in range(0, 9):
        for q in _lattice_tableaux(n):
            assert syb_transpose((q, ())) == ((), transpose_by_columns(q)), q


def test_tableau_descent_set_examples():
    # bit i for a descent at i; a tableau, read as (q, ()), sets no sign bit
    assert syb_signed_descent_set((((1, 2, 3),), ())) == 0
    assert syb_signed_descent_set((((1,), (2,), (3,), (4,)), ())) == 0b1110
    assert syb_signed_descent_set((((1, 2), (3,)), ())) == 0b100
    assert syb_signed_descent_set(((), ())) == 0
    assert unpack_descents(syb_signed_descent_set((((1, 2), (3,)), ())), 3) == ((2,), (1, 1, 1))


def test_tableau_descent_sets_are_the_all_plus_bitableau_reading():
    # the tableau walk is the bitableau walk with no minus part; a tableau
    # read as the minus part keeps its descents and sets every sign bit
    for n in range(0, 9):
        for shape in partitions(n):
            tableaux = list(enumerate_syt(shape))
            assert list(enumerate_syb((shape, ()))) == [(q, ()) for q in tableaux], shape
            masks = list(enumerate_syt(shape, True))
            assert list(enumerate_syb((shape, ()), True)) == masks, shape
            for q, mask in zip(tableaux, masks):
                assert syb_signed_descent_set(((), q)) == mask | ((1 << n) - 1) << n, q


def test_tableau_transpose_examples():
    assert syb_transpose((((1, 2, 3),), ())) == ((), ((1,), (2,), (3,)))
    square = ((1, 2), (3, 4))
    assert syb_transpose((square, ())) == ((), ((1, 3), (2, 4)))
    assert syb_signed_descent_set((square, ())) == 0b100  # Des = {2}
    assert syb_signed_descent_set((transpose_by_columns(square), ())) == 0b1010  # Des = {1, 3}
    assert syb_transpose(syb_transpose((square, ()))) == (square, ())
    assert syb_transpose(((), ())) == ((), ())


def test_tableau_transpose_complements_descents():
    for n in range(1, 8):
        for q in _lattice_tableaux(n):
            t = transpose_by_columns(q)
            assert is_standard_tableau(t)
            des = syb_signed_descent_set((q, ())).bit_count()
            assert syb_signed_descent_set((t, ())).bit_count() == n - 1 - des
            assert syb_transpose((q, ())) == ((), t)
            assert syb_transpose(((), t)) == (q, ())


def test_enumerate_syb_examples():
    assert len(list(enumerate_syb(((1,), ())))) == 1
    assert len(list(enumerate_all_syb(2))) == 6
    both = list(enumerate_syb(((1,), (1,))))
    assert both == [(((1,),), ((2,),)), (((2,),), ((1,),))]


def test_syb_totals_match_involution_counts():
    for n in range(0, 9):
        assert sum(1 for _ in enumerate_all_syb(n)) == signed_telephone_number(n)
    for n in range(0, 8):
        assert sum(1 for _ in enumerate_all_syt(n)) == telephone_number(n)


def test_tableau_enumerators_hold_the_exact_count_to_the_budget():
    # T(4) = 10 standard tableaux, b(3) = 20 standard bitableaux
    with enumeration_budget(10):
        assert sum(1 for _ in enumerate_all_syt(4)) == 10
    with enumeration_budget(9), pytest.raises(BudgetExceededError, match="n=4 needs 10 objects"):
        next(enumerate_all_syt(4))
    with enumeration_budget(20):
        assert sum(1 for _ in enumerate_all_syb(3)) == 20
    with enumeration_budget(19), pytest.raises(BudgetExceededError, match="n=3 needs 20 objects"):
        next(enumerate_all_syb(3))


def test_per_shape_walks_hold_the_exact_count_to_the_budget():
    # every cap is at least 1, so only a walk of two or more objects can be refused
    for n in range(9):
        for shape in partitions(n):
            f = sum(1 for _ in enumerate_syt(shape))
            with enumeration_budget(f):
                assert sum(1 for _ in enumerate_syt(shape)) == f
            if f == 1:
                continue
            with enumeration_budget(f - 1):
                with pytest.raises(BudgetExceededError, match=f"n={n} needs {f} objects"):
                    next(enumerate_syt(shape))
    for n in range(6):
        for shape in bipartitions(n):
            count = sum(1 for _ in enumerate_syb(shape))
            with enumeration_budget(count):
                assert sum(1 for _ in enumerate_syb(shape)) == count
            if count == 1:
                continue
            with enumeration_budget(count - 1):
                with pytest.raises(BudgetExceededError, match=f"n={n} needs {count} objects"):
                    next(enumerate_syb(shape))


def _claim_one_more_than_the_default(monkeypatch, count):
    """Make the named count of tableaux claim DEFAULT_BUDGET + 1 objects for
    shape (2, 1), or for the involutions of size 3, and return the text of
    the BudgetExceededError that a walk held to the default raises."""
    if count == "_syt_count":
        real = tableaux._syt_count
        monkeypatch.setattr(
            tableaux, count, lambda shape: DEFAULT_BUDGET + 1 if shape == (2, 1) else real(shape)
        )
        return r"shape .*\(2, 1\)"
    real = tableaux.involution_count
    monkeypatch.setattr(
        tableaux,
        count,
        lambda n, signed=False: DEFAULT_BUDGET + 1 if n == 3 else real(n, signed),
    )
    return f"n=3 needs {DEFAULT_BUDGET + 1} objects"


@pytest.mark.parametrize(
    "walk, count",
    [
        (lambda: sum(1 for _ in enumerate_all_syt(3)) == 4, "involution_count"),
        (lambda: sum(1 for _ in enumerate_all_syb(3)) == 20, "involution_count"),
        (lambda: checks.verify_cauchy_spec(3, 2).ok, "_syt_count"),
        (lambda: checks.verify_signed_schur_spec(3, 2).ok, "_syt_count"),
        (lambda: checks.verify_descent_multiset_bijection(3, 3).ok, "involution_count"),
        (lambda: checks.verify_transpose_complement(3, 3).ok, "involution_count"),
    ],
    ids=["all-syt", "all-syb", "cauchy", "signed-schur", "sdes-bijection", "transpose"],
)
def test_a_raised_cap_reaches_every_per_shape_walk(monkeypatch, walk, count):
    # a per-shape walk holds f^shape to the cap, an all-shapes walk the count
    # of involutions; one object more than the default cap, claimed for shape
    # (2, 1) or for size 3, makes any walk that met the default instead of the
    # cap in force raise
    text = _claim_one_more_than_the_default(monkeypatch, count)
    with pytest.raises(BudgetExceededError, match=text):
        walk()
    with enumeration_budget(DEFAULT_BUDGET + 1):
        assert walk()


def test_each_all_shapes_walk_is_one_walk_of_the_lattice(monkeypatch):
    # no shape loop and no per-shape walk: neither partitions, bipartitions nor
    # a per-shape enumerator is called, for objects or for descent sets
    calls = []
    for name in ("partitions", "bipartitions", "enumerate_syt", "enumerate_syb"):

        def recording(*args, name=name, original=getattr(tableaux, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(tableaux, name, recording)
    for n in range(7):
        for descents in (False, True):
            assert sum(1 for _ in enumerate_all_syt(n, descents)) == telephone_number(n)
            assert sum(1 for _ in enumerate_all_syb(n, descents)) == signed_telephone_number(n)
    assert calls == []


def test_the_words_walks_yield_the_row_word_of_each_object_in_walk_order():
    # entry e of a word is the row of entry e, the rows of minus numbered from
    # n as the lattice numbers them, and entry 0 is n - 1; a tableau q is the
    # bitableau (q, ()).  The words are those of the per-shape walks' objects,
    # each once, in increasing order
    for n in range(8):
        walks = (
            (enumerate_all_syb, bipartitions, enumerate_syb, lambda q: q),
            (enumerate_all_syt, partitions, enumerate_syt, lambda q: (q, ())),
        )
        for walk, shapes, per_shape, as_bitableau in walks:
            objects = (as_bitableau(q) for shape in shapes(n) for q in per_shape(shape))
            expected = sorted(map(tableaux._word_of, objects))
            got = list(walk(n))
            assert all(type(word) is tuple for word in got)
            assert got == expected, (walk, n)


def test_the_all_shapes_walks_yield_each_object_of_the_per_shape_walks_once():
    for n in range(8):
        got = list(_lattice_tableaux(n))
        assert sorted(got) == sorted(q for shape in partitions(n) for q in enumerate_syt(shape))
        assert len(set(got)) == len(got), n
    for n in range(7):
        got = list(_lattice_bitableaux(n))
        assert sorted(got) == sorted(q for shape in bipartitions(n) for q in enumerate_syb(shape))
        assert len(set(got)) == len(got), n


def test_syb_signed_descent_set_examples():
    # bit i for a descent at i, bit n + e - 1 for an entry e in the minus part
    assert syb_signed_descent_set((((1, 2),), ())) == 0
    assert syb_signed_descent_set(((), ((1,), (2,)))) == 0b1110
    assert syb_signed_descent_set(((((1,)),), ((2,),))) == 0b1010
    assert unpack_descents(0b1010, 2) == ((1,), (1, -1))
    # the parts may be lists of rows, or tuples, or one of each
    assert syb_signed_descent_set(([(1,)], ())) == 0
    assert syb_signed_descent_set(([(1,)], [(2,)])) == 0b1010
    assert syb_signed_descent_set(([(1, 2), (3,)], ())) == 0b100
    assert syb_transpose(([(1, 2), (3,)], [])) == ((), ((1, 3), (2,)))


@pytest.mark.parametrize(
    "filling",
    [
        (((2, 1),), ()),  # a row that falls
        (((1, 2), (3, 4, 5)), ()),  # rows that are no partition
        (((1,),), ((1,),)),  # 1 twice and no 2
        (((1,), (3,)), ()),  # no 2, and 3 past n
        (((2, 3), (1, 4)), ()),  # a column that falls
        (((1,), ()), ((2,),)),  # an empty row
        (((0, 1),), ()),  # a 0, which the transpose's padding would drop
    ],
)
@pytest.mark.parametrize("read", [syb_signed_descent_set, syb_transpose])
def test_a_reader_rejects_a_filling_that_is_not_standard(read, filling):
    with pytest.raises(ValueError):
        read(filling)


def _fillings_cut_into_rows(n_max):
    """(n, q) for 1..n in every order, n < n_max, cut into rows of every
    composition of n and the rows split between the parts at every point."""

    def compositions(n):
        if n == 0:
            yield ()
        for first in range(1, n + 1):
            for rest in compositions(n - first):
                yield (first, *rest)

    for n in range(n_max):
        for order in permutations(range(1, n + 1)):
            for lengths in compositions(n):
                ends = list(accumulate(lengths))
                rows = tuple(order[end - length : end] for end, length in zip(ends, lengths))
                for split in range(len(rows) + 1):
                    yield n, (rows[:split], rows[split:])


def test_the_set_readers_accept_exactly_the_standard_fillings():
    def reading(filling, n):
        try:
            return unpack_descents(syb_signed_descent_set(filling), n)
        except ValueError:
            return None

    for n, q in _fillings_cut_into_rows(6):
        expected = None
        if is_standard_bitableau(q):
            expected = bitableau_descent_set_by_definition(q)
        assert reading(q, n) == expected, q


def test_the_transpose_accepts_exactly_the_standard_fillings():
    # the transpose refuses a filling as the reader does, with its text
    def assert_refused(q):
        with pytest.raises(ValueError) as refused:
            syb_transpose(q)
        with pytest.raises(ValueError) as read:
            syb_signed_descent_set(q)
        assert str(refused.value) == str(read.value), q

    for _, q in _fillings_cut_into_rows(6):
        if is_standard_bitableau(q):
            assert syb_transpose(q) == (transpose_by_columns(q[1]), transpose_by_columns(q[0])), q
        else:
            assert_refused(q)
    # rows that increase, but entries that are not 1..n
    assert_refused((((0, 1),), ()))
    assert_refused(((), ((1, 3),)))


@pytest.mark.parametrize(
    "q, text",
    [
        ((((0, 1),), ()), "a standard filling holds 1..n"),  # a 0
        ((((1,), (2,)), ((2,),)), "a standard filling holds 1..n"),  # a repeated entry
        ((((1, 2),), ((4,),)), "a standard filling holds 1..n"),  # a gap
        ((((1,),), (), ((2,),)), "a bitableau is a \\(plus, minus\\) pair"),  # three parts
        ((((1,),),), "a bitableau is a \\(plus, minus\\) pair"),  # one part
        ((((1.0,),), ()), "a standard filling holds 1..n, each an int"),  # a float 1
        ((((True, 2),), ()), "a standard filling holds 1..n, each an int"),  # a bool 1
        (([(1, 2.0)], []), "a standard filling holds 1..n, each an int"),  # a float 2
        (None, "a bitableau is a \\(plus, minus\\) pair"),  # no pair at all
        ("ab", "a bitableau is a \\(plus, minus\\) pair"),  # a string of two
        ((None, ()), "a bitableau is a \\(plus, minus\\) pair"),  # a part that is no tableau
        ((((1,), None), ()), "a bitableau is a \\(plus, minus\\) pair"),  # a row that is no row
    ],
)
def test_the_oracle_and_both_functions_refuse_a_filling_that_is_not_a_bitableau(q, text):
    assert not is_standard_bitableau(q)
    for function in (syb_signed_descent_set, syb_transpose):
        with pytest.raises(ValueError, match=text):
            function(q)


def test_bitableau_des_b_examples():
    assert _des_b(syb_signed_descent_set((((1, 2, 3),), ())), 3) == 0
    assert _des_b(syb_signed_descent_set((((1,),), ((2,),))), 2) == 1
    assert _des_b(syb_signed_descent_set(([(1,)], [(2,)])), 2) == 1
    for n in range(1, 6):
        column = tuple((i,) for i in range(1, n + 1))
        assert _des_b(syb_signed_descent_set(((), column)), n) == n


def test_bitableau_des_b_counts_the_signed_descent_set():
    # the transpose sweep counts des_B as the steps up a row word, whose
    # rows are numbered as the lattice numbers them and whose entry 0 is n - 1
    for n in range(0, 8):
        for q, row in zip(_lattice_bitableaux(n), enumerate_all_syb(n), strict=True):
            positions, signs = unpack_descents(syb_signed_descent_set(q), n)
            assert sum(map(lt, row, row[1:])) == len(positions) + (signs[:1] == (-1,)), q


def test_the_readers_match_the_descent_set_by_definition():
    # the walk and the readers number rows alike, so the oracle, which only
    # scans for the part and row of each entry, is the independent reference
    for n in range(0, 8):
        for q in _lattice_bitableaux(n):
            positions, signs = bitableau_descent_set_by_definition(q)
            assert unpack_descents(syb_signed_descent_set(q), n) == (positions, signs), q
    for n in range(0, 10):
        for q in _lattice_tableaux(n):
            positions, signs = bitableau_descent_set_by_definition((q, ()))
            assert signs == (1,) * n
            assert unpack_descents(syb_signed_descent_set((q, ())), n) == (positions, signs), q


def test_the_transpose_sweep_builds_no_descent_set(monkeypatch):
    # des of a tableau and des_B of a bitableau are counted, not read off a set
    def refuse(*args):
        raise AssertionError("a descent set was built")

    for module in (tableaux, checks):
        monkeypatch.setattr(module, "syb_signed_descent_set", refuse, raising=False)
    assert checks.verify_transpose_complement(6, 7).ok


def test_syb_transpose_examples():
    q = (((1, 2),), ())
    t = syb_transpose(q)
    assert t == ((), ((1,), (2,)))
    assert _des_b(syb_signed_descent_set(q), 2) == 0 and _des_b(syb_signed_descent_set(t), 2) == 2
    assert syb_transpose(t) == q
    # n=1: the two bitableaux swap, matching the 1+x distribution
    assert syb_transpose((((1,),), ())) == ((), ((1,),))


def test_syb_transpose_complements_des_b():
    for n in range(0, 7):
        images = set()
        for q in _lattice_bitableaux(n):
            t = syb_transpose(q)
            images.add(t)
            assert _des_b(syb_signed_descent_set(t), n) == n - _des_b(syb_signed_descent_set(q), n)
        assert len(images) == signed_telephone_number(n)


def test_descent_multisets_match_involutions():
    for n in range(0, 7):
        signed_perm_side = Counter(signed_descent_set(w) for w in enumerate_signed_involutions(n))
        bitableau_side = Counter(map(syb_signed_descent_set, _lattice_bitableaux(n)))
        assert signed_perm_side == bitableau_side, n
    for n in range(0, 8):
        perm_side = Counter(signed_descent_set(w) for w in enumerate_involutions(n))
        tableau_side = Counter(syb_signed_descent_set((q, ())) for q in _lattice_tableaux(n))
        assert perm_side == tableau_side, n
