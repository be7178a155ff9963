import random
import tracemalloc
from collections import Counter
from itertools import count, islice, product
from math import comb, factorial
from operator import lt

import pytest

from eulerinv import checks, permutations, qsym, reference, tableaux
from eulerinv.distributions import DES_COXETER
from eulerinv.permutations import (
    BudgetExceededError,
    enumerate_involutions,
    enumerate_signed_involutions,
    enumeration_budget,
)
from eulerinv.reports import CheckRecord, Report, int_list
from eulerinv.tableaux import (
    _bitableau_of_word,
    _transposer,
    _word_of,
    bipartitions,
    enumerate_all_syb,
    enumerate_all_syt,
    enumerate_syb,
    enumerate_syt,
    partitions,
)
from oracles import (
    bitableau_descent_set_by_definition,
    bitableaux_by_pairing,
    guo_zeng_counterexample_search,
    guo_zeng_instances_by_randint,
    r_by_recurrence,
    signed_descent_set_by_definition,
    signed_telephone_number,
    standard_fillings_by_filtering,
    telephone_number,
    transpose_by_columns,
    transpose_word_by_counting,
)


def test_recurrence_route():
    report = checks.verify_recurrence_route(7)
    assert report.ok and len(report) == 7


def test_recurrence_route_runs_the_recurrence_once_and_fails_on_a_bad_row(monkeypatch):
    rows_of = checks.signed_involution_recurrence_rows
    calls = []

    def bumped(n_max):
        calls.append(n_max)
        rows = rows_of(n_max)
        rows[3] = (1, 9, 10, 1)
        return rows

    monkeypatch.setattr(checks, "signed_involution_recurrence_rows", bumped)
    report = checks.verify_recurrence_route(4)
    assert calls == [4]
    assert [(r.params, r.lhs, r.rhs) for r in report.failures] == [
        ((("n", 3),), "1,9,10,1", "1,9,9,1")
    ]
    assert len(report) == 4
    # b(5) = 312 windows exceed the budget before the recurrence is asked for rows
    with enumeration_budget(100), pytest.raises(BudgetExceededError):
        checks.verify_recurrence_route(12)
    assert calls == [4]


def test_genfun_sweeps():
    assert checks.verify_genfun_a(6, 4).ok
    assert checks.verify_genfun_b(6, 6).ok


def test_genfun_a_uses_frozen_row_six():
    report = checks.verify_genfun_a(6, 4)
    records = {record.params: record for record in report}
    for m in range(5):
        assert records[(("n", 6), ("m", m))].status == "pass"


def test_descent_multiset_bijection():
    assert checks.verify_descent_multiset_bijection(5, 6).ok


def test_transpose_complement():
    assert checks.verify_transpose_complement(5, 6).ok


def test_proof_identity():
    report = checks.verify_proof_identity(12)
    assert report.ok
    notes = [record for record in report if record.status == "note"]
    assert any("D0+D1" in record.lhs for record in notes)


def test_proof_identity_k0_reduces_to_leading_coefficients():
    # at k = 0 the identity collapses to n = A0 + D0 with unit coefficients
    for n in range(3, 10):
        a, d = checks._proof_coefficients(n, 0)
        assert a[0] == 1
        assert d[0] == n - 1
        assert sum(a) == 0 and sum(d) == 0


def test_counterexample_report():
    report = checks.verify_counterexample_89()
    assert report.ok
    records = {record.check: record for record in report}
    assert records["r89-square"].lhs == "113789153706560010000"
    assert records["r89-product"].lhs == "114890217312335629500"
    assert records["r89-not-log-concave"].status == "pass"
    assert records["r89-not-log-concave"].params == (("first_failing_k", 2),)
    assert records["r89-not-log-concave"].rhs == "r(89,2)^2 < r(89,1)*r(89,3)"


def test_r_log_concavity_scan_skips_k0():
    # (r(n, k))_{k>=0} fails at k = 1 for every n >= 47, because r(n, 0) = 1;
    # from k = 1 on, the first failure is at n = 89, k = 2
    assert checks.r_log_concavity_failure(89) == 2
    assert checks.r_log_concavity_failure(88) is None


def test_convolution_identity_hand_check():
    # n = 1: (1+x)(1+2x) truncated to degree 1 is 1 + 3x = r(1,0), r(1,1)
    report = checks.verify_counterexample_89()
    records = {record.params: record for record in report if record.check == "r-convolution"}
    assert records[(("n", 1),)].lhs == "1,3"


def test_guo_zeng_lemma_randomized():
    report = checks.check_guo_zeng_lemma(trials=10_000, length_max=8, seed=99)
    assert report.ok
    record = next(iter(report))
    assert ("seed", 99) in record.params


def test_guo_zeng_lemma_exhaustive_oracle():
    assert guo_zeng_counterexample_search(length_max=5, bound=3) is None


def test_guo_zeng_trivial_instances():
    # all-ones weights reduce the sum to the final prefix sum
    a = [3, -1, -2, 5]
    assert sum(a) >= 0
    assert sum(ai * 1 for ai in a) >= 0
    assert 1 * 5 + (-1) * 3 == 2 >= 0


def test_des_statistic_conjecture():
    report = checks.check_des_statistic_conjecture(7)
    assert report.ok
    notes = {record.params[0]: record for record in report if record.status == "note"}
    assert ("n", 6) in notes and ("n", 7) in notes
    # note records carry both polynomials verbatim
    assert notes[("n", 6)].lhs == "1,43,331,634,331,43,1"
    assert notes[("n", 6)].rhs == "1,43,331,634,331,43,1"


def test_reference_table_report_flags_discrepancy():
    report = checks.reference_table_report()
    assert report.ok
    flagged = [r for r in report if r.check == "table-b-print-discrepancy"]
    assert len(flagged) == 1
    assert "632" in flagged[0].lhs and "634" in flagged[0].rhs


def test_report_serialization_is_stable():
    one = checks.check_guo_zeng_lemma(trials=200, length_max=5, seed=11)
    two = checks.check_guo_zeng_lemma(trials=200, length_max=5, seed=11)
    assert list(one.lines()) == list(two.lines())
    assert list(one.lines(structured=False)) == list(two.lines(structured=False))


def test_record_formats():
    record = CheckRecord("demo", (("n", 3),), "pass", "1,2,1", "1,2,1", "==")
    assert record.structured() == "check=demo\tparams=n=3\tstatus=pass\tlhs=1,2,1\trhs=1,2,1"
    assert record.plain() == "demo n=3: pass (1,2,1 == 1,2,1)"
    with pytest.raises(ValueError, match="unknown status 'skip'"):
        CheckRecord("demo", (), "skip", "1", "2")
    report = Report([record])
    assert report.ok and not report.failures
    bad = CheckRecord("demo", (), "fail", "1", "2", "!=")
    report.append(bad)
    assert not report.ok and report.failures == [bad]
    compared = Report()
    compared.compare("demo", [("n", 3)], 4, 4)
    compared.compare("demo", (("n", 3),), 4, 5)
    assert compared == [
        CheckRecord("demo", (("n", 3),), "pass", "4", "4", "=="),
        CheckRecord("demo", (("n", 3),), "fail", "4", "5", "!="),
    ]
    assert [r.plain() for r in compared] == ["demo n=3: pass (4 == 4)", "demo n=3: fail (4 != 5)"]
    ordered = Report()
    ordered.less("demo", (), 4, 5)
    ordered.less("demo", (), 5, 5)
    ordered.less("demo", (), 10**20, 5)
    assert [r.status for r in ordered] == ["pass", "fail", "fail"]
    assert [r.plain() for r in ordered] == [
        "demo: pass (4 < 5)",
        "demo: fail (5 >= 5)",
        "demo: fail (100000000000000000000 >= 5)",
    ]
    checked = Report()
    checked.check("demo", [("n", 3)], True, "symmetric", "1,2,1")
    checked.check("demo", (), False, 10**20, -7)
    assert checked == [
        CheckRecord("demo", (("n", 3),), "pass", "symmetric", "1,2,1", "|"),
        CheckRecord("demo", (), "fail", "100000000000000000000", "-7", "|"),
    ]
    assert checked[1].plain() == "demo: fail (100000000000000000000 | -7)"
    assert not checked.ok and checked.failures == checked[1:]
    noted = Report()
    noted.note("demo", [("n", 6), ("equal", False)], 632, "NEGATIVE ENTRY")
    assert noted == [
        CheckRecord("demo", (("n", 6), ("equal", False)), "note", "632", "NEGATIVE ENTRY", "|")
    ]
    assert noted.ok and not noted.failures
    assert noted[0].plain() == "demo n=6 equal=False: note: 632 | NEGATIVE ENTRY"
    with pytest.raises(AttributeError):
        noted[0].status = "fail"
    keyworded = CheckRecord(check="demo", params=(), status="pass", lhs="a", rhs="b")
    assert keyworded.relation == "|" and keyworded.plain() == "demo: pass (a | b)"


def _drop_from_walk(monkeypatch, walk, n, positions):
    """Make the named walk of checks skip the given positions of its size-n
    walk, passing any further arguments, such as descents, through."""
    original = getattr(checks, walk)

    def dropping(size, *args):
        for i, q in enumerate(original(size, *args)):
            if size != n or i not in positions:
                yield q

    monkeypatch.setattr(checks, walk, dropping)


def _repeat_first(monkeypatch, walk, n):
    """Make the named walk of checks yield the first object of its size-n walk
    twice, passing any further arguments through."""
    original = getattr(checks, walk)

    def repeating(size, *args):
        objects = list(original(size, *args))
        if size == n:
            objects.insert(1, objects[0])
        yield from objects

    monkeypatch.setattr(checks, walk, repeating)


def test_descent_multiset_failure_names_the_differing_descent_set(monkeypatch):
    passing = checks.verify_descent_multiset_bijection(3, 2)
    # the fifth bitableau of size 2 is ((), ((1, 2),)): no descent, both signs negative
    _drop_from_walk(monkeypatch, "enumerate_all_syb", 2, {4})
    report = checks.verify_descent_multiset_bijection(3, 2)
    assert [r.status for r in report] == ["pass", "pass", "fail", "pass", "pass", "pass", "pass"]
    failure = report.failures[0]
    assert failure.params == (("n", 2),)
    assert failure.lhs == "6 involutions, 1 with Des={} signs=--"
    assert failure.rhs == "5 bitableaux, expected 6, 0 with Des={} signs=--"
    # the other records are the passes of the unpatched run
    unchanged = [r for r in passing if (r.check, r.params) != ("sdes-multiset-signed", (("n", 2),))]
    assert [r for r in report if r.status == "pass"] == unchanged


def test_descent_multiset_failure_reports_the_smallest_set_in_sorted_order(monkeypatch):
    # drop ((), ((1,), (2,))) with Des={1} signs=-- and (((2,),), ((1,),)) with Des={} signs=-+
    _drop_from_walk(monkeypatch, "enumerate_all_syb", 2, {3, 5})
    failure = checks.verify_descent_multiset_bijection(2, 0).failures[0]
    assert failure.lhs == "6 involutions, 1 with Des={} signs=-+"
    assert failure.rhs == "4 bitableaux, expected 6, 0 with Des={} signs=-+"


def test_signed_descent_multiset_failure_names_an_all_plus_set_without_signs(monkeypatch):
    # the first bitableau of size 2 is (((1, 2),), ()): no descent, both signs plus
    _drop_from_walk(monkeypatch, "enumerate_all_syb", 2, {0})
    failure = checks.verify_descent_multiset_bijection(2, 0).failures[0]
    assert failure.params == (("n", 2),)
    assert failure.lhs == "6 involutions, 1 with Des={}"
    assert failure.rhs == "5 bitableaux, expected 6, 0 with Des={}"


def test_unsigned_descent_multiset_failure_names_a_set_without_signs(monkeypatch):
    # the second tableau of size 3 is ((1, 2), (3,)), with its one descent at 2
    _drop_from_walk(monkeypatch, "enumerate_all_syt", 3, {1})
    report = checks.verify_descent_multiset_bijection(0, 4)
    assert [(r.check, r.status) for r in report] == [("sdes-multiset-signed", "pass")] + [
        ("des-multiset-unsigned", status) for status in ("pass", "pass", "pass", "fail", "pass")
    ]
    failure = report.failures[0]
    assert failure.params == (("n", 3),)
    assert failure.lhs == "4 involutions, 1 with Des={2}"
    assert failure.rhs == "3 tableaux, expected 4, 0 with Des={2}"


def test_descent_multiset_failure_names_the_first_set_in_tuple_order_after_unpacking(monkeypatch):
    # clear the highest descent bit of every packed set the tableau walks
    # yield; the sweep compares the ints and unpacks only those whose counts
    # differ, so its witness is the first differing (positions, signs) in
    # tuple order
    for walk in ("enumerate_all_syb", "enumerate_all_syt"):

        def dropping(n, descents, original=getattr(checks, walk)):
            for mask in original(n, descents):
                top = (mask & ((1 << n) - 1)).bit_length() - 1
                yield mask - (1 << top) if top > 0 else mask

        monkeypatch.setattr(checks, walk, dropping)
    report = checks.verify_descent_multiset_bijection(4, 4)
    # sizes 0 and 1 have no descent to drop
    assert [r.status for r in report] == ["pass", "pass", "fail", "fail", "fail"] * 2
    assert report.failures[0].plain() == (
        "sdes-multiset-signed n=2: fail "
        "(6 involutions, 1 with Des={} signs=-- | 6 bitableaux, 2 with Des={} signs=--)"
    )
    for failure in report.failures:
        # the same drop, made on the pairs the oracles give for each object
        n = failure.params[0][1]
        signed = failure.check == "sdes-multiset-signed"
        involutions = enumerate_signed_involutions(n) if signed else enumerate_involutions(n)
        lattice = enumerate_all_syb if signed else enumerate_all_syt
        objects = map(_bitableau_of_word, lattice(n))  # a tableau's word builds (q, ())
        perm_side = Counter(map(signed_descent_set_by_definition, involutions))
        tab_side = Counter((p[:-1], s) for p, s in map(bitableau_descent_set_by_definition, objects))
        first = min(d for d in perm_side.keys() | tab_side.keys() if perm_side[d] != tab_side[d])
        assert first == ((), ((-1,) if signed else (1,)) * n)
        witness = "Des={}" + (" signs=" + "-" * n if signed else "")
        assert failure.lhs.endswith(f" involutions, {perm_side[first]} with {witness}")
        assert failure.rhs.endswith(f", {tab_side[first]} with {witness}")


@pytest.mark.parametrize(
    "walk, check, first",
    [
        ("enumerate_all_syb", "transpose-signed", "(((1, 2, 3),), ())"),
        ("enumerate_all_syt", "transpose-unsigned", "((1, 2, 3),)"),
    ],
)
def test_transpose_fails_when_the_walk_repeats_a_tableau(monkeypatch, walk, check, first):
    # the repeat passes both per-object tests; its word, equal to the one before,
    # is the one violation, and the record names the repeated object
    _repeat_first(monkeypatch, walk, 3)
    report = checks.verify_transpose_complement(4, 4)
    failures = [(r.check, r.params) for r in report.failures]
    assert failures == [(check, (("n", 3),))]
    assert report.failures[0].rhs == f"1 violations, first {first}"


def _count_yields(monkeypatch, module, names):
    """Wrap the named walks where module calls them.  Each call appends
    [name, its first argument, the objects it has yielded] to the list
    returned, when it is made."""
    calls = []

    def counted(walk, record):
        for item in walk:
            record[2] += 1
            yield item

    for name in names:

        def counting(first, *args, name=name, original=getattr(module, name)):
            record = [name, first, 0]
            calls.append(record)
            return counted(original(first, *args), record)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_a_schur_specialization_is_one_walk_of_its_shape(monkeypatch):
    # the benchmark counts tableaux where the walk yields, so a Schur
    # specialization takes its descent sets from one walk of f^shape yields
    calls = _count_yields(monkeypatch, qsym, ["enumerate_syt"])
    for n in range(7):
        for shape in partitions(n):
            f = len(standard_fillings_by_filtering(shape))
            for m in (1, 2, 4):
                calls.clear()
                qsym.schur_spec(shape, m)
                assert calls == [["enumerate_syt", shape, f]], (shape, m)
            calls.clear()
            qsym.schur_spec(shape, 0)
            assert calls == []


@pytest.mark.parametrize("m", [-1, 2.0, "2", True, False, None])
def test_a_schur_specialization_checks_m_before_it_walks(monkeypatch, m):
    # the ValueError of fundamental_spec, raised before any walk starts, so
    # no budget is asked for
    calls = _count_yields(monkeypatch, qsym, ["enumerate_syt"])
    with enumeration_budget(1):
        for shape in ((), (1,), (2, 1), (3, 2, 1)):
            with pytest.raises(ValueError, match=f"m must be a nonnegative integer, got {m!r}"):
                qsym.schur_spec(shape, m)
    assert calls == []


def test_the_descent_multiset_sweep_walks_each_size_once_on_the_tableau_side(monkeypatch):
    calls = _count_yields(monkeypatch, checks, ["enumerate_all_syb", "enumerate_all_syt"])
    assert checks.verify_descent_multiset_bijection(6, 6).ok
    assert calls == [["enumerate_all_syb", n, signed_telephone_number(n)] for n in range(7)] + [
        ["enumerate_all_syt", n, telephone_number(n)] for n in range(7)
    ]


def test_the_signed_schur_sweep_walks_each_bipartition_once(monkeypatch):
    calls = _count_yields(monkeypatch, checks, ["enumerate_syb"])
    assert checks.verify_signed_schur_spec(5, 3).ok
    assert calls == [
        ["enumerate_syb", shape, len(bitableaux_by_pairing(*shape))]
        for n in range(6)
        for shape in bipartitions(n)
    ]


def _record_walks(monkeypatch):
    """Record the size of every call of the two tableau walks of checks, each
    of which must ask for row words, not descent sets."""
    calls = {}
    for name in ("enumerate_all_syb", "enumerate_all_syt"):
        original = getattr(checks, name)
        sizes = calls[name] = []

        def recording(n, descents=False, original=original, sizes=sizes):
            assert descents is False
            sizes.append(n)
            return original(n)

        monkeypatch.setattr(checks, name, recording)
    return calls


def _lattice_objects(walk, n):
    """The objects of the all-shapes walk of size n, in walk order, as the
    transpose sweep names them: each built from its row word, a tableau
    alone and a bitableau as the pair."""
    objects = map(_bitableau_of_word, walk(n))
    return [q if walk is enumerate_all_syb else q[0] for q in objects]


def test_transpose_walks_each_size_once_when_every_image_repeats(monkeypatch):
    # every word of size n is the first word of that size: each passes both
    # per-object tests, every one after the first repeats its row word and
    # its image, and still no size is walked twice
    calls = _record_walks(monkeypatch)
    for name in ("enumerate_all_syb", "enumerate_all_syt"):

        def first_word_only(n, original=getattr(checks, name)):
            found = list(original(n))
            return iter(found[:1] * len(found))

        monkeypatch.setattr(checks, name, first_word_only)
    report = checks.verify_transpose_complement(5, 5)
    assert calls == {"enumerate_all_syb": list(range(6)), "enumerate_all_syt": list(range(6))}
    expected = []
    for walk in (enumerate_all_syb, enumerate_all_syt):
        for n in range(6):
            objects = _lattice_objects(walk, n)
            repeats = len(objects) - 1
            expected.append(f"{repeats} violations" + (f", first {objects[0]}" if repeats else ""))
    assert [r.rhs for r in report] == expected


def test_transpose_walks_each_size_once_at_its_defaults(monkeypatch):
    # each size is walked once, so the traced object counts are those of one
    # walk per size
    calls = _record_walks(monkeypatch)
    assert checks.verify_transpose_complement().ok
    signed_n_max, unsigned_n_max = checks.verify_transpose_complement.__defaults__
    assert calls == {
        "enumerate_all_syb": list(range(signed_n_max + 1)),
        "enumerate_all_syt": list(range(unsigned_n_max + 1)),
    }


def test_transpose_sweep_memory_is_bounded_per_size():
    # the sweep keeps the previous row word, and its one transpose map of
    # each size the heads it has mapped and one memo of the tail images of
    # both directions, freed when that size ends; it peaks near 1.2 MB.  A
    # set of the bytes of the 32,400 image words of size 8 peaked at 4.3 MB
    tracemalloc.start()
    try:
        assert checks.verify_transpose_complement(8, 8).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_transpose_failure_names_the_first_of_several_violations(monkeypatch):
    # a map that swaps the parts but transposes neither sends a tableau q, read
    # as (q, ()), to ((), q): transposition the identity on tableaux, so both
    # tableaux of size 2 miss the complement, and the one of size 1 does not
    monkeypatch.setattr(
        checks,
        "_transposer",
        lambda n: lambda w: (w[0], *(r + n if r < n else r - n for r in w[1:])),
    )
    failure = checks.verify_transpose_complement(0, 2).failures[0]
    assert failure.params == (("n", 2),)
    assert failure.rhs == "2 violations, first ((1, 2),)"


def test_the_transpose_words_are_those_of_the_built_transposes():
    # a tableau q is read as (q, ()), and its transpose is ((), q'); the
    # transposes are the oracle's, as syb_transpose applies the map itself.
    # _word_of numbers the rows as the all-shapes walks do: the rows of plus
    # from 0, those of minus from n, n - 1 in entry 0
    for n in range(8):
        pairs = [
            (q, (transpose_by_columns(q[1]), transpose_by_columns(q[0])))
            for shape in bipartitions(n)
            for q in enumerate_syb(shape)
        ]
        pairs += [
            ((q, ()), ((), transpose_by_columns(q)))
            for shape in partitions(n)
            for q in enumerate_syt(shape)
        ]
        transpose = _transposer(n)
        for q, t in pairs:
            row = _word_of(q)
            image = transpose(row)
            assert image == _word_of(t), q
            # the transpose of the transpose, read off the image word alone
            assert transpose(image) == row, q
            assert _bitableau_of_word(row) == q


def test_the_transpose_map_takes_exactly_the_standard_words():
    # every word of n entries drawn from two rows around the lattice's rows:
    # the map refuses it unless the walk yields it, for an entry out of range
    # and for a word that is no lattice word within each part alike
    for n in range(5):
        standard = set(enumerate_all_syb(n))
        transpose = _transposer(n)
        for entries in product(range(-2, 2 * n + 2), repeat=n):
            word = (n - 1, *entries)
            assert (transpose(word) is not None) == (word in standard), word
    # a row of plus or of minus ahead of the row above it, and entries past
    # either end of the rows, the last of which would index past the table
    for word in ((1, 1, 0), (1, 3, 2), (1, 0, 3), (1, 0, -4), (1, 0, 4), (1, 0, 5)):
        assert _transposer(2)(word) is None, word
    assert _transposer(2)((1, 0, 2)) == (1, 2, 0)


def test_the_transpose_stream_maps_each_word_as_the_one_pass_oracle_does():
    # every word of n entries drawn from two rows around the lattice's rows,
    # sorted as a walk yields them, shuffled and reversed, each order through
    # one map: sharing heads and tails across words changes no image
    for n in range(5):
        words = [(n - 1, *entries) for entries in product(range(-2, 2 * n + 2), repeat=n)]
        shuffled = words.copy()
        random.Random(n).shuffle(shuffled)
        for order in (words, shuffled, words[::-1]):
            transpose = _transposer(n)
            expected = [transpose_word_by_counting(word, n) for word in order]
            assert list(map(transpose, order)) == expected, n


def test_one_transpose_map_serves_both_directions(monkeypatch):
    # the images of the row words of the bitableaux of a size are those row
    # words again, and a tableau q and its image ((), q') are bitableaux too.
    # So once a map has taken every bitableau's row word, it maps each image
    # back, and each tableau's word and its image, from what it keeps, and
    # places no entry; a memo of its own for the way back would place them
    columns = tableaux._columns
    placed = []
    monkeypatch.setattr(tableaux, "_columns", lambda *args: placed.append(args) or columns(*args))
    for n in range(7):
        transpose = _transposer(n)
        rows = list(enumerate_all_syb(n))
        images = list(map(transpose, rows))
        assert placed and None not in images, n
        placed.clear()
        assert list(map(transpose, images)) == rows, n
        tableau_rows = list(enumerate_all_syt(n))
        assert list(map(transpose, map(transpose, tableau_rows))) == tableau_rows, n
        assert placed == [], n


def test_the_row_words_of_each_walk_rise_strictly():
    # the order the transpose sweep's repeat test relies on
    for n in range(8):
        for walk in (enumerate_all_syb, enumerate_all_syt):
            words = list(walk(n))
            assert all(map(lt, words, words[1:])), n


def test_transpose_fails_when_transposing_twice_misses_the_object(monkeypatch):
    # a map that is one off in entry 0 on its way back, in every second call,
    # gives no object its own word back, while every image and descent
    # number stays right
    transposer = checks._transposer
    calls = count()

    def off_on_the_way_back(n):
        transpose = transposer(n)

        def mapped(word):
            image = transpose(word)
            if next(calls) % 2:  # each word is mapped, then its image
                image = (image[0] + 1, *image[1:])
            return image

        return mapped

    monkeypatch.setattr(checks, "_transposer", off_on_the_way_back)
    report = checks.verify_transpose_complement(3, 3)
    expected = [
        f"{len(objects)} violations, first {objects[0]}"
        for walk in (enumerate_all_syb, enumerate_all_syt)
        for objects in (_lattice_objects(walk, n) for n in range(4))
    ]
    assert [r.rhs for r in report.failures] == expected
    assert len(report) == 8


def test_transpose_counts_an_image_entry_past_the_rows_as_a_violation(monkeypatch):
    # images one row too low reach row 2n, past the lattice's rows: mapping
    # one back is refused, not an IndexError, and every object from n = 1 on
    # is a violation, the first named
    transposer = checks._transposer

    def one_too_high(n):
        transpose = transposer(n)
        return lambda word: (image := transpose(word)) and (image[0], *(r + 1 for r in image[1:]))

    monkeypatch.setattr(checks, "_transposer", one_too_high)
    report = checks.verify_transpose_complement(3, 0)
    assert [r.status for r in report] == ["pass", "fail", "fail", "fail", "pass"]
    assert [r.rhs for r in report.failures] == [
        f"{len(objects)} violations, first {objects[0]}"
        for objects in (_lattice_objects(enumerate_all_syb, n) for n in (1, 2, 3))
    ]


@pytest.mark.parametrize(
    "word",
    [(2, 0, 1, 1), (2, 3, 4, 6), (2, 3, 4, -1)],
    ids=["no-lattice-word", "past-the-rows", "negative"],
)
def test_transpose_counts_a_word_that_is_not_standard_as_a_violation(monkeypatch, word):
    # the walk yields the word in place of the last bitableau of size 3,
    # (2, 3, 4, 5).  The first word's entries 2 and 3 enter the second row of
    # plus before the first row holds two: no lattice word.  The others move
    # entry 3 out of the rows 0..5, to 2n, where building a filling would
    # index past the rows, or to -1, where it would put entry 3 in the last
    # row of minus.  The map refuses each, so it fixes no bitableau, and the
    # failure names the word, not a filling built from it
    original = checks.enumerate_all_syb

    def bent(n):
        found = list(original(n))
        if n == 3:
            assert found[-1] == (2, 3, 4, 5)
            found[-1] = word
            found.sort()
        return iter(found)

    monkeypatch.setattr(checks, "enumerate_all_syb", bent)
    report = checks.verify_transpose_complement(3, 0)
    assert [r.status for r in report] == ["pass", "pass", "pass", "fail", "pass"]
    assert report.failures[0].rhs == f"1 violations, first row word {word}"


def test_transpose_fails_when_the_walk_misses_an_object(monkeypatch):
    # the walk of size 3 drops its last bitableau, (2, 3, 4, 5): every word
    # left is standard, distinct and transposes back, but 19 of the 20
    # bitableaux of size 3 make no bijection, and the record names the 20
    original = checks.enumerate_all_syb

    def short(n):
        found = list(original(n))
        return iter(found[:-1] if n == 3 else found)

    monkeypatch.setattr(checks, "enumerate_all_syb", short)
    report = checks.verify_transpose_complement(4, 0)
    assert [r.status for r in report] == ["pass", "pass", "pass", "fail", "pass", "pass"]
    failure = report.failures[0]
    assert (failure.lhs, failure.rhs) == ("19 bitableaux, expected 20", "0 violations")


def test_transpose_counts_a_tableau_word_in_the_rows_of_minus_as_a_violation(monkeypatch):
    # the tableau walk of size 3 yields (2, 0, 1, 3) for its last tableau,
    # (2, 0, 1, 2): entry 3 moves to row n = 3, the first row of minus.  The
    # word is that of the standard bitableau (((1,), (2,)), ((3,),)), so the
    # map takes it and the count stays 4, but it is no tableau's word
    original = checks.enumerate_all_syt

    def bent(n):
        found = list(original(n))
        if n == 3:
            assert found[-1] == (2, 0, 1, 2)
            found[-1] = (2, 0, 1, 3)
        return iter(found)

    monkeypatch.setattr(checks, "enumerate_all_syt", bent)
    report = checks.verify_transpose_complement(0, 4)
    assert [r.status for r in report] == ["pass"] + ["pass", "pass", "pass", "fail", "pass"]
    failure = report.failures[0]
    assert (failure.lhs, failure.rhs) == ("4 tableaux", "1 violations, first row word (2, 0, 1, 3)")


def _structured(report):
    return [record.structured() for record in report]


def test_proof_identity_fails_at_each_k_a_bumped_row_reaches(monkeypatch):
    rows_of = checks.signed_involution_recurrence_rows

    def bumped(n_max):
        rows = rows_of(n_max)
        rows[5] = (1, 29, *rows[5][2:])  # the true row 5 is 1,28,127,127,28,1
        return rows

    monkeypatch.setattr(checks, "signed_involution_recurrence_rows", bumped)
    # row 5 enters the identity at n = 5, 6, 7, so their per-n records fail too;
    # the sign facts do not read rows
    facts = "status={}\tlhs=identity and sign facts\trhs=k=0..{}"
    assert _structured(checks.verify_proof_identity(8)) == [
        "check=proof-identity\tparams=n=3\t" + facts.format("pass", 6),
        "check=proof-identity\tparams=n=4\t" + facts.format("pass", 7),
        "check=proof-identity\tparams=n=5,k=1\tstatus=fail\tlhs=140\trhs=135",
        "check=proof-identity\tparams=n=5,k=2\tstatus=fail\tlhs=490\trhs=495",
        "check=proof-identity\tparams=n=5\t" + facts.format("fail", 8),
        "check=proof-identity\tparams=n=6,k=1\tstatus=fail\tlhs=252\trhs=255",
        "check=proof-identity\tparams=n=6,k=2\tstatus=fail\tlhs=1728\trhs=1734",
        "check=proof-identity\tparams=n=6,k=3\tstatus=fail\tlhs=1818\trhs=1809",
        "check=proof-identity\tparams=n=6\t" + facts.format("fail", 9),
        "check=proof-identity\tparams=n=7,k=1\tstatus=fail\tlhs=427\trhs=437",
        "check=proof-identity\tparams=n=7,k=2\tstatus=fail\tlhs=4830\trhs=4848",
        "check=proof-identity\tparams=n=7,k=3\tstatus=fail\tlhs=11823\trhs=11841",
        "check=proof-identity\tparams=n=7,k=4\tstatus=fail\tlhs=0\trhs=-46",
        "check=proof-identity\tparams=n=7\t" + facts.format("fail", 10),
        "check=proof-identity\tparams=n=8\t" + facts.format("pass", 11),
        "check=proof-identity\tparams=k=0\tstatus=note\tlhs=D0+D1 = 2-2n at k=0"
        "\trhs=averaging lemma unused there; single-term positivity suffices",
    ]
    plain = list(checks.verify_proof_identity(8).lines(structured=False))
    assert plain[2] == "proof-identity n=5 k=1: fail (140 != 135)"
    assert plain[4] == "proof-identity n=5: fail (identity and sign facts | k=0..8)"


def test_proof_identity_facts_record_fails_when_a_zero_sum_breaks(monkeypatch):
    coefficients = checks._proof_coefficients

    def broken(n, k):
        a, d = coefficients(n, k)
        # at n = 4, k = 6 every row term is zero, so only the zero-sum fact can see it
        return ((a[0] + 1, *a[1:]), d) if (n, k) == (4, 6) else (a, d)

    monkeypatch.setattr(checks, "_proof_coefficients", broken)
    report = checks.verify_proof_identity(5)
    assert [(r.check, r.params, r.status, r.lhs, r.rhs) for r in report.failures] == [
        ("proof-identity", (("n", 4),), "fail", "identity and sign facts", "k=0..7")
    ]
    assert [r.status for r in report] == ["pass", "fail", "pass", "note"]


def test_table_shape_fails_on_a_row_that_is_not_symmetric(monkeypatch):
    rows_of = checks.signed_involution_recurrence_rows

    def bumped(n_max):
        rows = rows_of(n_max)
        rows[5] = (*rows[5][:4], 29, 1)
        return rows

    monkeypatch.setattr(checks, "signed_involution_recurrence_rows", bumped)
    report = checks.reference_table_report()
    shape = [r for r in report if r.check == "table-shape"]
    assert [r.status for r in shape] == ["pass"] * 4 + ["fail"] + ["pass"] * 7
    assert [(r.params, r.lhs, r.rhs) for r in report.failures] == [
        ((("n", 5),), "symmetric and unimodal", "1,28,127,127,29,1")
    ]


def test_guo_zeng_lemma_fails_with_the_first_counterexample(monkeypatch):
    instances = [([1, 2], [3, 1]), ([0, -1], [2, 1]), ([0, -2], [1, 1])]
    monkeypatch.setattr(checks, "_lemma_instances", lambda trials, length_max, seed: instances)
    assert _structured(checks.check_guo_zeng_lemma(3, 2, 5)) == [
        "check=guo-zeng-lemma\tparams=trials=3,length_max=2,seed=5\tstatus=fail"
        "\tlhs=a=0,-1\trhs=x=2,1"
    ]


@pytest.mark.parametrize("kept", [0, 1, 99, None])
def test_guo_zeng_lemma_passes_only_when_it_draws_every_trial(monkeypatch, kept):
    # the draw cut to its first `kept` instances, or left whole: a draw of no
    # counterexample passes only when it held every trial, and a draw of
    # nothing once printed "100 trials | 0 counterexamples"
    if kept is not None:
        draw = checks._lemma_instances
        monkeypatch.setattr(checks, "_lemma_instances", lambda *args: islice(draw(*args), kept))
    report = checks.check_guo_zeng_lemma(100, 8, 1)
    verdict = "pass (100 trials" if kept is None else f"fail ({kept} trials, expected 100"
    assert [r.plain() for r in report] == [
        f"guo-zeng-lemma trials=100 length_max=8 seed=1: {verdict} | 0 counterexamples)"
    ]


def test_r89_records_fail_when_r_is_log_concave(monkeypatch):
    r_closed = checks.r_closed
    # binomial coefficients are log-concave, so neither witness survives at n = 89
    monkeypatch.setattr(checks, "r_closed", lambda n, k: comb(n, k) if n == 89 else r_closed(n, k))
    report = checks.verify_counterexample_89()
    records = {record.check: record for record in report}
    strict, scan = records["r89-strict-inequality"], records["r89-not-log-concave"]
    assert (strict.params, strict.status) == ((), "fail")
    assert (strict.lhs, strict.rhs) == ("15335056", "10107196")
    assert strict.plain() == "r89-strict-inequality: fail (15335056 >= 10107196)"
    assert (scan.params, scan.status, scan.lhs, scan.rhs) == (
        (("first_failing_k", None),),
        "fail",
        "log-concavity violated",
        "no k >= 1 violated",
    )
    # the convolution route still passes, at every n = 0..8
    assert [r.status for r in report] == ["fail"] * 4 + ["pass"] * 9


def _off_by_one(monkeypatch, name, hit, coefficient=None):
    """Make the named function, where checks calls it, return one more on
    the calls whose arguments hit accepts, or one more in that coefficient
    of the row it returns."""
    original = getattr(checks, name)

    def patched(*args, **kwargs):
        value = original(*args, **kwargs)
        if not hit(*args, **kwargs):
            return value
        if coefficient is None:
            return value + 1
        return (*value[:coefficient], value[coefficient] + 1, *value[coefficient + 1 :])

    monkeypatch.setattr(checks, name, patched)


def test_genfun_a_fails_where_a_bumped_row_reaches(monkeypatch):
    # the x^1 coefficient of I_3 bumped from 2 to 3 adds C(3 + m - 1, 3) to the
    # left side: nothing at m = 0, C(m + 2, 3) from m = 1 on
    _off_by_one(monkeypatch, "involution_eulerian", lambda n, signed=False: n == 3, 1)
    report = checks.verify_genfun_a(4, 3)
    assert {r.check for r in report} == {"genfun-a"} and len(report) == 20
    assert [(r.params, int(r.lhs) - int(r.rhs)) for r in report.failures] == [
        ((("n", 3), ("m", m)), comb(m + 2, 3)) for m in (1, 2, 3)
    ]


def test_genfun_b_fails_where_r_is_off_by_one(monkeypatch):
    _off_by_one(monkeypatch, "r_closed", lambda n, k: (n, k) == (2, 3))
    report = checks.verify_genfun_b(3, 4)
    assert {r.check for r in report} == {"genfun-b"} and len(report) == 20
    assert [(r.params, r.lhs, r.rhs) for r in report.failures] == [
        ((("n", 2), ("k", 3)), str(r_by_recurrence(2, 3)), str(r_by_recurrence(2, 3) + 1))
    ]


def test_r_convolution_fails_where_r_is_off_by_one(monkeypatch):
    # r(4, 2) one high: the r89 records read r(89, k) only, so they still pass
    _off_by_one(monkeypatch, "r_closed", lambda n, k: (n, k) == (4, 2))
    report = checks.verify_counterexample_89()
    row = [r_by_recurrence(4, k) for k in range(5)]
    bumped = [*row[:2], row[2] + 1, *row[3:]]
    assert [(r.check, r.params, r.lhs, r.rhs) for r in report.failures] == [
        ("r-convolution", (("n", 4),), int_list(row), int_list(bumped))
    ]


def test_des_statistics_agree_fails_on_a_bumped_coxeter_row(monkeypatch):
    # the notes past n = 5 never fail, whatever they carry
    _off_by_one(
        monkeypatch,
        "involution_eulerian",
        lambda n, signed=False, statistic=None: (n, statistic) == (4, DES_COXETER),
        2,
    )
    report = checks.check_des_statistic_conjecture(7)
    assert [(r.check, r.params, r.lhs, r.rhs) for r in report.failures] == [
        ("des-statistics-agree", (("n", 4),), "1,17,40,17,1", "1,17,41,17,1")
    ]


def test_signed_schur_fails_when_the_tableau_walk_yields_nothing(monkeypatch):
    # both sides walk tableaux, so with no filling they read 0 == 0 * 0; each
    # record names the count its own walk missed
    monkeypatch.setattr(tableaux, "_fillings", lambda *args: iter(()))
    report = checks.verify_signed_schur_spec(4, 3)
    assert len(report) == len(report.failures) == 114
    first = report[0]
    assert (first.params, first.lhs, first.rhs) == (
        (("n", 0), ("plus", "0"), ("minus", "0"), ("m", 1)),
        "0 from 0 bitableaux, expected 1",
        "0",
    )
    record = next(r for r in report if r.params[:3] == (("n", 4), ("plus", "2.1"), ("minus", "1")))
    assert record.lhs == "0 from 0 bitableaux, expected 8"  # C(4, 3) f^(2,1) f^(1)


@pytest.mark.parametrize("kept", [0, 1], ids=["nothing", "first-only"])
def test_signed_spec_closed_form_fails_when_the_group_walk_misses_elements(monkeypatch, kept):
    # every element a walk yields agrees with the closed form, so only the
    # count of 2^n n! elements catches those it does not yield
    original = checks.enumerate_group
    monkeypatch.setattr(checks, "enumerate_group", lambda n, signed: islice(original(n, signed), kept))
    report = checks.verify_signed_spec_closed_form(4, 3)
    assert len(report) == 15
    failures = [(r.params, r.lhs, r.rhs) for r in report.failures]
    assert failures == [
        ((("n", n), ("m", m)), f"chain-count, {kept} elements, expected {2**n * factorial(n)}", "binomial")
        for n in range(kept, 5)
        for m in range(1, 4)
    ]


def test_des_statistics_agree_fails_when_the_involution_walk_yields_nothing(monkeypatch):
    # two empty rows agree; the notes past n = 5 never fail
    monkeypatch.setattr(permutations, "_involution_walk", lambda *args: iter(()))
    report = checks.check_des_statistic_conjecture(7)
    assert [r.status for r in report] == ["fail"] * 6 + ["note"] * 2
    assert [(r.params, r.lhs, r.rhs) for r in report.failures] == [
        ((("n", n),), "rows summing to 0", f"expected {count}")
        for n, count in enumerate((1, 2, 6, 20, 76, 312))
    ]


def test_descent_multiset_bijection_fails_when_both_walks_yield_nothing(monkeypatch):
    # two empty Counters agree; each side names the count its walk missed
    for walk in ("enumerate_signed_involutions", "enumerate_involutions"):
        monkeypatch.setattr(checks, walk, lambda *args: iter(()))
    for walk in ("enumerate_all_syb", "enumerate_all_syt"):
        monkeypatch.setattr(checks, walk, lambda *args: iter(()))
    report = checks.verify_descent_multiset_bijection(3, 3)
    assert [r.status for r in report] == ["fail"] * 8
    assert [(r.check, r.params, r.lhs, r.rhs) for r in report][3:5] == [
        ("sdes-multiset-signed", (("n", 3),), "0 involutions, expected 20", "0 bitableaux, expected 20"),
        ("des-multiset-unsigned", (("n", 0),), "0 involutions, expected 1", "0 tableaux, expected 1"),
    ]
    assert report.failures[3].plain() == (
        "sdes-multiset-signed n=3: fail (0 involutions, expected 20 | 0 bitableaux, expected 20)"
    )


@pytest.mark.parametrize(
    "patch, check, n, lhs, rhs",
    [
        (
            lambda mp: mp.setitem(reference.INVOLUTION_ROWS_A, 4, (1, 4, 5, 1)),
            "table-a", 4, "1,4,4,1", "1,4,5,1",
        ),
        (
            lambda mp: mp.setitem(reference.INVOLUTION_ROWS_B_PRINTED, 3, (1, 9, 10, 1)),
            "table-b", 3, "1,9,9,1", "1,9,10,1",
        ),
        (
            lambda mp: _off_by_one(mp, "gamma_reconstruct", lambda gammas, n: True, 3),
            "table-b-gamma-expansion", 6, "1,43,331,634,331,43,1", "1,43,331,635,331,43,1",
        ),
        (
            lambda mp: _off_by_one(mp, "involution_count", lambda n, signed=False: signed),
            "table-b-total", 6, "1384", "1385",
        ),
        (
            lambda mp: mp.setitem(reference.GAMMA_ROWS_B, 4, (1, 13, 9)),
            "table-gamma-b", 4, "1,13,8", "1,13,9",
        ),
    ],
    ids=["table-a", "table-b", "table-b-gamma-expansion", "table-b-total", "table-gamma-b"],
)
def test_each_table_record_fails_alone_when_one_side_is_wrong(monkeypatch, patch, check, n, lhs, rhs):
    # the reference rows are the right sides of table-a, table-b and
    # table-gamma-b; the rebuilt gamma row and the count are those of the
    # n = 6 records
    checks_before = [(r.check, r.params) for r in checks.reference_table_report()]
    patch(monkeypatch)
    report = checks.reference_table_report()
    assert [(r.check, r.params) for r in report] == checks_before
    assert [(r.check, r.params, r.lhs, r.rhs) for r in report.failures] == [
        (check, (("n", n),), lhs, rhs)
    ]


@pytest.mark.parametrize("seed", [checks.DEFAULT_SEED, 1, 2])
def test_lemma_instances_match_randint_oracle(seed):
    # the lengths straddle the jumps in the bit width of the length draw
    for length_max in (1, 2, 3, 7, 8, 9, 16, 40):
        produced = list(checks._lemma_instances(2000, length_max, seed))
        assert produced == list(guo_zeng_instances_by_randint(2000, length_max, seed)), length_max


def test_lemma_instances_of_the_default_run_match_randint_oracle():
    produced = list(checks._lemma_instances(10_000, 8, checks.DEFAULT_SEED))
    assert produced == list(guo_zeng_instances_by_randint(10_000, 8, checks.DEFAULT_SEED))


@pytest.mark.parametrize("trials, length_max", [(0, 8), (-3, 8), (10, 0)])
def test_guo_zeng_lemma_rejects_empty_sweeps(trials, length_max):
    with pytest.raises(ValueError, match="at least 1"):
        checks.check_guo_zeng_lemma(trials, length_max)


@pytest.mark.parametrize(
    "arguments, text",
    [
        ({"trials": True}, "trials must be an integer of at least 1, got True"),
        ({"trials": 10.0}, "trials must be an integer of at least 1, got 10.0"),
        ({"length_max": 2.0}, "length_max must be an integer of at least 1, got 2.0"),
        ({"length_max": False}, "length_max must be an integer of at least 1, got False"),
        ({"seed": 1.5}, "seed must be a nonnegative integer, got 1.5"),
        ({"seed": "5"}, "seed must be a nonnegative integer, got '5'"),
        ({"trials": 0}, "trials must be an integer of at least 1, got 0"),
        ({"seed": -1}, "seed must be a nonnegative integer, got -1"),
    ],
)
def test_guo_zeng_lemma_rejects_arguments_that_are_not_ints(arguments, text):
    with pytest.raises(ValueError) as refused:
        checks.check_guo_zeng_lemma(**arguments)
    assert str(refused.value) == text
