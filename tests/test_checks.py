from math import comb

import pytest

from eulerinv import checks
from eulerinv.permutations import BudgetExceededError, enumeration_budget
from eulerinv.reports import CheckRecord, Report
from oracles import guo_zeng_counterexample_search, guo_zeng_instances_by_randint


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
    report = checks.verify_counterexample_89(convolution_n_max=5)
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
    report = checks.verify_counterexample_89(convolution_n_max=1)
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
    """Make the named walk of checks skip the given positions of its size-n walk."""
    original = getattr(checks, walk)

    def dropping(size):
        for i, q in enumerate(original(size)):
            if size != n or i not in positions:
                yield q

    monkeypatch.setattr(checks, walk, dropping)


def _repeat_first(monkeypatch, walk, n):
    """Make the named walk of checks yield the first object of its size-n walk twice."""
    original = getattr(checks, walk)

    def repeating(size):
        objects = list(original(size))
        if size == n:
            objects.insert(1, objects[0])
        yield from objects

    monkeypatch.setattr(checks, walk, repeating)


def test_descent_multiset_failure_names_the_differing_descent_set(monkeypatch):
    passing = checks.verify_descent_multiset_bijection(3, 2)
    # the first bitableau of size 2 is ((), ((1, 2),)): no descent, both signs negative
    _drop_from_walk(monkeypatch, "enumerate_all_syb", 2, {0})
    report = checks.verify_descent_multiset_bijection(3, 2)
    assert [r.status for r in report] == ["pass", "pass", "fail", "pass", "pass", "pass", "pass"]
    failure = report.failures[0]
    assert failure.params == (("n", 2),)
    assert failure.lhs == "6 involutions, 1 with Des={} signs=--"
    assert failure.rhs == "5 bitableaux, 0 with Des={} signs=--"
    # the other records are the passes of the unpatched run
    unchanged = [r for r in passing if (r.check, r.params) != ("sdes-multiset-signed", (("n", 2),))]
    assert [r for r in report if r.status == "pass"] == unchanged


def test_descent_multiset_failure_reports_the_smallest_set_in_sorted_order(monkeypatch):
    # drop ((), ((1,), (2,))) with Des={1} signs=-- and (((2,),), ((1,),)) with Des={} signs=-+
    _drop_from_walk(monkeypatch, "enumerate_all_syb", 2, {1, 3})
    failure = checks.verify_descent_multiset_bijection(2, 0).failures[0]
    assert failure.lhs == "6 involutions, 1 with Des={} signs=-+"
    assert failure.rhs == "4 bitableaux, 0 with Des={} signs=-+"


def test_signed_descent_multiset_failure_names_an_all_plus_set_without_signs(monkeypatch):
    # the fifth bitableau of size 2 is (((1, 2),), ()): no descent, both signs plus
    _drop_from_walk(monkeypatch, "enumerate_all_syb", 2, {4})
    failure = checks.verify_descent_multiset_bijection(2, 0).failures[0]
    assert failure.params == (("n", 2),)
    assert failure.lhs == "6 involutions, 1 with Des={}"
    assert failure.rhs == "5 bitableaux, 0 with Des={}"


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
    assert failure.rhs == "3 tableaux, 0 with Des={2}"


@pytest.mark.parametrize(
    "walk, check, first",
    [
        ("enumerate_all_syb", "transpose-signed", "((), ((1, 2, 3),))"),
        ("enumerate_all_syt", "transpose-unsigned", "((1, 2, 3),)"),
    ],
)
def test_transpose_fails_when_the_walk_repeats_a_tableau(monkeypatch, walk, check, first):
    # the repeat passes both per-object tests; its repeated transpose is the one
    # violation, and the record names the repeated object
    _repeat_first(monkeypatch, walk, 3)
    report = checks.verify_transpose_complement(4, 4)
    failures = [(r.check, r.params) for r in report.failures]
    assert failures == [(check, (("n", 3),))]
    assert report.failures[0].rhs == f"1 violations, first {first}"


def test_transpose_failure_names_the_first_of_several_violations(monkeypatch):
    # with transposition the identity, both tableaux of size 2 miss the complement
    monkeypatch.setattr(checks, "syt_transpose", lambda q: q)
    failure = checks.verify_transpose_complement(0, 2).failures[0]
    assert failure.params == (("n", 2),)
    assert failure.rhs == "2 violations, first ((1, 2),)"


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


def test_r89_records_fail_when_r_is_log_concave(monkeypatch):
    r_closed = checks.r_closed
    # binomial coefficients are log-concave, so neither witness survives at n = 89
    monkeypatch.setattr(checks, "r_closed", lambda n, k: comb(n, k) if n == 89 else r_closed(n, k))
    report = checks.verify_counterexample_89(convolution_n_max=1)
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
    assert [r.status for r in report] == ["fail"] * 4 + ["pass"] * 2


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
