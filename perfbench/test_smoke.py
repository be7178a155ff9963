"""Smoke test of the benchmark itself, at tiny sizes and with no timing bounds.

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import workloads as w

SPEC = json.loads(run.SPEC.read_text())

TINY = {
    "enumerate": (
        w.recurrence(3),
        w.conjecture_des(3),
        w.poly("fullB", 3, w.digest("1,23,23,1")),
        w.poly("invA", 5, w.digest("1,6,12,6,1")),
        w.genfun_a(4, 2),
    ),
    "closed-form": (
        w.gamma("invB", 6, w.digest("1,37,168,56")),
        w.proof_identity(5),
        w.counterexample(),
        w.genfun_b(2, 3),
        w.guo_zeng_lemma(10, 7),
    ),
    "bijection": (
        w.sdes_bijection(3),
        w.transpose(3),
        w.signed_schur(2, 2),
        w.cauchy(3, 2),
        w.lemma31(2, 2),
    ),
}


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_closed_forms():
    assert [w.involutions(n) for n in range(7)] == [1, 1, 2, 4, 10, 26, 76]
    assert [w.signed_involutions(n) for n in range(7)] == [1, 2, 6, 20, 76, 312, 1384]
    assert [w.partitions(n) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(name):
    figures, passes = run.measure(TINY[name], seconds=0, trace=True)
    for kind in ("end_to_end", "per_layer"):
        outcome = run.result(figures, passes, _units(kind))
        assert outcome["correct"], [o.problems for p in passes for o in p]
        assert outcome["attempted"] == 10 and outcome["failed"] == 0
        assert {n: m["unit"] for n, m in outcome["metrics"].items()} == _units(kind)
        assert all(isinstance(m["value"], (int, float)) for m in outcome["metrics"].values())


def test_wrong_pinned_row_is_a_failed_operation():
    good = TINY["enumerate"][2]
    bad = replace(good, pin=w.digest("1,22,24,1"))
    figures, passes = run.measure((good, bad), seconds=0, trace=False)
    outcome = run.result(figures, passes, {})
    assert (outcome["attempted"], outcome["failed"], outcome["correct"]) == (2, 1, False)
    assert "pinned row" in passes[0][1].problems[0]


def test_fail_record_and_failing_runner_are_failed_operations():
    command = w.recurrence(2)
    stdout = "check=recurrence-vs-enumeration\tparams=n=1\tstatus=fail\tlhs=1,1\trhs=1,2\n"
    assert run.judge(command, 0, stdout) == ["1 fail records", "no pass record"]
    over_budget = w.Command("over-budget", ("poly", "--kind", "invB", "--n", "3", "--budget", "1"))
    outcome = run.execute(over_budget, traced=False)
    assert "exit code 1" in outcome.problems


def test_closed_form_cross_check_catches_a_consistent_wrong_pin():
    command = w.poly("fullB", 3, w.digest("1,22,23,1"))
    problems = run.judge(command, 0, "check=poly\tparams=kind=fullB\tstatus=note\tlhs=1,22,23,1\trhs=-\n")
    assert problems == ["coefficients give 47, the closed form gives 48"]


def test_completeness_mismatch_fails_the_traced_run():
    honest = w.recurrence(3)
    wrong = replace(honest, objects={w.SIGNED_INVOLUTIONS: honest.total_objects + 1})
    assert run.execute(honest, traced=True).problems == []
    problems = run.execute(wrong, traced=True).problems
    assert len(problems) == 1 and problems[0].startswith("traced objects")


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "enumerate", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
