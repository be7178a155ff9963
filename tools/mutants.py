"""Mutation check: each mutant below breaks the program on purpose, and the
tests named for it must catch it.

Each entry names a file, a text that must occur in it exactly once, the
text that replaces it, and the ids of the tests that must fail.  The script
copies the repository to a temporary directory, applies one mutant at a
time to that copy (never to the tree it runs from), and runs pytest on the
mutant's own ids only.  It reports every entry whose old text does not
occur exactly once, every mutant that survives (none of its ids fails),
every id that passes although it should fail, and every run that errors
rather than fails, and exits 1 when it reports anything.

Run it from any directory with ``python tools/mutants.py``.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: A mutant's tests take seconds; one that makes a walk loop must not hang the run.
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    kills: tuple[str, ...]


CHECKS = "src/eulerinv/checks.py"
PERMUTATIONS = "src/eulerinv/permutations.py"
TABLEAUX = "src/eulerinv/tableaux.py"
TEST_CHECKS = "tests/test_checks.py::"
TEST_TABLEAUX = "tests/test_tableaux.py::"

MUTANTS = (
    Mutant(
        "the transpose map counts the columns of minus from 1",
        TABLEAUX,
        "taken = [n] * n + [0] * n + [rows]",
        "taken = [n] * n + [1] * n + [rows]",
        (
            TEST_CHECKS + "test_transpose_complement",
            TEST_CHECKS + "test_the_transpose_words_are_those_of_the_built_transposes",
        ),
    ),
    Mutant(
        "the transpose map sends the columns of plus from row n - 1",
        TABLEAUX,
        "taken = [n] * n + [0] * n + [rows]",
        "taken = [n - 1] * n + [0] * n + [rows]",
        (
            TEST_CHECKS + "test_transpose_complement",
            TEST_CHECKS + "test_the_transpose_words_are_those_of_the_built_transposes",
        ),
    ),
    Mutant(
        "the transpose map's lattice test dropped",
        TABLEAUX,
        "        if taken[r - 1] <= column:\n            return None\n",
        "",
        (TEST_CHECKS + "test_the_transpose_map_takes_exactly_the_standard_words",),
    ),
    Mutant(
        "the transpose map's range test dropped",
        TABLEAUX,
        "        if not 0 <= r < rows:\n            return None\n",
        "",
        (TEST_CHECKS + "test_the_transpose_map_takes_exactly_the_standard_words",),
    ),
    Mutant(
        "the transpose sweep's rise test weakened to <",
        CHECKS,
        " or row <= previous\n",
        " or row < previous\n",
        (
            TEST_CHECKS + "test_transpose_fails_when_the_walk_repeats_a_tableau",
            TEST_CHECKS + "test_transpose_walks_each_size_once_when_every_image_repeats",
        ),
    ),
    Mutant(
        "the row-word builder keeps the empty rows",
        TABLEAUX,
        "tuple(map(tuple, filter(None, part)))",
        "tuple(map(tuple, part))",
        (
            TEST_TABLEAUX + "test_enumerate_syb_keeps_the_recursive_order",
            TEST_TABLEAUX + "test_enumerate_syb_against_pairing_oracle",
            TEST_TABLEAUX + "test_the_all_shapes_walks_yield_the_objects_of_the_placing_oracles",
        ),
    ),
    Mutant(
        "the walk sets bit 0",
        TABLEAUX,
        "bit[0] = 0",
        "bit[0] = 1",
        (
            TEST_CHECKS + "test_descent_multiset_bijection",
            "tests/test_qsym.py::test_verify_signed_schur_spec",
        ),
    ),
    Mutant(
        "the walk's sign bit set at r > second",
        TABLEAUX,
        "if r >= second:",
        "if r > second:",
        (
            TEST_CHECKS + "test_descent_multiset_bijection",
            "tests/test_qsym.py::test_verify_signed_schur_spec",
            TEST_TABLEAUX
            + "test_the_descents_walk_of_a_bipartition_yields_syb_signed_descent_set_in_walk_order",
        ),
    ),
    Mutant(
        "the walk's second part under the column rule",
        TABLEAUX,
        "(r == 0 or r == second or lengths[r - 1] > col)",
        "(r == 0 or lengths[r - 1] > col)",
        (
            TEST_TABLEAUX + "test_enumerate_syb_against_pairing_oracle",
            TEST_TABLEAUX + "test_syb_totals_match_involution_counts",
        ),
    ),
    Mutant(
        "bipartitions takes n unchecked",
        TABLEAUX,
        'as in partitions."""\n    _check_nonnegative(n, "n")\n',
        'as in partitions."""\n',
        (TEST_TABLEAUX + "test_partitions_reject_an_n_that_is_no_nonnegative_int",),
    ),
    Mutant(
        "_word_of takes any number of parts",
        TABLEAUX,
        "isinstance(bitableau, (tuple, list)) and len(bitableau) == 2",
        "isinstance(bitableau, (tuple, list)) and len(bitableau) >= 2",
        (TEST_TABLEAUX + "test_the_oracle_and_both_functions_refuse_a_filling_that_is_not_a_bitableau",),
    ),
    Mutant(
        "_word_of takes a float or a bool entry",
        TABLEAUX,
        "if any(isinstance(e, bool) or not isinstance(e, int) for e in entries):",
        "if any(isinstance(e, str) for e in entries):",
        (TEST_TABLEAUX + "test_the_oracle_and_both_functions_refuse_a_filling_that_is_not_a_bitableau",),
    ),
    Mutant(
        "the standard check skips the rebuild",
        TABLEAUX,
        "if _transpose_word(word, n) is None or _bitableau_of_word(word, n) != filling:",
        "if _transpose_word(word, n) is None:",
        (
            TEST_TABLEAUX + "test_the_set_readers_accept_exactly_the_standard_fillings",
            TEST_TABLEAUX + "test_the_transpose_accepts_exactly_the_standard_fillings",
        ),
    ),
    Mutant(
        "the standard check skips the lattice test",
        TABLEAUX,
        "if _transpose_word(word, n) is None or _bitableau_of_word(word, n) != filling:",
        "if _bitableau_of_word(word, n) != filling:",
        (
            TEST_TABLEAUX + "test_the_set_readers_accept_exactly_the_standard_fillings",
            TEST_TABLEAUX + "test_the_transpose_accepts_exactly_the_standard_fillings",
        ),
    ),
    Mutant(
        "schur_spec counts chains at m + 1",
        "src/eulerinv/qsym.py",
        "count * _count_chains(mask, n, m) for",
        "count * _count_chains(mask, n, m + 1) for",
        (
            "tests/test_qsym.py::test_schur_spec_matches_ssyt_oracle",
            "tests/test_qsym.py::test_verify_cauchy_spec",
        ),
    ),
    Mutant(
        "signed_descent_set makes a -,+ step a descent",
        PERMUTATIONS,
        "elif prev > v:",
        "elif prev > v or prev < 0:",
        (
            "tests/test_permutations.py::test_signed_descent_set_examples",
            TEST_CHECKS + "test_descent_multiset_bijection",
        ),
    ),
    Mutant(
        "the involution walk forgets a pair's end",
        PERMUTATIONS,
        "{i - 1, i, j - 1, j}",
        "{i - 1, i, j}",
        (TEST_CHECKS + "test_des_statistic_conjecture", TEST_CHECKS + "test_genfun_sweeps"),
    ),
    Mutant(
        "a recurrence coefficient changed",
        "src/eulerinv/distributions.py",
        "(2 * k + 1) * prev_k",
        "(2 * k + 2) * prev_k",
        (TEST_CHECKS + "test_recurrence_route", TEST_CHECKS + "test_proof_identity"),
    ),
    Mutant(
        "the lemma check takes a bool or a float",
        CHECKS,
        "if isinstance(value, bool) or not isinstance(value, int):",
        "if isinstance(value, str):",
        (TEST_CHECKS + "test_guo_zeng_lemma_rejects_arguments_that_are_not_ints",),
    ),
)


def _failed_ids(output: str) -> set[str]:
    """The ids pytest's short summary lists as FAILED, parameters dropped."""
    return {
        line.split()[1].split("[")[0]
        for line in output.splitlines()
        if line.startswith("FAILED ")
    }


def run(mutant: Mutant, copy: Path) -> list[str]:
    """Apply mutant to copy, run its ids there, restore the file, and return
    what is wrong: nothing when every id fails."""
    target = copy / mutant.path
    original = target.read_text()
    target.write_text(original.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.kills],
            cwd=copy,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return [f"timed out after {TIMEOUT_S} s: {mutant.name}"]
    finally:
        target.write_text(original)
    if result.returncode == 0:
        return [f"survived: {mutant.name}"]
    if result.returncode != 1:
        tail = result.stdout.strip().splitlines()[-1:] or [result.stderr.strip()]
        return [f"errored (pytest exit {result.returncode}): {mutant.name}: {tail[0]}"]
    failed = _failed_ids(result.stdout)
    return [f"not caught by {test}: {mutant.name}" for test in mutant.kills if test not in failed]


def main() -> int:
    problems = []
    runnable = []
    for mutant in MUTANTS:
        count = (ROOT / mutant.path).read_text().count(mutant.old)
        if count != 1:
            problems.append(f"old text found {count} times, not once: {mutant.name}")
        elif not mutant.kills:
            problems.append(f"no tests named: {mutant.name}")
        else:
            runnable.append(mutant)
    with tempfile.TemporaryDirectory() as temporary:
        copy = Path(temporary) / "repo"
        ignore = shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench", ".benchmarks", "*.egg-info"
        )
        shutil.copytree(ROOT, copy, ignore=ignore)
        for mutant in runnable:
            found = run(mutant, copy)
            print(f"{'ok' if not found else 'FAIL'}\t{mutant.name}", flush=True)
            problems += found
    for problem in problems:
        print(problem)
    print(f"{len(MUTANTS)} mutants, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
