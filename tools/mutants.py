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
CLI = "src/eulerinv/cli.py"
PERMUTATIONS = "src/eulerinv/permutations.py"
TABLEAUX = "src/eulerinv/tableaux.py"
TEST_CHECKS = "tests/test_checks.py::"
TEST_PERMUTATIONS = "tests/test_permutations.py::"
TEST_TABLEAUX = "tests/test_tableaux.py::"


def _cut_walk(path: str, function: str, kept: int, kills: tuple[str, ...]) -> Mutant:
    """A mutant under which the generator function `function` yields only
    its first `kept` objects: the function is renamed, and a wrapper under
    its own name slices what the renamed one yields."""
    whole = f"{function}_whole"
    wrapper = (
        f"def {function}(*args, **kwargs):\n"
        f"    yield from __import__('itertools').islice({whole}(*args, **kwargs), {kept})\n\n\n"
    )
    name = f"{function} " + ("yields nothing" if kept == 0 else "stops after its first object")
    return Mutant(name, path, f"def {function}(", f"{wrapper}def {whole}(", kills)


#: The tests that catch an involution walk, a tableau walk or a group walk
#: that leaves objects out, as every sweep must.
INVOLUTION_WALK_KILLS = (
    TEST_PERMUTATIONS + "test_enumerate_involutions_counts",
    TEST_PERMUTATIONS + "test_enumerate_signed_involutions_counts",
    TEST_CHECKS + "test_des_statistic_conjecture",
)
FILLINGS_KILLS = (
    TEST_TABLEAUX + "test_enumerate_syt_counts",
    TEST_TABLEAUX + "test_syb_totals_match_involution_counts",
    TEST_CHECKS + "test_descent_multiset_bijection",
    "tests/test_qsym.py::test_verify_signed_schur_spec",
)
GROUP_WALK_KILLS = (
    TEST_PERMUTATIONS + "test_enumerate_group_counts",
    "tests/test_qsym.py::test_verify_signed_spec_closed_form",
)
#: The test that catches a lemma check whose draw holds fewer than its trials.
LEMMA_DRAW_KILLS = (TEST_CHECKS + "test_guo_zeng_lemma_passes_only_when_it_draws_every_trial",)

#: The transpose map's head table, from the lookup of a word's head to the
#: store of its image prefix, slots and tail memo: each keys the table.
TRANSPOSE_HEAD = (
    "mapped = heads.get(head, _UNMAPPED)\n"
    "        if mapped is _UNMAPPED:\n"
    "            taken = [n] * n + [0] * n + [rows]\n"
    "            mapped = _columns(head[1:], taken, rows)\n"
    "            if mapped is not None:\n"
    "                mapped = head[:1] + mapped, taken, memo.setdefault(tuple(taken), {})\n"
    "            heads[head] = mapped\n"
)

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
        "the transpose step's lattice test dropped",
        TABLEAUX,
        "        if taken[r - 1] <= column:\n            return None\n",
        "",
        (TEST_CHECKS + "test_the_transpose_map_takes_exactly_the_standard_words",),
    ),
    Mutant(
        "the transpose step's range test dropped",
        TABLEAUX,
        "        if not 0 <= r < rows:\n            return None\n",
        "",
        (TEST_CHECKS + "test_the_transpose_map_takes_exactly_the_standard_words",),
    ),
    Mutant(
        "the transpose map keys its heads by entry 0 alone",
        TABLEAUX,
        TRANSPOSE_HEAD,
        TRANSPOSE_HEAD.replace("(head,", "(head[:1],").replace("[head] =", "[head[:1]] ="),
        (
            TEST_CHECKS + "test_transpose_complement",
            TEST_CHECKS + "test_the_transpose_stream_maps_each_word_as_the_one_pass_oracle_does",
        ),
    ),
    Mutant(
        "the transpose map's tail memo ignores the state",
        TABLEAUX,
        "memo.setdefault(tuple(taken), {})",
        "memo.setdefault(0, {})",
        (
            TEST_CHECKS + "test_transpose_complement",
            TEST_CHECKS + "test_the_transpose_stream_maps_each_word_as_the_one_pass_oracle_does",
        ),
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
            TEST_TABLEAUX + "test_the_split_walks_yield_the_sequences_of_the_reference_walks",
            TEST_TABLEAUX + "test_enumerate_syb_against_pairing_oracle",
        ),
    ),
    Mutant(
        "the walk sets bit 0",
        TABLEAUX,
        "descent, sign = (1 << (e - 1)) & ~1,",
        "descent, sign = 1 << (e - 1),",
        (
            TEST_CHECKS + "test_descent_multiset_bijection",
            "tests/test_qsym.py::test_verify_signed_schur_spec",
        ),
    ),
    Mutant(
        "the walk's sign bit set at r > size, past the first row of minus",
        TABLEAUX,
        "(r >= size) * sign",
        "(r > size) * sign",
        (
            TEST_CHECKS + "test_descent_multiset_bijection",
            "tests/test_qsym.py::test_verify_signed_schur_spec",
            TEST_TABLEAUX
            + "test_the_descents_walk_of_a_bipartition_yields_syb_signed_descent_set_in_walk_order",
        ),
    ),
    Mutant(
        "the walk drops the descent between its heads and its tails",
        TABLEAUX,
        "rise = (1 << _split(n)) & ~1",
        "rise = 0",
        (
            TEST_CHECKS + "test_descent_multiset_bijection",
            TEST_TABLEAUX + "test_the_split_walks_yield_the_sequences_of_the_reference_walks",
            TEST_TABLEAUX + "test_the_descents_walk_of_a_shape_yields_the_descent_set_of_each_tableau_in_walk_order",
        ),
    ),
    Mutant(
        "the completion table leaves out each sub-diagram's last completion",
        TABLEAUX,
        "tails[s] = tuple(groups)",
        "tails[s] = (*groups[:-1], (first, bits[:-1], rows[:-1]))",
        (
            TEST_CHECKS + "test_transpose_complement",
            TEST_TABLEAUX + "test_the_split_walks_yield_the_sequences_of_the_reference_walks",
            TEST_TABLEAUX + "test_syb_totals_match_involution_counts",
        ),
    ),
    Mutant(
        "the head table leaves out its last prefix",
        TABLEAUX,
        "return tuple(heads), tuple(tails)",
        "return tuple(heads[:-1]), tuple(tails)",
        (
            TEST_CHECKS + "test_transpose_complement",
            TEST_TABLEAUX + "test_the_split_walks_yield_the_sequences_of_the_reference_walks",
            TEST_TABLEAUX + "test_syb_totals_match_involution_counts",
        ),
    ),
    Mutant(
        "the walk's first row of minus under the column rule",
        TABLEAUX,
        "(r == 0 or r == size or lengths[r - 1] > col)",
        "(r == 0 or lengths[r - 1] > col)",
        (
            TEST_TABLEAUX + "test_enumerate_syb_against_pairing_oracle",
            TEST_TABLEAUX + "test_syb_totals_match_involution_counts",
        ),
    ),
    Mutant(
        "bipartitions takes n unchecked",
        TABLEAUX,
        'as in partitions."""\n    _check_int(n, "n")\n',
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
        "if not all(map(_is_int, entries)):",
        "if any(isinstance(e, str) for e in entries):",
        (TEST_TABLEAUX + "test_the_oracle_and_both_functions_refuse_a_filling_that_is_not_a_bitableau",),
    ),
    Mutant(
        "the standard check skips the rebuild",
        TABLEAUX,
        "if _transposer(n)(word) is None or _bitableau_of_word(word) != filling:",
        "if _transposer(n)(word) is None:",
        (
            TEST_TABLEAUX + "test_the_set_readers_accept_exactly_the_standard_fillings",
            TEST_TABLEAUX + "test_the_transpose_accepts_exactly_the_standard_fillings",
        ),
    ),
    Mutant(
        "the standard check skips the lattice test",
        TABLEAUX,
        "if _transposer(n)(word) is None or _bitableau_of_word(word) != filling:",
        "if _bitableau_of_word(word) != filling:",
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
        "lemma31 counts chains at m - 1",
        CHECKS,
        "_count_chains(signed_descent_set(w), n, m)",
        "_count_chains(signed_descent_set(w), n, m - 1)",
        ("tests/test_qsym.py::test_verify_signed_spec_closed_form",),
    ),
    Mutant(
        "signed-schur counts chains at m + 1",
        CHECKS,
        "count * _count_chains(mask, n, m) for mask, count in walk)",
        "count * _count_chains(mask, n, m + 1) for mask, count in walk)",
        ("tests/test_qsym.py::test_verify_signed_schur_spec",),
    ),
    Mutant(
        "multiset_count takes one symbol too many",
        "src/eulerinv/polynomials.py",
        "comb(symbols + size - 1, size)",
        "comb(symbols + size, size)",
        ("tests/test_polynomials.py::test_multiset_count",),
    ),
    Mutant(
        "signed_descent_set makes a -,+ step a descent",
        PERMUTATIONS,
        "elif prev > v:",
        "elif prev > v or prev < 0:",
        (
            TEST_PERMUTATIONS + "test_signed_descent_set_examples",
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
        "the involution walk's tail memo keyed by the open slots alone",
        PERMUTATIONS,
        "key = rest, tuple([bisect(values, window[s]) for s in beside])",
        "key = rest, ()",
        (TEST_PERMUTATIONS + "test_walk_counts_match_the_per_window_statistics_in_walk_order",),
    ),
    Mutant(
        "an involution walk's tail leaves out its last completion",
        PERMUTATIONS,
        "list(chain.from_iterable(blocks(rest, 0)))",
        "list(chain.from_iterable(blocks(rest, 0)))[:-1]",
        (
            TEST_PERMUTATIONS + "test_enumerate_involutions_counts",
            TEST_PERMUTATIONS + "test_enumerate_signed_involutions_counts",
        ),
    ),
    Mutant(
        "a tail joined without its step's count",
        PERMUTATIONS,
        "yield map(count.__add__, tail(rest))",
        "yield tail(rest)",
        (TEST_PERMUTATIONS + "test_walk_counts_match_the_per_window_statistics_in_walk_order",),
    ),
    Mutant(
        "a counting walk recurses without its step's count",
        PERMUTATIONS,
        "blocks(rest, count)",
        "blocks(rest, below)",
        (TEST_PERMUTATIONS + "test_walk_counts_match_the_per_window_statistics_in_walk_order",),
    ),
    Mutant(
        "a walk of windows gives its negative fixed point a plus sign",
        PERMUTATIONS,
        "window[k] = -k - 1",
        "window[k] = k + 1",
        (TEST_PERMUTATIONS + "test_involution_enumerators_match_the_recursive_walk",),
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
        '_check_int(trials, "trials", 1)',
        '_check_int(int(trials), "trials", 1)',
        (TEST_CHECKS + "test_guo_zeng_lemma_rejects_arguments_that_are_not_ints",),
    ),
    Mutant(
        "_is_int takes a bool",
        PERMUTATIONS,
        "return isinstance(value, int) and not isinstance(value, bool)",
        "return isinstance(value, int)",
        ("tests/test_boundary.py::test_an_integer_parameter_refuses_all_but_an_int_of_at_least_its_least",),
    ),
    Mutant(
        "a sweep's usage error names the verify target but not the flags given",
        CLI,
        '        command += f" {flag} {value}"\n',
        "",
        ("tests/test_cli.py::test_a_sweep_usage_error_names_the_command_and_the_flags_given",),
    ),
    Mutant(
        "sdes-bijection passes two walks of nothing",
        CHECKS,
        "ok = perm_side == tab_side and tab_side.total() == expected",
        "ok = perm_side == tab_side",
        (TEST_CHECKS + "test_descent_multiset_bijection_fails_when_both_walks_yield_nothing",),
    ),
    *(
        _cut_walk(path, function, kept, kills)
        for path, function, kills in (
            (PERMUTATIONS, "_involution_walk", INVOLUTION_WALK_KILLS),
            (TABLEAUX, "_fillings", FILLINGS_KILLS),
            (PERMUTATIONS, "enumerate_group", GROUP_WALK_KILLS),
            (CHECKS, "_lemma_instances", LEMMA_DRAW_KILLS),
        )
        for kept in (0, 1)
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
