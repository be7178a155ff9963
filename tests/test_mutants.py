"""The entries of tools/mutants.py still match the code they break.

Running the mutants takes its own CI step; this only checks that each old
text occurs exactly once, so a refactor that moves it shows here first, and
that each test named to catch a mutant is still defined."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
_mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_mutants)


def test_every_old_text_of_the_mutants_occurs_exactly_once():
    for mutant in _mutants.MUTANTS:
        assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, mutant.name


def test_every_mutant_names_tests_that_exist():
    for mutant in _mutants.MUTANTS:
        assert mutant.kills, mutant.name
        for test in mutant.kills:
            path, name = test.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(), test
