"""The README's library example runs as a doctest, so a broken example fails
the suite, and its table of verify flags is checked against the registry."""
import doctest
import inspect
import re
from pathlib import Path

from eulerinv.cli import _FLAG_PARAMS, SWEEPS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def _verify_flag_table() -> dict[str, set[str]]:
    """Each target of the README's verify table and the flags listed for it."""
    lines = iter(README.read_text().splitlines())
    for line in lines:
        if line.strip() == "| target | flags |":
            break
    next(lines)  # the | --- | --- | rule
    table = {}
    for line in lines:
        if not line.strip().startswith("|"):
            break
        targets, flags = line.strip().strip("|").split("|")
        for target in re.findall(r"`([^`]+)`", targets):
            assert target not in table, f"{target} listed twice"
            table[target] = set(re.findall(r"`(--[a-z-]+)`", flags))
    return table


def test_readme_verify_table_matches_the_registry():
    # a target's flags are the verify flags that name a parameter of its sweep
    table = _verify_flag_table()
    assert set(table) == set(SWEEPS)
    for target, listed in table.items():
        params = inspect.signature(SWEEPS[target]).parameters
        taken = {flag for flag, names in _FLAG_PARAMS.items() if any(n in params for n in names)}
        assert listed == taken, target
