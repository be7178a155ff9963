"""tools/code_lines.py counts the lines that hold code: no docstring,
comment or blank line, and every line of a statement or a string that
spans several."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_code_lines)

SOURCE = '''"""A module docstring
over two lines."""
# a comment

def f(x):
    """A function docstring."""
    y = (x +
         1)  # a trailing comment

    return y


class C:
    """A class docstring."""
    z = """a string
    that is no docstring"""
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # def, the two lines of y, return, class, and the two lines of z
    assert _code_lines.code_lines(SOURCE) == 7


def test_the_total_is_the_sum_of_the_modules(capsys):
    assert _code_lines.main() == 0
    *modules, total = capsys.readouterr().out.splitlines()
    assert total.split() == [str(sum(int(line.split()[0]) for line in modules)), "total"]
    assert {line.split()[1] for line in modules} == {p.name for p in _code_lines.PACKAGE.glob("*.py")}
