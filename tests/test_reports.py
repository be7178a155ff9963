import ast
from pathlib import Path

import eulerinv

STATUSES = {"pass", "fail", "note"}
PACKAGE = Path(eulerinv.__file__).parent


def _modules():
    return sorted(PACKAGE.glob("*.py"))


def _calls_check_record(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "CheckRecord") or (
        isinstance(func, ast.Attribute) and func.attr == "CheckRecord"
    )


def test_only_reports_sets_a_status():
    spelled, built = [], []
    for path in _modules():
        if path.name == "reports.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and node.value in STATUSES:
                spelled.append(f"{path.name}:{node.lineno} {node.value!r}")
            if _calls_check_record(node):
                built.append(f"{path.name}:{node.lineno}")
    # the scan found the package, so the empty lists below are not vacuous
    assert "reports.py" in [path.name for path in _modules()]
    assert spelled == []
    assert built == []


def test_records_render_the_values_they_are_given():
    report = eulerinv.Report()
    # a tuple or list as comma-separated decimals, anything else with str()
    report.compare("row", (("n", 3),), (1, 9, 9, 1), (1, 9, 9, 1))
    report.compare("row", (("n", 4),), (1, 17, 40, 17, 1), (1, 17, 41, 17, 1))
    report.check("gamma", (), True, [1, 37, 168, 56], "text")
    report.note("count", (), 1384, ())
    assert list(report.lines()) == [
        "check=row\tparams=n=3\tstatus=pass\tlhs=1,9,9,1\trhs=1,9,9,1",
        "check=row\tparams=n=4\tstatus=fail\tlhs=1,17,40,17,1\trhs=1,17,41,17,1",
        "check=gamma\tparams=-\tstatus=pass\tlhs=1,37,168,56\trhs=text",
        "check=count\tparams=-\tstatus=note\tlhs=1384\trhs=-",
    ]
