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
