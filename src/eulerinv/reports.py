"""Line-oriented records for verification sweeps.

Every sweep produces one CheckRecord per checked identity: an immutable
named tuple of a check name, the parameters, a status (an unknown one raises
ValueError), the two compared values and the relation stated between them,
"|" unless given.  Integers print in plain decimal with no grouping, so
records diff and are byte-stable across runs.  A record renders the values
it is given: a tuple or list (a coefficient row, a gamma vector) as
comma-separated decimals, anything else with str().

Statuses: "pass" and "fail" are hard outcomes; "note" marks informational
findings (open questions, known discrepancies) that never fail a run.  A
plain line prints ``lhs RELATION rhs``: ``compare`` states "==" or "!=",
``less`` "<" or ">=", and ``check`` and ``note``, whose values describe
rather than quantify, the neutral "|".  Structured lines carry no relation.

A Report is the list of its records, in the order they were added.  Sweeps
add them only through ``Report.check``, ``Report.compare``, ``Report.less``
and ``Report.note``, so this module is the only place a status or a
relation is set; tests/test_reports.py::test_only_reports_sets_a_status
fails if another module builds a CheckRecord or spells a status.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator

Params = tuple[tuple[str, object], ...]

PASS = "pass"
FAIL = "fail"
NOTE = "note"
NEUTRAL = "|"


class CheckRecord(namedtuple("CheckRecord", "check params status lhs rhs relation")):
    __slots__ = ()

    def __new__(cls, check: str, params: Params, status: str, lhs: str, rhs: str, relation=NEUTRAL):
        if status not in (PASS, FAIL, NOTE):
            raise ValueError(f"unknown status {status!r}")
        return super().__new__(cls, check, params, status, lhs, rhs, relation)

    def structured(self) -> str:
        params = ",".join(f"{k}={v}" for k, v in self.params) or "-"
        return "\t".join(
            (
                f"check={self.check}",
                f"params={params}",
                f"status={self.status}",
                f"lhs={self.lhs or '-'}",
                f"rhs={self.rhs or '-'}",
            )
        )

    def plain(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in self.params)
        head = f"{self.check} {params}".strip()
        body = f"{self.lhs} {self.relation} {self.rhs}" if self.rhs else self.lhs
        return f"{head}: note: {body}" if self.status == NOTE else f"{head}: {self.status} ({body})"


class Report(list[CheckRecord]):
    def check(self, check: str, params: Params, ok: bool, lhs, rhs) -> None:
        """Add a pass record when ok holds, a fail record otherwise."""
        self._add(check, params, (PASS if ok else FAIL, NEUTRAL), lhs, rhs)

    def compare(self, check: str, params: Params, lhs, rhs) -> None:
        """Add a pass record when the two values are equal, a fail record otherwise."""
        self._add(check, params, (PASS, "==") if lhs == rhs else (FAIL, "!="), lhs, rhs)

    def less(self, check: str, params: Params, lhs, rhs) -> None:
        """Add a pass record when lhs < rhs, a fail record otherwise."""
        self._add(check, params, (PASS, "<") if lhs < rhs else (FAIL, ">="), lhs, rhs)

    def note(self, check: str, params: Params, lhs, rhs) -> None:
        """Add an informational record that never fails the report."""
        self._add(check, params, (NOTE, NEUTRAL), lhs, rhs)

    def _add(self, check: str, params: Params, outcome: tuple[str, str], lhs, rhs) -> None:
        status, relation = outcome
        self.append(CheckRecord(check, tuple(params), status, _render(lhs), _render(rhs), relation))

    @property
    def ok(self) -> bool:
        return all(r.status != FAIL for r in self)

    @property
    def failures(self) -> list[CheckRecord]:
        return [r for r in self if r.status == FAIL]

    def lines(self, structured: bool = True) -> Iterator[str]:
        for r in self:
            yield r.structured() if structured else r.plain()


def int_list(values: Iterable[int]) -> str:
    """Render a coefficient list as comma-separated plain decimals."""
    return ",".join(str(v) for v in values)


def _render(value) -> str:
    return int_list(value) if isinstance(value, (tuple, list)) else str(value)
