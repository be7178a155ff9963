"""Command-line frontend: compute distributions, run verification sweeps.

Each subcommand's parser names its runner with set_defaults(run=...), table
and counterexample the same one with the report it emits, and main calls
args.run(args, structured, out) inside the budget block, so the parser alone
picks the runner.  Each verify target runs one sweep of SWEEPS, every one of
them from checks, at the defaults of its signature; a verify flag overrides
the parameters _FLAG_PARAMS names for it, and a flag the sweep has no
parameter for is a usage error.  The names are read from the code of
``getattr(sweep, "__wrapped__", sweep)``, so a functools.wraps wrapper, such
as the benchmark tracer's, hides none.

Plain output prints coefficient lists space-separated, lowest degree first,
so rows diff cleanly against published tables.  Structured output prints the
tab-separated record format and is byte-identical across runs for fixed
arguments and seed.

Exit status: 0 when every hard assertion passed, 1 on any failure (including
an exceeded enumeration budget and a stdout closed early), 2 on usage
errors, among them an unused verify flag and a verify run that makes no
pass or fail check.

The enumeration budget comes from --budget, else from the EULERINV_BUDGET
environment variable, else DEFAULT_BUDGET.  main resolves it once and runs
the command inside enumeration_budget, so every enumeration the command
makes is held to that one cap and no command function passes it on.
"""
from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Sequence

from . import checks
from .distributions import (
    DES_B,
    DES_COXETER,
    full_eulerian,
    gamma_vector,
    involution_eulerian,
    signed_involution_eulerian_recurrence,
)
from .permutations import DEFAULT_BUDGET, BudgetExceededError, enumeration_budget
from .reports import NOTE, Params, Report

BUDGET_ENV_VAR = "EULERINV_BUDGET"

#: Each verify target and the sweep that runs it.  A sweep's defaults live in
#: its signature only; the verify flags override the parameters they name.
SWEEPS: dict[str, Callable[..., Report]] = {
    "recurrence": checks.verify_recurrence_route,
    "genfun-a": checks.verify_genfun_a,
    "genfun-b": checks.verify_genfun_b,
    "lemma31": checks.verify_signed_spec_closed_form,
    "cauchy": checks.verify_cauchy_spec,
    "signed-schur": checks.verify_signed_schur_spec,
    "sdes-bijection": checks.verify_descent_multiset_bijection,
    "proof-identity": checks.verify_proof_identity,
    "transpose": checks.verify_transpose_complement,
    "conjecture-des": checks.check_des_statistic_conjecture,
    "guo-zeng-lemma": checks.check_guo_zeng_lemma,
}

# The sweep parameters each verify flag sets: --n-max sets every size range a
# sweep has, each other flag the parameter of its own name.
_FLAG_PARAMS: dict[str, tuple[str, ...]] = {
    "--n-max": ("n_max", "signed_n_max", "unsigned_n_max", "length_max"),
    "--m-max": ("m_max",),
    "--k-max": ("k_max",),
    "--trials": ("trials",),
    "--seed": ("seed",),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerinv",
        description="Exact Eulerian distributions on involutions of S_n and B_n, "
        "with mechanical verification of their identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--format",
            choices=("plain", "structured"),
            default="plain",
            help="plain human-readable lines or tab-separated records",
        )
        p.add_argument(
            "--budget",
            type=int,
            help="most objects one enumeration may generate; binds every enumeration "
            "the command makes, and a command that enumerates nothing never reaches it",
        )

    poly = sub.add_parser("poly", help="print a descent distribution")
    poly.add_argument("--kind", choices=("invA", "invB", "fullA", "fullB"), required=True)
    poly.add_argument("--n", type=int, required=True)
    poly.add_argument("--stat", choices=(DES_B, DES_COXETER), default=DES_B)
    add_common(poly)
    poly.set_defaults(run=_run_poly)

    gamma = sub.add_parser("gamma", help="print a gamma vector")
    gamma.add_argument("--kind", choices=("invA", "invB"), default="invB")
    gamma.add_argument("--n", type=int, required=True)
    add_common(gamma)
    gamma.set_defaults(run=_run_gamma)

    verify = sub.add_parser("verify", help="run a verification sweep")
    verify.add_argument("target", choices=sorted(SWEEPS))
    for flag, names in _FLAG_PARAMS.items():
        verify.add_argument(flag, type=int, help="sets the sweep's " + " / ".join(names))
    add_common(verify)
    verify.set_defaults(run=_run_verify)

    counter = sub.add_parser("counterexample", help="reproduce a counterexample")
    counter.add_argument("target", choices=("r89",))
    add_common(counter)
    counter.set_defaults(run=_run_report, report=checks.verify_counterexample_89)

    table = sub.add_parser("table", help="recompute and compare all reference rows")
    add_common(table)
    table.set_defaults(run=_run_report, report=checks.reference_table_report)

    return parser


def _resolve_budget(args) -> int:
    if args.budget is not None:
        value, source = args.budget, "--budget"
    else:
        env = os.environ.get(BUDGET_ENV_VAR)
        if not env:
            return DEFAULT_BUDGET
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
        source = BUDGET_ENV_VAR
    try:  # enumeration_budget alone says which caps are valid; name where this one came from
        with enumeration_budget(value):
            pass
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    return value


def _emit(report: Report, structured: bool, out) -> int:
    for line in report.lines(structured=structured):
        print(line, file=out)
    if not structured:
        notes = sum(record.status == NOTE for record in report)
        hard = len(report) - notes
        counts = f"{hard} check{'s' * (hard != 1)}"
        if notes:
            counts += f", {notes} note{'s' * (notes != 1)}"
        verdict = "all hard assertions pass" if report.ok else f"{len(report.failures)} FAILED"
        print(f"{counts}: {verdict}", file=out)
    return 0 if report.ok else 1


def _print_row(check: str, params: Params, row, structured: bool, out) -> int:
    if structured:
        report = Report()
        report.note(check, params, row, "")
        return _emit(report, structured=True, out=out)
    print(" ".join(map(str, row)), file=out)
    return 0


def _run_poly(args, structured, out) -> int:
    rows = involution_eulerian if args.kind.startswith("inv") else full_eulerian
    row = rows(args.n, signed=args.kind.endswith("B"), statistic=args.stat)
    params = (("kind", args.kind), ("n", args.n), ("stat", args.stat))
    return _print_row("poly", params, row, structured, out)


def _run_gamma(args, structured, out) -> int:
    if args.kind == "invB":
        # the recurrence route reaches large n without enumerating involutions
        row = signed_involution_eulerian_recurrence(args.n)
        center_doubled = args.n
    else:
        if args.n < 1:
            raise ValueError(
                f"gamma --kind invA needs --n at least 1, got {args.n}: the S_n involution "
                "polynomial is symmetric about (n-1)/2, which must not be negative"
            )
        row = involution_eulerian(args.n)
        center_doubled = args.n - 1
    gammas = gamma_vector(row, center_doubled)
    return _print_row("gamma", (("kind", args.kind), ("n", args.n)), gammas, structured, out)


def _sweep_parameters(sweep) -> tuple[str, ...]:
    code = getattr(sweep, "__wrapped__", sweep).__code__
    return code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]


def _run_verify(args, structured, out) -> int:
    params = _sweep_parameters(SWEEPS[args.target])
    kwargs = {}
    for flag, names in _FLAG_PARAMS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        taken = [name for name in names if name in params]
        if not taken:
            raise ValueError(f"verify {args.target} takes no {flag}")
        kwargs.update(dict.fromkeys(taken, value))
    report = SWEEPS[args.target](**kwargs)
    if all(record.status == NOTE for record in report):
        raise ValueError(
            f"verify {args.target} made no pass or fail check at these arguments, "
            "so it has nothing to report"
        )
    return _emit(report, structured, out)


def _run_report(args, structured, out) -> int:
    return _emit(args.report(), structured, out)


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = _build_parser()
    args = parser.parse_args(argv)
    structured = args.format == "structured"
    try:
        with enumeration_budget(_resolve_budget(args)):
            return args.run(args, structured, out)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed early: exit 1 with no second error at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
