"""Command-line frontend: compute distributions, run verification sweeps.

Plain output prints coefficient lists space-separated, lowest degree first,
so rows diff cleanly against published tables.  Structured output prints the
tab-separated record format and is byte-identical across runs for fixed
arguments and seed.

Exit status: 0 when every hard assertion passed, 1 on any failure (including
an exceeded enumeration budget), 2 on usage errors, among them a verify run
that makes no pass or fail check.  The enumeration budget
can also be set through the EULERINV_BUDGET environment variable; an
explicit --budget wins.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Sequence

from . import checks, qsym
from .distributions import (
    DES_B,
    DES_COXETER,
    EulerianDistribution,
    full_eulerian,
    gamma_vector,
    involution_eulerian,
    r_closed,
    signed_involution_eulerian,
    signed_involution_eulerian_recurrence,
)
from .permutations import BudgetExceededError
from .reports import NOTE, CheckRecord, Report, int_list

BUDGET_ENV_VAR = "EULERINV_BUDGET"

VERIFY_TARGETS: dict[str, str] = {
    "recurrence": "recurrence-computed rows against brute-force enumeration",
    "genfun-a": "generating identity for symmetric-group involutions",
    "genfun-b": "generating identity for hyperoctahedral involutions",
    "lemma31": "signed specialization closed form over all of B_n",
    "cauchy": "Schur specialization sum against the product series",
    "signed-schur": "signed Schur factorization over bitableaux",
    "sdes-bijection": "descent multisets of involutions against (bi)tableaux",
    "proof-identity": "difference decomposition and its sign facts",
    "transpose": "transpose complementation of descent numbers",
    "conjecture-des": "the two type-B descent statistics on involutions",
    "guo-zeng-lemma": "randomized check of the averaging lemma",
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
        p.add_argument("--budget", type=int, help="enumeration budget override (objects per call)")

    poly = sub.add_parser("poly", help="print a descent distribution")
    poly.add_argument("--kind", choices=("invA", "invB", "fullA", "fullB"), required=True)
    poly.add_argument("--n", type=int, required=True)
    poly.add_argument("--stat", choices=(DES_B, DES_COXETER), default=DES_B)
    add_common(poly)

    gamma = sub.add_parser("gamma", help="print a gamma vector")
    gamma.add_argument("--kind", choices=("invA", "invB"), default="invB")
    gamma.add_argument("--n", type=int, required=True)
    add_common(gamma)

    verify = sub.add_parser("verify", help="run a verification sweep")
    verify.add_argument("target", choices=sorted(VERIFY_TARGETS))
    verify.add_argument("--n-max", type=int)
    verify.add_argument("--m-max", type=int)
    verify.add_argument("--k-max", type=int)
    verify.add_argument("--trials", type=int, default=10_000)
    verify.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    add_common(verify)

    counter = sub.add_parser("counterexample", help="reproduce a counterexample")
    counter.add_argument("target", choices=("r89",))
    add_common(counter)

    table = sub.add_parser("table", help="recompute and compare all reference rows")
    add_common(table)

    return parser


def _checked_budget(value: int, source: str) -> int:
    if value < 1:
        raise ValueError(f"{source} must be at least 1, got {value}")
    return value


def _resolve_budget(args) -> int | None:
    if args.budget is not None:
        return _checked_budget(args.budget, "--budget")
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
        return _checked_budget(value, BUDGET_ENV_VAR)
    return None


def _emit(report: Report, structured: bool, out) -> int:
    for line in report.lines(structured=structured):
        print(line, file=out)
    if not structured:
        failures = report.failures
        print(
            f"{len(report)} checks: "
            + ("all hard assertions pass" if not failures else f"{len(failures)} FAILED"),
            file=out,
        )
    return 0 if report.ok else 1


def _distribution(args, budget) -> EulerianDistribution:
    if args.kind == "invA":
        return involution_eulerian(args.n, budget=budget)
    if args.kind == "invB":
        return signed_involution_eulerian(args.n, args.stat, budget=budget)
    return full_eulerian(args.n, signed=args.kind == "fullB", statistic=args.stat, budget=budget)


def _run_poly(args, budget, structured, out) -> int:
    dist = _distribution(args, budget)
    if structured:
        record = CheckRecord(
            "poly",
            (("kind", args.kind), ("n", args.n), ("stat", args.stat)),
            "note",
            int_list(dist.coefficients()),
            "",
        )
        print(record.structured(), file=out)
    else:
        print(" ".join(map(str, dist.coefficients())), file=out)
    return 0


def _run_gamma(args, budget, structured, out) -> int:
    if args.kind == "invB":
        # the recurrence route reaches large n without enumerating involutions
        dist = signed_involution_eulerian_recurrence(args.n)
        center_doubled = args.n
    else:
        if args.n < 1:
            raise ValueError(
                f"gamma --kind invA needs --n at least 1, got {args.n}: the S_n involution "
                "polynomial is symmetric about (n-1)/2, which must not be negative"
            )
        dist = involution_eulerian(args.n, budget=budget)
        center_doubled = args.n - 1
    gv = gamma_vector(dist.poly, center_doubled)
    if structured:
        record = CheckRecord(
            "gamma",
            (("kind", args.kind), ("n", args.n)),
            "note",
            int_list(gv.gammas),
            "",
        )
        print(record.structured(), file=out)
    else:
        print(" ".join(map(str, gv.gammas)), file=out)
    return 0


def _verify_report(args, budget) -> Report:
    n_max = args.n_max
    m_max = args.m_max
    k_max = args.k_max
    target = args.target
    runners: dict[str, Callable[[], Report]] = {
        "recurrence": lambda: checks.verify_recurrence_route(
            9 if n_max is None else n_max, budget=budget
        ),
        "genfun-a": lambda: checks.verify_genfun_a(
            8 if n_max is None else n_max, 6 if m_max is None else m_max, budget=budget
        ),
        "genfun-b": lambda: checks.verify_genfun_b(
            8 if n_max is None else n_max, 8 if k_max is None else k_max, budget=budget
        ),
        "lemma31": lambda: qsym.verify_signed_spec_closed_form(
            4 if n_max is None else n_max, 6 if m_max is None else m_max
        ),
        "cauchy": lambda: qsym.verify_cauchy_spec(
            6 if n_max is None else n_max, 4 if m_max is None else m_max
        ),
        "signed-schur": lambda: qsym.verify_signed_schur_spec(
            5 if n_max is None else n_max, 4 if m_max is None else m_max
        ),
        "sdes-bijection": lambda: checks.verify_descent_multiset_bijection(
            6 if n_max is None else n_max, 7 if n_max is None else n_max, budget=budget
        ),
        "proof-identity": lambda: checks.verify_proof_identity(20 if n_max is None else n_max),
        "transpose": lambda: checks.verify_transpose_complement(
            6 if n_max is None else n_max, 7 if n_max is None else n_max
        ),
        "conjecture-des": lambda: checks.check_des_statistic_conjecture(
            7 if n_max is None else n_max, budget=budget
        ),
        "guo-zeng-lemma": lambda: checks.check_guo_zeng_lemma(
            trials=args.trials, length_max=8 if n_max is None else n_max, seed=args.seed
        ),
    }
    return runners[target]()


def _run_counterexample(args, budget, structured, out) -> int:
    report = checks.verify_counterexample_89(budget=budget)
    if structured:
        return _emit(report, structured=True, out=out)
    r1, r2, r3 = r_closed(89, 1), r_closed(89, 2), r_closed(89, 3)
    print(f"r(89,1) = {r1}", file=out)
    print(f"r(89,2) = {r2}", file=out)
    print(f"r(89,3) = {r3}", file=out)
    print(f"r(89,2)^2   = {r2 * r2}", file=out)
    print(f"r(89,1)*r(89,3) = {r1 * r3}", file=out)
    verdict = "NOT log-concave" if r2 * r2 < r1 * r3 else "log-concave at index 2"
    print(f"r(89,2)^2 < r(89,1)*r(89,3): {verdict}", file=out)
    for line in report.lines(structured=False):
        print(line, file=out)
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = _build_parser()
    args = parser.parse_args(argv)
    structured = args.format == "structured"
    try:
        budget = _resolve_budget(args)
        if args.command == "poly":
            return _run_poly(args, budget, structured, out)
        if args.command == "gamma":
            return _run_gamma(args, budget, structured, out)
        if args.command == "verify":
            report = _verify_report(args, budget)
            if all(record.status == NOTE for record in report):
                raise ValueError(
                    f"verify {args.target} made no pass or fail check at these arguments, "
                    "so it has nothing to report"
                )
            return _emit(report, structured, out)
        if args.command == "counterexample":
            return _run_counterexample(args, budget, structured, out)
        if args.command == "table":
            return _emit(checks.reference_table_report(budget=budget), structured, out)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
