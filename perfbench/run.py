"""eulerinv benchmark: time a workload of real CLI commands, each in a fresh interpreter.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each command runs as ``eulerinv.cli.main``
with ``--format structured`` in its own child interpreter (perfbench/child.py),
the way a user runs ``eulerinv ...``. The workload's commands are run in
passes until ``--seconds`` have gone by; every figure is the median over
passes of a per-pass sum (or maximum). Every time is in reference seconds:
each child's times are scaled by its own calibration (see perfbench/child.py),
so that the host's drifting speed cancels out.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced passes with passes whose children wrap
every layer module from outside the package, and reports the per-layer
metrics; the aggregated spans go to .perfbench/trace-<workload>-seed<n>.json.

Every command's output is checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` (one operation is one command)
and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SPEC = ROOT / "BENCHMARK.json"
TRACE_DIR = ROOT / ".perfbench"


@dataclass
class Outcome:
    command: workloads.Command
    code: int | None = None
    stdout: str = ""
    wall_s: float = 0.0
    import_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    scale: float = 1.0
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EULERINV_BUDGET", None)  # every command runs at the default budget
    return env


def execute(command: workloads.Command, traced: bool) -> Outcome:
    """Run one command in a fresh interpreter and judge its output."""
    outcome = Outcome(command)
    argv = [sys.executable, str(CHILD), "traced" if traced else "plain", *command.argv, "--format", "structured"]
    spawned = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=_child_env())
    try:
        ready = proc.stdout.readline()
        outcome.setup_s = time.perf_counter() - spawned
        payload = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    outcome.cpu_s = usage.ru_utime + usage.ru_stime
    outcome.rss_mb = usage.ru_maxrss / 1024
    if ready != b"ready\n" or proc.returncode != 0:
        outcome.problems.append(f"child process exited with {proc.returncode}")
        return outcome
    result = json.loads(payload)
    outcome.scale = result["scale"]
    outcome.setup_s *= outcome.scale
    outcome.cpu_s = (outcome.cpu_s - result["calibration_cpu_s"]) * result["cpu_scale"]
    outcome.code = result["code"]
    outcome.stdout = result["stdout"]
    outcome.wall_s = result["wall_s"] * outcome.scale
    outcome.import_s = result["import_s"] * outcome.scale
    outcome.trace = result.get("trace")
    outcome.problems = judge(command, outcome.code, outcome.stdout)
    if outcome.trace is not None:
        outcome.problems += completeness(command, outcome.trace)
    return outcome


def records(stdout: str) -> list[dict[str, str]]:
    """The key=value fields of each tab-separated structured record."""
    return [dict(f.partition("=")[::2] for f in line.split("\t")) for line in stdout.splitlines()]


def judge(command: workloads.Command, code: int, stdout: str) -> list[str]:
    """Why the command failed, or nothing when it passed.

    The text of the records is not compared, only their statuses: record
    wording may legitimately change. Coefficient lists are the exception,
    pinned and cross-checked against a closed form.
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    parsed = records(stdout)
    statuses = [r.get("status") for r in parsed]
    if "fail" in statuses:
        problems.append(f"{statuses.count('fail')} fail records")
    if command.pin is None:
        if "pass" not in statuses:
            problems.append("no pass record")
        return problems
    if len(parsed) != 1:
        return problems + [f"expected one coefficient record, got {len(parsed)}"]
    text = parsed[0].get("lhs", "")
    if workloads.digest(text) != command.pin:
        problems.append(f"coefficients {text[:60]} differ from the pinned row")
    try:
        coefficients = [int(c) for c in text.split(",")]
    except ValueError:
        return problems + [f"unreadable coefficients {text[:60]}"]
    mismatch = workloads.coefficient_problem(command.argv, coefficients)
    if mismatch:
        problems.append(mismatch)
    return problems


def completeness(command: workloads.Command, trace: dict) -> list[str]:
    """Traced object counts must equal the closed-form counts."""
    counted: dict[str, int] = {}
    for name, _args, yielded in trace["enumerations"]:
        counted[name] = counted.get(name, 0) + yielded
    counted = {k: v for k, v in counted.items() if v}
    if counted != command.objects:
        return [f"traced objects {counted} differ from the closed forms {command.objects}"]
    return []


def run_pass(commands, traced: bool) -> list[Outcome]:
    return [execute(c, traced) for c in commands]


_EMPTY_TRACE = {"spans": [], "enumerations": [], "recurrence_n": [], "other_s": 0.0}


def _median(passes, figure) -> float:
    return statistics.median(figure(p) for p in passes)


def measure(commands, seconds: float, trace: bool) -> tuple[dict, list[list[Outcome]]]:
    """Run passes for ``seconds`` (at least one) and return the figures and
    every pass made; with ``trace`` every untraced pass is followed by a traced one."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(commands, traced=False))
        if trace:
            traced.append(run_pass(commands, traced=True))
        if time.perf_counter() - start >= seconds:
            break

    wall = _median(plain, lambda p: sum(o.wall_s for o in p))
    objects = sum(c.total_objects for c in commands)
    figures = {
        "wall_s": wall,
        "cpu_s": _median(plain, lambda p: sum(o.cpu_s for o in p)),
        "setup_s": _median(plain, lambda p: sum(o.setup_s for o in p)),
        "peak_rss_mb": _median(plain, lambda p: max(o.rss_mb for o in p)),
        "objects_per_s": objects / wall if wall else 0.0,
        "cli.import_s": _median(plain, lambda p: sum(o.import_s for o in p)),
    }
    for i in range(len(commands)):
        figures[f"cli.cmd_s.{i + 1}"] = _median(plain, lambda p: p[i].wall_s)
    if traced:
        per_pass = [tracer.layer_figures([(o.trace or _EMPTY_TRACE, o.scale) for o in p]) for p in traced]
        for name in per_pass[0]:
            figures[name] = _median(per_pass, lambda f: f[name])
        last = traced[-1]
        parsed = [r for o in last for r in records(o.stdout)]
        figures["checks.records"] = len(parsed)
        figures["checks.hard_records"] = sum(r.get("status") in ("pass", "fail") for r in parsed)
        figures["trace.overhead_s"] = _median(traced, lambda p: sum(o.wall_s for o in p)) - wall
    return figures, plain + traced


def result(figures: dict, passes: list[list[Outcome]], metric_units: dict[str, str]) -> dict:
    outcomes = [o for p in passes for o in p]
    failed = sum(1 for o in outcomes if o.problems)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": figures[name], "unit": unit} for name, unit in metric_units.items()},
    }


def _program_present() -> bool:
    """Whether the checkout holds the program and a fresh interpreter can import it.

    The import also compiles the package's bytecode once, a cost users do
    not pay on every run."""
    if not (ROOT / "src" / "eulerinv" / "cli.py").is_file():
        return False
    done = subprocess.run([sys.executable, str(CHILD), "warmup"], cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE)
    return done.returncode == 0 and done.stdout == b"ready\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _program_present():
        print("error: eulerinv cannot be imported from src/ of this checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    metric_units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    commands = workloads.build(args.workload, args.seed)
    figures, passes = measure(commands, args.seconds, bool(args.trace))

    last = passes[-1]
    for i, o in enumerate(last, start=1):
        digest = workloads.digest(o.stdout)[:16]
        verdict = "; ".join(o.problems) or "ok"
        print(
            f"cmd {i} {o.command.label}: wall {o.wall_s:.4f} s at scale {o.scale:.3f}, stdout sha256 {digest}, {verdict}"
        )
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(
            json.dumps(
                [
                    {"command": list(o.command.argv), "stdout_sha256": workloads.digest(o.stdout), "trace": o.trace}
                    for o in last
                ]
            )
        )
        print(f"spans written to {path.relative_to(ROOT)}")
    outcome = result(figures, passes, metric_units)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
