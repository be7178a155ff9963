"""Run one eulerinv CLI command in this fresh interpreter, for the benchmark.

    python3 perfbench/child.py plain|traced|warmup ARGV...

Prints ``ready`` as soon as ``eulerinv.cli`` is imported, so the parent can
time set-up up to that line. ``warmup`` stops there. Otherwise the child
runs ``eulerinv.cli.main(ARGV)``, with every layer wrapped by the tracer in
``traced`` mode, and prints one JSON object: exit code, wall time of
``main``, import time, the captured stdout, the calibration and, when
traced, the spans.

A shared host's speed drifts with its other tenants' load: on a 2-vCPU host
the same command took up to 1.8 times as long from one minute to the next.
So the child times a fixed calibration round, independent of eulerinv, just
before and just after ``main``; the parent scales every time of this child
by ``REFERENCE_S`` over the median round, which gives seconds on a host where
one round takes ``REFERENCE_S``.
"""
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
_started = time.perf_counter()
import eulerinv.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _started
print("ready", flush=True)


#: Nominal duration of one calibration round. On a 2-vCPU Xeon host with
#: Python 3.11.7 a round takes 9 to 15 ms, as the other tenants' load varies.
REFERENCE_S = 0.015
ROUNDS = 3  # before main, and again after it


def calibration_round() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed piece of work that resembles eulerinv's:
    descent counts over a permutation walk, then big-integer polynomial products."""
    wall, cpu = time.perf_counter(), time.process_time()
    perm = list(range(9))
    descents = 0
    for r in range(12_000):
        perm.append(perm.pop(r % 9))
        for i in range(8):
            if perm[i] > perm[i + 1]:
                descents += 1
    row = [1, 3, 3, 1]
    for _ in range(60):
        product = [0] * (len(row) + 3)
        for i, a in enumerate(row):
            for j, b in enumerate((1, 3, 3, 1)):
                product[i + j] += a * b
        row = product
    return time.perf_counter() - wall, time.process_time() - cpu


def main() -> None:
    mode, argv = sys.argv[1], sys.argv[2:]
    if mode == "warmup":
        return
    import io
    import json

    recorder = None
    if mode == "traced":
        import tracer

        recorder = tracer.Tracer()
        recorder.install()
    out = io.StringIO()
    # the first round in a fresh interpreter runs cold and is left out of the medians
    rounds = [calibration_round() for _ in range(1 + ROUNDS)]
    start = time.perf_counter()
    try:
        code = eulerinv.cli.main(argv, out=out)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    wall_s = time.perf_counter() - start
    rounds += [calibration_round() for _ in range(ROUNDS)]
    result = {
        "code": code,
        "wall_s": wall_s,
        "import_s": IMPORT_S,
        "stdout": out.getvalue(),
        "scale": REFERENCE_S / statistics.median(w for w, _ in rounds[1:]),
        "cpu_scale": REFERENCE_S / statistics.median(c for _, c in rounds[1:]),
        "calibration_cpu_s": sum(c for _, c in rounds),
    }
    if recorder is not None:
        result["trace"] = recorder.summary(wall_s)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
