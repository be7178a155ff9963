"""Per-layer tracing of eulerinv, installed from outside the package.

``Tracer.install`` wraps every public function of each layer module, the
public methods of its public classes, and the private helpers named in
``EXTRA``. It then rebinds every reference to an original, in every
``eulerinv.*`` namespace and in module-level dicts such as
``distributions._STATISTICS``. Any reference it cannot rebind is an error,
because a missed binding would quietly move time into its caller.

Spans are aggregated in memory by (function, parent). A generator function
gets one span per ``next()``. Object enumerators record what they yield when
they are called directly rather than from inside another enumerator, so the
benchmark can check each count against its closed form.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("permutations", "distributions", "tableaux", "qsym", "polynomials", "checks", "reports", "cli")
EXTRA = ("distributions._histogram_poly",)
RECURRENCE = "distributions.signed_involution_eulerian_recurrence"
OBJECT_ENUMERATORS = frozenset(
    {
        "permutations.enumerate_involutions",
        "permutations.enumerate_signed_involutions",
        "permutations.enumerate_group",
        "tableaux.enumerate_syt",
        "tableaux.enumerate_all_syt",
        "tableaux.enumerate_syb",
        "tableaux.enumerate_all_syb",
    }
)

#: Per-layer metric groups. A layer's functions outside every group still
#: count towards the layer's own ``<layer>.self_s``.
GROUPS = {
    "permutations.enum": (
        "permutations.enumerate_involutions",
        "permutations.enumerate_signed_involutions",
        "permutations.enumerate_group",
    ),
    "permutations.stat": (
        "permutations.des_b",
        "permutations.des_coxeter",
        "permutations.descent_set",
        "permutations.signed_descent_set",
        "permutations.SignedDescentSet.type_b_descents",
    ),
    "distributions.histogram": ("distributions._histogram_poly",),
    "distributions.recurrence": (RECURRENCE,),
    "distributions.gamma": ("distributions.gamma_vector", "distributions.GammaVector.reconstruct"),
    "distributions.r_closed": ("distributions.r_closed",),
    "polynomials.multiply": ("polynomials.poly_multiply",),
    "polynomials.binomial": ("polynomials.binomial", "polynomials.multiset_count"),
    "polynomials.series": (
        "polynomials.expand_negative_binomial_product",
        "polynomials.TruncatedSeries.coefficient",
    ),
    "tableaux.enum": (
        "tableaux.partitions",
        "tableaux.bipartitions",
        "tableaux.enumerate_syt",
        "tableaux.enumerate_all_syt",
        "tableaux.enumerate_syb",
        "tableaux.enumerate_all_syb",
    ),
    "tableaux.stat": (
        "tableaux.syt_descent_set",
        "tableaux.syt_row_of_entry",
        "tableaux.syb_signed_descent_set",
        "tableaux.syb_des_b",
    ),
    "tableaux.transpose": ("tableaux.syt_transpose", "tableaux.syb_transpose"),
    "qsym.spec": ("qsym.fundamental_spec", "qsym.signed_fundamental_spec"),
    "qsym.schur": ("qsym.schur_spec",),
}

ROOT = "(root)"


class MissedBinding(RuntimeError):
    """A reference to an unwrapped original survived installation."""


class _TracedIterator:
    __slots__ = ("_gen", "_step", "_record")

    def __init__(self, gen, step, record):
        self._gen = gen
        self._step = step
        self._record = record

    def __iter__(self):
        return self

    def __next__(self):
        item = self._step(self._gen)
        if self._record is not None:
            self._record[2] += 1
        return item


def _plain(value):
    """JSON-ready copy of an argument: tuples become lists."""
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _targets():
    """(name, owner, attribute, original) for everything to wrap."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"eulerinv.{layer}")
        for attr, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isfunction(value) and (not attr.startswith("_") or name in EXTRA):
                found.append((name, module, attr, value))
            elif inspect.isclass(value) and not attr.startswith("_"):
                for method_name, method in vars(value).items():
                    if inspect.isfunction(method) and not method_name.startswith("_"):
                        found.append((f"{name}.{method_name}", value, method_name, method))
    return found


class Tracer:
    def __init__(self):
        # a frame is [name, time spent in child spans]
        self.stack = [[ROOT, 0.0]]
        self.spans: dict[tuple[str, str], list] = {}
        self.enumerations: list[list] = []
        self.recurrence_n: list[int] = []

    def _span(self, name, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                totals = spans.get((name, parent[0]))
                if totals is None:
                    spans[(name, parent[0])] = [1, elapsed, elapsed - frame[1]]
                else:
                    totals[0] += 1
                    totals[1] += elapsed
                    totals[2] += elapsed - frame[1]

        return traced

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            step = self._span(name, next)
            counted = name in OBJECT_ENUMERATORS
            signature = inspect.signature(fn)

            def traced(*args, **kwargs):
                record = None
                if counted and self.stack[-1][0] not in OBJECT_ENUMERATORS:
                    arguments = dict(signature.bind(*args, **kwargs).arguments)
                    arguments.pop("budget", None)
                    record = [name, _plain(arguments), 0]
                    self.enumerations.append(record)
                return _TracedIterator(fn(*args, **kwargs), step, record)

        elif name == RECURRENCE:
            signature = inspect.signature(fn)
            timed = self._span(name, fn)

            def traced(*args, **kwargs):
                self.recurrence_n.append(signature.bind(*args, **kwargs).arguments["n"])
                return timed(*args, **kwargs)

        else:
            traced = self._span(name, fn)
        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        targets = _targets()
        wrapped_names = {name for name, *_ in targets}
        for group, names in GROUPS.items():
            if not wrapped_names.intersection(names):
                raise MissedBinding(f"no function of group {group} exists to wrap")
        replacement = {}
        for name, owner, attr, original in targets:
            wrapper = self._wrap(name, original)
            replacement[id(original)] = (original, wrapper)
            setattr(owner, attr, wrapper)

        def swap(value):
            hit = replacement.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        wrappers = {id(wrapper) for _, wrapper in replacement.values()}
        modules = [m for n, m in sys.modules.items() if n == "eulerinv" or n.startswith("eulerinv.")]
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                namespace[attr] = swap(value)
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        value[key] = swap(item)
        for module in modules:
            for attr, value in vars(module).items():
                if id(value) in wrappers:
                    continue
                held = [value]
                if isinstance(value, dict):
                    held += value.values()
                elif isinstance(value, (list, tuple, set, frozenset)):
                    held += value
                elif inspect.isfunction(value):
                    held += value.__defaults__ or ()
                    held += (value.__kwdefaults__ or {}).values()
                    held += [cell.cell_contents for cell in value.__closure__ or () if _filled(cell)]
                for item in held:
                    if swap(item) is not item:
                        raise MissedBinding(f"{module.__name__}.{attr} holds an unwrapped {item.__qualname__}")

    def summary(self, wall_s: float) -> dict:
        """Everything the run recorded, ready for JSON."""
        return {
            "spans": [[name, parent, *totals] for (name, parent), totals in self.spans.items()],
            "enumerations": self.enumerations,
            "recurrence_n": self.recurrence_n,
            "other_s": wall_s - self.stack[0][1],
        }


def _filled(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True


def layer_figures(scaled: list[tuple[dict, float]]) -> dict[str, float]:
    """Per-layer figures of one traced pass over a workload's commands, given
    each command's summary and the factor that scales its times."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for summary, scale in scaled:
        for name, _parent, count, _total, own in summary["spans"]:
            self_s[name] = self_s.get(name, 0.0) + own * scale
            calls[name] = calls.get(name, 0) + count
    figures = {}
    for layer in LAYERS:
        figures[f"{layer}.self_s"] = sum(t for n, t in self_s.items() if n.startswith(layer + "."))
    for group, names in GROUPS.items():
        figures[f"{group}.self_s"] = sum(self_s.get(n, 0.0) for n in names)
        figures[f"{group}.calls"] = sum(calls.get(n, 0) for n in names)
    figures["trace.other_s"] = sum(s["other_s"] * scale for s, scale in scaled)
    summaries = [s for s, _ in scaled]

    enumerations = [e for s in summaries for e in s["enumerations"]]
    for layer in ("permutations", "tableaux"):
        figures[f"{layer}.enum.objects"] = sum(e[2] for e in enumerations if e[0].startswith(layer + "."))
    # Distinct work needed is counted per command: every command is its own
    # process, so nothing computed in one can serve another.
    distinct = runs = 0
    needed = rows = 0
    for s in summaries:
        keys = [repr(e[:2]) for e in s["enumerations"] if e[0].startswith("permutations.")]
        distinct += len(set(keys))
        runs += len(keys)
        needed += len(set(s["recurrence_n"]))
        # the recurrence builds rows 0..n to return row n
        rows += sum(n + 1 for n in s["recurrence_n"])
    figures["permutations.enum.useful_ratio"] = distinct / runs if runs else 1.0
    figures["distributions.recurrence.rows"] = rows
    figures["distributions.recurrence.useful_ratio"] = needed / rows if rows else 1.0
    return figures
