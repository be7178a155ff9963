"""The names the benchmark tracer times must exist in the library.

perfbench/tracer.py names the functions it groups, counts and wraps as
"<module>.<attribute>" strings.  A rename or deletion in eulerinv leaves such
a name dead without any error, so this test resolves every one of them and
pins the set that does not resolve.  The benchmark's next revision empties it.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

#: Traced names whose functions the library has since renamed or deleted.
DEAD_NAMES = {
    "permutations.descent_set",
    "permutations.SignedDescentSet.type_b_descents",
    "polynomials.TruncatedSeries.coefficient",
    "tableaux.syt_row_of_entry",
    "distributions.GammaVector.reconstruct",
    "qsym.signed_fundamental_spec",
    "tableaux.syt_descent_set",
    "tableaux.syt_transpose",
    "tableaux.syb_des_b",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _resolve(name: str):
    module, *attributes = name.split(".")
    value = importlib.import_module(f"eulerinv.{module}")
    for attribute in attributes:
        value = getattr(value, attribute, None)
    return value


def test_traced_names_resolve_except_the_known_dead_ones():
    tracer = _load_tracer()
    names = {name for group in tracer.GROUPS.values() for name in group}
    names |= tracer.OBJECT_ENUMERATORS | {tracer.RECURRENCE} | set(tracer.EXTRA)
    assert {name for name in names if not callable(_resolve(name))} == DEAD_NAMES


def test_every_traced_group_keeps_a_live_name():
    # Tracer.install raises MissedBinding for a group none of whose names
    # exists, so each group needs one live function until the benchmark
    # drops the group: syb_signed_descent_set keeps tableaux.stat and
    # syb_transpose keeps tableaux.transpose.  No sweep calls either; the
    # transpose sweep calls syb_transpose's word map, the function that
    # tableaux's private _transposer makes, which the tracer does not wrap
    tracer = _load_tracer()
    groups = tracer.GROUPS.items()
    assert [group for group, names in groups if not any(map(callable, map(_resolve, names)))] == []


def test_every_object_enumerator_is_a_generator_function():
    # Tracer._wrap counts yielded objects only for a generator function, so
    # an enumerator that returned its walk's iterator from a plain function
    # would be timed as one call and its objects never counted, and the
    # traced completeness check would fail; no enumerator may be dead
    tracer = _load_tracer()
    names = sorted(tracer.OBJECT_ENUMERATORS)
    assert [name for name in names if not inspect.isgeneratorfunction(_resolve(name))] == []


def test_tracer_counts_what_the_library_yields():
    # the tracer times the recurrence as one call, so it must stay a plain
    # function
    tracer = _load_tracer()
    recurrence = _resolve(tracer.RECURRENCE)
    assert inspect.isfunction(recurrence) and not inspect.isgeneratorfunction(recurrence)
