"""Every integer a public function takes, one row each: the least value the
parameter takes, and the exact ValueError for a bool, a float, a string or
a value below that least.

The functions are those eulerinv exports and the sweeps the CLI runs.  An
integer parameter, one annotated int, with no row fails the suite unless it
is a documented exclusion; a row that names no such parameter fails too.
"""
import inspect
import re
from functools import partial

import pytest

import eulerinv
from eulerinv import DEFAULT_BUDGET, permutations
from eulerinv.cli import SWEEPS
from eulerinv.polynomials import binomial

#: Each public integer parameter, as (function, parameter), and the least
#: value it takes; None sets no bound.
LEAST = {
    ("bipartitions", "n"): 0,
    ("enumerate_all_syb", "n"): 0,
    ("enumerate_all_syt", "n"): 0,
    ("enumerate_group", "n"): 0,
    ("enumerate_involutions", "n"): 0,
    ("enumerate_signed_involutions", "n"): 0,
    ("enumeration_budget", "cap"): 1,
    ("expand_negative_binomial_product", "a"): 0,
    ("expand_negative_binomial_product", "b"): 0,
    ("expand_negative_binomial_product", "order"): None,
    ("full_eulerian", "n"): 0,
    ("fundamental_spec", "n"): 0,
    ("fundamental_spec", "m"): 0,
    ("gamma_reconstruct", "n"): 0,
    ("gamma_vector", "n"): 0,
    ("involution_count", "n"): 0,
    ("involution_eulerian", "n"): 0,
    ("is_symmetric", "n"): 0,
    ("negative_binomial_coefficient", "a"): 0,
    ("negative_binomial_coefficient", "b"): 0,
    ("negative_binomial_coefficient", "n"): None,
    ("partitions", "n"): 0,
    ("r_closed", "n"): 0,
    ("r_closed", "m"): 0,
    ("schur_spec", "m"): 0,
    ("signed_involution_eulerian_recurrence", "n"): 0,
    ("signed_involution_recurrence_rows", "n_max"): None,
    ("unpack_descents", "n"): 0,
    ("check_guo_zeng_lemma", "trials"): 1,
    ("check_guo_zeng_lemma", "length_max"): 1,
    ("check_guo_zeng_lemma", "seed"): 0,
}

#: The integer parameters no row covers, each with its reason.
EXCLUDED = {
    ("binomial", "a"): "unchecked for speed: one traced bijection pass calls it 26,530 "
    "times; only a negative a is refused, and its docstring says what it takes",
    ("binomial", "b"): "unchecked for speed, as its a",
    ("fundamental_spec", "mask"): "a packed descent set, refused by its own layout "
    "message; tests/test_qsym.py pins it",
    ("unpack_descents", "mask"): "a packed descent set, refused by its own layout "
    "message; tests/test_permutations.py pins it",
}

#: The size ranges of the sweeps, unchecked by the library: the CLI types
#: each flag as an int, and a range that leaves a sweep no pass or fail
#: check is a usage error there.
SWEEP_RANGES = {"n_max", "m_max", "k_max", "signed_n_max", "unsigned_n_max"}

#: What each kind of bound is called in the message.
KIND = {0: "a nonnegative integer", 1: "an integer of at least 1", None: "an integer"}

#: The name the message gives a parameter, where it is not the parameter's own.
SPOKEN = {"cap": "enumeration budget"}

#: The other arguments of each call, where a function takes more than the
#: integer under test; each is accepted with the integer at its least.
ARGUMENTS = {
    "enumerate_group": {"n": 2, "signed": True},
    "full_eulerian": {"n": 2, "signed": True},
    "expand_negative_binomial_product": {"a": 2, "b": 2, "order": 2},
    "negative_binomial_coefficient": {"a": 2, "b": 2, "n": 2},
    "fundamental_spec": {"mask": 0, "n": 2, "m": 2},
    "gamma_reconstruct": {"gammas": (1,), "n": 2},
    "gamma_vector": {"coeffs": (), "n": 2},
    "is_symmetric": {"coeffs": (), "n": 2},
    "r_closed": {"n": 2, "m": 2},
    "schur_spec": {"shape": (2,), "m": 2},
    "unpack_descents": {"mask": 0, "n": 2},
    "check_guo_zeng_lemma": {"trials": 2, "length_max": 2, "seed": 2},
}

FUNCTIONS = {
    name: function
    for name, function in vars(eulerinv).items()
    if inspect.isfunction(function) and not name.startswith("_")
} | {sweep.__name__: sweep for sweep in SWEEPS.values()}


def _open(manager) -> None:
    with manager:
        pass


def _first_step(name: str, parameter: str, value):
    """A call that runs the function up to its first check, with value for
    the parameter: a generator is made here and checks at its first next(),
    and a context manager checks as its block opens, and is closed again."""
    function = FUNCTIONS[name]
    arguments = {**ARGUMENTS.get(name, {}), parameter: value}
    if inspect.isgeneratorfunction(function):
        return function(**arguments).__next__
    if function is eulerinv.enumeration_budget:
        return partial(_open, function(**arguments))
    return partial(function, **arguments)


def test_every_integer_parameter_has_a_row_or_a_reason():
    integers = {
        (name, parameter.name)
        for name, function in FUNCTIONS.items()
        for parameter in inspect.signature(function).parameters.values()
        if parameter.annotation == "int"
    }
    ranges = {
        (sweep.__name__, parameter)
        for sweep in SWEEPS.values()
        for parameter in inspect.signature(sweep).parameters
        if parameter in SWEEP_RANGES
    }
    assert not LEAST.keys() & EXCLUDED.keys()
    assert integers - ranges == LEAST.keys() | EXCLUDED.keys()


@pytest.mark.parametrize(
    "name, parameter, least, bad",
    [
        (name, parameter, least, bad)
        for (name, parameter), least in LEAST.items()
        for bad in (True, 2.0, "2", *(() if least is None else (least - 1,)))
    ],
)
def test_an_integer_parameter_refuses_all_but_an_int_of_at_least_its_least(name, parameter, least, bad):
    call = _first_step(name, parameter, bad)  # a generator checks nothing before next()
    text = f"{SPOKEN.get(parameter, parameter)} must be {KIND[least]}, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        call()


@pytest.mark.parametrize("name, parameter, least", [(*key, least) for key, least in LEAST.items()])
def test_an_integer_parameter_takes_its_least(name, parameter, least):
    # with no bound, a negative value is taken and asks for nothing
    _first_step(name, parameter, -1 if least is None else least)()
    assert permutations._BUDGET.get() == DEFAULT_BUDGET


def test_binomial_takes_what_its_docstring_says():
    assert binomial(True, 2) == 0 and binomial(4, True) == 4
    with pytest.raises(ValueError, match="^binomial expects a nonnegative first argument, got -1$"):
        binomial(-1, 0)
