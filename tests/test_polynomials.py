import random
import re

import pytest

from eulerinv.polynomials import (
    binomial,
    expand_negative_binomial_product,
    multiset_count,
    negative_binomial_coefficient,
    poly_multiply,
)
from oracles import geometric, geometric_squares, naive_truncated_product


def test_binomial_small_values():
    assert binomial(5, 2) == 10
    assert binomial(7921, 0) == 1
    assert binomial(4, 7) == 0
    assert binomial(10, -3) == 0
    assert binomial(0, 0) == 1


def test_binomial_rejects_negative_a():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_pascal_rule():
    for a in range(1, 65):
        for b in range(1, a + 1):
            assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


def test_multiset_count():
    assert multiset_count(0, 0) == 1
    assert multiset_count(0, 3) == 0
    assert multiset_count(3, 2) == 6  # multisets of size 2 from 3 symbols
    assert multiset_count(1, 9) == 1


def test_polynomial_products():
    one_plus_x = (1, 1)
    assert poly_multiply(one_plus_x, (1, 2)) == (1, 3, 2)
    assert poly_multiply(one_plus_x, ()) == ()
    assert poly_multiply(one_plus_x, one_plus_x) == (1, 2, 1)
    assert poly_multiply((3,), one_plus_x) == (3, 3)
    assert poly_multiply([1, 1], [1, 2]) == (1, 3, 2)  # lists are taken too


@pytest.mark.parametrize("p, q", [(None, (1, 1)), ((1, 1), None), ("ab", (1,)), ((1,), 3)])
def test_poly_multiply_rejects_an_operand_that_is_no_tuple_or_list(p, q):
    # None once gave (), as an empty product does
    with pytest.raises(ValueError, match="polynomials are tuples or lists of coefficients"):
        poly_multiply(p, q)


def test_polynomial_multiplication_commutative_associative():
    rng = random.Random(404)

    def random_poly():
        degree = rng.randint(0, 16)
        return tuple(rng.randint(-9, 9) for _ in range(degree + 1))

    for _ in range(60):
        p, q, r = random_poly(), random_poly(), random_poly()
        assert poly_multiply(p, q) == poly_multiply(q, p)
        assert poly_multiply(poly_multiply(p, q), r) == poly_multiply(p, poly_multiply(q, r))


def test_expand_examples():
    assert expand_negative_binomial_product(3, 1, 2) == (1, 3, 7)
    assert expand_negative_binomial_product(1, 0, 3) == (1, 1, 1, 1)
    assert expand_negative_binomial_product(0, 0, 2) == (1, 0, 0)
    assert negative_binomial_coefficient(3, 1, 2) == 7
    with pytest.raises(ValueError, match="^a must be a nonnegative integer, got -1$"):
        negative_binomial_coefficient(-1, 0, 2)
    # the exponents are checked even when order < 0 asks for no coefficient
    for a, b, order, name in ((-1, 0, 2, "a"), (0, -1, -1, "b")):
        with pytest.raises(ValueError, match=f"^{name} must be a nonnegative integer, got -1$"):
            expand_negative_binomial_product(a, b, order)
    assert expand_negative_binomial_product(1, 0, -1) == ()
    assert negative_binomial_coefficient(1, 0, -1) == 0


@pytest.mark.parametrize(
    "a, b, order",
    [(1, 0, True), (True, 0, 2), (1, False, 2), (1, 0, 2.0), (1.0, 0, 2), (1, 0, "2")],
)
def test_series_reject_an_argument_that_is_no_int(a, b, order):
    # a and b are checked first, each a nonnegative int; the last argument is any int
    series = ((negative_binomial_coefficient, "n"), (expand_negative_binomial_product, "order"))
    for coefficients, name in series:
        if type(a) is not int:
            text = f"a must be a nonnegative integer, got {a!r}"
        elif type(b) is not int:
            text = f"b must be a nonnegative integer, got {b!r}"
        else:
            text = f"{name} must be an integer, got {order!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            coefficients(a, b, order)


def test_expand_against_naive_product_oracle():
    order = 24
    for a in range(13):
        for b in range(13):
            expected = naive_truncated_product(
                [geometric(order)] * a + [geometric_squares(order)] * b, order
            )
            got = expand_negative_binomial_product(a, b, order)
            assert list(got) == expected, (a, b)
            # shorter truncations are prefixes of longer ones
            shorter = expand_negative_binomial_product(a, b, 7)
            assert shorter == got[:8]
