import math
import random

import pytest

from eulerinv.polynomials import (
    IntPolynomial,
    binomial,
    expand_negative_binomial_product,
    multiset_count,
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


def test_binomial_matches_math_comb():
    for a in range(0, 40):
        for b in range(0, a + 1):
            assert binomial(a, b) == math.comb(a, b)


def test_multiset_count():
    assert multiset_count(0, 0) == 1
    assert multiset_count(0, 3) == 0
    assert multiset_count(3, 2) == 6  # multisets of size 2 from 3 symbols
    assert multiset_count(1, 9) == 1


def test_polynomial_normalization_and_degree():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    zero = IntPolynomial((0, 0))
    assert zero.is_zero and zero.coeffs == ()
    assert zero.degree == -1
    assert IntPolynomial((1, 3, 2)).degree == 2


def test_polynomial_products():
    one_plus_x = IntPolynomial((1, 1))
    assert poly_multiply(one_plus_x, IntPolynomial((1, 2))) == IntPolynomial((1, 3, 2))
    assert poly_multiply(one_plus_x, IntPolynomial()) == IntPolynomial()
    assert one_plus_x * one_plus_x == IntPolynomial((1, 2, 1))
    assert 3 * one_plus_x == IntPolynomial((3, 3))


def test_polynomial_add_sub_evaluate():
    p = IntPolynomial((1, 2, 3))
    q = IntPolynomial((0, 5))
    assert p + q == IntPolynomial((1, 7, 3))
    assert p - p == IntPolynomial()
    assert p.evaluate(1) == 6
    assert p.evaluate(10) == 321
    assert p.coefficient(0) == 1 and p.coefficient(9) == 0


def test_polynomial_multiplication_commutative_associative():
    rng = random.Random(404)

    def random_poly():
        degree = rng.randint(0, 16)
        return IntPolynomial([rng.randint(-9, 9) for _ in range(degree + 1)])

    for _ in range(60):
        p, q, r = random_poly(), random_poly(), random_poly()
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)


def test_polynomial_immutable_hashable():
    p = IntPolynomial((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (9,)
    assert hash(p) == hash(IntPolynomial((1, 2, 0)))


def test_expand_examples():
    assert expand_negative_binomial_product(3, 1, 2) == (1, 3, 7)
    assert expand_negative_binomial_product(1, 0, 3) == (1, 1, 1, 1)
    assert expand_negative_binomial_product(0, 0, 2) == (1, 0, 0)


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
