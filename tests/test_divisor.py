import random
from fractions import Fraction

import pytest

from divisor_ring import RingDivisor, lambda_of


def rotations(div):
    """Independent model: divisor -> weighted multiset of rotation numbers.

    Lambda_n is the multiset {i/n : 0 <= i < n}, so a divisor maps each
    rotation number in [0, 1) to a rational multiplicity.
    """
    out = {}
    for n, c in div.terms.items():
        for i in range(n):
            r = Fraction(i, n)
            out[r] = out.get(r, Fraction(0)) + c
    return {r: c for r, c in out.items() if c}


def rotation_product(a, b):
    """Product in the model: convolution of rotation numbers mod 1."""
    out = {}
    for x, cx in a.items():
        for y, cy in b.items():
            r = (x + y) % 1
            out[r] = out.get(r, Fraction(0)) + cx * cy
    return {r: c for r, c in out.items() if c}


def random_divisor(rng, max_index=12, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        n = rng.randint(1, max_index)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms[n] = terms.get(n, Fraction(0)) + c
    return RingDivisor(terms)


def test_basis_product_rule():
    assert lambda_of(4) * lambda_of(6) == 2 * lambda_of(12)
    assert lambda_of(2) * lambda_of(2) == 2 * lambda_of(2)
    assert lambda_of(3) * lambda_of(5) == lambda_of(15)
    assert lambda_of(1) * lambda_of(7) == lambda_of(7)


def test_product_matches_rotation_multiset_model():
    rng = random.Random(4061)
    for _ in range(80):
        a = random_divisor(rng)
        b = random_divisor(rng)
        assert rotations(a * b) == rotation_product(rotations(a), rotations(b))


def test_ring_axioms_on_random_divisors():
    rng = random.Random(77)
    one = lambda_of(1)
    for _ in range(40):
        a = random_divisor(rng)
        b = random_divisor(rng)
        c = random_divisor(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert a - a == RingDivisor()


def test_scalar_promotion_and_arithmetic():
    d = lambda_of(5) - 1
    assert d + 1 == lambda_of(5)
    assert 1 + d == lambda_of(5)
    assert 2 - lambda_of(1) == lambda_of(1)
    assert (3 * lambda_of(2)) / 3 == lambda_of(2)
    assert lambda_of(2) * Fraction(1, 2) == RingDivisor({2: Fraction(1, 2)})
    assert lambda_of(3) == lambda_of(3) + 0
    assert RingDivisor({1: 4}) == 4
    assert RingDivisor() == 0


def test_degree_is_multiplicative():
    rng = random.Random(99)
    for _ in range(40):
        a = random_divisor(rng)
        b = random_divisor(rng)
        assert (a * b).degree() == a.degree() * b.degree()
    assert lambda_of(60).degree() == 60


def test_unit_coefficient_counts_every_term_and_is_not_multiplicative():
    d = lambda_of(60) + lambda_of(20) + lambda_of(12) - lambda_of(4) - lambda_of(3) + 1
    assert d.unit_coefficient() == 2
    # coefficient sum is additive but not multiplicative:
    x = lambda_of(2)
    assert x.unit_coefficient() == 1
    assert (x * x).unit_coefficient() == 2


def test_unit_coefficient_matches_rotation_zero_multiplicity():
    rng = random.Random(1234)
    for _ in range(40):
        d = random_divisor(rng)
        assert d.unit_coefficient() == rotations(d).get(Fraction(0), Fraction(0))


def test_access_helpers():
    d = RingDivisor({6: Fraction(1, 2), 2: -1, 3: 0})
    assert d.support == (2, 6)
    assert d.coefficient(6) == Fraction(1, 2)
    assert d.coefficient(5) == 0
    assert not d.is_zero()
    assert not d.is_integral()
    assert RingDivisor().is_zero()
    assert (2 * d).is_integral()
    assert d.terms == {2: Fraction(-1), 6: Fraction(1, 2)}
    # integral coefficients are stored as int, only fractional ones as Fraction
    assert type(d.coefficient(2)) is int and type(d.coefficient(5)) is int
    assert type(d.coefficient(6)) is Fraction
    assert all(type(c) is int for c in (2 * d).terms.values())
    assert type((d + d).unit_coefficient()) is int


def test_invalid_indices_are_rejected():
    with pytest.raises(ValueError):
        lambda_of(0)
    with pytest.raises(ValueError):
        RingDivisor({-3: 1})


def test_pretty_rendering():
    assert RingDivisor({4: Fraction(1, 3), 1: -2}).pretty() == "1/3·Λ4 - 2"


def test_division_by_scalar_only():
    d = lambda_of(4) / 2
    assert d == RingDivisor({4: Fraction(1, 2)})
    with pytest.raises((TypeError, ValueError)):
        lambda_of(4) / lambda_of(2)
