import numpy as np
import pytest
from hypothesis import given, strategies as st

from ginshift.fields import (GFP, QQ, InvalidInputError, PrimeField,
                             RationalField, is_prime, parse_field)


def test_default_prime_is_int64_safe():
    # largest prime below 2**31: products of two residues fit in int64
    assert GFP.p == 2_147_483_629
    assert (GFP.p - 1) ** 2 < 2 ** 63


def test_prime_field_rejects_composites():
    with pytest.raises(InvalidInputError):
        PrimeField(91)
    with pytest.raises(InvalidInputError):
        PrimeField(1)


def test_a_strong_pseudoprime_to_the_bases_up_to_37_is_composite():
    # the least composite that passes Miller-Rabin to every prime base up
    # to 37; base 41 rejects it
    m = 318665857834031151167461
    assert m == 399165290221 * 798330580441
    assert not is_prime(m)
    with pytest.raises(InvalidInputError):
        parse_field(f"prime:{m}")
    assert all(map(is_prime, (41, 2 ** 61 - 1, 2 ** 89 - 1)))


def test_prime_field_arithmetic():
    # arithmetic is operators followed by the field's one reduction
    f = PrimeField(7)
    assert f(3 + 5) == 1
    assert f(3 * 5) == 1
    assert f(2 - 5) == 4
    assert f(3 * pow(3, -1, 7)) == 1
    assert f(-2) == 5
    assert type(f(np.int64(-9))) is int and f(np.int64(-9)) == 5
    assert f.characteristic == 7


def test_rational_field_arithmetic():
    from fractions import Fraction
    assert QQ(Fraction(2, 3) * Fraction(3, 4)) == Fraction(1, 2)
    assert QQ(1 / Fraction(-5, 7)) == Fraction(-7, 5)
    assert type(QQ(np.int64(-3))) is Fraction and QQ(np.int64(-3)) == -3
    assert QQ.characteristic == 0


def test_parse_field():
    assert parse_field("rational") is QQ
    assert parse_field("prime") is GFP
    assert parse_field("prime:13").p == 13
    with pytest.raises(InvalidInputError):
        parse_field("galois")


@given(st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 30, 10 ** 30))
def test_prime_field_axioms(a, b):
    # the reduction is a ring map from the integers onto [0, p)
    f = PrimeField(101)
    assert 0 <= f(a) < 101 and f(f(a)) == f(a)
    assert f(f(a) + f(b)) == f(a + b)
    assert f(f(a) - f(b)) == f(a - b)
    assert f(f(a) * f(b)) == f(a * b)
    if f(a) != f.zero:
        assert f(a * pow(f(a), -1, 101)) == f.one


def test_random_elements_are_reduced():
    rng = np.random.default_rng(0)
    f = PrimeField(11)
    for _ in range(50):
        x = f.random(rng)
        assert 0 <= x < 11


def test_primes_past_int64_draw_uniformly():
    # numpy draws below 2**63 only; larger primes draw by rejection from
    # 63-bit limbs, and primes below keep numpy's stream
    for p in (2 ** 63 + 29, 2 ** 89 - 1):
        f = PrimeField(p)
        rng = np.random.default_rng(5)
        xs = [f.random(rng) for _ in range(2000)]
        assert all(type(x) is int and 0 <= x < p for x in xs)
        quarters = np.bincount([4 * x // p for x in xs], minlength=4)
        assert quarters.min() > 400, (p, quarters)
    p = 2 ** 63 - 25
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    assert [PrimeField(p).random(a) for _ in range(20)] == \
        [int(b.integers(0, p)) for _ in range(20)]

