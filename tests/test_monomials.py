import pytest
from hypothesis import given, strategies as st
from math import comb

from ginshift.fields import InvalidInputError
from ginshift.monomials import (EXT, POLY, ExtMonomial, all_monomials,
                                basis_index, basis_table, ext_monomial,
                                parse_monomial, poly_monomial)
from ginshift.orders import LEX

import references


def test_ext_monomial_validation():
    with pytest.raises(InvalidInputError):
        ExtMonomial((2, 2), 4)
    with pytest.raises(InvalidInputError):
        ExtMonomial((0, 1), 4)
    with pytest.raises(InvalidInputError):
        ExtMonomial((1, 5), 4)


def test_ext_basics():
    u = ext_monomial([3, 1], 5)
    assert u.support == (1, 3)
    assert u.degree == 2
    assert u.min_index() == 1 and u.max_index() == 3
    assert str(u) == "e{1,3}"
    assert u.divides(ext_monomial([1, 2, 3], 5))
    assert not u.divides(ext_monomial([1, 2], 5))


def test_poly_basics():
    u = poly_monomial((2, 0, 1))
    assert u.degree == 3
    assert u.support == (1, 3)
    assert not u.is_squarefree()
    assert str(u) == "x1^2*x3"
    assert u.divides(poly_monomial((2, 1, 1)))
    assert not u.divides(poly_monomial((1, 1, 1)))
    assert u.times_var(2).exponents == (2, 1, 1)
    assert u.div_var(1).exponents == (1, 0, 1)


@given(st.integers(1, 7), st.integers(0, 7))
def test_all_monomials_counts(n, d):
    assert len(all_monomials(EXT, n, d)) == (comb(n, d) if d <= n else 0)
    assert len(all_monomials(POLY, n, d)) == comb(n + d - 1, d)


def test_all_monomials_distinct_and_correct_degree():
    ms = all_monomials(POLY, 3, 4)
    assert len(set(ms)) == len(ms)
    assert all(m.degree == 4 for m in ms)


def test_basis_table_and_index_match_the_recursive_enumerator():
    for ring in (EXT, POLY):
        for n in range(8):
            for d in range(8):
                table = basis_table(ring, n, d)
                spec = references.all_monomials(ring, n, d)
                assert list(table) == all_monomials(ring, n, d) == spec, \
                    (ring, n, d)
                keys = [LEX.key(u) for u in table]
                assert all(a > b for a, b in zip(keys, keys[1:]))
                # positions in table order: minor tables iterate the map
                index = basis_index(ring, n, d)
                assert list(index) == [u.support if ring == EXT
                                       else u.exponents for u in spec]
                assert list(index.values()) == list(range(len(spec)))


def test_parse_round_trip():
    u = parse_monomial("e{1,3,4}", EXT, 5)
    assert u == ext_monomial([1, 3, 4], 5)
    v = parse_monomial("x1^2*x3", POLY, 3)
    assert v == poly_monomial((2, 0, 1))
    assert parse_monomial(str(v), POLY, 3) == v
    assert parse_monomial("1", POLY, 2) == poly_monomial((0, 0))
    with pytest.raises(InvalidInputError):
        parse_monomial("x9", POLY, 3)
    with pytest.raises(InvalidInputError):
        parse_monomial("e{1;2}", EXT, 3)
