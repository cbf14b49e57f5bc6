"""Exterior combinatorial shifting on subset bitsets (``pair_shift``) against
the algebraic elementary shift it stands for, within its scope of orders,
and the shift search against the algebraic search it replaced."""

import importlib
import itertools
from collections import deque

import numpy as np
import pytest

from ginshift.changes import CoordinateChange, SizeLimitError
from ginshift.complexes import combinatorial_ideal
from ginshift.fields import InvalidInputError
from ginshift.gin import (CertificationError, combinatorial_shift,
                          elementary_shift_space, family_of, family_supports,
                          is_stable_family, pair_shift, trans_search,
                          trans_witnesses)
from ginshift.graphs import Graph
from ginshift.ideals import MonomialIdeal, is_strongly_stable, stable_closure
from ginshift.monomials import EXT, all_monomials, ext_monomial
from ginshift.orders import LEX, REVLEX, Inverse, WeightOrder

gin = importlib.import_module("ginshift.gin")
verifier = importlib.import_module("ginshift.verifier")

#: orders ranking e1 > ... > en: decreasing weights, strictly and with ties
IN_SCOPE = [LEX, REVLEX] + [WeightOrder(w, t)
                            for w in ((9, 7, 6, 4, 3, 2, 1),
                                      (5, 5, 3, 3, 3, 1, 1))
                            for t in ("lex", "revlex")]

#: orders outside the scope, including one whose degree-1 ranking is e1 > ...
OUT_OF_SCOPE = [Inverse(LEX), Inverse(REVLEX),
                WeightOrder((1, 2, 3, 4, 5, 6, 7), "lex"),
                WeightOrder((1, 2, 3, 4, 5, 6, 7), "revlex"),
                Inverse(WeightOrder((1, 2, 3, 4, 5, 6, 7), "lex"))]


def _fit(order, n):
    """The order on n variables (weight orders keep their first n)."""
    if isinstance(order, WeightOrder):
        return WeightOrder(order.weights[:n], order.tiebreak)
    if isinstance(order, Inverse):
        return Inverse(_fit(order.inner, n))
    return order


def _random_ideal(rng, n):
    """An exterior ideal on [n] with generators of mixed degree."""
    gens = [ext_monomial(s, n) for d in range(1, n + 1)
            for s in itertools.combinations(range(1, n + 1), d)
            if rng.random() < 0.6 / d]
    return MonomialIdeal.make(EXT, n, gens or [ext_monomial((n,), n)])


def _algebraic_shift(order, ideal, a, b, cap):
    """in_order(phi_{a,b}(I)) degree by degree, by elimination."""
    top = min(cap, ideal.n)
    return MonomialIdeal.from_components(EXT, ideal.n, {
        d: set(elementary_shift_space(order, ideal.degree_component(d), EXT,
                                      ideal.n, d, a, b))
        for d in range(top + 1)})


def _old_shift_bfs(ideal, budget, order, cap=None):
    """The search before bitsets: every step an algebraic shift of the
    whole ideal. Returns (found, complete) or "raised"."""
    cap = ideal.n if cap is None else cap
    n = ideal.n
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    seen = {ideal}
    queue = deque([(ideal, ())])
    found, spent = {}, 0
    while queue:
        current, seq = queue.popleft()
        if is_strongly_stable(current)[0]:
            found.setdefault(current, seq)
            continue
        for a, b in pairs:
            if spent >= budget:
                return (found, False) if found else "raised"
            spent += 1
            nxt = _algebraic_shift(order, current, a, b, cap)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, seq + ((a, b),)))
    return (found, True) if found else "raised"


def _search(ideal, budget, order, cap=None):
    try:
        return trans_search(ideal, budget, cap, order)
    except CertificationError:
        return "raised"


def test_pair_shift_is_the_elementary_shift_in_every_degree():
    rng = np.random.default_rng(5)
    for n in range(2, 8):
        for d in range(n + 1):
            ambient = all_monomials(EXT, n, d)
            for order in IN_SCOPE:
                order = _fit(order, n)
                assert gin._kalai_scope(EXT, n, order)
                for _ in range(2):
                    w = [u for u in ambient if rng.random() < 0.5]
                    a = int(rng.integers(1, n))
                    b = int(rng.integers(a + 1, n + 1))
                    algebraic = elementary_shift_space(order, w, EXT, n, d,
                                                       a, b)
                    assert pair_shift(family_of(u.support for u in w),
                                      a, b, n) == \
                        family_of(u.support for u in algebraic)


def test_pair_shift_acts_degree_by_degree():
    rng = np.random.default_rng(6)
    n = 6
    ambient = [u.support for d in range(n + 1)
               for u in all_monomials(EXT, n, d)]
    for _ in range(50):
        supports = [s for s in ambient if rng.random() < 0.4]
        a = int(rng.integers(1, n))
        b = int(rng.integers(a + 1, n + 1))
        by_degree = [pair_shift(family_of(s for s in supports if len(s) == d),
                                a, b, n) for d in range(n + 1)]
        assert pair_shift(family_of(supports), a, b, n) == \
            family_of(s for f in by_degree for s in family_supports(f, n))


def test_orders_outside_the_scope_take_the_algebraic_route(monkeypatch):
    rng = np.random.default_rng(7)
    ideals = [_random_ideal(rng, n) for n in (3, 4, 4, 5)]
    expected = {}
    for order in OUT_OF_SCOPE:
        for ideal in ideals:
            o = _fit(order, ideal.n)
            assert not gin._kalai_scope(EXT, ideal.n, o)
            for a, b in ((1, 2), (1, ideal.n), (2, 3)):
                expected[order, ideal, a, b] = _algebraic_shift(
                    o, ideal, a, b, ideal.n)
    # the bitset rule is not consulted, and its answer would differ
    assert pair_shift(family_of({(2, 3)}), 1, 3, 3) == family_of({(1, 2)})

    def refuse(*args):
        raise AssertionError("pair_shift used outside its scope")

    monkeypatch.setattr(gin, "pair_shift", refuse)
    for (order, ideal, a, b), want in expected.items():
        assert combinatorial_shift(_fit(order, ideal.n), ideal,
                                   [(a, b)]) == want
    for order in OUT_OF_SCOPE[:3]:
        ideal = ideals[1]
        o = _fit(order, ideal.n)
        assert _search(ideal, 60, o) == _old_shift_bfs(ideal, 60, o)


def test_orders_in_the_scope_take_the_bitset_route(monkeypatch):
    rng = np.random.default_rng(8)
    ideals = [_random_ideal(rng, n) for n in (3, 4, 5, 5)]
    expected = {(order, ideal, a, b): _algebraic_shift(
                    _fit(order, ideal.n), ideal, a, b, ideal.n)
                for order in IN_SCOPE for ideal in ideals
                for a, b in ((1, 2), (1, ideal.n), (2, 3))}

    def refuse(*args):
        raise AssertionError("algebraic shift used inside the scope")

    monkeypatch.setattr(CoordinateChange, "elementary", refuse)
    for (order, ideal, a, b), want in expected.items():
        assert combinatorial_shift(_fit(order, ideal.n), ideal,
                                   [(a, b)]) == want


def test_stability_test_matches_the_ideal_oracle():
    rng = np.random.default_rng(9)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(1, 8))
        ideal = _random_ideal(rng, n)
        if rng.random() < 0.3:
            ideal = stable_closure(ideal.generators, EXT, n)
        family = family_of(u.support for d in range(n + 1)
                           for u in ideal.degree_component(d))
        stable = is_strongly_stable(ideal)[0]
        assert is_stable_family(family, n) == stable
        seen.add(stable)
    assert seen == {True, False}


def _search_inputs():
    rng = np.random.default_rng(10)
    out = [MonomialIdeal.make(EXT, 4, [ext_monomial(s, 4) for s in
                                       ((1, 2), (1, 3), (3, 4))])]
    while len(out) < 8:
        n = int(rng.integers(3, 6))
        edges = [e for e in itertools.combinations(range(1, n + 1), 2)
                 if rng.random() < 0.5]
        g = Graph.make(n, edges)
        if g.complement().edges:
            out.append(combinatorial_ideal(g, EXT))
    out += [_random_ideal(rng, n) for n in (4, 5)]
    return out


@pytest.mark.parametrize("budget", [3, 7, 30, 400])
def test_search_matches_the_algebraic_search(budget):
    for ideal in _search_inputs():
        for order in (LEX, REVLEX):
            got = _search(ideal, budget, order)
            want = _old_shift_bfs(ideal, budget, order)
            assert got == want
            if got != "raised":
                # same items in the same order
                assert list(got[0].items()) == list(want[0].items())
                assert trans_witnesses(ideal, budget, order=order) == got[0]


def test_search_with_generators_above_the_cap():
    # below the cap (e{1,2}, e{3,4,5}) is (e{1,2}), which is stable; the
    # start is not, and the truncation its ten shifts reach is a new state
    ideal = MonomialIdeal.make(EXT, 5, [ext_monomial(s, 5)
                                        for s in ((1, 2), (3, 4, 5))])
    truncation = MonomialIdeal.make(EXT, 5, [ext_monomial((1, 2), 5)])
    assert _search(ideal, 10, LEX, cap=2) == ({truncation: ((1, 2),)}, True)
    assert _old_shift_bfs(ideal, 10, LEX, cap=2) == \
        ({truncation: ((1, 2),)}, True)
    ideal = MonomialIdeal.make(EXT, 5, [ext_monomial(s, 5) for s in
                                        ((3, 4), (2, 5), (1, 4, 5))])
    for budget in (5, 50, 400):
        got = _search(ideal, budget, LEX, cap=2)
        want = _old_shift_bfs(ideal, budget, LEX, cap=2)
        assert got == want
        if got != "raised":
            assert list(got[0].items()) == list(want[0].items())


def test_shift_rule_refuses_bad_pairs_and_large_n():
    ideal = MonomialIdeal.make(EXT, 4, [ext_monomial((3, 4), 4)])
    for pairs in ([(2, 2)], [(3, 1)], [(1, 5)], [(0, 2)]):
        with pytest.raises(InvalidInputError):
            combinatorial_shift(LEX, ideal, pairs)
    with pytest.raises(SizeLimitError):
        pair_shift(1 << 3, 1, 2, 13)


def test_one_shift_rule_for_both_searches():
    assert verifier.pair_shift is gin.pair_shift
