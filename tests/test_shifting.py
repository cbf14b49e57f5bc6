"""Exterior combinatorial shifting on subset bitsets against the algebraic
elementary shift it stands for, under every term order: ``pair_shift`` when
the order ranks e_a above e_b, the identity otherwise; and the shift search
against the algebraic search it replaced."""

import functools
import importlib
import itertools
from collections import deque

import numpy as np
import pytest

from ginshift.changes import CoordinateChange, SizeLimitError
from ginshift.families import (MAX_FAMILY_VARIABLES, family_of,
                               family_supports, is_stable_family, pair_shift,
                               sized)
from ginshift.complexes import combinatorial_ideal
from ginshift.fields import GFP, QQ, InvalidInputError
from ginshift.gin import (CertificationError, combinatorial_shift,
                          trans_search, trans_witnesses)
from ginshift.graphs import Graph
from ginshift.ideals import (MonomialIdeal, is_strongly_stable,
                             squarefree_family, stable_closure)
from ginshift.monomials import EXT, all_monomials, ext_monomial
from ginshift.orders import LEX, REVLEX, Inverse, WeightOrder
import references
from references import elementary_shift_space

gin = importlib.import_module("ginshift.gin")
verifier = importlib.import_module("ginshift.verifier")

#: lex, revlex, weight orders with decreasing (strictly and with ties),
#: increasing and unsorted weights, and inverses; inv:weight:1,...,7:lex
#: ranks e1 > ... > en in degree 1 like lex, but not in higher degrees
UNSORTED = WeightOrder((3, 1, 4, 1, 5, 9, 2), "lex")
ORDERS = [LEX, REVLEX] + [WeightOrder(w, t)
                          for w in ((9, 7, 6, 4, 3, 2, 1),
                                    (5, 5, 3, 3, 3, 1, 1))
                          for t in ("lex", "revlex")] + [
    Inverse(LEX), Inverse(REVLEX),
    WeightOrder((1, 2, 3, 4, 5, 6, 7), "lex"),
    WeightOrder((1, 2, 3, 4, 5, 6, 7), "revlex"),
    Inverse(WeightOrder((1, 2, 3, 4, 5, 6, 7), "lex")),
    UNSORTED, Inverse(UNSORTED)]


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


# The searches at every budget repeat the same shifts of the same states,
# and states share components, so the oracle's pieces are memoized.


@functools.lru_cache(maxsize=None)
def _components(ideal):
    return tuple(frozenset(ideal.degree_component(d))
                 for d in range(ideal.n + 1))


@functools.lru_cache(maxsize=None)
def _algebraic_shift_space(order, component, n, d, a, b):
    return elementary_shift_space(order, component, EXT, n, d, a, b)


def _algebraic_shift(order, ideal, a, b, cap):
    """in_order(phi_{a,b}(I)) degree by degree, by elimination."""
    top = min(cap, ideal.n)
    return MonomialIdeal.make(EXT, ideal.n, [
        u for d in range(top + 1)
        for u in _algebraic_shift_space(order, _components(ideal)[d],
                                        ideal.n, d, a, b)])


def _old_shift_bfs(ideal, budget, order, cap=None, step=_algebraic_shift):
    """The search before bitsets: every step an algebraic shift of the
    whole ideal, or ``step(order, ideal, a, b, cap)`` when given. Returns
    (found, complete) or "raised"."""
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
            nxt = step(order, current, a, b, cap)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, seq + ((a, b),)))
    return (found, True) if found else "raised"


def _above(order, n, a, b):
    """Whether the order ranks e_a above e_b."""
    return order.compare(ext_monomial((a,), n), ext_monomial((b,), n)) > 0


def _search(ideal, budget, order, cap=None):
    try:
        return trans_search(ideal, budget, cap, order)
    except CertificationError:
        return "raised"


def test_pair_shift_is_the_elementary_shift_in_every_degree():
    rng = np.random.default_rng(5)
    sides = set()
    for field in (GFP, QQ):
        for n in range(2, 8):
            for order in ORDERS:
                order = _fit(order, n)
                step = gin._exterior_step(order, n)
                for d in range(n + 1):
                    w = [u for u in all_monomials(EXT, n, d)
                         if rng.random() < 0.5]
                    a = int(rng.integers(1, n))
                    b = int(rng.integers(a + 1, n + 1))
                    family = family_of(u.support for u in w)
                    algebraic = family_of(u.support for u in
                                          elementary_shift_space(
                                              order, w, EXT, n, d, a, b,
                                              field))
                    assert step(family, a, b) == algebraic
                    above = _above(order, n, a, b)
                    assert algebraic == (pair_shift(family, a, b, n)
                                         if above else family)
                    sides.add(above)
    assert sides == {True, False}


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


def test_exterior_shifts_never_take_the_algebraic_route(monkeypatch):
    rng = np.random.default_rng(7)
    ideals = [_random_ideal(rng, n) for n in (3, 4, 4, 5, 5)]
    expected = {(order, ideal, a, b): _algebraic_shift(
                    _fit(order, ideal.n), ideal, a, b, ideal.n)
                for order in ORDERS for ideal in ideals
                for a, b in ((1, 2), (1, ideal.n), (2, 3))}
    searches = {order: _old_shift_bfs(ideals[1], 60, _fit(order, 4))
                for order in ORDERS}
    # under inv:lex the shift (1, 3) keeps e{2,3}, which pair_shift moves
    inv_lex = MonomialIdeal.make(EXT, 3, [ext_monomial((2, 3), 3)])
    assert pair_shift(family_of({(2, 3)}), 1, 3, 3) == family_of({(1, 2)})
    assert _algebraic_shift(Inverse(LEX), inv_lex, 1, 3, 3) == inv_lex

    def refuse(*args):
        raise AssertionError("algebraic shift used on an exterior ideal")

    monkeypatch.setattr(CoordinateChange, "elementary", refuse)
    assert combinatorial_shift(Inverse(LEX), inv_lex, [(1, 3)]) == inv_lex
    for (order, ideal, a, b), want in expected.items():
        assert combinatorial_shift(_fit(order, ideal.n), ideal,
                                   [(a, b)]) == want
    for order, want in searches.items():
        assert _search(ideals[1], 60, _fit(order, 4)) == want


def test_stability_test_matches_the_ideal_oracle():
    rng = np.random.default_rng(9)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(1, 8))
        ideal = _random_ideal(rng, n)
        if rng.random() < 0.3:
            ideal = stable_closure(ideal.generators, EXT, n)
        family = references.family(ideal, n)
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
        for order in ORDERS:
            order = _fit(order, ideal.n)
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
    for order in ORDERS:
        order = _fit(order, 5)
        assert _search(ideal, 10, order, cap=2) == \
            ({truncation: ((1, 2),)}, True)
        assert _old_shift_bfs(ideal, 10, order, cap=2) == \
            ({truncation: ((1, 2),)}, True)
    ideal = MonomialIdeal.make(EXT, 5, [ext_monomial(s, 5) for s in
                                        ((3, 4), (2, 5), (1, 4, 5))])
    for order in ORDERS:
        order = _fit(order, 5)
        for budget in (5, 50, 400):
            got = _search(ideal, budget, order, cap=2)
            want = _old_shift_bfs(ideal, budget, order, cap=2)
            assert got == want
            if got != "raised":
                assert list(got[0].items()) == list(want[0].items())


def test_the_family_of_an_ideal_is_its_components():
    rng = np.random.default_rng(11)
    for n in list(range(1, 9)) + [13, 16, MAX_FAMILY_VARIABLES]:
        ideal = (_random_ideal(rng, n) if n <= 8 else MonomialIdeal.make(
            EXT, n, references.sparse_exterior(rng, n, 3,
                                               int(rng.integers(1, 5)))))
        for top in range(min(n, 4) + 1):
            assert squarefree_family(ideal) & sized(n, 0, top) == \
                references.family(ideal, top)
    unit = MonomialIdeal.make(EXT, 5, [ext_monomial((), 5)])
    assert squarefree_family(unit) & sized(5, 0, 5) == (1 << 32) - 1
    assert squarefree_family(MonomialIdeal.make(EXT, 5, [])) & sized(
        5, 0, 5) == 0


def _per_degree_shift(order, ideal, a, b, cap):
    """The elementary shift degree by degree: ``pair_shift`` on each
    degree component's own family when the order ranks e_a above e_b."""
    n, gens = ideal.n, []
    for d in range(min(cap, n) + 1):
        family = family_of(u.support
                           for u in references.degree_component(ideal, d))
        if _above(order, n, a, b):
            family = pair_shift(family, a, b, n)
        gens += [ext_monomial(s, n) for s in family_supports(family, n)]
    return MonomialIdeal.make(EXT, n, gens)


def test_exterior_shifting_on_13_to_16_variables_is_per_degree():
    # past the exterior action's 12 variables, within the family bound
    rng = np.random.default_rng(12)
    cap, outcomes = 2, set()
    for n, ideal in ((n, MonomialIdeal.make(EXT, n, gens))
                     for n in (13, 14, 15, 16)
                     # one shift from stable, alone or among n - 1, or not
                     for gens in ([ext_monomial((2,), n)],
                                  [ext_monomial((1, 3), n)],
                                  [ext_monomial((n,), n)],
                                  references.sparse_exterior(
                                      rng, n, 3, int(rng.integers(1, 5))))):
        # an exterior shift reads the order's degree-1 ranking only
        for order in (LEX, Inverse(LEX)):
            pairs = [tuple(sorted((rng.choice(n, size=2, replace=False)
                                   + 1).tolist())) for _ in range(4)]
            want = ideal
            for a, b in pairs:
                want = _per_degree_shift(order, want, a, b, cap)
            assert combinatorial_shift(order, ideal, pairs, cap) == want
            for budget in (10, 150):
                got = _search(ideal, budget, order, cap)
                want = _old_shift_bfs(ideal, budget, order, cap,
                                      step=_per_degree_shift)
                assert got == want
                if got != "raised":
                    assert list(got[0].items()) == list(want[0].items())
                outcomes.add(got if got == "raised" else got[1])
    assert outcomes == {"raised", True, False}


def test_shift_rule_refuses_bad_pairs_and_large_n():
    ideal = MonomialIdeal.make(EXT, 4, [ext_monomial((3, 4), 4)])
    for order in ORDERS:
        for pairs in ([(2, 2)], [(3, 1)], [(1, 5)], [(0, 2)]):
            with pytest.raises(InvalidInputError):
                combinatorial_shift(_fit(order, 4), ideal, pairs)
    # past the family bound, 20 variables
    with pytest.raises(SizeLimitError):
        pair_shift(1 << 3, 1, 2, 21)
    big = MonomialIdeal.make(EXT, 21, [ext_monomial((20, 21), 21)])
    with pytest.raises(SizeLimitError):
        combinatorial_shift(Inverse(LEX), big, [(1, 2)])


def test_exterior_shifting_past_the_bound_is_refused_before_any_family(
        monkeypatch):
    # the n masks Y_i of a family past 20 variables would take megabytes
    # each and stay cached: the refusal comes before they are built
    families = importlib.import_module("ginshift.families")

    def build(n):
        raise AssertionError(f"masks built for a family of [{n}]")

    monkeypatch.setattr(families, "_containing", build)
    n = MAX_FAMILY_VARIABLES + 1
    unstable = MonomialIdeal.make(EXT, n, [ext_monomial((n - 1, n), n)])
    with pytest.raises(SizeLimitError):
        combinatorial_shift(LEX, unstable, [(1, 2)])
    with pytest.raises(SizeLimitError):
        trans_search(unstable, budget=5)


def test_a_search_that_finds_nothing_names_its_cause():
    rei = MonomialIdeal.make(EXT, 4, [ext_monomial(s, 4) for s in
                                      ((1, 2), (1, 3), (3, 4))])
    # under inv:lex no shift moves anything, so the search drains
    with pytest.raises(CertificationError,
                       match="no strongly stable ideal is reachable"):
        trans_search(rei, budget=50, order=Inverse(LEX))
    for budget in (0, 1):
        with pytest.raises(CertificationError,
                           match=f"shift budget {budget} exhausted"):
            trans_search(rei, budget=budget)
    with pytest.raises(InvalidInputError):
        trans_search(rei, budget=-1)


def test_one_shift_rule_for_both_searches():
    assert verifier.pair_shift is gin.pair_shift
