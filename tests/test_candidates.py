"""One gin candidate per component sequence and ranking: within one trial
set, the ideal of a sequence of certified components up to the cap is built
and checked for strong stability in the order's ranking of the variables
once, whichever orders of that ranking yield it, and a candidate that fails
the check raises under every order yielding it."""

import importlib

import numpy as np
import pytest

from ginshift.changes import CoordinateChange
from ginshift.complexes import combinatorial_ideal, flag_complex
from ginshift.fields import GFP, QQ, PrimeField
from ginshift.gin import (CertificationError, _Trials, gin, gin_adaptive,
                          gin_multi, gin_multi_adaptive)
from ginshift.graphs import Graph, condition_v
from ginshift.ideals import MonomialIdeal, is_strongly_stable, relabel
from ginshift.monomials import EXT, POLY, all_monomials, poly_monomial
from ginshift.orders import LEX, REVLEX, Inverse, WeightOrder
from ginshift.verifier import _sample_weight_orders

# the module, which the package's ``gin`` function shadows as an attribute
gin_module = importlib.import_module("ginshift.gin")


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``MonomialIdeal.make`` and ``is_strongly_stable`` as the
    gin engine calls them, through its own bindings."""
    counts = {"make": 0, "stable": 0}

    class Counted:
        @staticmethod
        def make(*args):
            counts["make"] += 1
            return MonomialIdeal.make(*args)

    def stable(*args):
        counts["stable"] += 1
        return is_strongly_stable(*args)

    monkeypatch.setattr(gin_module, "MonomialIdeal", Counted)
    monkeypatch.setattr(gin_module, "is_strongly_stable", stable)
    return counts


def _sweep_orders(n, seed=0):
    """lex, revlex and 20 weight orders, as the Theorem 1 sweep samples
    them for a class satisfying condition (v)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    return [LEX, REVLEX] + _sample_weight_orders(n, 20, rng)


def test_theorem1_class_builds_one_candidate_for_22_orders(calls):
    # a triangle 2-3-4 and the edge 1-5: condition (v) holds, and the gin
    # of the flag complex's ideal is the same under every order
    g = Graph(5, frozenset({(1, 5), (2, 3), (2, 4), (3, 4)}))
    assert condition_v(g)[0]
    jf = combinatorial_ideal(flag_complex(g), EXT)
    orders = _sweep_orders(5)
    assert len(set(orders)) == 22
    gins = gin_multi(orders, jf, seed=3)
    assert calls == {"make": 1, "stable": 1}
    assert all(x is gins[0] for x in gins)
    assert gins == [gin(order, jf, seed=3)[0] for order in orders]


def test_an_unstable_candidate_raises_under_every_order(calls):
    # with identity changes the candidate of (x2) is (x2) itself, which is
    # not strongly stable; lex and revlex yield the same components
    ideal = MonomialIdeal.make(POLY, 2, [poly_monomial((0, 1))])
    identity = CoordinateChange.identity(2, GFP)
    t = _Trials(POLY, 2, ideal.degree_component, [identity, identity])
    for d in range(3):
        assert t.component(LEX, d) == t.component(REVLEX, d)
    for order in (LEX, REVLEX, LEX):
        with pytest.raises(CertificationError,
                           match=f"unstable gin candidate under {order}$"):
            t.initial_ideal(order, 2)
    assert calls == {"make": 3, "stable": 3}
    assert t._stable == {}


def test_the_candidate_follows_the_cap():
    # (x1 x2, x3^3) in three variables: the gin has a generator in degree
    # 3, so caps 2 and 3 give different candidates from the same components
    ideal = MonomialIdeal.make(POLY, 3, [poly_monomial((1, 1, 0)),
                                         poly_monomial((0, 0, 3))])
    for caps in ((2, 3, 2), (3, 2, 3)):
        t = _Trials.draw(POLY, 3, ideal.degree_component, 3, 5, GFP)
        got = [t.initial_ideal(LEX, cap) for cap in caps]
        want = [gin(LEX, ideal, cap=cap, seed=5)[0] for cap in caps]
        assert got == want
        assert want[0] != want[1]
    # the exterior ring: cap 2 against the default cap n
    e = combinatorial_ideal(flag_complex(Graph(4, frozenset({(1, 2)}))), EXT)
    t = _Trials.draw(EXT, 4, e.degree_component, 3, 5, GFP)
    assert [t.initial_ideal(REVLEX, cap) for cap in (4, 2, 4)] == \
        [gin(REVLEX, e, cap=cap, seed=5)[0] for cap in (4, 2, 4)]


def _random_ideal(rng, ring, n):
    gens = []
    for d in (2, 3):
        basis = all_monomials(ring, n, d)
        k = int(rng.integers(1, min(4, len(basis)) + 1))
        gens += [basis[i] for i in rng.choice(len(basis), k, replace=False)]
    return MonomialIdeal.make(ring, n, gens)


def _orders(rng, n):
    w = tuple(sorted(map(int, rng.choice(10 ** 3, size=n, replace=False)
                         + 1), reverse=True))
    return [LEX, REVLEX, WeightOrder(w, "lex"), WeightOrder(w, "revlex")]


@pytest.mark.parametrize("field", [GFP, PrimeField(101), QQ],
                         ids=["gfp", "gf101", "qq"])
@pytest.mark.parametrize("ring", [EXT, POLY])
def test_gin_multi_matches_per_order_gins(ring, field):
    rng = np.random.default_rng([len(ring), field.characteristic % 1000])
    for sample in range(6):
        n = int(rng.integers(3, 6 if ring == EXT else 4))
        ideal = _random_ideal(rng, ring, n)
        orders = _orders(rng, n)
        seed = int(rng.integers(100))
        assert gin_multi(orders, ideal, seed=seed, field=field) == \
            [gin(order, ideal, seed=seed, field=field)[0]
             for order in orders]
        if ring == POLY and field != QQ:
            assert gin_multi_adaptive(orders, ideal, seed=seed,
                                      field=field) == \
                [gin_adaptive(order, ideal, seed=seed, field=field)[::2]
                 for order in orders]


#: x_i -> x_{5-i}: the degree-1 ranking of inv:lex and inv:revlex
MIRROR = (3, 2, 1, 0)


def test_gin_multi_certifies_lex_and_inverse_lex():
    # the inv:lex gin is strongly stable once mirrored, as the revlex gin
    # of the same ideal is in the standard ranking
    ideal = MonomialIdeal.make(EXT, 4, all_monomials(EXT, 4, 2)[:2])
    lex, inv_lex = gin_multi([LEX, Inverse(LEX)], ideal, seed=0)
    assert lex == gin(LEX, ideal, seed=0)[0]
    assert inv_lex == relabel(gin(REVLEX, ideal, seed=0)[0], MIRROR)
    assert not is_strongly_stable(inv_lex)[0]
    assert Inverse(LEX).ranking(EXT, 4, 1) == MIRROR


def test_a_gin_read_in_the_standard_ranking_fails_under_an_inverse_order(
        monkeypatch):
    # with the relabelling made the identity, the inv:lex candidate is read
    # with x1 first and raises, after lex has passed on the same trials
    monkeypatch.setattr(gin_module, "relabel", lambda ideal, ranking: ideal)
    ideal = MonomialIdeal.make(EXT, 4, all_monomials(EXT, 4, 2)[:2])
    with pytest.raises(CertificationError,
                       match="unstable gin candidate under inv:lex$"):
        gin_multi([LEX, Inverse(LEX)], ideal, seed=0)


def test_a_candidate_is_checked_again_in_another_ranking(calls):
    # with identity changes the candidate of (x1^2, x1 x2) is the ideal
    # itself under every order: strongly stable with x1 first, not with x2
    # first, so the lex candidate is not served to inv:lex
    ideal = MonomialIdeal.make(POLY, 2, [poly_monomial((2, 0)),
                                         poly_monomial((1, 1))])
    identity = CoordinateChange.identity(2, GFP)
    t = _Trials(POLY, 2, ideal.degree_component, [identity, identity])
    for d in range(4):
        assert t.component(LEX, d) == t.component(Inverse(LEX), d)
    assert t.initial_ideal(LEX, 3) == ideal
    with pytest.raises(CertificationError,
                       match="unstable gin candidate under inv:lex$"):
        t.initial_ideal(Inverse(LEX), 3)
    assert t.initial_ideal(REVLEX, 3) is t.initial_ideal(LEX, 3)
    assert calls == {"make": 2, "stable": 2}
