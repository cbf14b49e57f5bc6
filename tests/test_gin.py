import importlib

import pytest

from ginshift.changes import SizeLimitError
from ginshift.fields import GFP, QQ, InvalidInputError, PrimeField
from ginshift.gin import (CertificationError, DualityViolationError, _Trials,
                          _trial_changes, combinatorial_shift,
                          complement_dual, gin,
                          gin_adaptive, gin_multi, gin_multi_adaptive,
                          gin_space,
                          gins_agree_adaptive, trans_witnesses)
from ginshift.complexes import edge_ideal, face_ideal, flag_complex
from ginshift.ideals import MonomialIdeal, relabel
from ginshift.monomials import (EXT, POLY, all_monomials, ext_monomial,
                                poly_monomial)
from ginshift.orders import LEX, REVLEX, Inverse, WeightOrder
from ginshift.verifier import enumerate_graphs


def E(supports, n):
    return MonomialIdeal.make(EXT, n, [ext_monomial(s, n) for s in supports])


# -- combinatorial shifting (elementary matrices) -----------------------


REI = E([[1, 2], [1, 3], [3, 4]], 4)


def test_single_shift_13():
    got = combinatorial_shift(LEX, REI, [(1, 3)])
    assert got == E([[1, 2], [1, 3], [1, 4], [2, 3, 4]], 4)


def test_single_shift_24():
    got = combinatorial_shift(LEX, REI, [(2, 4)])
    assert got == E([[1, 2], [1, 3], [2, 3]], 4)


def test_shift_is_order_independent_here():
    for pair in [(1, 3), (2, 4)]:
        assert combinatorial_shift(LEX, REI, [pair]) == \
            combinatorial_shift(REVLEX, REI, [pair])


def test_elementary_shift_space_follows_the_field():
    # phi_{1,2}(x2^2) = x1^2 + 2 x1 x2 + x2^2: the middle term vanishes
    # over GF(2), so the shift of (x1^2, x2^2) depends on p
    w = [poly_monomial((2, 0)), poly_monomial((0, 2))]
    ideal = MonomialIdeal.make(POLY, 2, w)
    over5 = MonomialIdeal.make(POLY, 2, [poly_monomial((2, 0)),
                                         poly_monomial((1, 1))])
    for p, want in ((5, over5), (2, ideal), (5, over5)):
        assert combinatorial_shift(LEX, ideal, [(1, 2)], cap=2,
                                   field=PrimeField(p)) == want


def test_trans_witnesses_find_both():
    found = trans_witnesses(REI, budget=50)
    ideals = set(found)
    assert E([[1, 2], [1, 3], [1, 4], [2, 3, 4]], 4) in ideals
    assert E([[1, 2], [1, 3], [2, 3]], 4) in ideals
    degree2 = {frozenset(j.degree_component(2)) for j in ideals}
    assert len(degree2) >= 2
    for stable, seq in found.items():
        assert combinatorial_shift(LEX, REI, seq) == stable


def test_trans_witness_of_stable_ideal_is_itself():
    stable = E([[1, 2], [1, 3]], 4)
    found = trans_witnesses(stable, budget=10)
    assert set(found) == {stable}
    assert found[stable] == ()


# -- subspace gins and complement duality -------------------------------


def _span(supports, n):
    return {ext_monomial(s, n) for s in supports}


def test_gin_of_path_span():
    w = _span([[1, 2], [2, 3], [3, 4]], 4)
    assert gin_space(REVLEX, w, EXT, 4, 2) == _span([[1, 2], [1, 3], [2, 3]], 4)


def test_complement_duality_known_case():
    w = _span([[1, 2], [2, 3], [3, 4]], 4)
    ambient = set(all_monomials(EXT, 4, 2))
    dual = gin_space(Inverse(REVLEX), ambient - w, EXT, 4, 2)
    assert dual == _span([[1, 4], [2, 4], [3, 4]], 4)
    # lex gin of the complement: relabel the inverse-revlex answer
    assert gin_space(LEX, ambient - w, EXT, 4, 2) == \
        _span([[1, 2], [1, 3], [1, 4]], 4)
    # the verified dual route agrees with the primal complement
    assert complement_dual(REVLEX, w, EXT, 4) == _span([[1, 4], [2, 4], [3, 4]], 4)


def test_complement_duality_refuses_what_is_not_of_degree_two():
    # gin_space refuses these before any change is drawn: a degree-3
    # monomial, a polynomial monomial under EXT, and a monomial of the
    # wrong n, each beside a valid one
    for bad, ring in ((ext_monomial([1, 2, 3], 4), EXT),
                      (poly_monomial((1, 1, 0, 0)), EXT),
                      (ext_monomial([1, 2], 5), EXT),
                      (poly_monomial((1, 1, 1, 0)), POLY),
                      (poly_monomial((1, 1, 0)), POLY)):
        good = (ext_monomial([1, 2], 4) if ring == EXT
                else poly_monomial((1, 1, 0, 0)))
        with pytest.raises(InvalidInputError):
            complement_dual(LEX, {good, bad}, ring, 4)


def test_char2_duality_negative():
    w = {poly_monomial((2, 0)), poly_monomial((0, 2))}
    with pytest.raises((DualityViolationError, CertificationError)):
        complement_dual(LEX, w, POLY, 2, field=PrimeField(2))


# -- full gin with certification ----------------------------------------


def test_gin_certificate_and_stability():
    g, cert = gin(REVLEX, REI, seed=0)
    assert cert.accepted
    assert cert.to_dict()["accepted"] is True
    assert g == E([[1, 2], [1, 3], [2, 3]], 4)
    # determinism across calls with the same seed
    g2, _ = gin(REVLEX, REI, seed=0)
    assert g2 == g


def test_gin_requires_two_trials():
    from ginshift.fields import InvalidInputError
    with pytest.raises(InvalidInputError):
        gin(LEX, REI, trials=1)


def test_negative_degree_caps_are_refused():
    from ginshift.fields import InvalidInputError
    for call in (lambda: gin(LEX, REI, cap=-1),
                 lambda: gin_multi([LEX, REVLEX], REI, cap=-1),
                 lambda: combinatorial_shift(LEX, REI, [(1, 3)], cap=-1),
                 lambda: trans_witnesses(REI, cap=-1)):
        with pytest.raises(InvalidInputError):
            call()
    # cap 0 keeps only degree 0, where the ideal is zero
    assert gin(LEX, REI, cap=0)[0] == E([], 4)
    assert combinatorial_shift(LEX, REI, [(1, 3)], cap=0) == E([], 4)


def test_single_degree_gins_refuse_monomials_of_another_degree():
    # a full span of the wrong degree must not pass for a full component
    from ginshift.fields import InvalidInputError
    w = set(all_monomials(EXT, 3, 3))
    for call in (lambda: gin_space(LEX, w, EXT, 3, 2),
                 lambda: gin_space(LEX, w, EXT, 4, 3)):
        with pytest.raises(InvalidInputError):
            call()


def _degree3_example():
    n = 6
    cubics = [[1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 2, 6],
              [1, 3, 4], [1, 3, 5], [1, 3, 6],
              [2, 3, 4], [2, 3, 5]]
    from itertools import combinations
    quartics = [list(c) for c in combinations(range(1, 7), 4)]
    j = E(cubics + quartics, n)
    jprime = E(cubics + quartics + [[4, 5, 6]], n)
    return j, jprime


def test_degree3_gins_depend_on_order():
    j, jprime = _degree3_example()
    expected_lex = MonomialIdeal.make(
        EXT, 6, list(j.generators) + [ext_monomial([1, 4, 5], 6)])
    expected_weight = MonomialIdeal.make(
        EXT, 6, list(j.generators) + [ext_monomial([2, 3, 6], 6)])
    g_lex, cert = gin(LEX, jprime, seed=0)
    assert cert.accepted and g_lex == expected_lex
    g_rev, _ = gin(REVLEX, jprime, seed=0)
    assert g_rev == expected_lex
    for tiebreak in ("lex", "revlex"):
        sigma = WeightOrder((10, 9, 8, 3, 2, 1), tiebreak)
        g_w, cert_w = gin(sigma, jprime, seed=0)
        assert cert_w.accepted and g_w == expected_weight


def test_gin_multi_matches_individual_gins():
    j, jprime = _degree3_example()
    orders = [LEX, REVLEX, WeightOrder((10, 9, 8, 3, 2, 1), "lex")]
    multi = gin_multi(orders, jprime, seed=0)
    for order, got in zip(orders, multi):
        single, _ = gin(order, jprime, seed=0)
        assert got == single


def test_polynomial_gins_of_two_disjoint_edges():
    ideal = MonomialIdeal.make(POLY, 4, [poly_monomial((1, 1, 0, 0)),
                                         poly_monomial((0, 0, 1, 1))])
    g_lex, cert, cap = gin_adaptive(LEX, ideal, seed=0)
    assert cert.accepted
    assert g_lex == MonomialIdeal.make(POLY, 4, [
        poly_monomial((2, 0, 0, 0)), poly_monomial((1, 1, 0, 0)),
        poly_monomial((1, 0, 2, 0)), poly_monomial((0, 4, 0, 0))])
    g_rev, cert2, _ = gin_adaptive(REVLEX, ideal, seed=0)
    assert cert2.accepted
    assert g_rev == MonomialIdeal.make(POLY, 4, [
        poly_monomial((2, 0, 0, 0)), poly_monomial((1, 1, 0, 0)),
        poly_monomial((0, 3, 0, 0))])
    assert g_lex != g_rev


def test_gin_over_rationals_matches_prime_field():
    w = _span([[1, 2], [2, 3], [3, 4]], 4)
    assert gin_space(REVLEX, w, EXT, 4, 2, field=QQ) == \
        gin_space(REVLEX, w, EXT, 4, 2, field=GFP)


def test_gin_over_a_prime_above_int64_range_matches_prime_field():
    # 2**40 + 15 overflows int64 products, so it runs on python ints
    big = PrimeField(2 ** 40 + 15)
    w = _span([[1, 2], [2, 3], [3, 4]], 4)
    for order in (LEX, REVLEX):
        assert gin_space(order, w, EXT, 4, 2, field=big) == \
            gin_space(order, w, EXT, 4, 2, field=GFP)
    v = {poly_monomial((0, 2, 0)), poly_monomial((0, 1, 1))}
    assert gin_space(LEX, v, POLY, 3, 2, field=big) == \
        gin_space(LEX, v, POLY, 3, 2, field=GFP)


def test_gin_multi_adaptive_matches_single_adaptive():
    ideal = MonomialIdeal.make(POLY, 4, [poly_monomial((1, 1, 0, 0)),
                                         poly_monomial((0, 0, 1, 1))])
    multi = gin_multi_adaptive([LEX, REVLEX], ideal, seed=0)
    for order, (got, cap) in zip([LEX, REVLEX], multi):
        single, _, single_cap = gin_adaptive(order, ideal, seed=0)
        assert got == single
        assert cap == single_cap


def test_gins_agree_adaptive_detects_disagreement():
    ideal = MonomialIdeal.make(POLY, 4, [poly_monomial((1, 1, 0, 0)),
                                         poly_monomial((0, 0, 1, 1))])
    assert not gins_agree_adaptive(LEX, REVLEX, ideal, seed=0)


def test_gins_agree_adaptive_checks_stability_at_the_first_difference(
        monkeypatch):
    # lex and revlex part in degree 3, inside the first cap: the answer
    # "differ" still needs both candidates certified, stability included
    gin_module = importlib.import_module("ginshift.gin")
    ideal = MonomialIdeal.make(POLY, 4, [poly_monomial((1, 1, 0, 0)),
                                         poly_monomial((0, 0, 1, 1))])
    monkeypatch.setattr(gin_module, "is_strongly_stable",
                        lambda ideal: (False, None))
    with pytest.raises(CertificationError):
        gins_agree_adaptive(LEX, REVLEX, ideal, seed=0)


def test_gins_agree_adaptive_confirms_agreement():
    ideal = MonomialIdeal.make(POLY, 2, [poly_monomial((1, 1))])
    assert gins_agree_adaptive(LEX, REVLEX, ideal, seed=0)
    stable = MonomialIdeal.make(EXT, 4, [ext_monomial([1, 2], 4),
                                         ext_monomial([1, 3], 4)])
    assert gins_agree_adaptive(LEX, REVLEX, stable, seed=0)


# -- the shared engine: escalation, exterior clamp, size limit ----------


def test_gin_escalates_once_and_is_accepted():
    g, cert = gin(REVLEX, REI, seed=1, field=PrimeField(31))
    assert cert.escalated and cert.accepted
    assert cert.trials == 6
    assert g == E([[1, 2], [1, 3], [2, 3]], 4)


def test_gin_multi_escalates_like_gin():
    field = PrimeField(31)
    single, cert = gin(REVLEX, REI, seed=1, field=field)
    assert cert.escalated
    assert gin_multi([REVLEX], REI, seed=1, field=field) == [single]
    # under lex the doubled trials disagree too, so both entry points raise
    with pytest.raises(CertificationError):
        gin(LEX, REI, seed=1, field=field)
    with pytest.raises(CertificationError):
        gin_multi([LEX, REVLEX], REI, seed=1, field=field)


def test_every_certified_ideal_gin_needs_two_trials():
    from ginshift.fields import InvalidInputError
    for call in (lambda: gin_multi([LEX], REI, trials=1),
                 lambda: gin_multi_adaptive([LEX], REI, trials=1),
                 lambda: gins_agree_adaptive(LEX, REVLEX, REI, trials=1)):
        with pytest.raises(InvalidInputError):
            call()


def test_single_degree_gins_need_two_trials():
    # refused before any trial set is drawn or looked up, empty span too
    w = {ext_monomial([1, 2], 4), ext_monomial([3, 4], 4)}
    before = _trial_changes.cache_info()
    for trials in (0, 1):
        for call in (lambda: gin_space(LEX, w, EXT, 4, 2, trials=trials),
                     lambda: gin_space(LEX, set(), EXT, 4, 2, trials=trials),
                     lambda: complement_dual(LEX, w, EXT, 4, trials=trials)):
            with pytest.raises(InvalidInputError):
                call()
    after = _trial_changes.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


FIELDS = (GFP, PrimeField(101), QQ)


def test_trial_sets_never_cross_fields_or_kinds(fresh_trial_sets):
    drawn = {}
    for field in FIELDS:
        for upper in (False, True):
            t = _Trials.draw(EXT, 4, lambda d: (), 3, 7, field,
                             upper_triangular=upper)
            kind = "random-upper-triangular" if upper else "random-dense"
            assert len(t.phis) == 3
            for phi in t.phis:
                assert type(phi.field) is type(field) and phi.field == field
                assert phi.kind == kind
                assert all(field(x) == x for row in phi.matrix for x in row)
            drawn[field, upper] = t.phis
    # six keys, six trial sets; a second draw of a key shares its changes
    assert len({id(phi) for phis in drawn.values() for phi in phis}) == 18
    for (field, upper), phis in drawn.items():
        assert _Trials.draw(EXT, 4, lambda d: (), 3, 7, field,
                            upper_triangular=upper).phis is phis


def test_warm_trial_sets_give_the_cold_results(fresh_trial_sets):
    w = {ext_monomial([1, 3], 4), ext_monomial([2, 4], 4),
         ext_monomial([3, 4], 4)}

    def results():
        return [(gin(REVLEX, REI, seed=7, field=field)[0],
                 gin_multi([LEX, REVLEX], REI, seed=7, field=field),
                 gin_space(LEX, w, EXT, 4, 2, seed=7, field=field),
                 gin_space(REVLEX, w, EXT, 4, 2, seed=7, field=field,
                           upper_triangular=True))
                for field in FIELDS]

    cold = results()
    assert results() == cold  # every draw from the cache
    _trial_changes.cache_clear()
    assert results() == cold


def test_adaptive_exterior_gin_stops_at_n():
    top = E([[1, 2, 3]], 3)
    g, cert, cap = gin_adaptive(LEX, top, seed=0)
    assert (g, cap) == (top, 3) and cert.accepted
    assert gin_multi_adaptive([LEX], top, seed=0) == [(top, 3)]


TWO_EDGES = MonomialIdeal.make(POLY, 4, [poly_monomial((1, 1, 0, 0)),
                                         poly_monomial((0, 0, 1, 1))])


def test_adaptive_gin_past_max_cap_is_a_size_limit():
    # the lex gin is (x1^2, x1x2, x1x3^2, x2^4) and needs cap 5
    for max_cap in (3, 4):
        with pytest.raises(SizeLimitError):
            gin_adaptive(LEX, TWO_EDGES, seed=0, max_cap=max_cap)
        with pytest.raises(SizeLimitError):
            gin_multi_adaptive([LEX], TWO_EDGES, seed=0, max_cap=max_cap)
    g, _, cap = gin_adaptive(LEX, TWO_EDGES, seed=0, max_cap=5)
    assert cap == 5 and g.max_generator_degree == 4


def test_gins_agree_adaptive_past_max_cap_is_a_size_limit():
    # in two variables lex and revlex agree; the gin of (x1^3, x2^3) is
    # (x1^3, x1^2 x2, x1 x2^3, x2^5) and needs cap 6
    cubes = MonomialIdeal.make(POLY, 2, [poly_monomial((3, 0)),
                                         poly_monomial((0, 3))])
    assert gins_agree_adaptive(LEX, REVLEX, cubes, seed=0, max_cap=6)
    with pytest.raises(SizeLimitError):
        gins_agree_adaptive(LEX, REVLEX, cubes, seed=0, max_cap=5)
    g, _, cap = gin_adaptive(REVLEX, cubes, seed=0)
    assert cap == 6 and g == MonomialIdeal.make(POLY, 2, [
        poly_monomial((3, 0)), poly_monomial((2, 1)), poly_monomial((1, 3)),
        poly_monomial((0, 5))])


# -- every order up to a relabelling of the variables --------------------


@pytest.mark.parametrize("ring", [EXT, POLY])
def test_inverse_order_gins_are_mirrored_gins(ring):
    # x_i -> x_{n+1-i} turns inv:lex into revlex and inv:revlex into lex,
    # so on every graph class the full inverse-order gins are the mirrored
    # ones: of the flag complex's face ideal, and of the edge ideal
    for n in range(1, 6):
        mirror = tuple(range(n - 1, -1, -1))
        for g in enumerate_graphs(n):
            ideal = (face_ideal(flag_complex(g), EXT) if ring == EXT
                     else edge_ideal(g))
            (lex, _), (revlex, _), (inv_lex, _), (inv_revlex, _) = \
                gin_multi_adaptive([LEX, REVLEX, Inverse(LEX),
                                    Inverse(REVLEX)], ideal)
            assert inv_lex == relabel(revlex, mirror), (ring, g)
            assert inv_revlex == relabel(lex, mirror), (ring, g)
