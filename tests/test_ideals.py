import importlib
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from math import comb

from ginshift.families import MAX_FAMILY_VARIABLES
from ginshift.fields import InvalidInputError
from ginshift.ideals import (MonomialIdeal, is_strongly_stable, minimalize,
                             read_ideal, relabel, stable_closure,
                             write_ideal)
from ginshift.monomials import (EXT, POLY, all_monomials, basis_table,
                                ext_monomial, poly_monomial, squarefree_poly)

import references


def E(supports, n):
    return MonomialIdeal.make(EXT, n, [ext_monomial(s, n) for s in supports])


def test_relabel_renames_the_variables_by_rank():
    # x3 first, then x1, then x2: x3 -> x1, x1 -> x2, x2 -> x3
    ranking = (2, 0, 1)
    poly = MonomialIdeal.make(POLY, 3, [poly_monomial((2, 0, 1)),
                                        poly_monomial((0, 1, 0))])
    assert relabel(poly, ranking) == MonomialIdeal.make(
        POLY, 3, [poly_monomial((1, 2, 0)), poly_monomial((0, 0, 1))])
    assert relabel(E([[1, 2], [3]], 3), ranking) == E([[2, 3], [1]], 3)
    # the identity keeps the ideal itself
    assert relabel(poly, (0, 1, 2)) is poly


def test_relabel_refuses_what_ranks_no_variables():
    for ranking in ((0, 1), (0, 1, 1), (1, 2, 3)):
        with pytest.raises(InvalidInputError, match="ranks no 3 variables"):
            relabel(E([[1, 2]], 3), ranking)


def test_minimalize_drops_multiples():
    n = 4
    gens = [ext_monomial([1, 2], n), ext_monomial([1, 2, 3], n),
            ext_monomial([3, 4], n)]
    assert minimalize(gens) == (ext_monomial([1, 2], n), ext_monomial([3, 4], n))


def test_make_rejects_wrong_ring():
    with pytest.raises(InvalidInputError):
        MonomialIdeal.make(EXT, 4, [poly_monomial((1, 1, 0, 0))])
    with pytest.raises(InvalidInputError):
        MonomialIdeal.make(EXT, 4, [ext_monomial([1, 2], 5)])


def test_membership_and_components():
    ideal = E([[1, 2], [1, 3]], 4)
    assert ideal.contains(ext_monomial([1, 2, 4], 4))
    assert not ideal.contains(ext_monomial([2, 3], 4))
    assert ideal.degree_component(2) == {ext_monomial([1, 2], 4),
                                         ext_monomial([1, 3], 4)}
    # degree 3: everything containing {1,2} or {1,3}
    assert len(ideal.degree_component(3)) == 3
    assert ideal.hilbert(2) == [0, 0, 2]
    # exterior components past n are empty, negative degrees are refused
    assert read_ideal("ring=ext n=3\ne{1,2}\n").hilbert(4) == [0, 0, 1, 1, 0]
    assert E([], 0).hilbert(2) == [0, 0, 0]
    with pytest.raises(InvalidInputError, match="degree -1"):
        ideal.degree_component(-1)


def test_from_components_round_trip():
    ideal = E([[1, 2], [2, 3, 4]], 4)
    comps = [u for d in range(5) for u in ideal.degree_component(d)]
    assert MonomialIdeal.make(EXT, 4, comps) == ideal


def test_containment_partial_order():
    small = E([[1, 2]], 4)
    big = E([[1, 2], [1, 3]], 4)
    assert small <= big
    assert not big <= small


def test_strongly_stable_exterior():
    ok, witness = is_strongly_stable(E([[1, 2], [1, 3]], 4))
    assert ok and witness is None
    bad, (g, v) = is_strongly_stable(E([[2, 3]], 4))
    assert not bad
    assert g == ext_monomial([2, 3], 4)
    assert v in {ext_monomial([1, 3], 4), ext_monomial([1, 2], 4)}


def test_strongly_stable_polynomial():
    stable = MonomialIdeal.make(POLY, 3, [poly_monomial((2, 0, 0)),
                                          poly_monomial((1, 1, 0))])
    assert is_strongly_stable(stable)[0]
    unstable = MonomialIdeal.make(POLY, 3, [poly_monomial((0, 2, 0))])
    assert not is_strongly_stable(unstable)[0]


def test_squarefree_strong_stability_uses_squarefree_rule():
    # {x1x2, x2x3} is squarefree-stable iff x1x3 is present
    ideal = MonomialIdeal.make(POLY, 3, [squarefree_poly((1, 2), 3),
                                         squarefree_poly((2, 3), 3)])
    assert not is_strongly_stable(ideal, squarefree=True)[0]
    full = MonomialIdeal.make(POLY, 3, [squarefree_poly((1, 2), 3),
                                        squarefree_poly((1, 3), 3),
                                        squarefree_poly((2, 3), 3)])
    assert is_strongly_stable(full, squarefree=True)[0]


def test_stable_closure():
    closed = stable_closure([ext_monomial([2, 3], 4)], EXT, 4)
    assert closed == E([[1, 2], [1, 3], [2, 3]], 4)
    ok, _ = is_strongly_stable(closed)
    assert ok


@settings(deadline=None, max_examples=30)
@given(st.sets(st.tuples(st.integers(1, 5), st.integers(1, 5)).map(
    lambda t: tuple(sorted(set(t)))).filter(lambda t: len(t) == 2),
    min_size=1, max_size=5))
def test_stable_closure_is_stable_and_contains_input(pairs):
    gens = [ext_monomial(p, 5) for p in pairs]
    closed = stable_closure(gens, EXT, 5)
    assert all(closed.contains(g) for g in gens)
    assert is_strongly_stable(closed)[0]


def test_serialization_round_trip():
    ideal = MonomialIdeal.make(POLY, 3, [poly_monomial((2, 0, 0)),
                                         poly_monomial((0, 1, 2))])
    assert read_ideal(write_ideal(ideal)) == ideal
    ext = E([[1, 4], [2, 3]], 4)
    assert read_ideal(write_ideal(ext)) == ext
    with pytest.raises(InvalidInputError):
        read_ideal("")
    with pytest.raises(InvalidInputError):
        read_ideal("ring=clifford n=3\n")
    for text in ("ring=poly n=-1\n1\n", "ring=ext n=-2\n"):
        with pytest.raises(InvalidInputError, match="n=-"):
            read_ideal(text)


@st.composite
def _ideals(draw):
    ring = draw(st.sampled_from([EXT, POLY]))
    n = draw(st.integers(1, 6))
    if ring == EXT:
        gen = st.sets(st.integers(1, n), max_size=n).map(
            lambda s: ext_monomial(s, n))
    else:
        gen = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
            poly_monomial)
    return MonomialIdeal.make(ring, n, draw(st.lists(gen, max_size=6)))


@settings(deadline=None, max_examples=150)
@given(_ideals(), st.integers(0, 6))
def test_degree_component_matches_the_divisibility_scan(ideal, d):
    # table entries against testing every monomial for membership, and
    # against the generator multiples; past n an exterior component is
    # empty, not refused
    scan = {u for u in all_monomials(ideal.ring, ideal.n, d)
            if ideal.contains(u)}
    assert ideal.degree_component(d) == scan == \
        references.degree_component(ideal, d)
    if ideal.ring == EXT and d > ideal.n:
        assert scan == set()


def test_degree_component_selects_the_generator_multiples():
    # (ideal, top degree checked)
    rng = np.random.default_rng(2028)
    cases = []
    for _ in range(150):
        n = int(rng.integers(0, 8))
        cases.append((_random_exterior_ideal(rng, n), n))
        cases.append((_random_polynomial_ideal(rng, min(n, 5)), 4))
    # on 13 variables, where make reads the family, and past the family
    # bound, where it minimalizes by divisibility
    for n in (13, MAX_FAMILY_VARIABLES + 1):
        for _ in range(20):
            gens = references.sparse_exterior(rng, n, 3,
                                              int(rng.integers(0, 6)))
            cases.append((MonomialIdeal.make(EXT, n, gens), 3))
    zero = [MonomialIdeal.make(ring, 4, []) for ring in (EXT, POLY)]
    unit = [MonomialIdeal.make(EXT, 4, [ext_monomial((), 4)]),
            MonomialIdeal.make(POLY, 4, [poly_monomial((0,) * 4)])]
    cases += [(ideal, 4) for ideal in zero + unit]
    for ideal, top in cases:
        for d in range(top + 1):
            component = ideal.degree_component(d)
            assert component == references.degree_component(ideal, d), \
                (ideal, d)
            # entries of the table itself, not equal copies
            table = {id(u) for u in basis_table(ideal.ring, ideal.n, d)}
            assert {id(u) for u in component} <= table
    for ideal in zero:
        assert ideal.hilbert(4) == [0] * 5
    for ideal in unit:
        assert ideal.hilbert(4) == [len(basis_table(ideal.ring, 4, d))
                                    for d in range(5)]


# -- the bitset rules against the scans they replaced --------------------


def _scan_is_strongly_stable(ideal):
    """The exterior stability check before subset bitsets: every
    index-decreasing exchange of every generator, by divisibility."""
    for g in ideal.generators:
        s = set(g.support)
        for j in g.support:
            for i in range(1, j):
                if i not in s:
                    v = ext_monomial((s - {j}) | {i}, ideal.n)
                    if not any(h.divides(v) for h in ideal.generators):
                        return False, (g, v)
    return True, None


def _scan_poly_is_strongly_stable(ideal, squarefree):
    """The polynomial stability scans before one exchange rule: x_q -> x_p
    for every p < q, and under the squarefree rule only for p outside the
    support of the generator."""
    for g in ideal.generators:
        s = set(g.support)
        for q in g.support:
            for p in range(1, q):
                if not (squarefree and p in s):
                    v = g.div_var(q).times_var(p)
                    if not ideal.contains(v):
                        return False, (g, v)
    return True, None


def _scan_from_components(ring, n, components):
    """Minimal generators before subset bitsets: by degree, each monomial
    not divisible by a generator kept so far."""
    gens = []
    for d in sorted(components):
        for u in sorted(components[d]):
            if not any(g.divides(u) for g in gens):
                gens.append(u)
    return MonomialIdeal.make(ring, n, gens)


def _listed(components):
    """The monomials of degree components, in one list."""
    return [u for d in components for u in components[d]]


def _random_exterior_ideal(rng, n):
    gens = [ext_monomial(s, n) for d in range(n + 1)
            for s in combinations(range(1, n + 1), d)
            if rng.random() < 0.5 / (d + 1) ** 1.5]
    ideal = MonomialIdeal.make(EXT, n, gens)
    if rng.random() < 0.3:
        ideal = stable_closure(ideal.generators, EXT, n)
    return ideal


def _random_polynomial_ideal(rng, n):
    """The squarefree image of an exterior ideal, or a few monomials with
    exponents up to 2, sometimes closed under the exchange rule."""
    if rng.random() < 0.4:
        return MonomialIdeal.make(POLY, n, [
            squarefree_poly(g.support, n)
            for g in _random_exterior_ideal(rng, n).generators])
    gens = [poly_monomial(rng.integers(0, 3, size=n).tolist())
            for _ in range(int(rng.integers(1, 5)))]
    if rng.random() < 0.3:
        closed = stable_closure(gens, POLY, n)
        assert all(closed.contains(g) for g in gens)
        assert _scan_poly_is_strongly_stable(closed, False)[0]
        return closed
    return MonomialIdeal.make(POLY, n, gens)


def test_exterior_bitset_rules_match_the_scans():
    rng = np.random.default_rng(2024)
    flags = set()
    for _ in range(300):
        n = int(rng.integers(1, 9))
        ideal = _random_exterior_ideal(rng, n)
        got = is_strongly_stable(ideal)
        assert got == _scan_is_strongly_stable(ideal), ideal
        assert is_strongly_stable(ideal, squarefree=True) == got
        flags.add(got[0])
        dense = {d: ideal.degree_component(d)
                 for d in range(int(rng.integers(0, n + 1)) + 1)}
        assert MonomialIdeal.make(EXT, n, _listed(dense)).generators == \
            _scan_from_components(EXT, n, dense).generators
        # any listed monomials, not only an ideal's components
        loose = {d: {u for u in all_monomials(EXT, n, d)
                     if rng.random() < 0.3} for d in range(n + 1)}
        assert MonomialIdeal.make(EXT, n, _listed(loose)).generators == \
            _scan_from_components(EXT, n, loose).generators
    assert flags == {True, False}


def test_one_exchange_rule_matches_the_polynomial_scans():
    # the exterior scan above and both polynomial flavours share one rule
    rng = np.random.default_rng(2025)
    flags = set()
    for _ in range(300):
        n = int(rng.integers(1, 6))
        ideal = _random_polynomial_ideal(rng, n)
        for squarefree in (False, True):
            got = is_strongly_stable(ideal, squarefree)
            assert got == _scan_poly_is_strongly_stable(ideal, squarefree), \
                (ideal, squarefree)
            flags.add((squarefree, got[0]))
    assert flags == {(False, True), (False, False), (True, True),
                     (True, False)}


def test_the_adjacent_exchange_gate_gives_the_full_scan(monkeypatch):
    # under the plain rule a polynomial ideal is scanned in full, for its
    # witness, exactly when a generator g lacks some x_{q-1} g / x_q; the
    # flag and witness are the full scan's. A stable closure with one
    # generator dropped is an unstable ideal missing few exchanges.
    ideals = importlib.import_module("ginshift.ideals")
    scan, scanned = ideals._exchange_scan, []
    monkeypatch.setattr(ideals, "_exchange_scan", lambda ideal, squarefree:
                        scanned.append(ideal) or scan(ideal, squarefree))
    rng = np.random.default_rng(2026)
    flags = Counter()
    for _ in range(400):
        n = int(rng.integers(1, 6))
        ideal = _random_polynomial_ideal(rng, n)
        if ideal.generators and rng.random() < 0.5:
            closed = stable_closure(ideal.generators, POLY, n).generators
            drop = int(rng.integers(len(closed)))
            ideal = MonomialIdeal.make(POLY, n, closed[:drop]
                                       + closed[drop + 1:])
        scanned.clear()
        got = is_strongly_stable(ideal)
        assert got == scan(ideal, False) == \
            _scan_poly_is_strongly_stable(ideal, False), ideal
        assert scanned == ([] if got[0] else [ideal])
        flags[got[0]] += 1
    assert min(flags.values()) > 100, flags


def _many_variable_ideals(rng):
    """Exterior ideals on 13 to 20 variables: a few sparse generators, the
    stable closures of some of degree at most 2, and such closures with
    one generator dropped."""
    out = []
    for _ in range(60):
        n = int(rng.integers(13, MAX_FAMILY_VARIABLES + 1))
        kind = rng.random()
        if kind < 0.4:
            gens = references.sparse_exterior(rng, n, 3,
                                              int(rng.integers(0, 6)))
        else:
            sparse = references.sparse_exterior(rng, n, 2,
                                                int(rng.integers(0, 6)))
            gens = list(stable_closure(sparse, EXT, n).generators)
            if kind < 0.7 and gens:
                del gens[int(rng.integers(len(gens)))]
        out.append(MonomialIdeal.make(EXT, n, gens))
    return out


def test_squarefree_stability_on_many_variables_reads_the_family(
        monkeypatch):
    # up to the family bound every squarefree case is decided on the
    # family: the scan is called only for the witness of a failure, and
    # the flag and witness are the scan's
    ideals = importlib.import_module("ginshift.ideals")
    scan, scanned = ideals._exchange_scan, []
    monkeypatch.setattr(ideals, "_exchange_scan", lambda ideal, squarefree:
                        scanned.append(ideal) or scan(ideal, squarefree))
    rng = np.random.default_rng(2032)
    flags = Counter()
    for ext in _many_variable_ideals(rng):
        image = MonomialIdeal.make(POLY, ext.n, [
            squarefree_poly(g.support, ext.n) for g in ext.generators])
        for ideal, squarefree in ((ext, False), (ext, True), (image, True)):
            scanned.clear()
            got = is_strongly_stable(ideal, squarefree)
            want = (_scan_is_strongly_stable(ideal) if ideal.ring == EXT
                    else _scan_poly_is_strongly_stable(ideal, True))
            assert got == want == scan(ideal, True), ideal
            assert scanned == ([] if got[0] else [ideal])
            flags[got[0]] += 1
    assert min(flags.values()) > 40, flags


def test_squarefree_stability_scans_past_the_family_route(monkeypatch):
    # a non-squarefree generator, the plain polynomial rule, and ideals
    # past the family bound take the scan; no family is built for them
    ideals = importlib.import_module("ginshift.ideals")

    def refuse(*args):
        raise AssertionError("family route taken")

    monkeypatch.setattr(ideals, "is_stable_family", refuse)
    squares = [poly_monomial((2, 0, 0)), squarefree_poly((1, 2), 3)]
    for gens, flag in ((squares, True),
                       (squares + [squarefree_poly((2, 3), 3)], False)):
        ideal = MonomialIdeal.make(POLY, 3, gens)
        for squarefree in (False, True):
            got = is_strongly_stable(ideal, squarefree)
            assert got == _scan_poly_is_strongly_stable(ideal, squarefree)
            assert got[0] == flag
    n = MAX_FAMILY_VARIABLES + 1
    for ideal, flag in ((E([(1, 2)], n), True), (E([(1, n)], n), False)):
        assert is_strongly_stable(ideal)[0] == flag
        assert is_strongly_stable(ideal) == _scan_is_strongly_stable(ideal)
        image = MonomialIdeal.make(POLY, n, [
            squarefree_poly(g.support, n) for g in ideal.generators])
        assert is_strongly_stable(image, squarefree=True) == \
            _scan_poly_is_strongly_stable(image, True)


def _squarefree_polynomial_generators(rng, n):
    """A few squarefree monomials of [n], with duplicates, proper multiples
    of some of them and, now and then, the monomial 1."""
    supports = [tuple(rng.choice(n, size=k, replace=False) + 1)
                for k in rng.integers(0, min(n, 4) + 1,
                                      size=int(rng.integers(0, 10)))
                if k or rng.random() < 0.3]
    supports += [s for s in supports if rng.random() < 0.3]
    supports += [s + (i,) for s in supports for i in range(1, n + 1)
                 if i not in s and rng.random() < 0.2]
    return [squarefree_poly(s, n) for s in supports]


def test_make_reads_squarefree_polynomial_generators_off_their_family(
        monkeypatch):
    # on up to 20 variables squarefree polynomial generators take the
    # family route of exterior ones, with no divisibility scan
    ideals = importlib.import_module("ginshift.ideals")
    called = []

    def refuse(gens):
        raise AssertionError("minimalized by divisibility")

    monkeypatch.setattr(ideals, "minimalize", refuse)
    rng = np.random.default_rng(2035)
    sizes = Counter()
    for _ in range(300):
        n = int(rng.integers(0, MAX_FAMILY_VARIABLES + 1))
        gens = _squarefree_polynomial_generators(rng, n)
        ideal = MonomialIdeal.make(POLY, n, gens)
        assert ideal.generators == references.minimalize(gens), gens
        sizes[len(gens) > len(ideal.generators)] += 1
    assert min(sizes.values()) > 30, sizes
    # one square among them, or 21 variables: minimalized by divisibility
    monkeypatch.setattr(ideals, "minimalize", lambda gens: called.append(
        gens) or minimalize(gens))
    n = MAX_FAMILY_VARIABLES + 1
    for gens in ([poly_monomial((2, 0, 0)), squarefree_poly((1, 2), 3),
                  squarefree_poly((1, 2, 3), 3)],
                 [squarefree_poly((1, n), n), squarefree_poly((1, 2, n), n),
                  squarefree_poly((), n)]):
        ideal = MonomialIdeal.make(POLY, gens[0].n, gens)
        assert ideal.generators == references.minimalize(gens)
    assert len(called) == 2
