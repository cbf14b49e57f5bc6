import dataclasses
import importlib
from collections import Counter
from itertools import combinations
from math import comb

import numpy as np
import pytest

from ginshift.changes import SizeLimitError
from ginshift.complexes import (SimplicialComplex, combinatorial_ideal,
                                complex_from_ideal, cone, edge_ideal,
                                face_ideal, flag_complex, read_complex,
                                shifted_complex, write_complex)
from ginshift.families import (MAX_FAMILY_VARIABLES, down_closure, family_of,
                               family_supports, maximal_family, sized)
from ginshift.fields import InvalidInputError
from ginshift.graphs import (Graph, complete_bipartite, complete_graph,
                             cycle_graph, path_graph)
from ginshift.ideals import (MonomialIdeal, family_ideal, is_strongly_stable,
                             squarefree_family)
from ginshift.monomials import (EXT, POLY, ext_monomial, poly_monomial,
                                squarefree_poly)
from ginshift.orders import LEX, REVLEX, Inverse

import references


def _is_shifted(gamma):
    """Shifted: the non-faces form a strongly stable exterior ideal."""
    return is_strongly_stable(face_ideal(gamma, EXT))[0]


def test_make_closes_downward():
    gamma = SimplicialComplex.make(3, [(1, 2, 3)])
    assert gamma.faces == {f for k in range(4)
                           for f in combinations((1, 2, 3), k)}
    assert gamma.has_face((1, 3))
    assert gamma.dimension == 2
    assert gamma.f_vector() == [1, 3, 3, 1]
    with pytest.raises(InvalidInputError):
        SimplicialComplex.make(3, [(1, 4)])


def test_singletons_always_present():
    gamma = SimplicialComplex.make(4, [(1, 2)])
    assert gamma.has_face((4,))
    assert gamma.f_vector() == [1, 4, 1]


def test_facets_and_skeleton():
    gamma = SimplicialComplex.make(4, [(1, 2, 3), (3, 4)])
    assert gamma.facets() == [(1, 2, 3), (3, 4)]
    skel = gamma.skeleton(1)
    assert skel.dimension == 1
    assert skel.graph() == Graph.make(4, [(1, 2), (1, 3), (2, 3), (3, 4)])


def test_flag_complex():
    gamma = flag_complex(complete_graph(3))
    assert gamma.has_face((1, 2, 3))
    # C4 has no triangles: its flag complex is the graph itself
    delta = flag_complex(cycle_graph(4))
    assert delta.dimension == 1
    assert delta.faces_of_size(2) == {(1, 2), (2, 3), (3, 4), (1, 4)}


def test_cone():
    gamma = SimplicialComplex.make(3, [(1, 2)])
    c = cone(gamma)
    assert c.n == 4
    assert c.has_face((1, 2, 4)) and c.has_face((3, 4))
    assert c.dimension == gamma.dimension + 1


def test_face_ideal_and_inverse():
    gamma = SimplicialComplex.make(3, [(1, 2), (2, 3)])
    j = face_ideal(gamma, EXT)
    assert j == MonomialIdeal.make(EXT, 3, [ext_monomial([1, 3], 3)])
    assert complex_from_ideal(j) == gamma
    sr = face_ideal(gamma, POLY)
    assert sr == MonomialIdeal.make(POLY, 3, [squarefree_poly((1, 3), 3)])


def test_edge_ideal():
    g = path_graph(3)
    assert edge_ideal(g) == MonomialIdeal.make(POLY, 3, [
        squarefree_poly((1, 2), 3), squarefree_poly((2, 3), 3)])


def test_combinatorial_ideal_routes():
    g = path_graph(3)
    assert combinatorial_ideal(g, POLY) == edge_ideal(g)
    # a bare graph in the exterior ring is its 1-dimensional complex
    j = combinatorial_ideal(g, EXT)
    assert j.contains(ext_monomial([1, 3], 3))
    assert not j.contains(ext_monomial([1, 2], 3))


def test_flag_complex_ideal_agrees_with_graph_ideal_in_degree_2():
    # degree-2 non-faces of the flag complex are exactly the non-edges
    for g in (path_graph(4), cycle_graph(5), complete_bipartite(2, 3)):
        jf = face_ideal(flag_complex(g), EXT)
        jg = combinatorial_ideal(g, EXT)
        assert jf.degree_component(2) == jg.degree_component(2)


def test_shifted_complex_of_c4():
    # the shifted C4 (as flag complex of K_{2,2} with parts {1,2}, {3,4})
    g = Graph.make(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    delta = shifted_complex(REVLEX, flag_complex(g))
    assert delta.faces_of_size(2) == {(1, 4), (2, 3), (2, 4), (3, 4)}
    assert _is_shifted(delta)
    assert delta.f_vector() == flag_complex(g).f_vector()


def test_shifted_complex_fixed_point():
    gamma = complex_from_ideal(MonomialIdeal.make(
        EXT, 3, [ext_monomial([1, 2], 3)]))
    # non-faces already strongly stable: shifting returns gamma itself
    assert shifted_complex(LEX, gamma) is gamma
    assert _is_shifted(gamma)


def test_a_shifted_complex_is_its_own_shift_only_in_its_ranking():
    # the non-faces e{1,2}, e{1,3} are strongly stable with vertex 1 first,
    # not with vertex 4 first: inv:revlex shifts to the mirrored complex
    gamma = SimplicialComplex.make(4, [(2, 3, 4), (1, 4)])
    assert shifted_complex(REVLEX, gamma) is gamma
    delta = shifted_complex(Inverse(REVLEX), gamma)
    assert delta.facets() == [(1, 2, 3), (1, 4)]
    # and that one is inv:revlex's fixed point, not revlex's
    assert shifted_complex(Inverse(REVLEX), delta) is delta
    assert shifted_complex(REVLEX, delta) == gamma


def test_shifted_complex_preserves_f_vector():
    for g in (path_graph(5), cycle_graph(5), cycle_graph(6)):
        gamma = flag_complex(g)
        delta = shifted_complex(REVLEX, gamma)
        assert delta.f_vector() == gamma.f_vector()
        assert _is_shifted(delta)


def test_serialization_round_trip():
    gamma = SimplicialComplex.make(4, [(1, 2, 3), (3, 4)])
    assert read_complex(write_complex(gamma)) == gamma
    with pytest.raises(InvalidInputError, match="n=-3"):
        read_complex('{"n": -3, "facets": []}')


def test_complexes_past_the_vertex_limit_are_refused(monkeypatch):
    # at the limit the cycle's flag complex goes to its face ideals and back
    n = MAX_FAMILY_VARIABLES
    gamma = flag_complex(cycle_graph(n))
    assert gamma.f_vector() == [1, n, n]
    for ring in (EXT, POLY):
        assert complex_from_ideal(face_ideal(gamma, ring)) == gamma
    # one past it, refused before any family is built, by the complexes or
    # by the ideals' conversions to and from families
    complexes = importlib.import_module("ginshift.complexes")
    ideals = importlib.import_module("ginshift.ideals")
    for name in ("family_of", "up_closure", "down_closure"):
        monkeypatch.setattr(complexes, name, None)
    for name in ("family_of", "up_closure", "minimal_family"):
        monkeypatch.setattr(ideals, name, None)
    g = cycle_graph(n + 1)
    path = ", ".join(f"[{i}, {i + 1}]" for i in range(1, n + 1))
    for call in (lambda: flag_complex(g),
                 lambda: complex_from_ideal(edge_ideal(g)),
                 lambda: SimplicialComplex.make(n + 1, g.edges),
                 lambda: read_complex(f'{{"n": {n + 1}, "facets": [{path}]}}'),
                 lambda: cone(gamma),
                 lambda: face_ideal(SimplicialComplex(n + 1, 1), EXT),
                 lambda: face_ideal(SimplicialComplex(n + 1, 1), POLY)):
        with pytest.raises(SizeLimitError, match=f"n={n + 1}"):
            call()


def test_the_20_vertex_2_skeleton_is_shifted_on_families(monkeypatch):
    # its face ideal, every 4-subset, is stable: no generator scan decides
    # it, and the shifted complex is the complex itself
    ideals = importlib.import_module("ginshift.ideals")

    def refuse(*args):
        raise AssertionError("generator scan used")

    monkeypatch.setattr(ideals, "_exchange_scan", refuse)
    n = MAX_FAMILY_VARIABLES
    skeleton = SimplicialComplex.make(n, combinations(range(1, n + 1), 3))
    j = face_ideal(skeleton, EXT)
    assert len(j.generators) == comb(n, 4)
    assert is_strongly_stable(j) == (True, None)
    assert shifted_complex(REVLEX, skeleton) == skeleton
    assert shifted_complex(REVLEX, skeleton).f_vector() == [1, 20, 190, 1140]


def test_the_20_vertex_polynomial_face_ideal_is_read_off_its_family(
        monkeypatch):
    # the Stanley-Reisner ideal of the 2-skeleton, every squarefree
    # quartic, takes the family route of the exterior face ideal
    ideals = importlib.import_module("ginshift.ideals")

    def refuse(gens):
        raise AssertionError("minimalized by divisibility")

    monkeypatch.setattr(ideals, "minimalize", refuse)
    n = MAX_FAMILY_VARIABLES
    skeleton = SimplicialComplex.make(n, combinations(range(1, n + 1), 3))
    sr = face_ideal(skeleton, POLY)
    assert len(sr.generators) == comb(n, 4)
    assert [u.support for u in sr.generators] == [
        u.support for u in face_ideal(skeleton, EXT).generators]
    assert complex_from_ideal(sr) == skeleton


def test_the_conversions_between_ideals_and_families():
    # squarefree_family and family_ideal against the subset loops, in both
    # rings; squares x_i^2 divide no squarefree monomial
    rng = np.random.default_rng(2036)
    units = Counter()
    for _ in range(150):
        n = int(rng.integers(0, 9))
        supports = _random_supports(rng, n, 0.2)
        gamma = SimplicialComplex.make(n, _random_supports(rng, n, 0.3))
        for ring in (EXT, POLY):
            monomial = ext_monomial if ring == EXT else squarefree_poly
            ideal = family_ideal(ring, n, family_of(supports))
            assert ideal.generators == references.minimalize(
                [monomial(s, n) for s in supports])
            assert family_ideal(ring, n, sized(n, 0, n) & ~gamma.family) == \
                references.face_ideal(gamma, ring)
            squares = [poly_monomial([2 * (i == v) for i in range(1, n + 1)])
                       for v in range(1, n + 1) if rng.random() < 0.3]
            if ring == POLY:
                ideal = MonomialIdeal.make(ring, n, ideal.generators + tuple(
                    squares))
            unit = ideal.contains(monomial((), n))
            units[unit] += 1
            assert squarefree_family(ideal) == (sized(n, 0, n) & ~(
                references.complex_from_ideal(ideal).family) | unit)
            if ring == EXT:
                for top in range(n + 1):
                    assert squarefree_family(ideal) & sized(n, 0, top) == \
                        references.family(ideal, top)
            assert family_ideal(ring, n, squarefree_family(ideal)) == \
                MonomialIdeal.make(ring, n, [u for u in ideal.generators
                                             if u.is_squarefree()])
    assert min(units.values()) > 20, units


def test_a_complex_is_its_face_family():
    # the fields are n and the family; the family is left out of the repr,
    # which would otherwise pass Python's int-to-str digit limit
    n = MAX_FAMILY_VARIABLES
    simplex = SimplicialComplex.make(n, [range(1, n + 1)])
    assert [f.name for f in dataclasses.fields(simplex)] == ["n", "family"]
    assert simplex.family == (1 << (1 << n)) - 1
    assert repr(simplex) == f"SimplicialComplex(n={n})"
    assert simplex.facets() == [tuple(range(1, n + 1))]
    assert simplex.f_vector() == [comb(n, k) for k in range(n + 1)]
    assert simplex.dimension == n - 1
    assert simplex.has_face(range(1, n + 1)) and not simplex.has_face((0,))
    assert str(flag_complex(cycle_graph(4))) == \
        "Complex(n=4, facets=[(1, 2), (1, 4), (2, 3), (3, 4)])"
    gamma = SimplicialComplex.make(3, [(1, 2)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        gamma.family = 0
    assert isinstance(gamma.faces, frozenset)


def test_down_closure_and_maximal_family_of_any_family():
    # families that need not be closed in either direction
    rng = np.random.default_rng(2031)
    for _ in range(150):
        n = int(rng.integers(0, 8))
        supports = [frozenset(s) for s in _random_supports(
            rng, n, float(rng.uniform(0.05, 0.5)))]
        family = family_of(sorted(s) for s in supports)
        below = {t for s in supports for k in range(len(s) + 1)
                 for t in map(frozenset, combinations(sorted(s), k))}
        assert down_closure(family, n) == family_of(sorted(t) for t in below)
        assert maximal_family(family, n) == family_of(
            sorted(s) for s in supports if not any(s < t for t in supports))
        assert family_supports(family, n) == sorted(
            (tuple(sorted(s)) for s in supports),
            key=lambda s: sum(1 << (i - 1) for i in s))


def _random_family(rng, n, density):
    bits = rng.random(1 << n) < density
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(),
                          "little")


def test_family_supports_match_the_per_bit_reference():
    rng = np.random.default_rng(2041)
    for n in range(13):
        for density in (0.0, 0.02, 0.3, 0.9, 1.0):
            family = _random_family(rng, n, density)
            assert family_supports(family, n) == \
                references.family_supports(family, n)
    for _ in range(60):
        n = int(rng.integers(9, 13))
        family = _random_family(rng, n, float(rng.uniform(0, 0.2)))
        assert family_supports(family, n) == \
            references.family_supports(family, n)
    # supports spanning three bytes: the last vertex alone, and a mix
    top = family_of([[20], [1, 9, 17, 20], [8, 16], list(range(1, 21))])
    assert family_supports(top, 20) == [(8, 16), (20,), (1, 9, 17, 20),
                                        tuple(range(1, 21))]


def test_complex_operations_match_the_tuple_closure():
    rng = np.random.default_rng(2029)
    for _ in range(200):
        n = int(rng.integers(0, 11))
        faces = _random_supports(rng, n, float(rng.uniform(0.05, 0.6)))
        faces = [rng.permutation(f).tolist() for f in faces]
        closed = references.closure(n, faces)
        gamma = SimplicialComplex.make(n, faces)
        assert gamma.faces == closed, (n, faces)
        assert gamma.facets() == references.facets(closed)
        assert gamma.f_vector() == references.f_vector(closed)
        assert gamma.dimension == max(map(len, closed)) - 1
        assert cone(gamma).faces == references.cone(n, closed)
        assert cone(gamma).facets() == [f + (n + 1,) for f in gamma.facets()]
        for k in range(-1, n + 1):
            assert gamma.skeleton(k).faces == {f for f in closed
                                               if len(f) <= k + 1}
            assert gamma.faces_of_size(k + 1) == {f for f in closed
                                                  if len(f) == k + 1}
        for d in range(min(n + 2, 4)):
            for s in combinations(range(n + 2), d):
                assert gamma.has_face(s) == (s in closed), (gamma, s)
                assert gamma.has_face(reversed(s)) == (s in closed)
        assert not gamma.has_face((1, 1))


def _random_supports(rng, n, p):
    return [s for d in range(n + 1) for s in combinations(range(1, n + 1), d)
            if rng.random() < p / (d + 1)]


def _check_family_routes(ideal):
    """``make`` and ``complex_from_ideal`` against the subset loops."""
    assert ideal.generators == references.minimalize(ideal.generators)
    gamma = complex_from_ideal(ideal)
    assert gamma == references.complex_from_ideal(ideal), ideal
    return gamma


def test_family_routes_match_the_subset_loops(monkeypatch):
    rng = np.random.default_rng(2027)
    for _ in range(150):
        n = int(rng.integers(0, 10))
        g = Graph.make(n, [e for e in combinations(range(1, n + 1), 2)
                           if rng.random() < 0.6])
        assert flag_complex(g) == references.flag_complex(g), g
        gamma = SimplicialComplex.make(n, _random_supports(rng, n, 0.3))
        for ring in (EXT, POLY):
            for delta in (gamma, flag_complex(g)):
                j = face_ideal(delta, ring)
                assert j == references.face_ideal(delta, ring), (delta, ring)
                assert _check_family_routes(j) == delta
            # any squarefree generators, a few x_i^2 among the polynomial ones
            supports = _random_supports(rng, n, 0.15)
            gens = ([ext_monomial(s, n) for s in supports] if ring == EXT
                    else [squarefree_poly(s, n) for s in supports]
                    + [poly_monomial([2 * (i == v) for i in range(1, n + 1)])
                       for v in range(1, n + 1) if rng.random() < 0.2])
            ideal = MonomialIdeal.make(ring, n, gens)
            assert ideal.generators == references.minimalize(gens)
            _check_family_routes(ideal)

    for ring, unit in ((EXT, ext_monomial((), 4)), (POLY, squarefree_poly((), 4))):
        # the unit ideal keeps the empty face
        gamma = _check_family_routes(MonomialIdeal.make(ring, 4, [unit]))
        assert gamma.faces == {()}
        # a variable in the ideal drops its vertex
        var = ext_monomial((3,), 4) if ring == EXT else squarefree_poly((3,), 4)
        gamma = _check_family_routes(MonomialIdeal.make(ring, 4, [var]))
        assert gamma.facets() == [(1, 2, 4)]
        for n in (0, 1):
            empty = MonomialIdeal.make(ring, n, [])
            assert _check_family_routes(empty).faces == (
                {()} if n == 0 else {(), (1,)})
            assert face_ideal(SimplicialComplex.make(n, []), ring) == empty
    # x1^2 divides no squarefree monomial
    square = MonomialIdeal.make(POLY, 3, [poly_monomial((2, 0, 0)),
                                          squarefree_poly((2, 3), 3)])
    assert _check_family_routes(square).facets() == [(1, 2), (1, 3)]

    # 13 variables take the family route, like every n up to the family
    # bound; past it make minimalizes by divisibility, no bitset
    n = 13
    gens = [ext_monomial(s, n) for s in _random_supports(rng, n, 0.02)]
    assert MonomialIdeal.make(EXT, n, gens).generators == \
        references.minimalize(gens)
    ideals = importlib.import_module("ginshift.ideals")
    monkeypatch.setattr(ideals, "minimal_family", None)
    n = MAX_FAMILY_VARIABLES + 1
    gens = references.sparse_exterior(rng, n, 4, 40)
    assert MonomialIdeal.make(EXT, n, gens).generators == \
        references.minimalize(gens)
