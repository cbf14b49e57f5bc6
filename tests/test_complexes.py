from itertools import combinations

import pytest

from ginshift.complexes import (SimplicialComplex, combinatorial_ideal,
                                complex_from_ideal, cone, edge_ideal,
                                face_ideal, flag_complex, read_complex,
                                shifted_complex, write_complex)
from ginshift.fields import InvalidInputError
from ginshift.graphs import (Graph, complete_bipartite, complete_graph,
                             cycle_graph, path_graph)
from ginshift.ideals import MonomialIdeal, is_strongly_stable
from ginshift.monomials import EXT, POLY, ext_monomial, squarefree_poly
from ginshift.orders import LEX, REVLEX


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


def test_shifted_complex_preserves_f_vector():
    for g in (path_graph(5), cycle_graph(5), cycle_graph(6)):
        gamma = flag_complex(g)
        delta = shifted_complex(REVLEX, gamma)
        assert delta.f_vector() == gamma.f_vector()
        assert _is_shifted(delta)


def test_serialization_round_trip():
    gamma = SimplicialComplex.make(4, [(1, 2, 3), (3, 4)])
    assert read_complex(write_complex(gamma)) == gamma
