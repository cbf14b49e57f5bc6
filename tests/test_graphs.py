import itertools

import numpy as np
import pytest

from ginshift.fields import InvalidInputError
from ginshift.graphs import (GRAPH_A, GRAPH_B, GRAPH_C, NEITHER,
                             SEMI_BIPARTITE, TWO_CLIQUES, Graph, base_form,
                             complete_bipartite, complete_graph,
                             condition_forbidden, condition_peelable,
                             condition_v, condition_vi, contains_induced,
                             cycle_graph, disjoint_cliques, is_chordal,
                             is_near_cone, path_graph, read_graph,
                             write_graph)

import references


def test_graph_basics():
    g = Graph.make(4, [(2, 1), (3, 4)])
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(1, 3)
    assert g.degree(3) == 1
    assert g.neighbors(1) == {2}
    assert g.isolated_vertices() == set()
    assert Graph.make(3, [(1, 2)]).isolated_vertices() == {3}
    with pytest.raises(InvalidInputError):
        Graph.make(3, [(1, 1)])
    with pytest.raises(InvalidInputError):
        Graph.make(3, [(1, 4)])


def test_complement_and_induced():
    g = path_graph(4)
    assert g.complement().edges == frozenset({(1, 3), (1, 4), (2, 4)})
    # induced on {2,3,4} relabels to a path 1-2-3
    assert g.induced([2, 3, 4]) == path_graph(3)
    assert g.delete_vertices([1]) == path_graph(3)


def test_components():
    g = disjoint_cliques(3, 2)
    comps = sorted(g.components(), key=min)
    assert comps == [{1, 2, 3}, {4, 5}]


def test_forbidden_graphs_shapes():
    assert GRAPH_A.n == 4 and GRAPH_A.edge_count == 3
    assert GRAPH_B.n == 5 and GRAPH_B.edge_count == 3
    assert GRAPH_C.n == 6 and GRAPH_C.edge_count == 3
    # (a) is a path, (b) is K2 + P3, (c) is a perfect matching
    assert contains_induced(GRAPH_A, path_graph(4))[0]


def test_contains_induced():
    c5 = cycle_graph(5)
    found, emb = contains_induced(c5, path_graph(4))
    assert found
    # the embedding is edge-exact
    for a in range(1, 4):
        assert c5.has_edge(emb[a], emb[a + 1])
    assert not c5.has_edge(emb[1], emb[3])
    # K_{3,3} has no induced path on 4 vertices mapped from (a)'s shape?
    # it does contain P4; but it contains no triangle
    assert not contains_induced(complete_bipartite(3, 3), complete_graph(3))[0]


def test_condition_forbidden_examples():
    # complete bipartite and clique unions satisfy the condition
    for g in (complete_bipartite(2, 3), complete_graph(4),
              disjoint_cliques(3, 2), Graph.make(3, [])):
        ok, witness = condition_forbidden(g)
        assert ok and witness is None
    # the forbidden graphs themselves fail, with a named witness
    for g, name in ((GRAPH_A, "a"), (GRAPH_B, "b"), (GRAPH_C, "c")):
        ok, witness = condition_forbidden(g)
        assert not ok
        assert witness["graph"] == name
        assert witness["in"] == "G"
    # C5 is self-complementary and contains (a) induced
    ok, witness = condition_forbidden(cycle_graph(5))
    assert not ok and witness["graph"] == "a"


def test_condition_forbidden_checks_complement():
    # 3K2 on 6 vertices is exactly (c)
    ok, witness = condition_forbidden(Graph.make(6, [(1, 2), (3, 4), (5, 6)]))
    assert not ok and witness["graph"] == "c" and witness["in"] == "G"
    # its complement K_{2,2,2} must fail through the complement branch
    ok2, witness2 = condition_forbidden(
        Graph.make(6, [(1, 2), (3, 4), (5, 6)]).complement())
    assert not ok2 and witness2["in"] == "complement"


def test_condition_forbidden_is_hereditary():
    # if g passes, every induced subgraph passes
    import itertools
    g = complete_bipartite(2, 3)
    assert condition_forbidden(g)[0]
    for k in range(1, g.n + 1):
        for vs in itertools.combinations(range(1, g.n + 1), k):
            assert condition_forbidden(g.induced(vs))[0]


def test_near_cone():
    # vertex 1 of a star is adjacent to every non-isolated vertex
    star = Graph.make(4, [(1, 2), (1, 3)])
    assert is_near_cone(star, 1)
    assert not is_near_cone(star, 2)
    # vertex 4 is isolated: near-cone with apex 4 requires no other edges
    assert not is_near_cone(star, 4)
    assert is_near_cone(Graph.make(3, []), 2)


def test_base_form():
    assert base_form(Graph.make(5, [])) == SEMI_BIPARTITE
    assert base_form(complete_bipartite(2, 3)) == SEMI_BIPARTITE
    # isolated vertices are ignored ("semi-")
    g = Graph.make(6, [(1, 3), (1, 4), (2, 3), (2, 4)])
    assert base_form(g) == SEMI_BIPARTITE
    assert base_form(disjoint_cliques(3, 2)) == TWO_CLIQUES
    assert base_form(complete_graph(4)) == TWO_CLIQUES
    # a single edge is both; bipartite wins for a connected bipartite core
    assert base_form(Graph.make(2, [(1, 2)])) == SEMI_BIPARTITE
    assert base_form(path_graph(4)) == NEITHER
    assert base_form(cycle_graph(5)) == NEITHER


def test_condition_peelable():
    ok, seq, label = condition_peelable(complete_bipartite(2, 2))
    assert ok and seq == () and label == SEMI_BIPARTITE
    # K4 peels to (or already is) a union of at most two cliques
    ok, _, label = condition_peelable(complete_graph(4))
    assert ok and label == TWO_CLIQUES
    # a 5-cycle is not peelable: no vertex is a near-cone apex
    ok, seq, _ = condition_peelable(cycle_graph(5))
    assert not ok and seq is None
    # wheel-ish graph: C4 plus a dominating apex peels one vertex
    g = Graph.make(5, [(1, 2), (2, 3), (3, 4), (1, 4),
                       (5, 1), (5, 2), (5, 3), (5, 4)])
    ok, seq, label = condition_peelable(g)
    assert ok and len(seq) >= 1


def test_condition_aliases():
    assert condition_v is condition_forbidden
    assert condition_vi is condition_peelable


def test_chordality():
    assert is_chordal(complete_graph(5))
    assert is_chordal(path_graph(6))
    assert is_chordal(disjoint_cliques(3, 4))
    assert not is_chordal(cycle_graph(4))
    assert not is_chordal(cycle_graph(5))
    # chordal plus a pendant triangle
    assert is_chordal(Graph.make(4, [(1, 2), (2, 3), (1, 3), (3, 4)]))


def test_serialization_round_trip():
    g = Graph.make(5, [(1, 2), (3, 5)])
    assert read_graph(write_graph(g)) == g
    assert read_graph('{"n": 3, "edges": [[1, 2]]}') == Graph.make(3, [(1, 2)])
    with pytest.raises(InvalidInputError):
        read_graph("edges only\n")
    for text in ("n -2\n", '{"n": -1, "edges": []}'):
        with pytest.raises(InvalidInputError, match="n=-"):
            read_graph(text)


def _brute_force_contains_induced(g, h):
    """The search before adjacency bitmasks: every injection in
    ``permutations`` order, every vertex pair through ``has_edge``."""
    if h.n > g.n:
        return False, None
    hverts = list(range(1, h.n + 1))
    for img in itertools.permutations(range(1, g.n + 1), h.n):
        if all(h.has_edge(a, b) == g.has_edge(img[a - 1], img[b - 1])
               for a, b in itertools.combinations(hverts, 2)):
            return True, dict(zip(hverts, img))
    return False, None


def test_contains_induced_matches_the_brute_force_search():
    from ginshift.verifier import enumerate_graphs
    found = set()
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            for target in (g, g.complement()):
                for h in (GRAPH_A, GRAPH_B, GRAPH_C):
                    got = contains_induced(target, h)
                    assert got == _brute_force_contains_induced(target, h), \
                        (sorted(target.edges), h)
                    found.add(got[0])
    assert found == {True, False}


def test_adjacency_masks_agree_with_the_edge_set():
    g = Graph.make(5, [(1, 2), (2, 5), (3, 5)])
    assert g.adjacency == (0, 0b00010, 0b10001, 0b10000, 0, 0b00110)
    assert [g.degree(v) for v in range(7)] == [0, 1, 2, 1, 0, 2, 0]
    assert g.neighbors(5) == {2, 3} and g.neighbors(9) == set()
    assert not g.has_edge(0, 1) and not g.has_edge(5, 6)
    assert not g.has_edge(2, 2)


def test_classifiers_on_vertex_masks_match_the_relabelled_subgraphs():
    # every class on up to 7 vertices, then random graphs on up to 9
    from ginshift.verifier import enumerate_graphs
    rng = np.random.default_rng(2030)
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    assert len(graphs) == 1252
    for _ in range(600):
        n = int(rng.integers(0, 10))
        p = rng.uniform(0.1, 0.95)
        graphs.append(Graph.make(n, [e for e in itertools.combinations(
            range(1, n + 1), 2) if rng.random() < p]))
    labels = set()
    for g in graphs:
        assert base_form(g) == references.base_form(g), g
        assert condition_peelable(g) == references.condition_peelable(g), g
        assert [is_near_cone(g, v) for v in range(1, g.n + 1)] == \
            [references.is_near_cone(g, v) for v in range(1, g.n + 1)], g
        labels.add((base_form(g), condition_peelable(g)[0]))
    assert labels == {(label, True) for label in (SEMI_BIPARTITE, TWO_CLIQUES,
                                                  NEITHER)} | {(NEITHER, False)}
