import time
from fractions import Fraction

import numpy as np
import pytest
from itertools import combinations
from math import comb

from ginshift.changes import CoordinateChange, SizeLimitError
from ginshift.fields import GFP, InvalidInputError, PrimeField
from ginshift.gin import gin_space
from ginshift.graphs import (Graph, complete_bipartite, cycle_graph,
                             disjoint_cliques, path_graph)
from ginshift.ideals import MonomialIdeal, is_strongly_stable
from ginshift import invariants
from ginshift.invariants import (SQUAREFREE, STABLE_POLY, BettiTable, alpha,
                                 alpha_monomial, betti_stable,
                                 bipartite_profile, closed_form_profiles,
                                 edge_stat, h_values, hyperplane_rank_profile,
                                 index_profile, m_count,
                                 regularity_from_gin, resolution_oracle,
                                 shifted_graph_edges, two_cliques_profile,
                                 two_cliques_profile_from_h)
from ginshift.linalg import rref_exact
from ginshift.monomials import (EXT, POLY, all_monomials, ext_monomial,
                                poly_monomial, squarefree_poly)
from ginshift.orders import LEX, REVLEX
import references


def P(exps, n):
    return MonomialIdeal.make(POLY, n, [poly_monomial(e) for e in exps])


# -- Betti tables -------------------------------------------------------


def test_betti_table_basics():
    t = BettiTable.make({(0, 2): 2, (1, 2): 1, (1, 3): 1, (2, 5): 0})
    assert t.get(0, 2) == 2
    assert t.get(2, 5) == 0  # zero entries are dropped
    assert t.regularity() == 3
    assert t.to_json()["convention"] == "ideal-indexed"
    assert "i\\j" in str(t)


def test_betti_stable_known_values():
    ideal = P([(2, 0), (1, 1), (0, 3)], 2)
    t = betti_stable(ideal, STABLE_POLY)
    assert t.as_dict() == {(0, 2): 2, (1, 2): 1, (0, 3): 1, (1, 3): 1}


def test_betti_squarefree_known_values():
    tri = MonomialIdeal.make(POLY, 3, [squarefree_poly(p, 3)
                                       for p in ((1, 2), (1, 3), (2, 3))])
    t = betti_stable(tri, SQUAREFREE)
    assert t.as_dict() == {(0, 2): 3, (1, 2): 2}


def test_betti_stable_rejects_unstable():
    with pytest.raises(InvalidInputError, match="x2\\^2"):
        betti_stable(P([(0, 2)], 2), STABLE_POLY)


def test_betti_stable_refuses_a_flavour_that_does_not_fit_the_ideal():
    # x1^2 has no squarefree exchange to miss, yet the squarefree formula
    # would table it as nothing; the oracle knows better
    square = P([(2, 0, 0), (1, 1, 0)], 3)
    assert is_strongly_stable(square, squarefree=True)[0]
    assert resolution_oracle(square).as_dict() == {(0, 2): 2, (1, 2): 1}
    with pytest.raises(InvalidInputError, match="squarefree generators, "
                                                "not x1\\^2"):
        betti_stable(square, SQUAREFREE)
    assert betti_stable(square, STABLE_POLY) == resolution_oracle(square)
    # a principal exterior ideal is stable only under the squarefree rule,
    # and the plain formula would table it as x1*x2's polynomial ideal
    principal = MonomialIdeal.make(EXT, 3, [ext_monomial((1, 2), 3)])
    with pytest.raises(InvalidInputError, match="exterior ideal"):
        betti_stable(principal, STABLE_POLY)
    assert betti_stable(principal, SQUAREFREE).as_dict() == {(0, 2): 1}
    # the ring decides, not the generators: the zero ideal too
    with pytest.raises(InvalidInputError, match="exterior ideal"):
        betti_stable(MonomialIdeal.make(EXT, 3, []), STABLE_POLY)


def test_resolution_oracle_matches_closed_forms():
    cases = [P([(2, 0), (1, 1), (0, 3)], 2),
             P([(2, 0, 0), (1, 1, 0), (1, 0, 1)], 3)]
    for ideal in cases:
        assert resolution_oracle(ideal).as_dict() == \
            betti_stable(ideal, STABLE_POLY).as_dict()
    tri = MonomialIdeal.make(POLY, 3, [squarefree_poly(p, 3)
                                       for p in ((1, 2), (1, 3), (2, 3))])
    assert resolution_oracle(tri).as_dict() == \
        betti_stable(tri, SQUAREFREE).as_dict()


def test_resolution_oracle_two_disjoint_edges():
    ideal = MonomialIdeal.make(POLY, 4, [squarefree_poly((1, 2), 4),
                                         squarefree_poly((3, 4), 4)])
    # Koszul-type resolution: one first syzygy of total degree 4
    assert resolution_oracle(ideal).as_dict() == {(0, 2): 2, (1, 3): 1}


def test_resolution_oracle_caps_generators():
    too_big = MonomialIdeal.make(
        POLY, 14, [squarefree_poly((i, 14), 14) for i in range(1, 14)])
    with pytest.raises(SizeLimitError):
        resolution_oracle(too_big)


def _taylor_oracle(ideal):
    """Reference: beta_{i,i+j} from whole Taylor-complex strands, every
    subset's lcm computed from scratch."""
    gens = ideal.generators

    def lcm(subset):
        return tuple(max(gens[t].exponents[v] for t in subset)
                     for v in range(ideal.n))

    def rank(basis):
        targets, rows = {}, []
        for s in basis:
            row = {}
            for pos in range(len(s)):
                face = s[:pos] + s[pos + 1:]
                if face and lcm(face) == lcm(s):
                    row[targets.setdefault(face, len(targets))] = \
                        Fraction(-1) ** pos
            rows.append(row)
        if not targets:
            return 0
        dense = [[row.get(c, Fraction(0)) for c in range(len(targets))]
                 for row in rows]
        return len(rref_exact(dense)[1])

    by_mdeg = {}
    for size in range(1, len(gens) + 1):
        for s in combinations(range(len(gens)), size):
            by_mdeg.setdefault(lcm(s), {}).setdefault(size - 1, []).append(s)
    out = {}
    for mdeg, layers in by_mdeg.items():
        for i, basis in layers.items():
            h = len(basis) - rank(basis) - rank(layers.get(i + 1, []))
            if h:
                key = (i, sum(mdeg) - i)
                out[key] = out.get(key, 0) + h
    return out


def _random_ideals(seed, count):
    """Random monomial ideals: n <= 5 variables, r <= 7 generators,
    exponents <= 2."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 6))
        exps = [tuple(int(e) for e in rng.integers(0, 3, n))
                for _ in range(int(rng.integers(1, 8)))]
        gens = [poly_monomial(e) for e in exps if any(e)]
        if gens:
            out.append(MonomialIdeal.make(POLY, n, gens))
    return out


def _nonzero(betti):
    return {i: h for i, h in betti.items() if h}


def _random_dense_edge_ideals(seed, count):
    """Edge ideals with 6 edges on 4 vertices or 7 on 5: the lcm x1...xn is
    shared by more generator subsets than 2^n, so the oracle takes it (and
    others) from the Koszul complex."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(4, 6))
        edges = list(combinations(range(1, n + 1), 2))
        pick = rng.choice(len(edges), n + 2, replace=False)
        out.append(MonomialIdeal.make(
            POLY, n, [squarefree_poly(edges[k], n) for k in pick]))
    return out


def test_resolution_oracle_matches_taylor_reference_on_random_ideals():
    for ideal in _random_ideals(2024, 400) + _random_dense_edge_ideals(5, 40):
        assert resolution_oracle(ideal).as_dict() == _taylor_oracle(ideal)


def test_taylor_strand_and_koszul_complex_agree_per_multidegree():
    for ideal in _random_ideals(7, 400):
        exps = [g.exponents for g in ideal.generators]
        strands = {}
        for size in range(1, len(exps) + 1):
            for s in combinations(range(len(exps)), size):
                b = tuple(map(max, *(exps[t] for t in s))) if size > 1 \
                    else exps[s[0]]
                strands.setdefault(b, []).append(sum(1 << t for t in s))
        for b, strand in strands.items():
            assert _nonzero(invariants._taylor_betti(strand)) == \
                _nonzero(invariants._koszul_betti(exps, b)), (ideal, b)


def test_resolution_oracle_chain_and_star_are_fast():
    # (x1...x13, x14): one Taylor cell at the top lcm, 2^14 Koszul cells
    chain = MonomialIdeal.make(POLY, 14, [squarefree_poly(range(1, 14), 14),
                                          squarefree_poly((14,), 14)])
    # x14 (x1, ..., x12): the Taylor resolution is minimal
    star = MonomialIdeal.make(
        POLY, 14, [squarefree_poly((i, 14), 14) for i in range(1, 13)])
    expected = [{(0, 13): 1, (0, 1): 1, (1, 13): 1},
                {(i, 2): comb(12, i + 1) for i in range(12)}]
    for ideal, table in zip((chain, star), expected):
        start = time.process_time()
        got = resolution_oracle(ideal).as_dict()
        assert time.process_time() - start < 1.0
        assert got == table


def test_resolution_oracle_of_zero_ideal_is_empty():
    assert resolution_oracle(MonomialIdeal.make(POLY, 3, [])).entries == ()


def test_the_unit_ideal_has_one_betti_number_in_both_flavours():
    unit = MonomialIdeal.make(POLY, 3, [poly_monomial((0, 0, 0))])
    oracle = resolution_oracle(unit)
    assert oracle.as_dict() == {(0, 0): 1}
    for flavor in (STABLE_POLY, SQUAREFREE):
        assert betti_stable(unit, flavor) == oracle
    ext = MonomialIdeal.make(EXT, 3, [ext_monomial((), 3)])
    assert betti_stable(ext, SQUAREFREE) == oracle


# -- the alpha map ------------------------------------------------------


def test_alpha_monomial():
    assert alpha_monomial(poly_monomial((2, 0, 0))) == squarefree_poly((1, 2), 3)
    assert alpha_monomial(poly_monomial((1, 1, 0, 0))) == \
        squarefree_poly((1, 3), 4)


def test_alpha_monomial_range_error():
    with pytest.raises(InvalidInputError):
        alpha_monomial(poly_monomial((0, 0, 2)))


def test_alpha_preserves_betti_numbers():
    ideal = P([(2, 0, 0, 0), (1, 1, 0, 0), (0, 3, 0, 0)], 4)
    image = alpha(ideal)
    assert image == MonomialIdeal.make(POLY, 4, [
        squarefree_poly((1, 2), 4), squarefree_poly((1, 3), 4),
        squarefree_poly((2, 3, 4), 4)])
    assert betti_stable(ideal, STABLE_POLY).as_dict() == \
        betti_stable(image, SQUAREFREE).as_dict()


def test_alpha_requires_stability():
    with pytest.raises(InvalidInputError):
        alpha(P([(0, 2, 0)], 3))


# -- the degree-3 distinguishing example --------------------------------


def _degree3_squarefree(extra):
    cubics = [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6),
              (1, 3, 4), (1, 3, 5), (1, 3, 6),
              (2, 3, 4), (2, 3, 5), extra]
    quartics = list(combinations(range(1, 7), 4))
    return MonomialIdeal.make(POLY, 6, [squarefree_poly(s, 6)
                                        for s in cubics + quartics])


def test_degree3_betti_distinguishing_cell():
    lex_side = _degree3_squarefree((1, 4, 5))
    weight_side = _degree3_squarefree((2, 3, 6))
    b_lex = betti_stable(lex_side, SQUAREFREE)
    b_weight = betti_stable(weight_side, SQUAREFREE)
    assert b_lex.get(3, 3) == 2
    assert b_weight.get(3, 3) == 3


# -- positional statistics ---------------------------------------------


def test_index_profile():
    ideal = MonomialIdeal.make(EXT, 4, [ext_monomial(s, 4)
                                        for s in ([1, 2], [1, 3], [2, 3])])
    min_le, max_le = index_profile(ideal, 2)
    assert min_le == [2, 3, 3, 3]
    assert max_le == [0, 1, 3, 3]
    # the monomial 1 has neither a least nor a greatest index
    unit = MonomialIdeal.make(POLY, 3, [poly_monomial((0, 0, 0))])
    for i, d in ((ideal, 0), (unit, 0), (unit, -1)):
        with pytest.raises(InvalidInputError, match="degree >= 1"):
            index_profile(i, d)


def test_m_count():
    ideal = MonomialIdeal.make(EXT, 4, [ext_monomial(s, 4)
                                        for s in ([1, 2], [1, 3], [2, 3])])
    assert m_count(LEX, ideal, ext_monomial([1, 3], 4)) == 2
    assert m_count(LEX, ideal, ext_monomial([3, 4], 4)) == 3
    assert m_count(LEX, ideal, ext_monomial([1, 2], 4)) == 1


def test_edge_stat():
    edges = [(1, 2), (1, 4), (3, 4)]
    assert edge_stat(edges, "max", "ge", 4) == 2
    assert edge_stat(edges, "max", "le", 2) == 1
    assert edge_stat(edges, "min", "ge", 2) == 1
    assert edge_stat(edges, "min", "le", 1) == 2


# -- regularity ---------------------------------------------------------


def test_regularity():
    rei = MonomialIdeal.make(EXT, 4, [ext_monomial(s, 4)
                                      for s in ([1, 2], [1, 3], [3, 4])])
    assert regularity_from_gin(rei) == 2
    two_edges = MonomialIdeal.make(POLY, 4, [squarefree_poly((1, 2), 4),
                                             squarefree_poly((3, 4), 4)])
    assert regularity_from_gin(two_edges) == 3


# -- closed-form shifted-graph profiles ---------------------------------


@pytest.mark.parametrize("a,b", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3),
                                 (2, 4), (3, 4)])
def test_two_clique_profile_derivation_agrees(a, b):
    assert two_cliques_profile_from_h(a, b) == two_cliques_profile(a, b)


def test_h_values_small():
    # K3 u K2: strata h_1 = 3, h_2 = 1, rest 0
    assert h_values(2, 3) == [3, 1, 0, 0, 0]


@pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_bipartite_profile_matches_engine(a, b):
    n = a + b
    edges = shifted_graph_edges(complete_bipartite(a, b), LEX, seed=0)
    got = [edge_stat(edges, "max", "ge", n + 1 - k) for k in range(1, n + 1)]
    assert got == bipartite_profile(a, b)


@pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_two_cliques_profile_matches_engine(a, b):
    n = a + b
    edges = shifted_graph_edges(disjoint_cliques(a, b), REVLEX, seed=0)
    got = [edge_stat(edges, "min", "ge", n + 1 - k) for k in range(1, n + 1)]
    assert got == two_cliques_profile(a, b)


def test_closed_form_profiles_wrapper():
    bip, two = closed_form_profiles(2, 3)
    assert bip == bipartite_profile(2, 3)
    assert two == two_cliques_profile(2, 3)


# -- the lex/revlex complement identity ---------------------------------


@pytest.mark.parametrize("g", [path_graph(4), cycle_graph(5),
                               complete_bipartite(2, 3),
                               Graph.make(5, [(1, 2), (2, 3), (1, 3), (4, 5)])])
def test_lex_rev_complement_identity(g):
    # max_{>=n+1-k} of the lex-shifted graph equals C(n,2) - C(n-k,2) -
    # (f1 of the complement - min_{>=k+1} of its revlex shift), for every k
    n = g.n
    lex_edges = shifted_graph_edges(g, LEX, 0)
    comp = g.complement()
    rev_edges = shifted_graph_edges(comp, REVLEX, 1)
    for k in range(1, n + 1):
        assert edge_stat(lex_edges, "max", "ge", n + 1 - k) == \
            comb(n, 2) - comb(n - k, 2) - (
                comp.edge_count - edge_stat(rev_edges, "min", "ge", k + 1))


# -- hyperplane rank oracle ---------------------------------------------


def _gin_profile_max_ge(order, monomials, ring, n, k, seed):
    """|{degree-2 monomials not in gin(W) with max >= k}| via the engine."""
    g = gin_space(order, set(monomials), ring, n, 2, seed=seed)
    return sum(1 for u in set(all_monomials(ring, n, 2)) - g
               if u.max_index() >= k)


def test_hyperplane_rank_oracle_matches_engine():
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.integers(3, 7))
        ambient = all_monomials(EXT, n, 2)
        w = {m for m in ambient if rng.random() < 0.5}
        phi = CoordinateChange.random_dense(n, GFP, rng)
        profile = hyperplane_rank_profile(w, n, phi)
        assert profile == [_gin_profile_max_ge(REVLEX, w, EXT, n, k, seed=trial)
                           for k in range(1, n + 1)]


@pytest.mark.parametrize("field", [GFP, PrimeField(618970019642690137449562111)],
                         ids=str)
def test_hyperplane_rank_profile_matches_the_per_width_elimination(field):
    # one elimination of the width-n matrix against one per width; W of
    # every pair leaves no rows at all
    rng = np.random.default_rng(19)
    for n in range(3, 9):
        ambient = all_monomials(EXT, n, 2)
        for w in (set(), {m for m in ambient if rng.random() < 0.5},
                  set(ambient)):
            phi = CoordinateChange.random_dense(n, field, rng)
            assert hyperplane_rank_profile(w, n, phi) == [
                references.hyperplane_rank_oracle(w, n, k, phi)
                for k in range(1, n + 1)]
    assert hyperplane_rank_profile(set(ambient), n, phi) == [0] * n
