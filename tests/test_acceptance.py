"""End-to-end acceptance checks.

Each test prints a single ``[criterion N] ...: PASS`` line (visible with
``pytest -v`` as one PASSED/FAILED line per criterion as well).
"""

import json
import time
from itertools import combinations

from ginshift.fields import PrimeField
from ginshift.gin import (CertificationError, DualityViolationError,
                          combinatorial_shift, complement_dual, gin,
                          gin_adaptive, gin_space, trans_witnesses)
from ginshift.graphs import complete_bipartite, disjoint_cliques
from ginshift.ideals import MonomialIdeal
from ginshift.invariants import (SQUAREFREE, betti_stable, edge_stat,
                                 resolution_oracle, shifted_graph_edges,
                                 two_cliques_profile,
                                 two_cliques_profile_from_h)
from ginshift.monomials import (EXT, POLY, all_monomials, ext_monomial,
                                poly_monomial, squarefree_poly)
from ginshift.orders import LEX, REVLEX, WeightOrder
from ginshift.verifier import (property_suite, sweep_theorem1, sweep_theorem2)


def _line(num: int, name: str, ok: bool) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def E(supports, n):
    return MonomialIdeal.make(EXT, n, [ext_monomial(s, n) for s in supports])


# -- criterion 1: graph-condition equivalences on <= 6 vertices ---------


def test_criterion_01_graph_sweep_n6():
    t0 = time.time()
    report = sweep_theorem1(6, seed=0)
    elapsed = time.time() - t0
    ok = (report.passed and report.summary["classes"] == 208
          and elapsed <= 600)
    _line(1, "graph sweep n<=6 (208 classes, <=10 min)", ok)


# -- criteria 2-3: closed-form shifted-graph profiles -------------------


def _bipartite_closed_form(a, b, k):
    n = a + b
    return k * n - k * k if k <= a else a * b


def test_criterion_02_bipartite_profile():
    ok = True
    for a in range(1, 8):
        for b in range(a, 9 - a):
            n = a + b
            edges = shifted_graph_edges(complete_bipartite(a, b), REVLEX,
                                        seed=0)
            for k in range(1, n + 1):
                got = edge_stat(edges, "max", "ge", n + 1 - k)
                ok = ok and got == _bipartite_closed_form(a, b, k)
    _line(2, "complete-bipartite shifted profile closed form (a+b<=8)", ok)


def test_criterion_03_two_cliques_profile():
    ok = True
    for a in range(1, 8):
        for b in range(a, 9 - a):
            n = a + b
            closed = two_cliques_profile(a, b)
            ok = ok and two_cliques_profile_from_h(a, b) == closed
            edges = shifted_graph_edges(disjoint_cliques(a, b), REVLEX,
                                        seed=0)
            engine = [edge_stat(edges, "min", "ge", n + 1 - k)
                      for k in range(1, n + 1)]
            ok = ok and engine == closed
    _line(3, "two-clique shifted profile closed form + h_k derivation", ok)


# -- criterion 4: the degree-3 order-dependence example -----------------


CUBICS = [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6),
          (1, 3, 4), (1, 3, 5), (1, 3, 6), (2, 3, 4), (2, 3, 5)]


def _degree3_ideal(extra=None):
    quartics = list(combinations(range(1, 7), 4))
    gens = CUBICS + quartics + ([extra] if extra else [])
    return E(gens, 6)


def _squarefree_cubics(extra):
    return MonomialIdeal.make(POLY, 6, [squarefree_poly(s, 6)
                                        for s in CUBICS + [extra]])


def _criterion_04(seed):
    j = _degree3_ideal()
    jprime = _degree3_ideal((4, 5, 6))
    expected_lex = E(list(s.support for s in j.generators) + [(1, 4, 5)], 6)
    expected_weight = E(list(s.support for s in j.generators) + [(2, 3, 6)], 6)
    g_rev, c1 = gin(REVLEX, jprime, seed=seed)
    g_lex, c2 = gin(LEX, jprime, seed=seed)
    ok = c1.accepted and c2.accepted and g_rev == g_lex == expected_lex
    weight_hit = False
    for tiebreak in ("lex", "revlex"):
        gw, cw = gin(WeightOrder((10, 9, 8, 3, 2, 1), tiebreak), jprime,
                     seed=seed)
        weight_hit = weight_hit or (cw.accepted and gw == expected_weight)
    ok = ok and weight_hit
    # the resolution oracle identifies the distinguishing cell on the
    # (tractable) cubic-generated parts, validating the closed formula there
    cells = {}
    for extra in ((1, 4, 5), (2, 3, 6)):
        part = _squarefree_cubics(extra)
        oracle = resolution_oracle(part)
        ok = ok and oracle.as_dict() == betti_stable(part, SQUAREFREE).as_dict()
        cells[extra] = oracle.get(3, 3)
    ok = ok and cells[(1, 4, 5)] == 2 and cells[(2, 3, 6)] == 3
    # the same cell separates the full candidates' Betti tables
    full = {extra: betti_stable(
        MonomialIdeal.make(POLY, 6, [squarefree_poly(g.support, 6)
                                     for g in ideal.generators]), SQUAREFREE)
        for extra, ideal in (((1, 4, 5), expected_lex),
                             ((2, 3, 6), expected_weight))}
    ok = ok and full[(1, 4, 5)].get(3, 3) == 2 and full[(2, 3, 6)].get(3, 3) == 3
    return ok


def test_criterion_04_degree3_example():
    _line(4, "degree-3 example: gins, weight order, Betti cell 2 vs 3",
          _criterion_04(0))


# -- criterion 5: elementary shifts of a small ideal --------------------


def _criterion_05():
    ideal = E([[1, 2], [1, 3], [3, 4]], 4)
    first = E([[1, 2], [1, 3], [1, 4], [2, 3, 4]], 4)
    second = E([[1, 2], [1, 3], [2, 3]], 4)
    ok = combinatorial_shift(LEX, ideal, [(1, 3)]) == first
    ok = ok and combinatorial_shift(LEX, ideal, [(2, 4)]) == second
    found = set(trans_witnesses(ideal, budget=50))
    ok = ok and first in found and second in found
    return ok


def test_criterion_05_elementary_shifts():
    _line(5, "elementary shifts and witnesses for (e12,e13,e34)",
          _criterion_05())


# -- criterion 6: degree-2 span and its complement ----------------------


def _criterion_06(seed):
    w = {ext_monomial(s, 4) for s in ([1, 2], [2, 3], [3, 4])}
    ambient = set(all_monomials(EXT, 4, 2))
    rev = gin_space(REVLEX, w, EXT, 4, 2, seed=seed)
    lex_comp = gin_space(LEX, ambient - w, EXT, 4, 2, seed=seed)
    ok = rev == {ext_monomial(s, 4) for s in ([1, 2], [1, 3], [2, 3])}
    ok = ok and lex_comp == {ext_monomial(s, 4)
                             for s in ([1, 2], [1, 3], [1, 4])}
    return ok


def test_criterion_06_span_and_complement():
    _line(6, "span (e12,e23,e34): revlex gin and lex gin of complement",
          _criterion_06(0))


# -- criterion 7: polynomial gins of two disjoint edges -----------------


def _criterion_07(seed):
    ideal = MonomialIdeal.make(POLY, 4, [poly_monomial((1, 1, 0, 0)),
                                         poly_monomial((0, 0, 1, 1))])
    g_lex, cl, _ = gin_adaptive(LEX, ideal, seed=seed)
    g_rev, cr, _ = gin_adaptive(REVLEX, ideal, seed=seed)
    ok = cl.accepted and cr.accepted and g_lex != g_rev
    x2cubed = poly_monomial((0, 3, 0, 0))
    ok = ok and g_rev.contains(x2cubed) and not g_lex.contains(x2cubed)
    threshold = poly_monomial((1, 0, 2, 0))
    expected3 = {u for u in all_monomials(POLY, 4, 3)
                 if LEX.compare(u, threshold) >= 0}
    ok = ok and len(expected3) == 8
    ok = ok and g_lex.degree_component(3) == expected3
    for d in (2, 3, 4):
        ok = ok and len(g_lex.degree_component(d)) == \
            len(g_rev.degree_component(d)) == len(ideal.degree_component(d))
    return ok


def test_criterion_07_two_disjoint_edges():
    _line(7, "(x1x2,x3x4): lex/revlex gins differ, Hilbert preserved",
          _criterion_07(0))


# -- criterion 8: edge-ideal sweep on <= 5 vertices ---------------------


def test_criterion_08_edge_ideal_sweep_n5():
    report = sweep_theorem2(5, seed=0)
    ok = report.passed and report.summary["classes"] == 52
    _line(8, "edge-ideal gin sweep n<=5 vs semi-complete-bipartite", ok)


# -- criterion 9: randomized property suites ----------------------------


def test_criterion_09_property_suites():
    report = property_suite(seed=0, samples=200)
    ok = report["passed"]
    ok = ok and report["complement-duality-exterior"]["samples"] == 200
    ok = ok and report["char2-duality-negative"]["violations"] == 0
    # the deliberate characteristic-2 instance must break duality on its own
    broke = False
    try:
        complement_dual(LEX, {poly_monomial((2, 0)), poly_monomial((0, 2))},
                        POLY, 2, field=PrimeField(2))
    except (DualityViolationError, CertificationError):
        broke = True
    ok = ok and broke
    _line(9, "property suites (duality, sandwich, cone, rank oracle)", ok)


# -- criterion 10: determinism across master seeds ----------------------


def test_criterion_10_determinism():
    payloads = []
    for seed in range(5):
        doc = {
            "theorem1": sweep_theorem1(6, seed=seed).payload(),
            "theorem2": sweep_theorem2(5, seed=seed).payload(),
            "properties": property_suite(seed=seed, samples=200),
            "examples": [_criterion_04(seed), _criterion_05(),
                         _criterion_06(seed), _criterion_07(seed)],
        }
        payloads.append(json.dumps(doc, sort_keys=True).encode())
    ok = all(p == payloads[0] for p in payloads[1:])
    _line(10, "byte-identical reports across 5 master seeds", ok)
