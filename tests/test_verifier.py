import importlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ginshift import verifier
from ginshift.changes import CoordinateChange, SizeLimitError
from ginshift.fields import GFP, InvalidInputError
from ginshift.families import family_of, is_stable_family, pair_shift
from ginshift.gin import gin_multi, gin_space
from ginshift.graphs import Graph, complete_bipartite, cycle_graph, path_graph
from ginshift.ideals import MonomialIdeal
from ginshift.monomials import EXT, all_monomials, ext_monomial
from ginshift.orders import LEX, REVLEX, parse_order
from ginshift.verifier import (KNOWN_CLASS_COUNTS, SweepReport,
                               degree2_descent_witnesses,
                               degree2_trans_witnesses, enumerate_graphs,
                               property_suite, sweep_theorem1, sweep_theorem2)
from references import canonical_forms, elementary_shift_space

gin_module = importlib.import_module("ginshift.gin")


def test_enumeration_counts():
    for n in range(1, 6):
        assert len(enumerate_graphs(n)) == KNOWN_CLASS_COUNTS[n]
    with pytest.raises(InvalidInputError):
        enumerate_graphs(0)
    with pytest.raises(InvalidInputError):
        enumerate_graphs(9)


def _mask(g):
    pairs = list(itertools.combinations(range(1, g.n + 1), 2))
    return sum(1 << b for b, p in enumerate(pairs) if p in g.edges)


def test_enumeration_matches_brute_force():
    for n in range(1, 7):
        masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.int64)
        brute = np.flatnonzero(canonical_forms(masks, n) == masks).tolist()
        assert [_mask(g) for g in enumerate_graphs(n)] == brute


def test_enumeration_at_seven_matches_the_graph_atlas():
    nx = pytest.importorskip("networkx")
    atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 7]
    pairs = list(itertools.combinations(range(7), 2))
    masks = [sum(1 << b for b, (i, j) in enumerate(pairs) if g.has_edge(i, j))
             for g in atlas]
    reps = [_mask(g) for g in enumerate_graphs(7)]
    assert len(reps) == len(atlas) == KNOWN_CLASS_COUNTS[7]
    assert reps == sorted(set(canonical_forms(masks, 7).tolist()))


def _relabel(mask, perm, n):
    """The edge bitmask with vertex v renamed perm[v]."""
    pairs = list(itertools.combinations(range(n), 2))
    bit_of = {p: b for b, p in enumerate(pairs)}
    return sum(1 << bit_of[tuple(sorted((perm[i], perm[j])))]
               for b, (i, j) in enumerate(pairs) if mask >> b & 1)


def test_least_labelling_matches_brute_force_at_seven(monkeypatch):
    # 200 seeded graphs, each of its own edge density, so that sparse and
    # dense ones with many automorphisms are among them
    rng = np.random.default_rng(7)
    density = rng.random((200, 1))
    masks = (rng.random((200, 21)) < density) @ (1 << np.arange(21))
    brute = canonical_forms(masks, 7).tolist()
    assert verifier._least_labelling(masks, 7).tolist() == brute
    # keyed by degree first: a relabelling of each graph, and the same one
    # for every relabelling of it
    keyed = verifier._least_labelling(masks, 7, by_degree=True)
    assert canonical_forms(keyed, 7).tolist() == brute
    relabelled = np.array([_relabel(m, rng.permutation(7), 7)
                           for m in masks.tolist()])
    assert verifier._least_labelling(relabelled, 7, by_degree=True).tolist() \
        == keyed.tolist()
    # the blocks only bound memory
    monkeypatch.setattr(verifier, "_SEARCH_BLOCK", 7)
    assert verifier._least_labelling(masks, 7).tolist() == brute


def test_classes_on_eight_vertices():
    masks = verifier._canonical_masks(8)
    assert len(masks) == KNOWN_CLASS_COUNTS[8] == 12346
    assert list(masks) == sorted(set(masks))
    # a relabelled class canonicalises back to its representative
    rng = np.random.default_rng(8)
    sample = rng.choice(masks, size=300, replace=False).tolist()
    relabelled = [_relabel(m, rng.permutation(8), 8) for m in sample]
    assert verifier._least_labelling(np.array(relabelled), 8).tolist() == \
        sample


def test_sweeps_and_wide_families_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call in a process, about
    # 14 ms of CPU time that every fresh sweep would pay
    code = ("import sys\n"
            "from ginshift.families import family_supports, sized\n"
            "from ginshift.verifier import sweep_theorem2\n"
            "assert sweep_theorem2(4).passed\n"
            "assert 'numpy.ma' not in sys.modules, 'sweep'\n"
            "assert len(family_supports(sized(12, 0, 12), 12)) == 4096\n"
            "assert 'numpy.ma' not in sys.modules, 'family'\n")
    src = str(Path(verifier.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr


def test_enumeration_is_canonical_and_deterministic():
    reps = enumerate_graphs(4)
    assert reps == enumerate_graphs(4)
    # no two representatives are isomorphic: their canonical degree sequences
    # plus edge counts separate all 11 classes on 4 vertices
    seen = set()
    for g in reps:
        key = (g.edge_count, tuple(sorted(g.degree(v) for v in range(1, 5))),
               frozenset(g.edges))
        assert key not in seen
        seen.add(key)


def test_pair_family_stability():
    assert is_stable_family(family_of({(1, 2), (1, 3), (2, 3)}), 3)
    assert is_stable_family(family_of({(1, 2)}), 3)
    assert not is_stable_family(family_of({(2, 3)}), 3)
    # replacing the smaller index must also stay inside
    assert not is_stable_family(family_of({(1, 2), (2, 3)}), 3)
    assert is_stable_family(family_of(()), 3)


def test_pair_family_stability_matches_ideal_oracle():
    from itertools import combinations
    from ginshift.ideals import MonomialIdeal, is_strongly_stable
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        fam = frozenset(p for p in combinations(range(1, n + 1), 2)
                        if rng.random() < 0.5)
        if not fam:
            continue
        ideal = MonomialIdeal.make(EXT, n, [ext_monomial(p, n) for p in fam])
        assert is_stable_family(family_of(fam), n) == \
            is_strongly_stable(ideal)[0]


def test_pair_shift_examples():
    fam = family_of({(1, 2), (1, 3), (3, 4)})
    assert pair_shift(fam, 1, 3, 4) == family_of({(1, 2), (1, 3), (1, 4)})
    assert pair_shift(fam, 2, 4, 4) == family_of({(1, 2), (1, 3), (2, 3)})
    # blocked replacement keeps the original pair
    fam2 = family_of({(1, 3), (2, 3)})
    assert pair_shift(fam2, 1, 2, 3) == fam2


def test_pair_shift_matches_algebraic_elementary_shift():
    rng = np.random.default_rng(42)
    from itertools import combinations
    for _ in range(200):
        n = int(rng.integers(3, 7))
        all_pairs = list(combinations(range(1, n + 1), 2))
        fam = frozenset(p for p in all_pairs if rng.random() < 0.5)
        if not fam:
            continue
        a = int(rng.integers(1, n))
        b = int(rng.integers(a + 1, n + 1))
        monos = [ext_monomial(p, n) for p in fam]
        for order in (LEX, REVLEX):
            algebraic = elementary_shift_space(order, monos, EXT, n, 2, a, b)
            assert family_of(u.support for u in algebraic) == \
                pair_shift(family_of(fam), a, b, n)


def test_pair_shift_differs_from_inverse_order_shift():
    # the pair rule assumes S - b + a > S for a < b, which inverse orders
    # reverse: under inv:lex the algebraic shift keeps {2,3}
    inv_lex = parse_order("inv:lex", 3)
    algebraic = elementary_shift_space(inv_lex, [ext_monomial((2, 3), 3)],
                                       EXT, 3, 2, 1, 3)
    assert algebraic == frozenset({ext_monomial((2, 3), 3)})
    assert pair_shift(family_of({(2, 3)}), 1, 3, 3) == family_of({(1, 2)})


def test_degree2_witnesses_graph_a():
    # the 4-vertex path-like forbidden graph yields >= 2 stable components
    g = Graph.make(4, [(1, 2), (1, 3), (3, 4)]).complement()
    comps = degree2_trans_witnesses(g, stop_at=2, budget=5000)
    assert len(comps) >= 2
    for comp in comps:
        assert is_stable_family(family_of(comp), 4)


def test_degree2_witnesses_unique_for_bipartite():
    g = complete_bipartite(2, 2)
    comps = degree2_trans_witnesses(g, stop_at=2, budget=5000)
    assert len(comps) == 1


#: the n = 7 class with the longest closure search (14,430 families)
HARD_CLASS = Graph.make(7, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
                            (2, 3), (2, 4), (2, 5), (3, 4), (3, 6), (4, 7),
                            (5, 6)])


def test_degree2_witness_search_says_when_it_is_cut():
    # the one n = 7 class whose search needs more than the default budget
    g = HARD_CLASS
    with pytest.raises(SizeLimitError):
        degree2_trans_witnesses(g, stop_at=2, budget=200_000)
    comps = degree2_trans_witnesses(g, stop_at=2, budget=300_000)
    assert len(comps) == 2
    for comp in comps:
        assert is_stable_family(family_of(comp), 7)


def test_degree2_witness_search_runs_to_its_closure_by_default():
    assert len(degree2_trans_witnesses(HARD_CLASS, stop_at=2)) == 2


def test_descent_witnesses_lie_in_the_closure():
    # the closure search is the oracle: every descent family is a stable
    # family it reaches, and the descents find two exactly when it does
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            closure = degree2_trans_witnesses(g, stop_at=10 ** 9)
            comps = degree2_descent_witnesses(g, stop_at=2)
            assert comps and comps <= closure
            for comp in comps:
                assert is_stable_family(family_of(comp), n)
            assert (len(comps) >= 2) == (len(closure) >= 2)


def test_descent_witnesses_of_the_hard_class(monkeypatch):
    steps = [0]

    def counting(family, a, b, n):
        steps[0] += 1
        return pair_shift(family, a, b, n)

    monkeypatch.setattr(verifier, "pair_shift", counting)
    comps = degree2_descent_witnesses(HARD_CLASS, stop_at=2)
    assert len(comps) == 2
    assert 0 < steps[0] <= 200
    for comp in comps:
        assert is_stable_family(family_of(comp), 7)


def test_sweep_theorem1_fails_when_the_descents_miss(monkeypatch):
    # no closure search stands behind the descents: a class for which they
    # find one family fails D and the sweep
    assert sweep_theorem1(5, seed=0).passed

    def one_family(g, stop_at=2):
        return degree2_descent_witnesses(g, stop_at=1)

    monkeypatch.setattr(verifier, "degree2_descent_witnesses", one_family)
    report = sweep_theorem1(5, seed=0)
    assert not report.passed
    assert all(r["d_check"] == r["condition_v"] for r in report.records)


def test_sweep_theorem1_degree2_check_matches_gin_space(monkeypatch):
    # C is read off the lex and revlex gins of the flag-complex ideal; its
    # degree-2 part is the span of the non-edges, so the components are the
    # certified gins of that span within degree 2
    calls = []

    def recording(orders, ideal, *args, **kwargs):
        gins = gin_multi(orders, ideal, *args, **kwargs)
        calls.append(gins)
        return gins

    monkeypatch.setattr(verifier, "gin_multi", recording)
    report = sweep_theorem1(6, seed=0)
    assert report.passed and len(calls) == len(report.records)
    for rec, gins in zip(report.records, calls):
        n = rec["n"]
        if n < 2:
            continue
        nonedges = {ext_monomial(e, n) for e in
                    Graph.make(n, map(tuple, rec["edges"])).complement().edges}
        lex2, rev2 = (gin_space(order, nonedges, EXT, n, 2, seed=0)
                      if nonedges else set() for order in (LEX, REVLEX))
        assert gins[0].degree_component(2) == lex2
        assert gins[1].degree_component(2) == rev2
        assert rec["deg2_gin_equal"] == (lex2 == rev2)


def test_sweep_theorem1_draws_one_trial_set_per_class(monkeypatch,
                                                      fresh_trial_sets):
    draws = []
    draw = CoordinateChange.random_set

    def counting(cls, n, field, rngs):
        draws.extend([n] * len(rngs))
        return draw(n, field, rngs)

    monkeypatch.setattr(CoordinateChange, "random_set",
                        classmethod(counting))
    report = sweep_theorem1(5, seed=0, trials=3)
    assert report.passed
    assert len(draws) <= 3 * report.summary["classes"]


def test_sweep_theorem1_draws_each_trial_set_once(monkeypatch,
                                                  fresh_trial_sets):
    # every class on n vertices shares the trial set of (seed, trials, n)
    draws = []
    draw = CoordinateChange.random_set

    def counting(cls, n, field, rngs):
        draws.extend([n] * len(rngs))
        return draw(n, field, rngs)

    monkeypatch.setattr(CoordinateChange, "random_set",
                        classmethod(counting))
    cold = sweep_theorem1(5, seed=0, trials=3)
    assert cold.passed
    assert sorted(draws) == [n for n in range(1, 6) for _ in range(3)]
    warm = sweep_theorem1(5, seed=0, trials=3)
    assert len(draws) == 3 * 5
    assert json.dumps(warm.payload(), sort_keys=True) == \
        json.dumps(cold.payload(), sort_keys=True)


def test_sweep_theorem1_small():
    report = sweep_theorem1(4, seed=0)
    assert report.passed
    assert report.summary["classes"] == sum(KNOWN_CLASS_COUNTS[n]
                                            for n in range(1, 5))
    # every record ties the four checks together
    for rec in report.records:
        assert rec["condition_v"] == rec["condition_vi"] == rec["deg2_gin_equal"]
        assert rec["d_check"]


def test_sweep_theorem2_small():
    report = sweep_theorem2(4, seed=0)
    assert report.passed
    assert report.summary["classes"] == sum(KNOWN_CLASS_COUNTS[n]
                                            for n in range(1, 5))
    for rec in report.records:
        assert rec["base_bipartite"] == rec["gins_agree"]


@pytest.mark.parametrize("sweep, tally, flag", [
    (sweep_theorem1, "condition_v_true", "condition_v"),
    (sweep_theorem2, "bipartite_base", "base_bipartite")])
def test_sweep_summaries_are_the_sums_of_their_records(sweep, tally, flag):
    for n_max in range(1, 6):
        report = sweep(n_max, seed=0)
        assert report.passed
        assert report.summary["classes"] == len(report.records) == \
            sum(KNOWN_CLASS_COUNTS[n] for n in range(1, n_max + 1))
        assert report.summary[tally] == sum(r[flag] for r in report.records)
        assert [r["n"] for r in report.records] == sorted(
            r["n"] for r in report.records)


def test_sweep_theorem2_fails_when_a_class_is_misread(misread_class):
    report = sweep_theorem2(4, seed=0)
    assert not report.passed and len(misread_class) == 1
    edges = sorted(map(list, misread_class[0].edges))
    assert [(r["n"], r["edges"]) for r in report.records
            if r["base_bipartite"] != r["gins_agree"]] == [(4, edges)]


def test_sweep_payload_excludes_run_metadata():
    report = sweep_theorem1(3, seed=5)
    payload = report.payload()
    assert "seed" not in payload and "elapsed" not in payload
    doc = json.loads(report.to_json())
    assert doc["seed"] == 5
    # replay with a different seed produces the identical payload
    replay = sweep_theorem1(3, seed=99)
    assert replay.payload() == payload


def test_complement_duality_samples_take_no_dual_route(monkeypatch):
    # criterion 9 checks the duality the engine's dual route rests on, so
    # gin_space must give it the direct route: no dual change is read
    # while property_suite runs complement_dual, counted through the
    # bindings of ginshift.gin
    reads, sides = [], []
    inside = [False]
    real_dual = gin_module.CoordinateChange.dual

    def dual(self):
        reads.append(inside[0])
        return real_dual.func(self)

    def complement_dual(order, monomials, ring, n, *args, **kwargs):
        sides.append((len(monomials), len(all_monomials(ring, n, 2))))
        inside[0] = True
        try:
            return gin_module.complement_dual(order, monomials, ring, n,
                                              *args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(gin_module.CoordinateChange, "dual", property(dual))
    monkeypatch.setattr(verifier, "complement_dual", complement_dual)
    assert property_suite(seed=0, samples=20)["passed"]
    # a side of more than half the monomials would take the dual route
    assert any(0 < r < total and 2 * r != total for r, total in sides)
    assert True not in reads
    # outside gin_space the engine does read duals
    gin_module.gin(LEX, MonomialIdeal.make(EXT, 3, [ext_monomial([1], 3)]))
    assert reads


@pytest.mark.parametrize("name", [entry[0]
                                  for entry in verifier.PROPERTY_CHECKS])
def test_a_violation_fails_the_property_suite(monkeypatch, name):
    # one entry's check reports a violation per sample: only its count
    # moves, and the suite fails
    table = [(entry_name, count, (lambda rng, seed, k: 1)
              if entry_name == name else check)
             for entry_name, count, check in verifier.PROPERTY_CHECKS]
    monkeypatch.setattr(verifier, "PROPERTY_CHECKS", tuple(table))
    report = property_suite(seed=0, samples=1)
    assert report[name]["violations"] == report[name]["samples"] >= 1
    assert all(stats["violations"] == 0 for key, stats in report.items()
               if key not in (name, "passed"))
    assert report["passed"] is False


def test_property_suite_smoke():
    report = property_suite(seed=0, samples=12)
    assert report["passed"]
    assert report["char2-duality-negative"]["violations"] == 0
    for key, stats in report.items():
        if isinstance(stats, dict):
            assert stats["violations"] == 0
