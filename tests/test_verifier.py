import json

import numpy as np
import pytest

from ginshift.fields import GFP, InvalidInputError
from ginshift.gin import (elementary_shift_space, family_of, is_stable_family,
                          pair_shift)
from ginshift.graphs import Graph, complete_bipartite, cycle_graph, path_graph
from ginshift.monomials import EXT, ext_monomial
from ginshift.orders import LEX, REVLEX, parse_order
from ginshift.verifier import (KNOWN_CLASS_COUNTS, SweepReport,
                               degree2_trans_witnesses, enumerate_graphs,
                               property_suite, sweep_theorem1, sweep_theorem2)


def test_enumeration_counts():
    for n in range(1, 6):
        assert len(enumerate_graphs(n)) == KNOWN_CLASS_COUNTS[n]
    with pytest.raises(InvalidInputError):
        enumerate_graphs(0)
    with pytest.raises(InvalidInputError):
        enumerate_graphs(8)


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


def test_sweep_theorem1_small():
    report = sweep_theorem1(4, seed=0, weight_samples=5)
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


def test_sweep_payload_excludes_run_metadata():
    report = sweep_theorem1(3, seed=5, weight_samples=3)
    payload = report.payload()
    assert "seed" not in payload and "elapsed" not in payload
    doc = json.loads(report.to_json())
    assert doc["seed"] == 5
    # replay with a different seed produces the identical payload
    replay = sweep_theorem1(3, seed=99, weight_samples=3)
    assert replay.payload() == payload


def test_property_suite_smoke():
    report = property_suite(seed=0, samples=12)
    assert report["passed"]
    assert report["char2-duality-negative"]["violations"] == 0
    for key, stats in report.items():
        if isinstance(stats, dict):
            assert stats["violations"] == 0
