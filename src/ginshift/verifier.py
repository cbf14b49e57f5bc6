"""Exhaustive small-graph sweeps and randomized property suites.

The sweeps instantiate the two classification theorems class by class; the
property suite spot-checks the supporting lemmas on random instances.  All
randomness flows from one master seed, and report payloads contain only
seed-independent facts so replays compare byte for byte.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .changes import CoordinateChange
from .complexes import (SimplicialComplex, combinatorial_ideal, cone,
                        flag_complex, shifted_complex)
from .families import (distinct, family_of, family_supports,
                       is_stable_family, pair_shift)
from .fields import GFP, QQ, InvalidInputError, PrimeField, SizeLimitError
from .gin import (CertificationError, DualityViolationError, complement_dual,
                  gin_multi, gins_agree_adaptive, gin_space, trans_witnesses)
from .graphs import (SEMI_BIPARTITE, Graph, base_form, condition_v,
                     condition_vi)
from .ideals import MonomialIdeal
from .invariants import hyperplane_rank_profile, index_profile, m_count
from .monomials import EXT, POLY, all_monomials, poly_monomial
from .orders import LEX, REVLEX, WeightOrder

#: isomorphism-class counts used as a self-test after first computation
KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044,
                      8: 12346}

MAX_ENUMERATION_N = 8


def _check_vertex_count(n: int) -> None:
    """Graphs are enumerated, and so swept, on 1..MAX_ENUMERATION_N
    vertices."""
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise InvalidInputError(
            f"enumeration supports 1 <= n <= {MAX_ENUMERATION_N}, not {n}")


def enumerate_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class on n labeled vertices,
    in deterministic (ascending edge-bitmask) order.

    Canonical form = minimum edge bitmask over all vertex permutations, bit
    b standing for the b-th pair of ``itertools.combinations(range(n), 2)``.
    """
    _check_vertex_count(n)
    pairs = list(itertools.combinations(range(n), 2))
    out = [Graph.make(n, [(pairs[b][0] + 1, pairs[b][1] + 1)
                          for b in range(len(pairs)) if (mask >> b) & 1])
           for mask in _canonical_masks(n)]
    if len(out) != KNOWN_CLASS_COUNTS[n]:
        raise RuntimeError(f"enumeration self-test failed at n={n}: "
                           f"{len(out)} classes, expected {KNOWN_CLASS_COUNTS[n]}")
    return out


#: candidates searched at once: bounds the partial labellings held in memory
_SEARCH_BLOCK = 256


@lru_cache(maxsize=None)
def _canonical_masks(n: int) -> tuple[int, ...]:
    """The canonical edge bitmasks on n vertices, ascending.

    One-vertex extension: every graph on n vertices is, after relabeling
    its first n - 1 vertices, a canonical graph on n - 1 vertices plus
    vertex n with some neighbour set. So the candidates are those. The
    search keyed by degree first, a complete canonical form, keeps one
    candidate per class; the plain search then gives each its minimum.
    """
    if n == 1:
        return (0,)
    bit_of = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}
    # lift the (n-1)-vertex masks to this bit numbering, then add vertex n
    smaller = np.array(_canonical_masks(n - 1), dtype=np.int64)
    lifted = np.zeros_like(smaller)
    for b, p in enumerate(itertools.combinations(range(n - 1), 2)):
        lifted |= ((smaller >> b) & 1) << bit_of[p]
    subsets = np.arange(1 << (n - 1), dtype=np.int64)
    nbrs = np.zeros_like(subsets)
    for i in range(n - 1):
        nbrs |= ((subsets >> i) & 1) << bit_of[i, n - 1]
    masks = (lifted[:, None] | nbrs[None, :]).ravel()
    representatives = distinct(_least_labelling(masks, n, by_degree=True))
    return tuple(np.sort(_least_labelling(representatives, n)).tolist())


def _least_labelling(masks: np.ndarray, n: int,
                     by_degree: bool = False) -> np.ndarray:
    """The edge bitmask of each graph of ``masks`` under its least
    labelling, in blocks of ``_SEARCH_BLOCK`` graphs.

    Bit b stands for the b-th pair (i, j) of combinations(range(n), 2), so
    each pair (i, j) has a higher bit than every pair whose smaller vertex
    is below i. The minimum over all relabellings is therefore the
    lexicographically least sequence of words w_{n-2}, ..., w_0, w_i being
    the adjacency of the vertex labelled i to those labelled n - 1, ...,
    i + 1, most significant first. With ``by_degree`` a vertex's degree
    comes before its word: the result is then the same relabelling for
    isomorphic graphs, a complete canonical form, but not the minimum.
    """
    pairs = list(itertools.combinations(range(n), 2))
    out = np.empty(len(masks), dtype=np.int64)
    for start in range(0, len(masks), _SEARCH_BLOCK):
        block = masks[start:start + _SEARCH_BLOCK]
        adjacent = np.zeros((len(block), n, n), dtype=np.int8)
        for b, (i, j) in enumerate(pairs):
            adjacent[:, i, j] = adjacent[:, j, i] = (block >> b) & 1
        out[start:start + len(block)] = _search(adjacent, by_degree)
    return out


def _search(adjacent: np.ndarray, by_degree: bool) -> np.ndarray:
    """The least-labelling mask of each graph of an adjacency stack.

    Labels go from n - 1 downward. Each graph keeps every partial
    labelling whose words so far are least; at the next label each of
    them offers its unlabelled vertices, keyed by their adjacency to the
    labelled ones in labelling order (the next word), and the least key
    over the graph's partial labellings keeps those that offer it. The
    partial labellings of a graph stay contiguous, so its least key is one
    ``np.minimum.reduceat``.
    """
    count, n = adjacent.shape[:2]
    owner = np.arange(count)  # the graph of each partial labelling
    unlabelled = np.ones((count, n), dtype=bool)
    # every word is shifted alike, so a degree above it keeps its rank
    words = (adjacent.sum(axis=2, dtype=np.int32) if by_degree
             else np.zeros((count, n), dtype=np.int32))
    least = np.zeros(count, dtype=np.int64)
    for label in range(n - 1, -1, -1):
        keys = np.where(unlabelled, words, np.iinfo(np.int32).max)
        firsts = np.flatnonzero(np.diff(owner, prepend=-1))
        best = np.minimum.reduceat(keys.min(axis=1), firsts)
        # w_label fills the bits from that of the pair (label, label + 1)
        word = best.astype(np.int64) & ((1 << (n - 1 - label)) - 1)
        least |= word << (label * (n - 1) - label * (label - 1) // 2)
        if label:
            held, vertex = np.nonzero(keys == best[owner][:, None])
            owner = owner[held]
            words = (words[held] << 1) | adjacent[owner, :, vertex]
            unlabelled = unlabelled[held]
            unlabelled[np.arange(len(held)), vertex] = False
    return least


def degree2_trans_witnesses(g: Graph, stop_at: int = 2,
                            budget: int | None = None) -> set[frozenset]:
    """Distinct stable degree-2 components of transformed strongly stable
    ideals of the graph ideal J_G (whose generators beyond degree 2 are all
    of degree 3, so everything happens in degree 2), each a set of index
    pairs.

    Moves are elementary shifts via ``pair_shift`` on the bitset family of
    the non-edges, searched breadth first until ``stop_at`` stable families
    are found or every reachable family is seen. Shifts keep a family's
    size, so the seen set bounds the search, which by default runs to its
    closure. A search that needs more than an explicit ``budget`` of shift
    steps raises ``SizeLimitError`` rather than return a short set.
    """
    n = g.n
    shift_pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    start = family_of(g.complement().edges)
    seen = {start}
    queue = deque([start])
    found: set[int] = set()
    spent = 0
    while queue:
        state = queue.popleft()
        if is_stable_family(state, n):
            found.add(state)
            if len(found) >= stop_at:
                break
            continue
        for a, b in shift_pairs:
            if budget is not None and spent >= budget:
                raise SizeLimitError(
                    f"witness search cut at {budget} shift steps with "
                    f"{len(found)} of {stop_at} stable components found")
            spent += 1
            nxt = pair_shift(state, a, b, n)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return {frozenset(family_supports(f, n)) for f in found}


def degree2_descent_witnesses(g: Graph, stop_at: int = 2) -> set[frozenset]:
    """Distinct stable degree-2 components reached from the non-edges of g
    by shift descents, each a set of index pairs, as in
    ``degree2_trans_witnesses``; up to ``stop_at`` of them.

    A descent applies ``pair_shift`` for every pair (a, b), a < b, in
    descending order, in full passes until the family is strongly stable,
    that is until a further pass would change nothing; so it ends at a
    stable family the closure search also reaches. Descents start from the
    non-edge family and then from its image under each single shift, in
    ascending pair order. They may find fewer families than the closure
    holds; on every class with n <= 8 failing condition (v) they find two.
    """
    n = g.n
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    order = pairs[::-1]
    start = family_of(g.complement().edges)
    found: set[int] = set()
    for first in [None] + pairs:
        family = start if first is None else pair_shift(start, *first, n)
        while not is_stable_family(family, n):
            for a, b in order:
                family = pair_shift(family, a, b, n)
        found.add(family)
        if len(found) >= stop_at:
            break
    return {frozenset(family_supports(f, n)) for f in found}


@dataclass
class SweepReport:
    theorem: str
    n_max: int
    seed: int
    records: list[dict] = dc_field(default_factory=list)
    summary: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.summary.get("passed"))

    def payload(self) -> dict:
        """Seed-independent content, for replay comparison."""
        return {"theorem": self.theorem, "n_max": self.n_max,
                "records": self.records, "summary": self.summary}

    def to_json(self) -> str:
        return json.dumps(dict(self.payload(), seed=self.seed),
                          sort_keys=True)


def _sample_weight_orders(n: int, count: int, rng) -> list[WeightOrder]:
    """Strictly decreasing random integer weights in [1, 10^6 - 1]."""
    out = []
    while len(out) < count:
        w = sorted({int(x) for x in rng.integers(1, 10 ** 6, size=n + 4)},
                   reverse=True)[:n]
        if len(w) < n:
            continue
        tiebreak = "lex" if rng.integers(2) == 0 else "revlex"
        out.append(WeightOrder(tuple(w), tiebreak))
    return out


def _degree2_generators(ideal: MonomialIdeal) -> set:
    """The minimal generators of degree 2."""
    return {u for u in ideal.generators if u.degree == 2}


def _sweep(theorem: str, n_max: int, seed: int, tally: tuple[str, str],
           check) -> SweepReport:
    """Run ``check`` over every class on 1..n_max vertices.

    ``check(g)`` returns class g's record fields, which follow ``n`` and
    ``edges``, and whether g agrees with the theorem. The summary counts the
    classes and, as ``tally[0]``, the records whose field ``tally[1]`` is
    true; it passes if every class agrees."""
    _check_vertex_count(n_max)
    report = SweepReport(theorem, n_max, seed)
    passed = True
    for n in range(1, n_max + 1):
        for g in enumerate_graphs(n):
            fields, agrees = check(g)
            report.records.append(
                {"n": n, "edges": sorted(map(list, g.edges)), **fields})
            passed = passed and agrees
    report.summary = {"classes": len(report.records), "passed": passed,
                      tally[0]: sum(r[tally[1]] for r in report.records)}
    return report


def sweep_theorem1(n_max: int = 6, seed: int = 0, trials: int = 3,
                   field=GFP) -> SweepReport:
    """Per class on 1..n_max vertices: condition_v (A), condition_vi (B),
    lex/revlex degree-2 gin agreement for the graph ideal (C), and the
    full-degree check (D): order-independence of the flag-complex gin over
    lex, revlex and 20 sampled weight orders when A holds, or a
    two-witness shifting discrepancy when A fails.

    Each class makes one certified ``gin_multi`` call on the flag-complex
    ideal J_F, whose degree-2 part is the span of the non-edges: all
    orders up to degree n when A holds, lex and revlex up to degree 2
    when it fails. C compares the degree-2 generators of its lex and
    revlex gins, so C and D rest on one set of trials; for n >= 2 neither
    J_F nor its gins have a generator below degree 2, so those generators
    span the degree-2 components.

    The two witnesses come from shift descents
    (``degree2_descent_witnesses``); a class for which they find fewer
    than two fails D.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))

    def check(g: Graph) -> tuple[dict, bool]:
        a = condition_v(g)[0]
        b = condition_vi(g)[0]
        orders = [LEX, REVLEX]
        if a:
            orders += _sample_weight_orders(g.n, 20, rng)
        jf = combinatorial_ideal(flag_complex(g), EXT)
        gins = gin_multi(orders, jf, cap=None if a else 2, trials=trials,
                         seed=seed, field=field)
        c = g.n < 2 or _degree2_generators(gins[0]) == \
            _degree2_generators(gins[1])
        if a:
            d = all(x == gins[0] for x in gins)
            d_kind = "order-independence"
        else:
            d = len(degree2_descent_witnesses(g, stop_at=2)) >= 2
            d_kind = "shift-discrepancy"
        return ({"condition_v": a, "condition_vi": b, "deg2_gin_equal": c,
                 "d_check": d, "d_kind": d_kind}, a == b == c and d)

    return _sweep("theorem1", n_max, seed,
                  ("condition_v_true", "condition_v"), check)


def sweep_theorem2(n_max: int = 5, seed: int = 0, trials: int = 3,
                   field=GFP) -> SweepReport:
    """Per class on 1..n_max vertices: lex/revlex agreement of the certified
    edge-ideal gins (adaptive degree cap) against base_form(G) being
    semi-complete bipartite."""
    def check(g: Graph) -> tuple[dict, bool]:
        expected = base_form(g) == SEMI_BIPARTITE
        agree = not g.edges or gins_agree_adaptive(
            LEX, REVLEX, combinatorial_ideal(g, POLY), trials=trials,
            seed=seed, field=field)
        return {"base_bipartite": expected, "gins_agree": agree}, \
            agree == expected

    return _sweep("theorem2", n_max, seed,
                  ("bipartite_base", "base_bipartite"), check)


#: the theorem sweeps by their ``ginshift sweep`` names
SWEEPS = {"thm1": sweep_theorem1, "thm2": sweep_theorem2}


# -- randomized property suite -----------------------------------------


def _random_monomial_subset(rng, ring: str, n: int) -> set:
    ambient = all_monomials(ring, n, 2)
    keep = rng.random(len(ambient)) < rng.uniform(0.15, 0.85)
    return {m for m, flag in zip(ambient, keep) if flag}


def _random_graph(rng, n: int) -> Graph:
    edges = [(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)
             if rng.random() < 0.5]
    return Graph.make(n, edges)


def _random_complex(rng, n: int) -> SimplicialComplex:
    faces = [c for d in (2, 3)
             for c in itertools.combinations(range(1, n + 1), d)
             if rng.random() < 0.4]
    return SimplicialComplex.make(n, faces)


def property_suite(seed: int = 0, samples: int = 200) -> dict:
    """Randomized checks of the supporting lemmas; returns a report whose
    payload is seed-independent when every property holds."""
    if samples < 1:
        raise InvalidInputError(
            f"property suite needs samples >= 1, not {samples}")
    root = np.random.SeedSequence([seed, 777])
    rngs = [np.random.default_rng(s) for s in root.spawn(8)]
    results: dict[str, dict] = {}

    # exterior complement duality
    violations = 0
    for k in range(samples):
        rng = rngs[0]
        n = int(rng.integers(2, 9))
        w = _random_monomial_subset(rng, EXT, n)
        try:
            complement_dual(LEX if k % 2 == 0 else REVLEX, w, EXT, n,
                            seed=seed + k)
        except DualityViolationError:
            violations += 1
    results["complement-duality-exterior"] = {"samples": samples,
                                              "violations": violations}

    # polynomial complement duality over the rationals (characteristic zero)
    violations = 0
    poly_samples = max(40, samples // 5)
    for k in range(poly_samples):
        rng = rngs[1]
        n = int(rng.integers(2, 6))
        w = _random_monomial_subset(rng, POLY, n)
        try:
            complement_dual(LEX if k % 2 == 0 else REVLEX, w, POLY, n,
                            seed=seed + k, field=QQ)
        except DualityViolationError:
            violations += 1
    results["complement-duality-polynomial-char0"] = {"samples": poly_samples,
                                                      "violations": violations}

    # deliberate characteristic-2 failure: duality must break
    broke = False
    try:
        complement_dual(LEX, {poly_monomial((2, 0)), poly_monomial((0, 2))},
                        POLY, 2, field=PrimeField(2))
    except (DualityViolationError, CertificationError):
        broke = True
    results["char2-duality-negative"] = {"samples": 1,
                                         "violations": 0 if broke else 1}

    # sandwich inequality and m-count domination over shifting witnesses
    violations = 0
    graph_samples = max(30, samples // 5)
    for k in range(graph_samples):
        rng = rngs[2]
        n = int(rng.integers(3, 6))
        g = _random_graph(rng, n)
        if not g.complement().edges:
            continue
        jg = combinatorial_ideal(g, EXT)
        lex2 = gin_space(LEX, jg.degree_component(2), EXT, n, 2, seed=seed)
        rev2 = gin_space(REVLEX, jg.degree_component(2), EXT, n, 2, seed=seed)
        glex = MonomialIdeal.make(EXT, n, lex2)
        grev = MonomialIdeal.make(EXT, n, rev2)
        lo, hi = index_profile(glex, 2)[1], index_profile(grev, 2)[1]
        for witness in trans_witnesses(jg, budget=4000):
            mid = index_profile(witness, 2)[1]
            if not all(x <= y <= z for x, y, z in zip(lo, mid, hi)):
                violations += 1
            for u in all_monomials(EXT, n, 2):
                if m_count(LEX, glex, u) < m_count(LEX, witness, u):
                    violations += 1
                if m_count(REVLEX, grev, u) < m_count(REVLEX, witness, u):
                    violations += 1
    results["sandwich-and-mcount"] = {"samples": graph_samples,
                                      "violations": violations}

    # shifting commutes with coning
    violations = 0
    cone_samples = max(25, samples // 8)
    for k in range(cone_samples):
        rng = rngs[3]
        n = int(rng.integers(2, 6))
        gamma = _random_complex(rng, n)
        left = shifted_complex(REVLEX, cone(gamma), seed=seed + k)
        right = cone(shifted_complex(REVLEX, gamma, seed=seed + 2 * k + 1))
        if left != right:
            violations += 1
    results["cone-commutation"] = {"samples": cone_samples,
                                   "violations": violations}

    # hyperplane restriction rank oracle vs the engine profile
    violations = 0
    oracle_samples = 100
    for k in range(oracle_samples):
        rng = rngs[4]
        n = int(rng.integers(3, 9))
        w = _random_monomial_subset(rng, EXT, n)
        phi = CoordinateChange.random_dense(n, GFP, rng)
        ambient = set(all_monomials(EXT, n, 2))
        ginw = gin_space(REVLEX, w, EXT, n, 2, seed=seed + k) if w else set()
        oracle = hyperplane_rank_profile(w, n, phi)
        for kk in range(1, n + 1):
            engine = sum(1 for u in ambient - ginw if u.max_index() >= kk)
            if engine != oracle[kk - 1]:
                violations += 1
    results["hyperplane-rank-oracle"] = {"samples": oracle_samples,
                                         "violations": violations}

    # absent-corner lemma: if no x_s x_t in W with s >= p, t >= q, then
    # x_p x_q stays out of the gin (upper-triangular coordinate changes)
    violations = 0
    corner_samples = 100
    for k in range(corner_samples):
        rng = rngs[5]
        n = int(rng.integers(3, 7))
        p = int(rng.integers(1, n + 1))
        q = int(rng.integers(p, n + 1))
        w = {u for u in _random_monomial_subset(rng, POLY, n)
             if not (u.min_index() >= p and u.max_index() >= q)}
        if not w:
            continue
        target = poly_monomial(tuple(
            (2 if i == p == q else (1 if i in (p, q) else 0))
            for i in range(1, n + 1)))
        for order in (LEX, REVLEX):
            ginw = gin_space(order, w, POLY, n, 2, seed=seed + k,
                             upper_triangular=True)
            if target in ginw:
                violations += 1
    results["absent-corner"] = {"samples": corner_samples,
                                "violations": violations}

    results["passed"] = all(
        v["violations"] == 0 for v in results.values() if isinstance(v, dict))
    return results
