"""References that several test modules check the engine against. A plain
module: pytest collects no tests from it."""

import functools
from fractions import Fraction
from itertools import combinations, permutations
from operator import add, attrgetter

import numpy as np

from ginshift.changes import CoordinateChange, peel_table
from ginshift.complexes import SimplicialComplex
from ginshift.families import family_of, support_mask
from ginshift.fields import GFP, InvalidInputError
from ginshift.graphs import NEITHER, SEMI_BIPARTITE, TWO_CLIQUES
from ginshift.gin import _of_degree, _Trials
from ginshift.ideals import MonomialIdeal, _canonical_sort
from ginshift.linalg import CertificationError, rref, vector_rank
from ginshift.monomials import (EXT, POLY, ExtMonomial, PolyMonomial,
                                basis_table, ext_monomial, squarefree_poly)
from ginshift.orders import (EQUAL, GREATER, LESS, Inverse, Lex, RevLex,
                             WeightOrder)


# -- term orders, written out comparison by comparison ------------------
# The specification the sort keys of ``ginshift.orders`` are tested
# against: a test that ranked by ``TermOrder.compare`` would check the key
# against itself.


def _lex_cmp(u, v) -> int:
    if isinstance(u, ExtMonomial):
        # smaller leading index wins
        for a, b in zip(u.support, v.support):
            if a != b:
                return GREATER if a < b else LESS
        return EQUAL
    for a, b in zip(u.exponents, v.exponents):
        if a != b:
            return GREATER if a > b else LESS
    return EQUAL


def _revlex_cmp(u, v) -> int:
    if isinstance(u, ExtMonomial):
        # at the largest differing index, membership in v means u is greater
        for a, b in zip(reversed(u.support), reversed(v.support)):
            if a != b:
                return GREATER if a < b else LESS
        return EQUAL
    for a, b in zip(reversed(u.exponents), reversed(v.exponents)):
        if a != b:
            return GREATER if a < b else LESS
    return EQUAL


def _weight(u, weights) -> int:
    if isinstance(u, ExtMonomial):
        return sum(weights[i - 1] for i in u.support)
    return sum(w * e for w, e in zip(weights, u.exponents))


def _cmp_same_degree(order, u, v) -> int:
    if isinstance(order, Inverse):
        return -_cmp_same_degree(order.inner, u, v)
    if isinstance(order, Lex):
        return _lex_cmp(u, v)
    if isinstance(order, RevLex):
        return _revlex_cmp(u, v)
    if isinstance(order, WeightOrder):
        wu, wv = _weight(u, order.weights), _weight(v, order.weights)
        if wu != wv:
            return GREATER if wu > wv else LESS
        if order.tiebreak == "lex":
            return _lex_cmp(u, v)
        return _revlex_cmp(u, v)
    raise TypeError(f"no reference comparison for {order!r}")


def compare(order, u, v) -> int:
    """``order.compare(u, v)`` as specified: degree first, then the
    order's own within-degree comparison."""
    if u.ring != v.ring or u.n != v.n:
        raise InvalidInputError("monomials from different rings compared")
    if u.degree != v.degree:
        return GREATER if u.degree > v.degree else LESS
    return _cmp_same_degree(order, u, v)


# -- a degree's monomials, by recursion and by generator multiples ---------
# The specification ``basis_table``, ``basis_index`` and
# ``MonomialIdeal.degree_component`` are tested against.


def all_monomials(ring, n, d) -> list:
    """Every degree-d monomial, lex-descending: exterior supports by
    ``combinations``, polynomial exponent vectors by recursion on the
    leading exponent, from d down to 0."""
    if ring == EXT:
        if d > n:
            return []
        return [ExtMonomial(c, n) for c in combinations(range(1, n + 1), d)]
    out = []

    def rec(prefix, remaining, pos):
        if pos == n - 1:
            out.append(PolyMonomial(tuple(prefix + [remaining])))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, pos + 1)

    if n == 0:
        # the ring on no variables has the one monomial 1, in degree 0
        return [PolyMonomial(())] if d == 0 else []
    rec([], d, 0)
    return out


def degree_component(ideal, d) -> set:
    """The degree-d monomials of the ideal as generator multiples: S u T
    for T outside S in the exterior ring, g * m in the polynomial ring,
    each built as a new monomial."""
    n, out = ideal.n, set()
    for g in ideal.generators:
        k = d - g.degree
        if k < 0:
            continue
        if ideal.ring == EXT:
            rest = [i for i in range(1, n + 1) if i not in g.support]
            out.update(ext_monomial(g.support + t, n)
                       for t in combinations(rest, k))
        else:
            out.update(PolyMonomial(tuple(map(add, g.exponents, m.exponents)))
                       for m in all_monomials(POLY, n, k))
    return out


def family(ideal, top) -> int:
    """The exterior monomials of the ideal up to degree ``top``, one degree
    component at a time: the route ``ideals.squarefree_family`` replaced."""
    return family_of(u.support for d in range(top + 1)
                     for u in ideal.degree_component(d))


# -- minors, by Laplace expansion ----------------------------------------
# The specification the degree tables of ``CoordinateChange.minor`` are
# tested against.


def _laplace(matrix, rows, cols):
    """det of matrix[rows, cols] (1-based) by Laplace expansion along the
    first column, in the entries' own arithmetic: nothing is reduced."""
    if not rows:
        return 1
    acc = 0
    for k, r in enumerate(rows):
        term = matrix[r - 1][cols[0] - 1] * _laplace(
            matrix, rows[:k] + rows[k + 1:], cols[1:])
        acc = acc + term if k % 2 == 0 else acc - term
    return acc


def minor(phi, rows, cols):
    """``phi.minor(rows, cols)`` as specified: the Laplace expansion summed
    with operators, reduced by the field once."""
    return phi.field(_laplace(phi.matrix, rows, cols))


def dual(phi):
    """``phi.dual`` as specified: phi^{-T}, whose (i, j) entry is the
    (i, j) cofactor of phi over det phi, each determinant a Laplace
    expansion."""
    f, n = phi.field, phi.n
    whole = tuple(range(1, n + 1))
    det = minor(phi, whole, whole)
    inverse = pow(det, -1, f.characteristic) if f.characteristic else 1 / det

    def cofactor(i, j):
        rows, cols = whole[:i] + whole[i + 1:], whole[:j] + whole[j + 1:]
        return (-1) ** (i + j) * _laplace(phi.matrix, rows, cols)

    return CoordinateChange(tuple(tuple(f(cofactor(i, j) * inverse)
                                        for j in range(n)) for i in range(n)),
                            f, f"dual of {phi.kind}")


# -- the direct route ------------------------------------------------------
# The specification the dual route of ``gin._Trials.component`` is tested
# against: phi's images of the sources themselves, however many they are.


def direct_component(order, ring, n, d, monomials, phis) -> frozenset:
    """in_order(phi(span of the monomials))_d: for each trial, the pivots
    of phi's images of the monomials with the columns sorted by the
    reference comparison; CertificationError unless every trial gives the
    same pivots, as many as there are monomials."""
    by_order = functools.cmp_to_key(functools.partial(compare, order))
    columns = sorted(basis_table(ring, n, d), key=by_order, reverse=True)
    results = set()
    for phi in phis:
        images = [image(phi, u) for u in monomials]
        rows = [row(v, columns, phi.field) for v in images]
        results.add(frozenset(columns[j] for j in rref(rows, phi.field)[1]))
    if len(results) != 1 or len(min(results)) != len(monomials):
        raise CertificationError("trials disagree or miss the Hilbert "
                                 "function")
    return results.pop()


# -- images as dict vectors ----------------------------------------------
# ``CoordinateChange.apply`` returns a coefficient row against the basis
# table of the monomial's degree; tests that state an image term by term
# read it, and build rows, through these two.


def fraction_tables(phi, ring, top) -> list:
    """The degree tables 0..top of a change over Q, each filled from the
    one below over ``Fraction``s, every (T, S) at once: the change's own
    table of degree d, filled on the integer matrix D phi, is D^d times
    this one."""
    n = phi.n
    m = np.array([list(map(Fraction, row)) for row in phi.matrix]
                 + [[Fraction(0)] * n], dtype=object)
    tables = [np.array([[Fraction(1)]], dtype=object), m[:-1]]
    for d in range(2, top + 1):
        drop, row = peel_table(ring, n, d)
        w = row.shape[1]
        table = 0
        for i in range(w):
            sign = -1 if ring == EXT and (w - 1 - i) % 2 else 1
            table = table + sign * (m[row[:, i]][:, row[:, -1]]
                                    * tables[-1][drop[:, i]][:, drop[:, -1]])
        tables.append(table)
    return tables[:top + 1]


def image(phi, m) -> dict:
    """``phi.apply(m)`` as a dict vector: monomial -> non-zero coefficient."""
    zero = phi.field.zero
    return {u: c for u, c in zip(basis_table(m.ring, phi.n, m.degree),
                                 phi.apply(m).tolist()) if c != zero}


def row(vector, columns, field) -> list:
    """The coefficient row of a dict vector against ``columns``, which
    must hold every monomial of its support."""
    index = {m: j for j, m in enumerate(columns)}
    out = [field.zero] * len(columns)
    for m, c in vector.items():
        out[index[m]] = c
    return out


# -- initial spaces -------------------------------------------------------


def initial_space(order, space):
    """Leading monomials of a ``Subspace``: exactly the pivot columns once
    the columns are ranked by ``order``."""
    index = {m: j for j, m in enumerate(space.columns)}
    ranking = [index[m] for m in order.sort_descending(space.columns)]
    return {space.columns[j] for j in space.leading_columns(ranking)}


def elementary_shift_space(order, monomials, ring, n, degree, a, b,
                           field=GFP) -> frozenset:
    """in_order(phi_{a,b}(span of the monomials)) within a single degree."""
    phi = CoordinateChange.elementary(a, b, n, field)
    monomials = _of_degree(monomials, ring, n, degree)
    return _Trials(ring, n, lambda d: monomials, [phi]).component(order, degree)


# -- squarefree sets, subset by subset -----------------------------------
# The specification the subset-bitset families of ``MonomialIdeal.make``
# and of ``ginshift.complexes`` are tested against.


def divides(u, v) -> bool:
    """The subset rule on supports in the exterior ring, the componentwise
    rule on exponent vectors in the polynomial ring."""
    if isinstance(u, ExtMonomial):
        return set(u.support) <= set(v.support)
    return all(a <= b for a, b in zip(u.exponents, v.exponents))


def minimalize(gens) -> tuple:
    """Minimal generators in canonical order, every pair of generators
    tested: exterior monomials compared as support bitmasks, h dividing m
    when h & m == h, any other input by ``divides``."""
    by_deg = sorted(set(gens), key=attrgetter("degree"))
    minimal: list = []
    if all(isinstance(g, ExtMonomial) for g in by_deg):
        masks: list[int] = []
        for g in by_deg:
            m = support_mask(g.support)
            if not any(h & m == h for h in masks):
                masks.append(m)
                minimal.append(g)
    else:
        for g in by_deg:
            if not any(divides(h, g) for h in minimal):
                minimal.append(g)
    return _canonical_sort(minimal)


def sparse_exterior(rng, n, top, count) -> list:
    """``count`` exterior monomials of [n], each of degree 1 to ``top`` at
    random indices: a few generators on many variables."""
    return [ext_monomial((rng.choice(n, size=k, replace=False) + 1).tolist(),
                         n)
            for k in rng.integers(1, top + 1, size=count)]


def flag_complex(g) -> SimplicialComplex:
    """The cliques of g, subset by subset."""
    cliques = [()]
    for k in range(1, g.n + 1):
        layer = [s for s in combinations(range(1, g.n + 1), k)
                 if all(g.has_edge(i, j) for i, j in combinations(s, 2))]
        if not layer:
            break
        cliques.extend(layer)
    return SimplicialComplex(g.n, family_of(cliques))


def face_ideal(gamma, ring=EXT) -> MonomialIdeal:
    """The ideal of every non-empty non-face, minimalized by ``minimalize``
    above."""
    gens = []
    for d in range(1, gamma.n + 1):
        for s in combinations(range(1, gamma.n + 1), d):
            if s not in gamma.faces:
                gens.append(ext_monomial(s, gamma.n) if ring == EXT
                            else squarefree_poly(s, gamma.n))
    return MonomialIdeal(ring, gamma.n, minimalize(gens))


def complex_from_ideal(ideal) -> SimplicialComplex:
    """The empty face and every support whose squarefree monomial the
    ideal does not contain, subset by subset."""
    n = ideal.n
    faces = [()]
    for d in range(1, n + 1):
        layer = []
        for s in combinations(range(1, n + 1), d):
            u = ext_monomial(s, n) if ideal.ring == EXT else squarefree_poly(s, n)
            if not ideal.contains(u):
                layer.append(s)
        if not layer:
            break
        faces.extend(layer)
    return SimplicialComplex(n, family_of(faces))


# -- complexes as sets of face tuples -------------------------------------
# The specification the face families of ``SimplicialComplex`` are tested
# against: the tuple closure and the pairwise facet scan.


def closure(n, faces) -> set:
    """The faces of ``SimplicialComplex.make(n, faces)`` as sorted tuples:
    every subset of a face, every singleton and the empty face."""
    closed = {()}
    for f in faces:
        f = tuple(sorted(set(f)))
        for k in range(len(f) + 1):
            closed.update(combinations(f, k))
    closed.update((v,) for v in range(1, n + 1))
    return closed


def facets(faces) -> list:
    """The faces contained in no other face, sorted."""
    return sorted(f for f in faces
                  if not any(f != g and set(f) <= set(g) for g in faces))


def f_vector(faces) -> list:
    out = [0] * max(len(f) + 1 for f in faces)
    for f in faces:
        out[len(f)] += 1
    return out


def cone(n, faces) -> set:
    return set(faces) | {f + (n + 1,) for f in faces}


def family_supports(family, n) -> list:
    """The supports of a family of [n] in bitmask order, each read off its
    mask bit by bit: the route the byte tables of ``families`` replaced."""
    return [tuple(i + 1 for i in range(n) if s >> i & 1)
            for s in range(1 << n) if family >> s & 1]


# -- graph classifiers on relabelled subgraphs ---------------------------
# The specification the adjacency-mask classifiers of ``ginshift.graphs``
# are tested against: every peel state is built as an induced subgraph.


def is_near_cone(g, v) -> bool:
    nv = g.neighbors(v)
    return all(t in nv for t in range(1, g.n + 1)
               if t != v and g.degree(t) > 0)


def _is_complete_bipartite(g) -> bool:
    color = {1: 0}
    stack = [1]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w not in color:
                color[w] = 1 - color[u]
                stack.append(w)
            elif color[w] == color[u]:
                return False
    if len(color) < g.n:
        return False
    part0 = {v for v, c in color.items() if c == 0}
    return g.edge_count == len(part0) * (len(color) - len(part0))


def base_form(g) -> str:
    """Isolated vertices deleted: connected and complete bipartite, else
    at most two components each complete, else neither."""
    core = g.delete_vertices(g.isolated_vertices())
    if core.n == 0:
        return SEMI_BIPARTITE
    comps = core.components()
    if len(comps) == 1 and _is_complete_bipartite(core):
        return SEMI_BIPARTITE
    if len(comps) <= 2 and all(core.induced(c).edge_count
                               == len(c) * (len(c) - 1) // 2 for c in comps):
        return TWO_CLIQUES
    return NEITHER


def condition_peelable(g):
    """(flag, peel sequence, base label), peeling near-cone apexes in
    ascending order with memoization on the residual vertex set."""
    memo = {}

    def search(vertices):
        if vertices in memo:
            return memo[vertices]
        sub = g.induced(vertices)
        label = base_form(sub)
        if label != NEITHER:
            memo[vertices] = (True, (), label)
            return memo[vertices]
        result = (False, None, NEITHER)
        for k, v in enumerate(sorted(vertices), start=1):
            if is_near_cone(sub, k):
                ok, seq, lab = search(vertices - {v})
                if ok:
                    result = (True, (v,) + seq, lab)
                    break
        memo[vertices] = result
        return result

    return search(frozenset(range(1, g.n + 1)))


# -- graph classes by every relabelling ------------------------------------
# The specification the least-labelling search of ``ginshift.verifier`` is
# tested against: the n! permutation loop it replaced.


def canonical_forms(masks, n):
    """Minimum edge bitmask over all vertex permutations, bit b standing for
    the b-th pair of combinations(range(n), 2), of each of the given
    masks."""
    pairs = list(combinations(range(n), 2))
    bit_of = {p: i for i, p in enumerate(pairs)}
    masks = np.asarray(masks, dtype=np.int64)
    canon = masks.copy()
    for perm in permutations(range(n)):
        permuted = np.zeros_like(masks)
        for b, (i, j) in enumerate(pairs):
            pi, pj = perm[i], perm[j]
            tb = bit_of[(pi, pj) if pi < pj else (pj, pi)]
            permuted |= ((masks >> b) & 1) << tb
        np.minimum(canon, permuted, out=canon)
    return canon


# -- the hyperplane rank oracle, width by width ----------------------------
# The specification ``invariants.hyperplane_rank_profile`` is tested
# against: one restriction matrix and one elimination per width.


def hyperplane_rank_oracle(monomials, n: int, k: int, phi) -> int:
    """dim span of the width-(n+1-k) hyperplane-restriction vectors over the
    degree-2 monomials *not* in W: pair {i,j} maps to the exterior
    (a_{tj} e_i - a_{ti} e_j) for t = 1..width."""
    f = phi.field
    width = n + 1 - k
    supports = {tuple(sorted(u.support)) for u in monomials}
    rows = []
    for i, j in combinations(range(1, n + 1), 2):
        if (i, j) in supports:
            continue
        row = [f.zero] * (width * n)
        for t in range(width):
            row[t * n + (i - 1)] = phi.matrix[t][j - 1]
            row[t * n + (j - 1)] = f(-phi.matrix[t][i - 1])
        rows.append(row)
    return vector_rank(rows, f)
