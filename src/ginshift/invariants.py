"""Numerical invariants: positional profiles, m-counts, graded Betti numbers
(closed formulas plus an exact oracle that reads each multidegree b off the
smaller of its Taylor-complex strand and its upper Koszul simplicial complex:
one pass over the 2^r generator subsets plus min(|strand_b|, 2^|supp b|)
cells per b), the alpha map, regularity, the closed-form shifted-graph
profiles with their independent summation-based derivation, and the
hyperplane rank oracle, whose ranks for every restriction width come from
one elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .changes import CoordinateChange
from .complexes import SimplicialComplex, shifted_complex
from .fields import GFP, InvalidInputError, SizeLimitError
from .gin import gin_adaptive
from .graphs import Graph
from .ideals import MonomialIdeal, is_strongly_stable
from .linalg import rref, rref_exact
from .monomials import EXT, POLY, Monomial, PolyMonomial, squarefree_poly
from .orders import REVLEX, TermOrder


# -- Betti tables -------------------------------------------------------


@dataclass(frozen=True)
class BettiTable:
    """beta_{i,i+j} keyed by (i, j); generators sit at homological position
    i = 0 (ideal-indexed convention)."""

    entries: tuple[tuple[int, int, int], ...]

    @classmethod
    def make(cls, data: dict[tuple[int, int], int]) -> "BettiTable":
        items = tuple(sorted((i, j, v) for (i, j), v in data.items() if v))
        return cls(items)

    def get(self, i: int, j: int) -> int:
        for a, b, v in self.entries:
            if (a, b) == (i, j):
                return v
        return 0

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): v for i, j, v in self.entries}

    def regularity(self) -> int:
        return max((j for _i, j, v in self.entries if v), default=0)

    def to_json(self) -> dict:
        return {"entries": [[i, j, v] for i, j, v in self.entries],
                "convention": "ideal-indexed"}

    def __str__(self) -> str:
        if not self.entries:
            return "(empty)"
        imax = max(i for i, _j, _v in self.entries)
        js = sorted({j for _i, j, _v in self.entries})
        lines = ["i\\j " + " ".join(f"{j:>4}" for j in js)]
        for i in range(imax + 1):
            lines.append(f"{i:>3} " + " ".join(
                f"{self.get(i, j) or '.':>4}" for j in js))
        return "\n".join(lines)


# -- positional statistics ---------------------------------------------


def index_profile(ideal: MonomialIdeal, d: int) -> tuple[list[int], list[int]]:
    """(min_le, max_le) over k = 1..n for the degree-d component: the
    counts of its monomials whose least (greatest) index is at most k. The
    monomial 1 has no index, so d >= 1."""
    if d < 1:
        raise InvalidInputError(f"index profile needs degree >= 1, not {d}")
    comp = ideal.degree_component(d)
    n = ideal.n
    min_le = [sum(1 for u in comp if u.min_index() <= k) for k in range(1, n + 1)]
    max_le = [sum(1 for u in comp if u.max_index() <= k) for k in range(1, n + 1)]
    return min_le, max_le


def m_count(order: TermOrder, ideal: MonomialIdeal, u: Monomial) -> int:
    """Number of monomials of the ideal in degree deg(u) that are >= u."""
    comp = ideal.degree_component(u.degree)
    key = order.key(u)
    return sum(1 for t in comp if order.key(t) >= key)


def edge_stat(edges, which: str, direction: str, k: int) -> int:
    """Count edges whose max (or min) endpoint is >= k (or <= k)."""
    pick = max if which == "max" else min
    if direction == "ge":
        return sum(1 for e in edges if pick(e) >= k)
    return sum(1 for e in edges if pick(e) <= k)


# -- Betti numbers of stable ideals ------------------------------------

STABLE_POLY = "strongly-stable-polynomial"
SQUAREFREE = "squarefree-strongly-stable"


def betti_stable(ideal: MonomialIdeal, flavor: str = STABLE_POLY) -> BettiTable:
    """Closed-formula graded Betti numbers of a (squarefree) strongly stable
    ideal: sum over minimal generators of binomials in max index.

    The squarefree formula needs squarefree generators, and the plain one
    a polynomial ideal (an exterior ideal is stable only under the
    squarefree rule); any other input is refused, not tabled."""
    if flavor not in (STABLE_POLY, SQUAREFREE):
        raise InvalidInputError(f"unknown flavor {flavor!r}")
    squarefree = flavor == SQUAREFREE
    if squarefree:
        for u in ideal.generators:
            if not u.is_squarefree():
                raise InvalidInputError(f"the squarefree closed form needs "
                                        f"squarefree generators, not {u}")
    elif ideal.ring == EXT:
        raise InvalidInputError(
            "the strongly stable closed form is for polynomial ideals; an "
            "exterior ideal takes the squarefree flavour")
    ok, witness = is_strongly_stable(ideal, squarefree=squarefree)
    if not ok:
        raise InvalidInputError(
            f"ideal is not {'squarefree ' if squarefree else ''}strongly stable: "
            f"generator {witness[0]} misses exchange {witness[1]}")
    table: dict[tuple[int, int], int] = {}
    for u in ideal.generators:
        j = u.degree
        if not j:
            # the unit ideal is R itself: beta_{0,0} = 1
            top = 0
        else:
            top = u.max_index() - j if squarefree else u.max_index() - 1
        for i in range(top + 1):
            table[(i, j)] = table.get((i, j), 0) + comb(top, i)
    return BettiTable.make(table)


MAX_ORACLE_GENERATORS = 12


def resolution_oracle(ideal: MonomialIdeal) -> BettiTable:
    """Exact graded Betti numbers over the rationals, multidegree by
    multidegree.  Tiny inputs only.

    One pass over the 2^r - 1 subsets of the r generators takes each
    subset's lcm from its prefix (the subset without its last generator)
    and groups the subsets by lcm b.  Every Betti multidegree is such an
    lcm, and beta_{i,b} is read off whichever of two complexes has fewer
    cells: the Taylor strand at b (the subsets with lcm b; Taylor's
    resolution tensored with K) or the upper Koszul simplicial complex
    K^b(I) = {tau subset of supp b : x^(b - tau) in I}, with at most 2^|supp b|
    faces, where beta_{i,b} = dim H~_{i-1}(K^b(I)) (Miller-Sturmfels,
    Combinatorial Commutative Algebra, Thm 1.34).  So the cost is the subset
    pass plus min(|strand_b|, 2^|supp b|) cells per b.

    Worst case known: the ideal generated by the n products x_{[n] - i}, at
    b = x1...xn, where both complexes have 2^n cells.  On a 2-core x86
    machine (Python 3.11) it took 0.35 s of CPU time at n = 8, 6.6 s at
    n = 10 and 47 s at n = 11, so the generator cap must not be raised on
    the strength of faster inputs such as the stars x_{r+1} (x1, ..., x_r).
    """
    gens = ideal.generators
    if ideal.ring != POLY:
        raise InvalidInputError("resolution oracle works in the polynomial ring")
    if len(gens) > MAX_ORACLE_GENERATORS:
        raise SizeLimitError(f"{len(gens)} generators exceed the oracle cap "
                             f"of {MAX_ORACLE_GENERATORS}")
    exps = [g.exponents for g in gens]
    # subsets are bitmasks over the generators; lcms[mask] extends the lcm
    # of the prefix mask by the subset's last generator
    lcms: list[tuple[int, ...]] = [()] * (1 << len(exps))
    strands: dict[tuple[int, ...], list[int]] = {}
    for mask in range(1, 1 << len(exps)):
        last = mask.bit_length() - 1
        prefix = mask ^ (1 << last)
        lcm = tuple(map(max, lcms[prefix], exps[last])) if prefix \
            else exps[last]
        lcms[mask] = lcm
        strands.setdefault(lcm, []).append(mask)

    out: dict[tuple[int, int], int] = {}
    for b, strand in strands.items():
        if len(strand) <= 1 << sum(1 for e in b if e):
            betti = _taylor_betti(strand)
        else:
            betti = _koszul_betti(exps, b)
        jdeg = sum(b)
        for i, value in betti.items():
            key = (i, jdeg - i)  # stratum indexing: value is beta_{i,i+j}
            out[key] = out.get(key, 0) + value
    return BettiTable.make(out)


def _taylor_betti(strand: list[int]) -> dict[int, int]:
    """beta_{i,b} by position i from the Taylor strand at b: the generator
    subsets (bitmasks) with lcm b, a subset of i+1 generators at position i.
    Tensored with K, the differential keeps a face only when it lies in the
    strand too (dropping the generator leaves the lcm at b); otherwise its
    coefficient is a non-unit monomial."""
    return {size - 1: h for size, h in _homology(strand).items()}


def _koszul_betti(exps, b: tuple[int, ...]) -> dict[int, int]:
    """beta_{i,b} by position i as dim H~_{i-1}(K^b(I)), from the faces of
    the upper Koszul simplicial complex (bitmasks over supp b); a face of i
    vertices sits at position i, the empty face at position 0."""
    support = [v for v, e in enumerate(b) if e]
    # x^(b - tau) is in I iff a generator g dividing x^b has g_v < b_v for
    # every v in tau, so the facets are those sets of v, one per such g
    facets = {sum(1 << k for k, v in enumerate(support) if g[v] < b[v])
              for g in exps if all(e <= f for e, f in zip(g, b))}
    faces = [tau for tau in range(1 << len(support))
             if any(not tau & ~facet for facet in facets)]
    return _homology(faces)


def _homology(cells: list[int]) -> dict[int, int]:
    """Homology dimension by cell size of the chain complex on the given
    cells (bitmasks), whose differential sends a cell to the signed sum of
    those of its codimension-one faces that are cells too."""
    by_size: dict[int, list[int]] = {}
    for cell in cells:
        by_size.setdefault(cell.bit_count(), []).append(cell)
    rank = {size: _boundary_rank(layer, set(by_size.get(size - 1, ())))
            for size, layer in by_size.items()}
    return {size: len(layer) - rank[size] - rank.get(size + 1, 0)
            for size, layer in by_size.items()}


def _boundary_rank(cells: list[int], faces: set[int]) -> int:
    """Rank over Q of the boundary map from cells to faces, in integer
    rows: dropping the element at position pos of a cell has sign
    (-1)^pos, and only results that are faces count."""
    columns: dict[int, int] = {}
    sparse = []
    for cell in cells:
        entries = {}
        rest, pos = cell, 0
        while rest:
            bit = rest & -rest
            face = cell ^ bit
            if face in faces:
                entries[columns.setdefault(face, len(columns))] = \
                    1 if pos % 2 == 0 else -1
            rest ^= bit
            pos += 1
        if entries:
            sparse.append(entries)
    if not sparse:
        return 0
    rows = [[row.get(c, 0) for c in range(len(columns))]
            for row in sparse]
    _red, piv = rref_exact(rows)
    return len(piv)


# -- the alpha map ------------------------------------------------------


def alpha_monomial(u: PolyMonomial) -> PolyMonomial:
    """x_{i1} x_{i2} ... x_{ik} -> x_{i1} x_{i2+1} ... x_{ik+k-1}."""
    idx = []
    for i, e in enumerate(u.exponents, start=1):
        idx.extend([i] * e)
    shifted = [i + t for t, i in enumerate(idx)]
    if shifted and shifted[-1] > u.n:
        raise InvalidInputError(f"alpha({u}) leaves the variable range 1..{u.n}")
    return squarefree_poly(shifted, u.n)


def alpha(ideal: MonomialIdeal) -> MonomialIdeal:
    ok, witness = is_strongly_stable(ideal)
    if not ok:
        raise InvalidInputError(f"alpha requires a strongly stable ideal; "
                                f"generator {witness[0]} misses {witness[1]}")
    return MonomialIdeal.make(POLY, ideal.n,
                              [alpha_monomial(g) for g in ideal.generators])


# -- regularity ---------------------------------------------------------


def regularity_from_gin(ideal: MonomialIdeal, seed: int = 0, trials: int = 3,
                        field=GFP) -> int:
    """Top generator degree of the certified RevLex gin (for exterior input
    this equals the regularity of the squarefree polynomial image)."""
    g, _cert, _cap = gin_adaptive(REVLEX, ideal, trials=trials, seed=seed,
                                  field=field)
    return g.max_generator_degree


# -- closed-form shifted-graph profiles --------------------------------


def bipartite_profile(a: int, b: int) -> list[int]:
    """max_{>= n+1-k} of the shifted complete bipartite graph, k = 1..n."""
    if a > b:
        a, b = b, a
    n = a + b
    return [k * n - k * k if k <= a else a * b for k in range(1, n + 1)]


def two_cliques_profile(a: int, b: int) -> list[int]:
    """min_{>= n+1-k} of the shifted disjoint union of two cliques, k = 1..n."""
    if a > b:
        a, b = b, a
    n = a + b
    f1 = comb(a, 2) + comb(b, 2)
    return [comb(k, 2) if k <= b else f1 - comb(n - k, 2)
            for k in range(1, n + 1)]


def h_values(a: int, b: int) -> list[int]:
    """Stratum counts h_k of the shifted two-clique graph, k = 1..n."""
    if a > b:
        a, b = b, a
    n = a + b
    out = []
    for k in range(1, n + 1):
        if k <= a:
            out.append((a - k) + (b - k))
        elif k <= b:
            out.append(b - k)
        else:
            out.append(0)
    return out


def two_cliques_profile_from_h(a: int, b: int) -> list[int]:
    """Independent derivation of two_cliques_profile by the stratum sum."""
    h = h_values(a, b)
    n = len(h)
    return [sum(min(k - l, h[l - 1]) for l in range(1, k))
            for k in range(1, n + 1)]


def closed_form_profiles(a: int, b: int) -> tuple[list[int], list[int]]:
    return bipartite_profile(a, b), two_cliques_profile(a, b)


# -- shifted graphs ---------------------------------------------------


def shifted_graph_edges(g: Graph, order: TermOrder, seed: int = 0,
                        field=GFP) -> set[tuple[int, int]]:
    """Edge set of the shifted complex of g viewed as a 1-dim complex."""
    gamma = SimplicialComplex.make(g.n, g.edges)
    delta = shifted_complex(order, gamma, seed=seed, field=field)
    return {tuple(f) for f in delta.faces_of_size(2)}


# -- hyperplane rank oracle --------------------------------------------


def hyperplane_rank_profile(monomials, n: int,
                            phi: CoordinateChange) -> list[int]:
    """For k = 1..n, the dim span of the width-(n+1-k) hyperplane
    restriction vectors over the degree-2 monomials *not* in W: pair {i,j}
    maps to the exterior (a_{tj} e_i - a_{ti} e_j) for t = 1..width.
    Matches |{u not in gin(W) : max(u) >= k}| for generic phi.

    Columns are ordered t-major, so the width-w matrix is the first w*n
    columns of the width-n one. The pivots of a reduced echelon form are
    the greedy column basis, so its rank is the number of pivots of the
    width-n matrix below w*n, and one elimination serves every width."""
    f = phi.field
    supports = {tuple(sorted(u.support)) for u in monomials}
    rows = []
    for i, j in combinations(range(1, n + 1), 2):
        if (i, j) in supports:
            continue
        row = [f.zero] * (n * n)
        for t in range(n):
            row[t * n + (i - 1)] = phi.matrix[t][j - 1]
            row[t * n + (j - 1)] = f(-phi.matrix[t][i - 1])
        rows.append(row)
    _, pivots = rref(rows, f)
    return [sum(1 for c in pivots if c < (n + 1 - k) * n)
            for k in range(1, n + 1)]
