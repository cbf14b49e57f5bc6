"""Simplicial complexes as face families (the subset bitsets of
``families.py``), the ideals attached to graphs and complexes, and
algebraic shifting (the shifted complex of a certified exterior gin).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations

from .changes import SizeLimitError
from .families import (down_closure, family_of, family_supports,
                       maximal_family, minimal_family, support_mask,
                       up_closure)
from .fields import GFP, InvalidInputError
from .gin import gin
from .graphs import Graph
from .ideals import MonomialIdeal, is_strongly_stable
from .monomials import EXT, POLY, ext_monomial, squarefree_poly
from .orders import TermOrder

@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed face family on [1, n]: bit S of ``family`` is set
    when the support with bitmask S is a face; the empty face is always
    present. ``make`` adds every singleton; ``complex_from_ideal`` of an
    ideal that contains a variable x_i leaves out the vertex i.
    """

    n: int
    family: int = field(repr=False)

    @classmethod
    def make(cls, n: int, faces) -> "SimplicialComplex":
        """The down-closure of the faces, with the empty face and every
        singleton; past ``MAX_COMPLEX_VERTICES`` refused first."""
        points = _sized(n, 0, 1)
        faces = [tuple(sorted(set(f))) for f in faces]
        for f in faces:
            if f and not (1 <= f[0] and f[-1] <= n):
                raise InvalidInputError(f"face {f} out of range 1..{n}")
        return cls(n, points | down_closure(family_of(faces), n))

    @cached_property
    def faces(self) -> frozenset[tuple[int, ...]]:
        """The faces as sorted tuples, a read-only view of the family."""
        return frozenset(family_supports(self.family, self.n))

    @property
    def dimension(self) -> int:
        return len(self.f_vector()) - 2

    def has_face(self, s) -> bool:
        s = tuple(sorted(s))
        return (len(set(s)) == len(s) and all(1 <= i <= self.n for i in s)
                and bool(self.family >> support_mask(s) & 1))

    def faces_of_size(self, k: int) -> set[tuple[int, ...]]:
        return set(family_supports(self.family & _sized(self.n, k, k), self.n))

    def f_vector(self) -> list[int]:
        """(f_{-1}, f_0, f_1, ...): face counts by dimension, each the bit
        count of the faces of one size."""
        counts = [(self.family & _sized(self.n, k, k)).bit_count()
                  for k in range(self.n + 1)]
        return counts[:max(k for k, c in enumerate(counts) if c) + 1]

    def facets(self) -> list[tuple[int, ...]]:
        return sorted(family_supports(maximal_family(self.family, self.n),
                                      self.n))

    def skeleton(self, k: int) -> "SimplicialComplex":
        """All faces of dimension <= k."""
        return SimplicialComplex(self.n, self.family & _sized(self.n, 0, k + 1))

    def graph(self) -> Graph:
        """The 1-skeleton as a graph."""
        return Graph.make(self.n, self.faces_of_size(2))

    def __str__(self) -> str:
        return f"Complex(n={self.n}, facets={self.facets()})"


#: a family of [n] is a 2**n-bit int: 128 KB at 20 vertices, 128 MB at 30
MAX_COMPLEX_VERTICES = 20


def _check_vertices(n: int) -> None:
    if n > MAX_COMPLEX_VERTICES:
        raise SizeLimitError(f"complexes on n={n} > {MAX_COMPLEX_VERTICES} "
                             f"vertices refused")


@lru_cache(maxsize=None)
def _sized(n: int, low: int, high: int) -> int:
    """The family of every support of [n] with low to high elements: those
    of [n - 1], then those of [n - 1] one smaller with n added. Past
    ``MAX_COMPLEX_VERTICES`` refused before any family is built. The
    bounds are clamped to [0, n], so the recursion reaches finitely many
    keys."""
    _check_vertices(n)
    low, high = max(low, 0), min(high, n)
    if n <= 0:
        return int(low <= 0 <= high)
    return _sized(n - 1, low, high) | _sized(n - 1, low - 1, high - 1) << (
        1 << (n - 1))


def _avoiding(supports, n: int) -> SimplicialComplex:
    """The complex of every support of [n] containing none of the given
    supports, the empty face always kept: the complement of their family's
    up-closure among the 2**n supports."""
    # first, so that a refusal comes before any family is built
    everything = _sized(n, 0, n)
    return SimplicialComplex(
        n, (everything & ~up_closure(family_of(supports), n)) | 1)


def flag_complex(g: Graph) -> SimplicialComplex:
    """Faces are exactly the cliques of g: the supports containing no
    non-edge."""
    return _avoiding((e for e in combinations(range(1, g.n + 1), 2)
                      if not g.has_edge(*e)), g.n)


def cone(gamma: SimplicialComplex) -> SimplicialComplex:
    """Cone with apex n+1: faces S and S + {n+1} for every face S, the
    family and its copy shifted past the 2**n supports of [n]."""
    _check_vertices(gamma.n + 1)
    return SimplicialComplex(gamma.n + 1,
                             gamma.family | gamma.family << (1 << gamma.n))


# -- ideals from combinatorics -----------------------------------------


def face_ideal(gamma: SimplicialComplex, ring: str = EXT) -> MonomialIdeal:
    """Exterior face ideal / Stanley-Reisner ideal: generated by the
    minimal non-faces."""
    n = gamma.n
    minimal = minimal_family(_sized(n, 0, n) & ~gamma.family, n)
    monomial = ext_monomial if ring == EXT else squarefree_poly
    return MonomialIdeal.make(ring, n, [monomial(s, n)
                                        for s in family_supports(minimal, n)])


def edge_ideal(g: Graph) -> MonomialIdeal:
    """I(G): generated by x_i x_j over the edges of g."""
    return MonomialIdeal.make(POLY, g.n,
                              [squarefree_poly(e, g.n) for e in g.edges])


def combinatorial_ideal(source, ring: str) -> MonomialIdeal:
    """Graph + polynomial ring -> edge ideal; otherwise the face ideal of the
    complex (a bare graph is read as a 1-dimensional complex)."""
    if isinstance(source, Graph):
        if ring == POLY:
            return edge_ideal(source)
        source = SimplicialComplex.make(source.n, source.edges)
    if ring not in (EXT, POLY):
        raise InvalidInputError(f"bad ring {ring!r}")
    return face_ideal(source, ring)


def complex_from_ideal(ideal: MonomialIdeal) -> SimplicialComplex:
    """Complex whose non-faces are exactly the (squarefree) members of the
    ideal, the empty face always kept; inverse of face_ideal. Only the
    squarefree generators divide a squarefree monomial."""
    return _avoiding((g.support for g in ideal.generators
                      if len(g.support) == g.degree), ideal.n)


# -- algebraic shifting -------------------------------------------------


def shifted_complex(order: TermOrder, gamma: SimplicialComplex, seed: int = 0,
                    trials: int = 3, field=GFP) -> SimplicialComplex:
    """The complex whose face ideal is the certified gin of J_gamma.

    Convention: non-faces form a strongly stable ideal, so faces are closed
    under exchanges that increase an index.  (The mirrored convention, with
    faces closed under decreasing exchanges, also appears in the literature.)
    """
    j = face_ideal(gamma, EXT)
    if is_strongly_stable(j)[0]:
        return gamma
    g, _cert = gin(order, j, trials=trials, seed=seed, field=field)
    return complex_from_ideal(g)


# -- serialization -----------------------------------------------------


def write_complex(gamma: SimplicialComplex) -> str:
    return json.dumps({"n": gamma.n, "facets": [list(f) for f in gamma.facets()]})


def read_complex(text: str) -> SimplicialComplex:
    """A complex from JSON ``{"n": <int>, "facets": [[i, ...], ...]}``."""
    try:
        data = json.loads(text)
        n = int(data["n"])
        facets = [tuple(map(int, f)) for f in data["facets"]]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(
            'complex JSON needs "n" and a list of "facets"') from exc
    if n < 0:
        raise InvalidInputError(f"complex file has negative n={n}")
    return SimplicialComplex.make(n, facets)
