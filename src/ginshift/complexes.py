"""Simplicial complexes as face families (the subset bitsets of
``families.py``), the ideals attached to graphs and complexes, and
algebraic shifting (the shifted complex of a certified exterior gin).

A complex spans at most ``families.MAX_FAMILY_VARIABLES`` vertices, the
bound of every family; past it ``make``, ``cone`` and every family built
here raise ``SizeLimitError`` before any family is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .families import (check_size, down_closure, family_of, family_supports,
                       maximal_family, sized, support_mask, up_closure)
from .fields import GFP, InvalidInputError
from .gin import gin
from .graphs import Graph
from .ideals import (MonomialIdeal, family_ideal, is_strongly_stable,
                     relabel, squarefree_family)
from .monomials import EXT, POLY, squarefree_poly
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
        singleton; past ``families.MAX_FAMILY_VARIABLES`` refused first."""
        points = sized(n, 0, 1)
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
        return set(family_supports(self.family & sized(self.n, k, k), self.n))

    def f_vector(self) -> list[int]:
        """(f_{-1}, f_0, f_1, ...): face counts by dimension, each the bit
        count of the faces of one size."""
        counts = [(self.family & sized(self.n, k, k)).bit_count()
                  for k in range(self.n + 1)]
        return counts[:max(k for k, c in enumerate(counts) if c) + 1]

    def facets(self) -> list[tuple[int, ...]]:
        return sorted(family_supports(maximal_family(self.family, self.n),
                                      self.n))

    def skeleton(self, k: int) -> "SimplicialComplex":
        """All faces of dimension <= k."""
        return SimplicialComplex(self.n, self.family & sized(self.n, 0, k + 1))

    def graph(self) -> Graph:
        """The 1-skeleton as a graph."""
        return Graph.make(self.n, self.faces_of_size(2))

    def __str__(self) -> str:
        return f"Complex(n={self.n}, facets={self.facets()})"


def flag_complex(g: Graph) -> SimplicialComplex:
    """Faces are exactly the cliques of g: the supports containing no
    non-edge, the complement of the non-edges' up-closure among the 2**n
    supports."""
    n = g.n
    # first, so that a refusal comes before any family is built
    everything = sized(n, 0, n)
    non_edges = family_of(e for e in combinations(range(1, n + 1), 2)
                          if not g.has_edge(*e))
    return SimplicialComplex(n, everything & ~up_closure(non_edges, n))


def cone(gamma: SimplicialComplex) -> SimplicialComplex:
    """Cone with apex n+1: faces S and S + {n+1} for every face S, the
    family and its copy shifted past the 2**n supports of [n]."""
    check_size(gamma.n + 1)
    return SimplicialComplex(gamma.n + 1,
                             gamma.family | gamma.family << (1 << gamma.n))


# -- ideals from combinatorics -----------------------------------------


def face_ideal(gamma: SimplicialComplex, ring: str = EXT) -> MonomialIdeal:
    """Exterior face ideal / Stanley-Reisner ideal: generated by the
    minimal non-faces."""
    n = gamma.n
    return family_ideal(ring, n, sized(n, 0, n) & ~gamma.family)


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
    ideal, the empty face always kept; inverse of face_ideal."""
    n = ideal.n
    return SimplicialComplex(
        n, (sized(n, 0, n) & ~squarefree_family(ideal)) | 1)


# -- algebraic shifting -------------------------------------------------


def shifted_complex(order: TermOrder, gamma: SimplicialComplex, seed: int = 0,
                    trials: int = 3, field=GFP) -> SimplicialComplex:
    """The complex whose face ideal is the certified gin of J_gamma.

    Convention: non-faces form an ideal strongly stable in the order's
    ranking of the vertices (``ideals.relabel``). So faces are closed under
    exchanges that increase an index, or under an inverse order under those
    that decrease one: the mirrored convention, also in the literature.
    """
    j = face_ideal(gamma, EXT)
    if is_strongly_stable(relabel(j, order.ranking(EXT, j.n, 1)))[0]:
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
