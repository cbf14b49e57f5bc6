"""Simplicial complexes, the ideals attached to graphs and complexes, and
algebraic shifting (the shifted complex of a certified exterior gin).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .changes import SizeLimitError
from .families import family_of, family_supports, minimal_family, up_closure
from .fields import GFP, InvalidInputError
from .gin import gin
from .graphs import Graph
from .ideals import MonomialIdeal, is_strongly_stable
from .monomials import EXT, POLY, ext_monomial, squarefree_poly
from .orders import TermOrder


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed face set on [1, n].

    Faces are stored as sorted tuples; the empty face is always present.
    ``make`` adds every singleton; ``complex_from_ideal`` of an ideal that
    contains a variable x_i leaves out the vertex i.
    """

    n: int
    faces: frozenset[tuple[int, ...]]

    @classmethod
    def make(cls, n: int, faces) -> "SimplicialComplex":
        closed: set[tuple[int, ...]] = {()}
        for f in faces:
            f = tuple(sorted(set(f)))
            if f and not (1 <= f[0] and f[-1] <= n):
                raise InvalidInputError(f"face {f} out of range 1..{n}")
            for k in range(len(f) + 1):
                closed.update(combinations(f, k))
        for v in range(1, n + 1):
            closed.add((v,))
        return cls(n, frozenset(closed))

    @property
    def dimension(self) -> int:
        return max(len(f) for f in self.faces) - 1

    def has_face(self, s) -> bool:
        return tuple(sorted(s)) in self.faces

    def faces_of_size(self, k: int) -> set[tuple[int, ...]]:
        return {f for f in self.faces if len(f) == k}

    def f_vector(self) -> list[int]:
        """(f_{-1}, f_0, f_1, ...): face counts by dimension."""
        out = [0] * (self.dimension + 2)
        for f in self.faces:
            out[len(f)] += 1
        return out

    def facets(self) -> list[tuple[int, ...]]:
        return sorted(f for f in self.faces
                      if not any(f != g and set(f) <= set(g) for g in self.faces))

    def skeleton(self, k: int) -> "SimplicialComplex":
        """All faces of dimension <= k."""
        return SimplicialComplex(self.n,
                                 frozenset(f for f in self.faces if len(f) <= k + 1))

    def graph(self) -> Graph:
        """The 1-skeleton as a graph."""
        return Graph.make(self.n, self.faces_of_size(2))

    def __str__(self) -> str:
        return f"Complex(n={self.n}, facets={self.facets()})"


#: a family of [n] is a 2**n-bit int: 128 KB at 20 vertices, 128 MB at 30
MAX_COMPLEX_VERTICES = 20


def _every_support(n: int) -> int:
    """The family of all 2**n supports of [n]; past
    ``MAX_COMPLEX_VERTICES`` refused before any family is built."""
    if n > MAX_COMPLEX_VERTICES:
        raise SizeLimitError(f"complexes on n={n} > {MAX_COMPLEX_VERTICES} "
                             f"vertices refused")
    return (1 << (1 << n)) - 1


def _avoiding(supports, n: int) -> SimplicialComplex:
    """The complex of every support of [n] containing none of the given
    supports, the empty face always kept: the complement of their family's
    up-closure among the 2**n supports."""
    # first, so that a refusal comes before any family is built
    everything = _every_support(n)
    faces = (everything & ~up_closure(family_of(supports), n)) | 1
    return SimplicialComplex(n, frozenset(family_supports(faces, n)))


def flag_complex(g: Graph) -> SimplicialComplex:
    """Faces are exactly the cliques of g: the supports containing no
    non-edge."""
    return _avoiding((e for e in combinations(range(1, g.n + 1), 2)
                      if not g.has_edge(*e)), g.n)


def cone(gamma: SimplicialComplex) -> SimplicialComplex:
    """Cone with apex n+1: faces S and S + {n+1} for every face S."""
    n = gamma.n + 1
    faces = set(gamma.faces) | {f + (n,) for f in gamma.faces}
    return SimplicialComplex(n, frozenset(faces))


# -- ideals from combinatorics -----------------------------------------


def face_ideal(gamma: SimplicialComplex, ring: str = EXT) -> MonomialIdeal:
    """Exterior face ideal / Stanley-Reisner ideal: generated by the
    minimal non-faces."""
    n = gamma.n
    minimal = minimal_family(_every_support(n) & ~family_of(gamma.faces), n)
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
