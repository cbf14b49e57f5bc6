"""Monomial ideals with canonical minimal generators and exact degree
components, in either ring. A degree component is a set of entries of the
degree's ``basis_table``: no monomial is built for it.

Generators are stored sorted by (degree, lex-descending) so that equal ideals
serialize identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, attrgetter

from .families import (MAX_FAMILY_VARIABLES, family_of, is_stable_family,
                       minimal_family, support_mask, up_closure)
from .fields import InvalidInputError
from .monomials import (EXT, POLY, ExtMonomial, Monomial, basis_index,
                        basis_table, ext_monomial, parse_monomial)
from .orders import LEX


def _canonical_sort(gens) -> tuple:
    """By degree, then lex-descending within a degree."""
    return tuple(sorted(sorted(gens, key=LEX.key, reverse=True),
                        key=attrgetter("degree")))


def minimalize(gens) -> tuple:
    """Drop generators divisible by another generator."""
    minimal: list = []
    for g in sorted(set(gens), key=attrgetter("degree")):
        if not any(h.divides(g) for h in minimal):
            minimal.append(g)
    return _canonical_sort(minimal)


def _living_in(ring: str, n: int, gens) -> tuple:
    """The generators as a tuple, each checked to live in (ring, n)."""
    gens = tuple(gens)
    for g in gens:
        if g.ring != ring or g.n != n:
            raise InvalidInputError(f"generator {g} does not live in ({ring}, n={n})")
    return gens


@dataclass(frozen=True)
class MonomialIdeal:
    ring: str
    n: int
    generators: tuple[Monomial, ...]

    @classmethod
    def make(cls, ring: str, n: int, gens) -> "MonomialIdeal":
        """The ideal of the generators, which must live in (ring, n), by its
        minimal generators: read off the subset family of exterior
        generators on up to ``MAX_FAMILY_VARIABLES`` variables (the bound
        of every family), by divisibility otherwise."""
        gens = _living_in(ring, n, gens)
        if ring != EXT or n > MAX_FAMILY_VARIABLES:
            return cls(ring, n, minimalize(gens))
        minimal = minimal_family(family_of(u.support for u in gens), n)
        return cls(ring, n, _canonical_sort(
            u for u in set(gens) if minimal >> support_mask(u.support) & 1))

    @property
    def max_generator_degree(self) -> int:
        return max((g.degree for g in self.generators), default=0)

    def contains(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.generators)

    def degree_component(self, d: int) -> set[Monomial]:
        """All degree-d monomials divisible by some generator, as entries of
        ``basis_table(ring, n, d)``: in the exterior ring the entries whose
        support bitmask m covers a generator's mask h (h & m == h), in the
        polynomial ring each multiple g * m found in the table by its
        exponent vector."""
        if d < 0:
            raise InvalidInputError(f"degree {d} out of range")
        table = basis_table(self.ring, self.n, d)
        if self.ring == EXT:
            masks = [support_mask(g.support) for g in self.generators]
            return {u for u, m in zip(table, (support_mask(u.support)
                                              for u in table))
                    if any(h & m == h for h in masks)}
        index = basis_index(POLY, self.n, d)
        return {table[index[tuple(map(add, g.exponents, m.exponents))]]
                for g in self.generators if g.degree <= d
                for m in basis_table(POLY, self.n, d - g.degree)}

    def hilbert(self, max_degree: int) -> list[int]:
        return [len(self.degree_component(d)) for d in range(max_degree + 1)]

    def __le__(self, other: "MonomialIdeal") -> bool:
        return all(other.contains(g) for g in self.generators)

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def _exchanges(u: Monomial, squarefree: bool):
    """All monomials obtained by replacing an index q of u by a smaller p:
    the x_q -> x_p rule in R, and with ``squarefree`` (always in the
    exterior ring) only for p outside the support of u."""
    ext = isinstance(u, ExtMonomial)
    s = set(u.support) if ext or squarefree else set()
    for q in u.support:
        for p in range(1, q):
            if p not in s:
                yield (ext_monomial((s - {q}) | {p}, u.n) if ext
                       else u.div_var(q).times_var(p))


def is_strongly_stable(ideal: MonomialIdeal, squarefree: bool = False):
    """(flag, witness): closure of every generator under index-decreasing
    exchanges; checking generators suffices for monomial ideals.

    ``squarefree=True`` applies the squarefree exchange rule to polynomial
    ideals (images of exterior ideals); exterior ideals are always squarefree.
    Every squarefree case on up to ``MAX_FAMILY_VARIABLES`` variables, an
    exterior ideal or a polynomial one under ``squarefree=True`` whose
    generators are all squarefree, is checked as the upward closure of its
    generator family by ``is_stable_family``: a squarefree monomial lies in
    such an ideal exactly when its support contains a generator's. The
    generator scan then only names the witness of a failure; past the
    bound, or with a non-squarefree generator, it decides.

    Under the plain rule a polynomial ideal is strongly stable once each
    generator g has x_{q-1} g / x_q in it for each x_q dividing g: for
    m = g w with x_q dividing w, x_{q-1} m / x_q = g (x_{q-1} w / x_q),
    so every monomial of the ideal has its adjacent exchanges, and chaining
    q -> q-1 -> ... -> p gives every exchange. Only a candidate failing
    that gate is scanned in full, for its witness.
    """
    n, gens = ideal.n, ideal.generators
    squarefree_gens = ideal.ring == EXT or squarefree and all(
        g.is_squarefree() for g in gens)
    if squarefree_gens and n <= MAX_FAMILY_VARIABLES and is_stable_family(
            up_closure(family_of(g.support for g in gens), n), n):
        return True, None
    if ideal.ring == POLY and not squarefree and all(
            ideal.contains(g.div_var(q).times_var(q - 1))
            for g in gens for q in g.support if q > 1):
        return True, None
    return _exchange_scan(ideal, squarefree)


def _exchange_scan(ideal: MonomialIdeal, squarefree: bool):
    """The first (generator, exchange) pair whose exchange is missing from
    the ideal, or (True, None)."""
    for g in ideal.generators:
        for v in _exchanges(g, squarefree):
            if not ideal.contains(v):
                return False, (g, v)
    return True, None


def stable_closure(gens, ring: str, n: int) -> MonomialIdeal:
    """Smallest strongly stable ideal containing the generators."""
    todo = list(gens)
    seen = set(gens)
    while todo:
        u = todo.pop()
        for v in _exchanges(u, False):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return MonomialIdeal.make(ring, n, seen)


def write_ideal(ideal: MonomialIdeal) -> str:
    lines = [f"ring={ideal.ring} n={ideal.n}"]
    lines += [str(g) for g in ideal.generators]
    return "\n".join(lines) + "\n"


def read_ideal(text: str) -> MonomialIdeal:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise InvalidInputError("empty ideal file")
    header = lines[0].split()
    try:
        ring = dict(kv.split("=") for kv in header)["ring"]
        n = int(dict(kv.split("=") for kv in header)["n"])
    except (KeyError, ValueError) as exc:
        raise InvalidInputError(f"bad ideal header {lines[0]!r}") from exc
    if ring not in (EXT, POLY):
        raise InvalidInputError(f"bad ring {ring!r}")
    if n < 0:
        raise InvalidInputError(f"ideal header has negative n={n}")
    gens = [parse_monomial(ln, ring, n) for ln in lines[1:]]
    return MonomialIdeal.make(ring, n, gens)
