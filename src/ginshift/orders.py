"""Term orders on monomials: lex, revlex, weight-with-tiebreak, and inverses.

An order is defined by its sort key alone: within a fixed degree it ranks u
above v exactly when key(u) > key(v), a strict total order; across degrees
the degree always dominates (higher degree compares greater).  The inverse
order negates the key, so it flips the within-degree comparison only.

A key reads the exponent vector in both rings: in the exterior ring the 0/1
indicator of the support, whose lex, revlex and weight comparisons within a
degree are those of the supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul, neg

from .fields import InvalidInputError
from .monomials import Monomial, basis_index, basis_table

LESS, EQUAL, GREATER = -1, 0, 1


# Sort keys: within a degree, u ranks above v exactly when its key is the
# larger tuple. The keys are the only definition of the orders.


def _revlex_key(u: Monomial) -> tuple:
    return tuple(map(neg, reversed(u.exponents)))


class TermOrder:
    """Base class; subclasses implement the within-degree sort key."""

    def key(self, u: Monomial) -> tuple:
        """Within one degree, u > v exactly when key(u) > key(v)."""
        raise NotImplementedError

    def compare(self, u: Monomial, v: Monomial) -> int:
        """GREATER, EQUAL or LESS: by degree, then by ``key``."""
        if u.ring != v.ring or u.n != v.n:
            raise InvalidInputError("monomials from different rings compared")
        a, b = (u.degree, self.key(u)), (v.degree, self.key(v))
        return (a > b) - (a < b)

    def sort_descending(self, monomials) -> list:
        """The monomials from greatest to least: by degree, then by ``key``."""
        monomials = list(monomials)
        if len({(u.ring, u.n) for u in monomials}) > 1:
            raise InvalidInputError("monomials from different rings compared")
        key = self.key
        return sorted(monomials, key=lambda u: (u.degree, key(u)),
                      reverse=True)

    def ranking(self, ring: str, n: int, d: int) -> tuple[int, ...]:
        """Positions in ``basis_table(ring, n, d)`` in descending order,
        sorted once per (order, ring, n, d) by ``sort_descending``."""
        return _ranking(self, ring, n, d)


@dataclass(frozen=True)
class Lex(TermOrder):
    def key(self, u):
        return u.exponents

    def __str__(self):
        return "lex"


@dataclass(frozen=True)
class RevLex(TermOrder):
    def key(self, u):
        return _revlex_key(u)

    def __str__(self):
        return "revlex"


@dataclass(frozen=True)
class WeightOrder(TermOrder):
    """Weight comparison completed by a lex or revlex tie-break.

    Integer weights produce ties (10+9+2 = 10+8+3 for (10,9,8,3,2,1)), so a
    completion is mandatory for a genuine total order.
    """

    weights: tuple[int, ...]
    tiebreak: str = "lex"  # "lex" | "revlex"

    def key(self, u):
        if len(self.weights) != u.n:
            raise InvalidInputError(
                f"{len(self.weights)} weights for {u.n} variables")
        tiebreak = u.exponents if self.tiebreak == "lex" else _revlex_key(u)
        return (sum(map(mul, self.weights, u.exponents)),) + tiebreak

    def __str__(self):
        return f"weight:{','.join(map(str, self.weights))}:{self.tiebreak}"


@dataclass(frozen=True)
class Inverse(TermOrder):
    """The order sigma^{-1}: degree still dominates, within-degree flipped."""

    inner: TermOrder

    def key(self, u):
        return tuple([-x for x in self.inner.key(u)])

    def __str__(self):
        return f"inv:{self.inner}"


#: sweeps draw fresh weight orders per class, so old rankings are dropped
@lru_cache(maxsize=256)
def _ranking(order: TermOrder, ring: str, n: int, d: int) -> tuple[int, ...]:
    index = basis_index(ring, n, d)
    return tuple(index[m.exponents]
                 for m in order.sort_descending(basis_table(ring, n, d)))


LEX = Lex()
REVLEX = RevLex()


def parse_order(spec: str, n: int) -> TermOrder:
    """Parse "lex", "revlex", "weight:<w1,...,wn>:<lex|revlex>", "inv:<order>"."""
    if spec == "lex":
        return LEX
    if spec == "revlex":
        return REVLEX
    if spec.startswith("inv:"):
        return Inverse(parse_order(spec[4:], n))
    if spec.startswith("weight:"):
        parts = spec.split(":")
        if len(parts) != 3 or parts[2] not in ("lex", "revlex"):
            raise InvalidInputError(f"bad weight order spec {spec!r}")
        weights = tuple(int(w) for w in parts[1].split(","))
        if len(weights) != n:
            raise InvalidInputError(f"expected {n} weights in {spec!r}")
        return WeightOrder(weights, parts[2])
    raise InvalidInputError(f"unknown term order {spec!r}")
