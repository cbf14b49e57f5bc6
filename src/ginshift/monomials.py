"""Monomials of the exterior algebra and of the polynomial ring.

Exterior monomials are strictly increasing index tuples (1-based); polynomial
monomials are exponent tuples of length n.  Both are hashable value types
with one coordinate, the exponent vector (exterior: the support's 0/1
indicator), which term orders rank, ``divides`` compares and ``basis_index``
positions.  The monomials of a degree are enumerated once, into
``basis_table``; every other layer selects from the table or indexes into it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement
from operator import le

from .fields import InvalidInputError

EXT = "ext"
POLY = "poly"


def indicator(support, n: int) -> tuple[int, ...]:
    """The 0/1 exponent vector, of length n, of a set of 1-based indices."""
    e = [0] * n
    for i in support:
        e[i - 1] = 1
    return tuple(e)


class _ByExponents:
    """What both monomial types read the same way."""

    def min_index(self) -> int:
        return self.support[0]

    def max_index(self) -> int:
        return self.support[-1]

    def divides(self, other) -> bool:
        """Componentwise <= of exponents (exterior: support inclusion)."""
        return all(map(le, self.exponents, other.exponents))


@dataclass(frozen=True, order=True)
class ExtMonomial(_ByExponents):
    support: tuple[int, ...]
    n: int

    def __post_init__(self):
        s = self.support
        if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
            raise InvalidInputError(f"support not strictly increasing: {s}")
        if s and (s[0] < 1 or s[-1] > self.n):
            raise InvalidInputError(f"support {s} out of range 1..{self.n}")
        # the exponent vector, the support's indicator: no field, so
        # equality, hashing, order and repr ignore it; built here since
        # nearly every monomial's is read, and a first cached_property read
        # costs more than the indicator
        object.__setattr__(self, "exponents", indicator(s, self.n))

    @property
    def ring(self) -> str:
        return EXT

    @property
    def degree(self) -> int:
        return len(self.support)

    def is_squarefree(self) -> bool:
        """Always: e_i e_i = 0, so an exterior monomial has no square."""
        return True

    def __str__(self) -> str:
        return "e{" + ",".join(map(str, self.support)) + "}"


@dataclass(frozen=True, order=True)
class PolyMonomial(_ByExponents):
    exponents: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.exponents):
            raise InvalidInputError(f"negative exponent in {self.exponents}")

    @property
    def ring(self) -> str:
        return POLY

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @cached_property
    def support(self) -> tuple[int, ...]:
        """The variables dividing the monomial, built on the first read;
        not a field, so equality, hashing and order ignore it."""
        return tuple(i + 1 for i, e in enumerate(self.exponents) if e > 0)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def times_var(self, i: int) -> "PolyMonomial":
        """Multiply by x_i (1-based)."""
        e = list(self.exponents)
        e[i - 1] += 1
        return PolyMonomial(tuple(e))

    def div_var(self, i: int) -> "PolyMonomial":
        e = list(self.exponents)
        e[i - 1] -= 1
        return PolyMonomial(tuple(e))

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts) if parts else "1"


Monomial = ExtMonomial | PolyMonomial


def ext_monomial(indices, n: int) -> ExtMonomial:
    return ExtMonomial(tuple(sorted(indices)), n)


def poly_monomial(exponents) -> PolyMonomial:
    return PolyMonomial(tuple(exponents))


def squarefree_poly(indices, n: int) -> PolyMonomial:
    return PolyMonomial(indicator(indices, n))


def all_monomials(ring: str, n: int, d: int) -> list:
    """Every degree-d monomial, lex-descending: ``basis_table`` as a list."""
    return list(basis_table(ring, n, d))


@lru_cache(maxsize=256)
def basis_table(ring: str, n: int, d: int) -> tuple:
    """The degree-d monomials of (ring, n), lex-descending (the d-subsets or
    d-multisets of the variables, in order): the one basis, shared and
    immutable, against which every degree-d component is stored."""
    if ring == EXT:
        return tuple(ExtMonomial(c, n) for c in combinations(range(1, n + 1), d))
    return tuple(PolyMonomial(tuple(map(c.count, range(1, n + 1))))
                 for c in combinations_with_replacement(range(1, n + 1), d))


@lru_cache(maxsize=256)
def basis_index(ring: str, n: int, d: int) -> dict:
    """The position in ``basis_table(ring, n, d)`` of each exponent vector
    (in the exterior ring, each support's indicator), in table order."""
    return {m.exponents: j for j, m in enumerate(basis_table(ring, n, d))}


_EXT_RE = re.compile(r"^e\{([0-9,\s]*)\}$")
_POLY_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_monomial(text: str, ring: str, n: int) -> Monomial:
    """Parse "e{1,3,4}" (exterior) or "x1^2*x3" (polynomial)."""
    text = text.strip()
    if ring == EXT:
        m = _EXT_RE.match(text)
        if not m:
            raise InvalidInputError(f"bad exterior monomial {text!r}")
        body = m.group(1).strip()
        idx = [int(t) for t in body.split(",")] if body else []
        return ext_monomial(idx, n)
    if ring == POLY:
        e = [0] * n
        if text != "1":
            for factor in text.split("*"):
                fm = _POLY_FACTOR_RE.match(factor.strip())
                if not fm:
                    raise InvalidInputError(f"bad polynomial monomial {text!r}")
                i = int(fm.group(1))
                if not 1 <= i <= n:
                    raise InvalidInputError(f"variable x{i} out of range in {text!r}")
                e[i - 1] += int(fm.group(2) or 1)
        return PolyMonomial(tuple(e))
    raise InvalidInputError(f"unknown ring {ring!r}")
