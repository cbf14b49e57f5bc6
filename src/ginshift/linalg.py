"""Deterministic reduced row echelon form over exact fields, and graded
subspaces presented by coefficient rows against an ordered monomial basis.

Pivot columns only depend on the row space and the column order, so every
initial-space computation downstream is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import PrimeField
from .monomials import Monomial
from .orders import TermOrder


def rref_prime(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF of an int64 matrix mod p (p < 2**31 so products fit in int64)."""
    a = np.mod(mat, p)
    m, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a[: len(pivots)], pivots


def rref_exact(rows: list[list], field) -> tuple[list[list], list[int]]:
    """RREF over an arbitrary exact field (python lists; used for Q)."""
    a = [list(row) for row in rows]
    m = len(a)
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        i = next((k for k in range(r, m) if a[k][c] != field.zero), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(x, inv) for x in a[r]]
        for k in range(m):
            if k != r and a[k][c] != field.zero:
                f = a[k][c]
                a[k] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[k], a[r])]
        pivots.append(c)
        r += 1
    return a[: len(pivots)], pivots


def rref(rows: list[list], field) -> tuple[list[list], list[int]]:
    if isinstance(field, PrimeField) and rows:
        mat = np.array(rows, dtype=np.int64)
        red, piv = rref_prime(mat, field.p)
        return red.tolist(), piv
    return rref_exact(rows, field)


@dataclass
class Subspace:
    """A subspace of the degree-d component, stored against an ordered basis.

    ``columns`` is the monomial basis in descending order of the attached
    term order; ``rows`` are coefficient rows of spanning elements.
    """

    ring: str
    n: int
    degree: int
    columns: list[Monomial]
    rows: list[list]
    field: object
    order: TermOrder | None = None
    _reduced: tuple | None = dc_field(default=None, repr=False)

    @classmethod
    def from_vectors(cls, vectors, order: TermOrder, field, ring: str, n: int,
                     degree: int, columns=None) -> "Subspace":
        """Build from dict-vectors (monomial -> coefficient).

        Columns default to the union of supports; all-zero columns can never
        be pivots, so this loses nothing and keeps matrices small.
        """
        if columns is None:
            seen = set()
            for v in vectors:
                seen.update(v)
            columns = order.sort_descending(seen)
        index = {m: j for j, m in enumerate(columns)}
        rows = []
        for v in vectors:
            row = [field.zero] * len(columns)
            for m, c in v.items():
                row[index[m]] = c
            rows.append(row)
        return cls(ring, n, degree, list(columns), rows, field, order)

    def reduce(self):
        if self._reduced is None:
            self._reduced = rref(self.rows, self.field)
        return self._reduced

    @property
    def rank(self) -> int:
        return len(self.reduce()[1])

    @property
    def pivot_monomials(self) -> list[Monomial]:
        _, piv = self.reduce()
        return [self.columns[j] for j in piv]


def initial_space(order: TermOrder, space: Subspace) -> set[Monomial]:
    """Leading monomials of a subspace: exactly the pivot columns."""
    if space.order is not None and space.order != order:
        space = Subspace.from_vectors(
            [dict(zip(space.columns, r)) for r in space.rows],
            order, space.field, space.ring, space.n, space.degree)
    return set(space.pivot_monomials)


def vector_rank(vectors: list[list], field) -> int:
    """Rank of raw coefficient vectors (no monomial labels)."""
    if not vectors:
        return 0
    _, piv = rref(vectors, field)
    return len(piv)


def pivots_of_vectors(vectors, order: TermOrder, field, ring: str, n: int,
                      degree: int) -> set[Monomial]:
    """Initial monomials of dict-vectors under ``order``; empty set for no rows."""
    vectors = [v for v in vectors if v]
    if not vectors:
        return set()
    sp = Subspace.from_vectors(vectors, order, field, ring, n, degree)
    return set(sp.pivot_monomials)
