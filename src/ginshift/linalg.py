"""Deterministic reduced row echelon form over exact fields, and subspaces
of one degree component presented by coefficient rows against an ordered
monomial basis.

Pivot columns only depend on the row space and the column order, so every
initial-space computation downstream is reproducible bit for bit. Over a
prime field below 2**31 (``fields.fits_int64``) the rows of a ``Subspace``
are one int64 array, over other fields lists of field elements. A term
order enters as a ranking of the columns (``Subspace.leading_columns``),
and rankings under which a kept echelon basis still fits share its
elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .fields import fits_int64
from .monomials import Monomial


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
    """RREF over an arbitrary exact field (python lists; used for Q, and
    for prime fields too large for int64)."""
    if field.characteristic == 0:
        return _rref_rational(rows)
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


def _rref_rational(rows) -> tuple[list[list], list[int]]:
    """RREF over Q by Gauss-Jordan on python ints: each row is scaled to
    integers, eliminated as pivot * row - entry * pivot_row and divided by
    its content, and only the returned rows become ``Fraction``s."""
    a = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        a.append([x.numerator * (scale // x.denominator) for x in row])
    m = len(a)
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        i = next((k for k in range(r, m) if a[k][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        pivot_row = a[r]
        piv = pivot_row[c]
        for k in range(m):
            f = a[k][c]
            if k != r and f:
                row = [piv * x - f * y for x, y in zip(a[k], pivot_row)]
                content = gcd(*row)
                a[k] = [x // content for x in row] if content > 1 else row
        pivots.append(c)
        r += 1
    return [[Fraction(x, row[c]) for x in row]
            for row, c in zip(a, pivots)], pivots


def rref(rows, field) -> tuple[list[list], list[int]]:
    """RREF as lists; ``rows`` may be an int64 array."""
    if fits_int64(field) and len(rows):
        red, piv = rref_prime(np.asarray(rows, dtype=np.int64), field.p)
        return red.tolist(), piv
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    return rref_exact(rows, field)


@dataclass(eq=False)
class Subspace:
    """A subspace of one degree component, stored against an ordered basis.

    ``columns`` is the monomial basis in a fixed order; ``rows`` are
    coefficient rows of spanning elements, an int64 array when
    ``fits_int64(field)`` and lists otherwise (so subspaces compare by
    identity). A term order enters only as a ranking of the columns.
    """

    columns: list[Monomial]
    rows: object
    field: object
    _echelons: list = dc_field(default_factory=list, repr=False)

    @classmethod
    def from_vectors(cls, vectors, columns, field) -> "Subspace":
        """Build from dict-vectors (monomial -> coefficient) against the
        basis ``columns``, which must hold every monomial of their
        supports."""
        index = {m: j for j, m in enumerate(columns)}
        rows = []
        for v in vectors:
            row = [field.zero] * len(columns)
            for m, c in v.items():
                row[index[m]] = c
            rows.append(row)
        if fits_int64(field):
            rows = np.array(rows, dtype=np.int64).reshape(len(rows),
                                                          len(columns))
        return cls(list(columns), rows, field)

    def leading_columns(self, ranking) -> list[int]:
        """Positions of the leading columns of the span when the columns are
        taken in the order ``ranking`` (a permutation of their positions):
        the pivots of ``rows[:, ranking]``, mapped back, in ranking order.

        The reduced basis with the identity on a given column set is
        unique, so an echelon basis kept from an earlier ranking whose rows
        each still lead at their own pivot is the answer again, and no
        elimination is needed.
        """
        ranking = np.asarray(ranking, dtype=np.intp)
        last = len(ranking)
        pos = np.empty_like(ranking)
        pos[ranking] = np.arange(last)
        for piv, support in self._echelons:
            lead = np.where(support, pos, last).min(axis=1, initial=last)
            if np.array_equal(lead, pos[piv]):
                return piv[np.argsort(lead)].tolist()
        if fits_int64(self.field):
            red, piv = rref_prime(self.rows[:, ranking], self.field.p)
            ranked_support = red != 0
        else:
            red, piv = rref_exact([[row[j] for j in ranking]
                                   for row in self.rows], self.field)
            ranked_support = np.array(
                [[x != self.field.zero for x in row] for row in red],
                dtype=bool).reshape(len(piv), len(ranking))
        support = np.empty_like(ranked_support)
        support[:, ranking] = ranked_support
        self._echelons.append((ranking[piv], support))
        return ranking[piv].tolist()


def vector_rank(vectors: list[list], field) -> int:
    """Rank of raw coefficient vectors (no monomial labels)."""
    if not vectors:
        return 0
    _, piv = rref(vectors, field)
    return len(piv)
