"""Deterministic reduced row echelon form over exact fields, and subspaces
of one degree component presented by coefficient rows against an ordered
monomial basis.

Pivot columns only depend on the row space and the column order, so every
initial-space computation downstream is reproducible bit for bit. Rows
are one numpy array for every field, of dtype ``fields.row_dtype``: int64
over a prime below 2**31, python objects otherwise (ints for larger primes,
``Fraction``s over Q). Every prime field is eliminated by ``rref_prime``
and Q by ``rref_exact``. A term order enters as a ranking of the columns
(``Subspace.leading_columns``), and rankings under which a kept echelon
basis still fits share its elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .fields import row_dtype
from .monomials import Monomial


def rref_prime(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF mod p of an int64 array (p < 2**31, so products fit) or of an
    object array of python ints (any p)."""
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


def rref_exact(rows) -> tuple[list[list], list[int]]:
    """RREF over Q as lists of ``Fraction``s; ``rows`` may hold ints or
    ``Fraction``s. Gauss-Jordan on python ints: each row is scaled to
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


def rref(rows, field) -> tuple[np.ndarray, list[int]]:
    """RREF of two-dimensional coefficient rows as an array of the field's
    row dtype (``fields.row_dtype``), the one dispatch on the field:
    every prime field runs ``rref_prime``, so no result over GF(p) is
    computed over Q, and Q runs ``rref_exact``."""
    a = np.asarray(rows, dtype=row_dtype(field))
    if field.characteristic:
        return rref_prime(a, field.characteristic)
    red, piv = rref_exact(a.tolist())
    return np.array(red, dtype=object).reshape(len(piv), a.shape[1]), piv


@dataclass(eq=False)
class Subspace:
    """A subspace of one degree component, stored against an ordered basis.

    ``columns`` is the monomial basis in a fixed order; ``rows`` are
    coefficient rows of spanning elements, one array of dtype
    ``row_dtype(field)`` (so subspaces compare by identity). A term order
    enters only as a ranking of the columns.
    """

    columns: list[Monomial]
    rows: np.ndarray
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
        rows = np.array(rows, dtype=row_dtype(field)).reshape(len(rows),
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
        red, piv = rref(self.rows[:, ranking], self.field)
        ranked_support = red != 0
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
