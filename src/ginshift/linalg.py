"""Deterministic reduced row echelon form over exact fields, and subspaces
of one degree component presented by coefficient rows against an ordered
monomial basis.

Pivot columns only depend on the row space and the column order, so every
initial-space computation downstream is reproducible bit for bit. Rows
are one numpy array for every field, of dtype ``fields.row_dtype``: int64
over a prime below 2**31, python objects otherwise (ints for larger
primes and for a change's images over Q, ``Fraction``s only in a matrix's
entries and the reduced rows of ``rref_exact``). Every prime field is
eliminated by the one column loop of ``rref_prime`` and Q by
``rref_exact``. The k trial images of one span are stacked and
eliminated together: over GF(p) in one column loop for all k, which
raises at the first column where they part and inverts the k pivots of a
column with one modular inverse. A term order enters as a ranking of the
columns (``Subspace.leading_columns``), and rankings under which a kept
echelon basis still fits share its elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .fields import InvalidInputError, row_dtype
from .monomials import Monomial


class CertificationError(RuntimeError):
    """Trials disagreed or the candidate failed stability / Hilbert checks."""


def _inverses(xs: list[int], p: int) -> list[int]:
    """Inverses mod p of non-zero residues, with one ``pow``: Montgomery's
    batch inversion (Math. Comp. 48, 1987). The prefix products are
    inverted once, and each inverse is backed out of that inverse and the
    prefix before it."""
    prefix = [1]
    for x in xs:
        prefix.append(prefix[-1] * x % p)
    inv = pow(prefix[-1], -1, p)
    out = [0] * len(xs)
    for i in range(len(xs) - 1, -1, -1):
        out[i] = inv * prefix[i] % p
        inv = inv * xs[i] % p
    return out


def _rref_lockstep(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF mod p, in place, of a (k, rows, cols) stack of k matrices with
    reduced entries, in one column loop for all of them: int64 entries
    (p < 2**31, so products fit) or python ints (any p). The k matrices
    must share their pivot columns: a column that is a pivot for some and
    not for others raises CertificationError at once."""
    k, m, ncols = a.shape
    stack = np.arange(k)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        # a non-zero at row r in every matrix makes c a pivot of all of them
        heads = a[:, r, c].tolist()
        if 0 in heads:
            nz = a[:, r:, c] != 0
            found = nz.any(axis=1)
            if not found.any():
                continue
            if not found.all():
                raise CertificationError(
                    f"trials disagree on pivot column {c}")
            i = r + nz.argmax(axis=1)
            a[stack, r], a[stack, i] = a[stack, i], a[stack, r]
            heads = a[:, r, c].tolist()
        inv = np.array(_inverses(heads, p), dtype=a.dtype)
        # entries left of c are 0 in row r, so only columns c: change;
        # row r itself is reduced to 0 and then set to the pivot row
        rest = a[:, :, c:]
        pivot_row = rest[:, r] * inv[:, None] % p
        rest -= rest[:, :, :1] * pivot_row[:, None, :]
        rest %= p
        rest[:, r] = pivot_row
        pivots.append(c)
        r += 1
    return a[:, : len(pivots)], pivots


def rref_prime(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF mod p of an int64 array (p < 2**31, so products fit) or of an
    object array of python ints (any p): the column loop of
    ``_rref_lockstep`` on a stack of one."""
    red, pivots = _rref_lockstep(np.mod(mat, p)[None], p)
    return red[0], pivots


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
    """RREF of coefficient rows as an array of the field's row dtype
    (``fields.row_dtype``): of a (rows, cols) matrix, or of a
    (k, rows, cols) stack of k trial matrices, which must share their pivot
    columns (CertificationError otherwise). The one dispatch on the field:
    every prime field runs one column loop, a matrix through ``rref_prime``
    and a stack in lockstep, so no result over GF(p) is computed over Q;
    Q runs ``rref_exact`` matrix by matrix. No rows at all (``[]``) is a
    0 x 0 matrix, and a matrix or stack with no rows or no columns has no
    pivots."""
    a = np.asarray(rows, dtype=row_dtype(field))
    if a.ndim == 1 and not a.size:
        a = a.reshape(0, 0)
    p = field.characteristic
    if p and a.ndim == 2:
        return rref_prime(a, p)
    stack = a if a.ndim == 3 else a[None]
    if p:
        red, pivots = _rref_lockstep(np.mod(stack, p), p)
    else:
        exact = [rref_exact(trial.tolist()) for trial in stack]
        pivots = exact[0][1]
        if any(piv != pivots for _, piv in exact):
            raise CertificationError("trials disagree on pivot columns")
        red = np.array([rows for rows, _ in exact], dtype=object).reshape(
            len(stack), len(pivots), stack.shape[2])
    return red.reshape(a.shape[:-2] + red.shape[1:]), pivots


@dataclass(eq=False)
class Subspace:
    """A subspace of one degree component, stored against an ordered basis,
    or a stack of k of them spanned by as many rows each (the images of one
    span under k trials), which are eliminated in lockstep.

    ``columns`` is the monomial basis in a fixed order; ``rows`` are
    coefficient rows of spanning elements, one array of dtype
    ``row_dtype(field)`` (so subspaces compare by identity), of shape
    (rows, columns), or (k, rows, columns) for a stack. A term order enters
    only as a ranking of the columns.
    """

    columns: list[Monomial]
    rows: np.ndarray
    field: object
    _echelons: list = dc_field(default_factory=list, repr=False)

    @classmethod
    def from_vectors(cls, vectors, columns, field) -> "Subspace":
        """Build from coefficient rows against the basis ``columns``, such
        as the images of ``CoordinateChange.apply``: one row per vector,
        each of length len(columns)."""
        width = len(columns)
        for v in vectors:
            if len(v) != width:
                raise InvalidInputError(
                    f"a row of {len(v)} entries against {width} columns")
        rows = np.array(vectors, dtype=row_dtype(field)).reshape(
            len(vectors), width)
        return cls(list(columns), rows, field)

    @classmethod
    def stack(cls, spaces) -> "Subspace":
        """Subspaces of as many rows against the same columns as one stack."""
        return cls(spaces[0].columns, np.stack([s.rows for s in spaces]),
                   spaces[0].field)

    def leading_columns(self, ranking) -> list[int]:
        """Positions of the leading columns of the span when the columns are
        taken in the order ``ranking`` (a permutation of their positions):
        the pivots of ``rows[..., ranking]``, mapped back, in ranking order.
        Every subspace of a stack must have the same ones; a column leading
        for some and not for others raises CertificationError.

        The reduced basis with the identity on a given column set is
        unique, so an echelon basis kept from an earlier ranking whose rows
        each still lead at their own pivot, in every subspace, is the answer
        again, and no elimination is needed.
        """
        ranking = np.asarray(ranking, dtype=np.intp)
        last = len(ranking)
        pos = np.empty_like(ranking)
        pos[ranking] = np.arange(last)
        for piv, support in self._echelons:
            lead = pos[piv]
            if (np.where(support, pos, last).min(axis=-1, initial=last)
                    == lead).all():
                return piv[np.argsort(lead)].tolist()
        red, piv = rref(self.rows[..., ranking], self.field)
        ranked_support = red != 0
        support = np.empty_like(ranked_support)
        support[..., ranking] = ranked_support
        self._echelons.append((ranking[piv], support))
        return ranking[piv].tolist()


def vector_rank(vectors, field) -> int:
    """Rank of raw coefficient vectors (no monomial labels), given as lists
    or as an array."""
    return len(rref(vectors, field)[1])
