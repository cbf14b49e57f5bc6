"""Invertible coordinate changes and their action on degree-d components.

The image of a monomial of degree d is a coefficient row against
``basis_table(ring, n, d)``: the one image type from the action to the
trial stack of ``linalg.Subspace``, with no monomial-keyed vector between
them.  A row is one numpy array of dtype ``fields.row_dtype(field)`` over
every field: int64 over a prime below 2**31, python ints over larger
primes and ``Fraction``s over Q, and so is a degree table, each of whose
entries is reduced mod p once over GF(p).

The exterior action sends e_S to the row of d x d minors det(phi[T, S])
over the target supports T of the table.  Minors come from degree tables:
on its first read in degree d a change fills its whole exterior power, the
C(n,d) x C(n,d) array of every minor det(phi[T, S]), from the degree d - 1
table in one gathered array product, Laplace along the last column
vectorized over every (T, S) through the cached index table
``laplace_table(n, d)``.  A minor is then read from a per-column-set dict
keyed by target support, built from the table on the column set's first
read.  The polynomial action expands the product of linear forms: with x_i
the largest variable of m, row(m) = sum_k phi[k][i] * row(m / x_i)
scattered through the cached multiplication table of ``mult_table(n, d)``.
Polynomial rows are memoized per monomial, so shared prefixes are expanded
once, and ``apply`` hands out the memoized row itself, read-only.

The gin engine applies a change once to each monomial of a degree component
and stacks the image rows into one matrix that serves every term order, so
the action costs the same however many orders are certified.  A random
change drawn by the engine is shared, with its minor table and polynomial
rows, by every gin that draws the same trial set (``gin._trial_changes``),
so each minor and row is computed once per trial set, not once per ideal.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .fields import InvalidInputError, fits_int64, row_dtype
from .linalg import vector_rank
from .monomials import (EXT, POLY, ExtMonomial, Monomial, PolyMonomial,
                        basis_index, basis_table)

#: beyond this the C(n,d)^2 minor table is no longer a desk-scale object
MAX_EXT_VARIABLES = 12


@lru_cache(maxsize=256)
def mult_table(n: int, d: int) -> np.ndarray:
    """T[j, k] = position in ``basis_table(POLY, n, d)`` of the product
    basis_table(POLY, n, d - 1)[j] * x_{k+1}; read-only, d >= 1."""
    index = basis_index(POLY, n, d)
    prev = basis_table(POLY, n, d - 1)
    table = np.empty((len(prev), n), dtype=np.intp)
    for j, m in enumerate(prev):
        e = list(m.exponents)
        for k in range(n):
            e[k] += 1
            table[j, k] = index[tuple(e)]
            e[k] -= 1
    table.flags.writeable = False
    return table


@lru_cache(maxsize=256)
def laplace_table(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(drop, row) for the j-th support T of ``basis_table(EXT, n, d)`` and
    each i < d: drop[j, i] is the position in ``basis_table(EXT, n, d - 1)``
    of T without its i-th index t_i, and row[j, i] = t_i - 1, the 0-based
    row of the change that Laplace expansion pairs with it; read-only,
    d >= 1."""
    index = basis_index(EXT, n, d - 1)
    basis = basis_table(EXT, n, d)
    drop = np.empty((len(basis), d), dtype=np.intp)
    row = np.empty((len(basis), d), dtype=np.intp)
    for j, m in enumerate(basis):
        s = m.support
        for i, t in enumerate(s):
            drop[j, i] = index[s[:i] + s[i + 1:]]
            row[j, i] = t - 1
    drop.flags.writeable = row.flags.writeable = False
    return drop, row


def _is_support(s: tuple[int, ...], n: int) -> bool:
    """Whether s is strictly increasing in 1..n."""
    return all(a < b for a, b in zip((0,) + s, s + (n + 1,)))


class SingularMatrixError(ValueError):
    pass


class SizeLimitError(ValueError):
    """Raised when an operation exceeds its configured size cap (exit code 4)."""


@dataclass
class CoordinateChange:
    """An invertible n x n matrix over an exact field, acting on monomials.

    ``kind`` is a human-readable tag (identity / elementary(a,b) /
    permutation / random-dense / random-upper-triangular).
    """

    matrix: tuple[tuple, ...]
    field: object
    kind: str = "dense"
    _minors: dict = dc_field(default_factory=dict, repr=False, compare=False)
    _tables: list = dc_field(default_factory=list, repr=False, compare=False)
    _poly_cache: dict = dc_field(default_factory=dict, repr=False,
                                 compare=False)

    def __post_init__(self):
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise InvalidInputError("matrix not square")
        if vector_rank(self.matrix, self.field) != n:
            raise SingularMatrixError(f"{self.kind} matrix is singular")

    @property
    def n(self) -> int:
        return len(self.matrix)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int, field) -> "CoordinateChange":
        m = tuple(tuple(field.one if i == j else field.zero for j in range(n))
                  for i in range(n))
        return cls(m, field, "identity")

    @classmethod
    def elementary(cls, a: int, b: int, n: int, field) -> "CoordinateChange":
        """phi_{a,b}: e_b -> e_a + e_b, all other basis vectors fixed; a < b."""
        if not 1 <= a < b <= n:
            raise InvalidInputError(f"elementary pair ({a},{b}) invalid for n={n}")
        rows = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
        rows[a - 1][b - 1] = field.one
        return cls(tuple(tuple(r) for r in rows), field, f"elementary({a},{b})")

    @classmethod
    def permutation(cls, perm, field) -> "CoordinateChange":
        """perm maps source index to target index (1-based): e_i -> e_perm(i)."""
        n = len(perm)
        rows = [[field.zero] * n for _ in range(n)]
        for i, pi in enumerate(perm):
            rows[pi - 1][i] = field.one
        return cls(tuple(tuple(r) for r in rows), field, "permutation")

    @classmethod
    def random_dense(cls, n: int, field, rng) -> "CoordinateChange":
        """Uniform entries, row by row, in one draw per matrix; a singular
        draw is drawn again."""
        while True:
            x = field.random(rng, n * n)
            m = tuple(tuple(x[i * n:(i + 1) * n]) for i in range(n))
            try:
                return cls(m, field, "random-dense")
            except SingularMatrixError:
                continue

    @classmethod
    def random_upper_triangular(cls, n: int, field, rng) -> "CoordinateChange":
        """Uniform entries on and above the diagonal, row by row, in one
        draw per matrix; a singular draw is drawn again."""
        upper = list(zip(*np.triu_indices(n)))
        while True:
            rows = [[field.zero] * n for _ in range(n)]
            for (i, j), x in zip(upper, field.random(rng, len(upper))):
                rows[i][j] = x
            try:
                return cls(tuple(map(tuple, rows)), field,
                           "random-upper-triangular")
            except SingularMatrixError:
                continue

    # -- minors (exterior action) ---------------------------------------

    def minor(self, rows: tuple[int, ...], cols: tuple[int, ...]):
        """det of the submatrix with the given 1-based rows and columns:
        strictly increasing indices in 1..n, as many rows as columns."""
        try:
            return self._minors[cols][rows]
        except KeyError:
            pass
        n = self.n
        if len(rows) != len(cols) or not (_is_support(rows, n)
                                          and _is_support(cols, n)):
            raise InvalidInputError(
                f"minor rows {rows} and columns {cols} are not supports of "
                f"one degree in 1..{n}")
        if not cols:
            return self.field.one
        if n > MAX_EXT_VARIABLES:
            raise SizeLimitError(
                f"minor tables refused for n={n} > {MAX_EXT_VARIABLES}")
        d = len(cols)
        while len(self._tables) <= d:
            self._fill()
        index = basis_index(EXT, n, d)
        column = self._tables[d][:, index[cols]].tolist()
        self._minors[cols] = dict(zip(index, column))
        return self._minors[cols][rows]

    def _fill(self) -> None:
        """Append the table of the next degree d: det phi[T, S] = sum_i
        (-1)^(i+d) phi[t_i, s_d] det phi[T - t_i, S - s_d] (i 1-based), for
        every (T, S) at once, from the degree d - 1 table."""
        f = self.field
        p = f.characteristic
        d = len(self._tables)
        if d < 2:
            # degree 0 is the empty minor; degree 1 is phi itself
            entries = [[f.one]] if d == 0 else [[f(x) for x in row]
                                                for row in self.matrix]
            self._tables.append(np.array(entries, dtype=row_dtype(f)))
            return
        phi, prev = self._tables[1], self._tables[-1]
        drop, row = laplace_table(self.n, d)
        last, rest = row[:, -1], drop[:, -1]

        def term(i):
            t = phi[row[:, i, None], last] * prev[drop[:, i, None], rest]
            if fits_int64(f):
                # int64 then holds a sum of d reduced products
                t %= p
            return t

        # the last row's term has sign +1; the signs alternate from there
        acc = term(d - 1)
        for i in range(d - 2, -1, -1):
            if (d - i) % 2:
                acc += term(i)
            else:
                acc -= term(i)
        if p:
            acc %= p
        self._tables.append(acc)

    # -- action on monomials --------------------------------------------

    def apply(self, m: Monomial) -> np.ndarray:
        """Image of a monomial as a coefficient row against
        ``basis_table(m.ring, n, m.degree)``, of dtype ``row_dtype(field)``.
        A polynomial row is the memoized one and is read-only."""
        if m.n != self.n:
            raise InvalidInputError(
                f"monomial in {m.n} variables, coordinate change in {self.n}")
        if isinstance(m, ExtMonomial):
            return self._apply_ext(m)
        return self._apply_poly(m)

    def _apply_ext(self, m: ExtMonomial) -> np.ndarray:
        n = self.n
        if n > MAX_EXT_VARIABLES:
            raise SizeLimitError(f"exterior action refused for n={n} > {MAX_EXT_VARIABLES}")
        minor = self.minor
        src = m.support
        return np.array([minor(tgt.support, src)
                         for tgt in basis_table(EXT, n, m.degree)],
                        dtype=row_dtype(self.field))

    def _apply_poly(self, m: PolyMonomial) -> np.ndarray:
        return self._poly_row(m.exponents)

    def _poly_row(self, e: tuple[int, ...]) -> np.ndarray:
        """Coefficient row of the image of x^e against the basis table of
        its degree, of dtype ``row_dtype(field)``; cached and read-only."""
        row = self._poly_cache.get(e)
        if row is not None:
            return row
        f = self.field
        p = f.characteristic
        dtype = row_dtype(f)
        d = sum(e)
        if d == 0:
            row = np.full(1, f.one, dtype=dtype)
        else:
            # peel the largest variable so prefixes are shared via the cache
            i = max(k for k, x in enumerate(e) if x)
            prev = self._poly_row(e[:i] + (e[i] - 1,) + e[i + 1:])
            column = np.array([self.matrix[k][i] for k in range(self.n)],
                              dtype=dtype)
            terms = np.outer(prev, column)
            if p:
                # int64 then holds a sum of min(n, d) reduced products
                terms %= p
            row = np.full(len(basis_table(POLY, self.n, d)), f.zero,
                          dtype=dtype)
            np.add.at(row, mult_table(self.n, d), terms)
            if p:
                row %= p
        row.flags.writeable = False
        self._poly_cache[e] = row
        return row
