"""Invertible coordinate changes and their action on degree-d components.

The exterior action sends e_S to the vector of d x d minors det(phi[T, S])
over target supports T; the polynomial action expands the product of linear
forms.  Minors are computed by Laplace expansion and kept in the change's
minor table.  A polynomial image is a coefficient row against
``basis_table(POLY, n, d)``: with x_i the largest variable of m,
row(m) = sum_k phi[k][i] * row(m / x_i) scattered through the cached
multiplication table of ``mult_table(n, d)``, and rows are memoized per
monomial so shared prefixes are expanded once.  A row is one numpy array of
dtype ``fields.row_dtype(field)`` over every field: int64 over a prime below
2**31, python ints over larger primes and ``Fraction``s over Q.  A minor
is summed with plain operators and reduced by the field once.
The gin engine applies a change once to each monomial of a degree component
and assembles the images into one matrix that serves every term order, so
the action costs the same however many orders are certified.  A random
change drawn by the engine is shared, with its minor table and polynomial
rows, by every gin that draws the same trial set (``gin._trial_changes``),
so each minor and row is computed once per trial set, not once per ideal.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .fields import InvalidInputError, row_dtype
from .linalg import vector_rank
from .monomials import (EXT, POLY, ExtMonomial, Monomial, PolyMonomial,
                        basis_table)

#: beyond this the C(n,d)^2 minor table is no longer a desk-scale object
MAX_EXT_VARIABLES = 12


@lru_cache(maxsize=256)
def mult_table(n: int, d: int) -> np.ndarray:
    """T[j, k] = position in ``basis_table(POLY, n, d)`` of the product
    basis_table(POLY, n, d - 1)[j] * x_{k+1}; read-only, d >= 1."""
    index = {m.exponents: j for j, m in enumerate(basis_table(POLY, n, d))}
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
    _minors: dict = dc_field(default_factory=dict, repr=False)
    _poly_cache: dict = dc_field(default_factory=dict, repr=False)

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
        """det of the submatrix with the given 1-based rows and columns,
        by memoized Laplace expansion along the first column."""
        if not rows:
            return self.field.one
        key = (rows, cols)
        cached = self._minors.get(key)
        if cached is not None:
            return cached
        c0 = cols[0]
        rest = cols[1:]
        acc = 0
        for k, r in enumerate(rows):
            a = self.matrix[r - 1][c0 - 1]
            if a == 0:
                continue
            term = a * self.minor(rows[:k] + rows[k + 1:], rest)
            acc = acc + term if k % 2 == 0 else acc - term
        acc = self.field(acc)
        self._minors[key] = acc
        return acc

    # -- action on monomials --------------------------------------------

    def apply(self, m: Monomial) -> dict:
        """Image of a monomial as a dict vector (monomial -> coefficient)."""
        if isinstance(m, ExtMonomial):
            return self._apply_ext(m)
        return self._apply_poly(m)

    def _apply_ext(self, m: ExtMonomial) -> dict:
        n = self.n
        if m.degree > n:
            raise InvalidInputError(f"degree {m.degree} exceeds n={n}")
        if n > MAX_EXT_VARIABLES:
            raise SizeLimitError(f"exterior action refused for n={n} > {MAX_EXT_VARIABLES}")
        f = self.field
        out = {}
        src = m.support
        for tgt in basis_table(EXT, n, m.degree):
            c = self.minor(tgt.support, src)
            if c != f.zero:
                out[tgt] = c
        return out

    def _apply_poly(self, m: PolyMonomial) -> dict:
        if m.n != self.n:
            raise InvalidInputError(
                f"monomial in {m.n} variables, coordinate change in {self.n}")
        row = self._poly_row(m.exponents).tolist()
        zero = self.field.zero
        return {u: c for u, c in zip(basis_table(POLY, self.n, m.degree), row)
                if c != zero}

    def _poly_row(self, e: tuple[int, ...]) -> np.ndarray:
        """Coefficient row of the image of x^e against the basis table of
        its degree, of dtype ``row_dtype(field)``; cached, never mutated."""
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
        self._poly_cache[e] = row
        return row
