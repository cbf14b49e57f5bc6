"""Invertible coordinate changes and their action on degree-d components.

The exterior action sends e_S to the vector of d x d minors det(phi[T, S])
over target supports T; the polynomial action expands the product of linear
forms.  Minors are computed by Laplace expansion memoized per matrix, and
polynomial images are memoized per monomial.  The gin engine applies a
change once to each monomial of a degree component and assembles the images
into one matrix that serves every term order, so the action costs the same
however many orders are certified.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fields import InvalidInputError
from .linalg import vector_rank
from .monomials import EXT, ExtMonomial, Monomial, PolyMonomial, basis_table

#: beyond this the C(n,d)^2 minor table is no longer a desk-scale object
MAX_EXT_VARIABLES = 12


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
        if vector_rank([list(r) for r in self.matrix], self.field) != n:
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
        while True:
            m = tuple(tuple(field.random(rng) for _ in range(n)) for _ in range(n))
            try:
                return cls(m, field, "random-dense")
            except SingularMatrixError:
                continue

    @classmethod
    def random_upper_triangular(cls, n: int, field, rng) -> "CoordinateChange":
        while True:
            rows = []
            for i in range(n):
                row = [field.zero] * i + [field.random(rng) for _ in range(n - i)]
                rows.append(tuple(row))
            try:
                return cls(tuple(rows), field, "random-upper-triangular")
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
        f = self.field
        c0 = cols[0]
        rest = cols[1:]
        acc = f.zero
        for k, r in enumerate(rows):
            a = self.matrix[r - 1][c0 - 1]
            if a == f.zero:
                continue
            sub = self.minor(rows[:k] + rows[k + 1:], rest)
            term = f.mul(a, sub)
            acc = f.add(acc, term) if k % 2 == 0 else f.sub(acc, term)
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
        cached = self._poly_cache.get(m)
        if cached is not None:
            return dict(cached)
        f = self.field
        n = self.n
        if m.degree == 0:
            acc = {m: f.one}
        else:
            # peel the largest variable so prefixes are shared via the cache
            i = m.max_index()
            prev = self._apply_poly(m.div_var(i))
            acc: dict = {}
            for mono, coeff in prev.items():
                for k in range(n):
                    a = self.matrix[k][i - 1]
                    if a == f.zero:
                        continue
                    m2 = mono.times_var(k + 1)
                    v = f.add(acc.get(m2, f.zero), f.mul(coeff, a))
                    if v == f.zero:
                        acc.pop(m2, None)
                    else:
                        acc[m2] = v
        self._poly_cache[m] = acc
        return dict(acc)
