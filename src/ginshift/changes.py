"""Invertible coordinate changes and their action on degree-d components.

The image of a monomial of degree d is a coefficient row against
``basis_table(ring, n, d)``: the one image type from the action to the
trial stack of ``linalg.Subspace``, with no monomial-keyed vector between
them.  A row is one numpy array of dtype ``fields.row_dtype(field)`` over
every field: int64 over a prime below 2**31 and python ints over larger
primes and over Q, and so is a degree table, each of whose entries is
reduced mod p once over GF(p).

A change acts on a degree through one read-only table per (ring, d),
whose column S is the image of S against the degree's basis table: the
exterior power Lambda^d phi, the d x d minors det(phi[T, S]), in the
exterior ring, and the symmetric power Sym^d phi in the polynomial ring.
On its first read in degree d a ring's table is filled from the degree
d - 1 table in one gathered array product over every (T, S) at once,
peeling the largest index s of S:

    table_d[T, S] = sum_{t in T} eps * phi[t, s] * table_{d-1}[T - t, S - s]

through the cached index table ``peel_table(ring, n, d)``, with eps the
Laplace sign (-1)^(i+d) of the i-th index of T in the exterior ring and 1
in the polynomial ring; that sign is the only difference between the two
powers.  A minor is read from a per-column-set dict keyed by target
support, built from the table on the column set's first read; a
polynomial image is the table's column itself.

Over Q the one table is that of the integer matrix D phi, D the lcm of
phi's denominators, in python ints, so a row from ``apply`` or ``minor``
is the image under D phi: phi's own for an integral phi (every random,
identity, elementary and permutation change), and D^d times it in degree
d for a rational one, such as a dual, with the same span and pivots.
Integer sums of products are several times cheaper than ``Fraction``
ones, which normalize by a gcd at every step.

The gin engine applies a change once to each monomial of a degree component
and stacks the image rows into one matrix that serves every term order, so
the action costs the same however many orders are certified.  A random
change drawn by the engine is shared, with its degree tables, by every gin
that draws the same trial set (``gin._trial_changes``), exterior and
polynomial alike, so each table is filled once per trial set and ring, not
once per ideal; each change is proven invertible once, as it is drawn
(``CoordinateChange.random_set`` for a dense set, the diagonal for a
triangular change).

Complement duality.  The dual of phi is psi = phi^{-T} (``dual``).  Under
the pairing of degree d in which the monomials are orthogonal, psi's image
of every monomial outside a span V is orthogonal to phi's image of every
monomial of V: Lambda^d psi = (Lambda^d phi)^{-T} in any field, by
Cauchy-Binet, and Sym^d psi = (Sym^d phi)^{-T} once the polynomial pairing
weighs x^a by a! = a_1! ... a_n!, a diagonal scaling invertible only over
Q and over GF(p) with p > d.  So psi's images of the complement span the
complement of phi(V), and the gin engine may eliminate whichever side is
smaller (``gin._Trials``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

import numpy as np

from .fields import InvalidInputError, SizeLimitError, fits_int64, row_dtype
from .linalg import CertificationError, rref, vector_rank
from .monomials import (EXT, POLY, ExtMonomial, Monomial, PolyMonomial,
                        basis_index, basis_table, indicator)

#: the exterior action's own limit: beyond this the C(n,d)^2 minor table is
#: no longer a desk-scale object. Subset families (shifting, stability,
#: minimal generators, complexes) have theirs in ``families``.
MAX_EXT_VARIABLES = 12


@lru_cache(maxsize=256)
def peel_table(ring: str, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(drop, row) for the j-th monomial T of ``basis_table(ring, n, d)``
    and its w = min(n, d) columns, d >= 1: the distinct indices t of T sit,
    increasing, in the last columns, where drop[j, i] is the position in
    ``basis_table(ring, n, d - 1)`` of T's exponent vector with entry t
    lowered by one, and row[j, i] = t - 1 is the 0-based row of the change
    paired with it.  A polynomial T with fewer than w distinct indices is
    left-padded with drop 0 and row n, the zero row appended to the change,
    so the last column is always T's largest index; read-only."""
    index = basis_index(ring, n, d - 1)
    basis = basis_table(ring, n, d)
    w = min(n, d)
    drop = np.zeros((len(basis), w), dtype=np.intp)
    row = np.full((len(basis), w), n, dtype=np.intp)
    for j, m in enumerate(basis):
        s, e = m.support, m.exponents
        for i, t in enumerate(s, w - len(s)):
            drop[j, i] = index[e[:t - 1] + (e[t - 1] - 1,) + e[t:]]
            row[j, i] = t - 1
    drop.flags.writeable = row.flags.writeable = False
    return drop, row


@lru_cache(maxsize=256)
def _supports(n: int, d: int) -> tuple:
    """The supports of ``basis_table(EXT, n, d)`` in table order: the keys
    of each column dict of ``minor``, built once, not on every miss."""
    return tuple(u.support for u in basis_table(EXT, n, d))


def _is_support(s: tuple[int, ...], n: int) -> bool:
    """Whether s is strictly increasing in 1..n."""
    return all(a < b for a, b in zip((0,) + s, s + (n + 1,)))


class SingularMatrixError(ValueError):
    pass


def _dense_draw(n: int, field, rng) -> tuple[tuple, ...]:
    """n x n uniform entries, row by row, in one draw."""
    x = field.random(rng, n * n)
    return tuple(tuple(x[i * n:(i + 1) * n]) for i in range(n))


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
    _tables: dict = dc_field(default_factory=dict, repr=False, compare=False)
    #: set only by the code that has just proven the matrix invertible,
    #: the dense set draw (``random_set``), the triangular draw and
    #: ``dual``: the rank check is then not repeated
    _proven: bool = dc_field(default=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise InvalidInputError("matrix not square")
        if not self._proven and vector_rank(self.matrix, self.field) != n:
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
        """Uniform entries, row by row, in one draw per matrix, proven
        invertible by the constructor's rank check; a singular draw is drawn
        again. The engine's trial sets come from ``random_set``, which gives
        the same matrices with one elimination per set."""
        while True:
            try:
                return cls(_dense_draw(n, field, rng), field, "random-dense")
            except SingularMatrixError:
                continue

    @classmethod
    def random_upper_triangular(cls, n: int, field, rng) -> "CoordinateChange":
        """Uniform entries on and above the diagonal, row by row, in one
        draw per matrix; a draw with a 0 on the diagonal is drawn again. A
        triangular matrix is invertible exactly when no diagonal entry is 0,
        in every field, so the diagonal proves it and the constructor's
        rank check is not run."""
        upper = list(zip(*np.triu_indices(n)))
        while True:
            rows = [[field.zero] * n for _ in range(n)]
            for (i, j), x in zip(upper, field.random(rng, len(upper))):
                rows[i][j] = x
            if all(rows[i][i] for i in range(n)):
                return cls(tuple(map(tuple, rows)), field,
                           "random-upper-triangular", _proven=True)

    @classmethod
    def random_set(cls, n: int, field, rngs) -> tuple["CoordinateChange", ...]:
        """One dense random change per generator of ``rngs``: bit for bit
        the changes of one ``random_dense`` call per generator, proven
        invertible together. The k matrices are eliminated as one (k, n, n)
        stack, whose n shared pivots prove them all; a stack that parts or
        falls short is proven member by member, and a singular member is
        drawn again from its own generator."""
        draws = [(_dense_draw(n, field, rng), rng) for rng in rngs]
        try:
            proven = len(rref([m for m, _ in draws], field)[1]) == n
        except CertificationError:
            proven = False
        if proven:
            return tuple(cls(m, field, "random-dense", _proven=True)
                         for m, _ in draws)
        changes = []
        for m, rng in draws:
            try:
                changes.append(cls(m, field, "random-dense"))
            except SingularMatrixError:
                changes.append(cls.random_dense(n, field, rng))
        return tuple(changes)

    @cached_property
    def dual(self) -> "CoordinateChange":
        """psi = phi^{-T}, whose degree tables are the inverse transposes of
        phi's in the exterior ring and, up to a diagonal scaling by
        multinomial coefficients, in the polynomial ring (module
        docstring). phi^{-1} is read off one elimination of [phi | I],
        whose pivots must be exactly its first n columns: any other phi is
        singular and refused with SingularMatrixError. Those pivots also
        prove psi invertible, so psi gets no rank check of its own. Cached,
        so a shared trial set shares its duals and their degree tables."""
        f, n = self.field, self.n
        red, pivots = rref([list(row) + [f.one if i == j else f.zero
                                         for j in range(n)]
                            for i, row in enumerate(self.matrix)], f)
        if pivots != list(range(n)):
            raise SingularMatrixError(f"{self.kind} matrix is singular")
        return CoordinateChange(tuple(map(tuple, red[:, n:].T.tolist())), f,
                                f"dual of {self.kind}", _proven=True)

    # -- minors (exterior action) ---------------------------------------

    def minor(self, rows: tuple[int, ...], cols: tuple[int, ...]):
        """det of the submatrix with the given 1-based rows and columns:
        strictly increasing indices in 1..n, as many rows as columns; over
        Q that of D phi (module docstring). The column of ``cols``, found
        by its indicator, is kept as a dict keyed by row support."""
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
            return 1
        if n > MAX_EXT_VARIABLES:
            raise SizeLimitError(
                f"minor tables refused for n={n} > {MAX_EXT_VARIABLES}")
        d = len(cols)
        j = basis_index(EXT, n, d)[indicator(cols, n)]
        self._minors[cols] = dict(zip(_supports(n, d),
                                      self._table(EXT, d)[:, j].tolist()))
        return self._minors[cols][rows]

    # -- degree tables --------------------------------------------------

    @cached_property
    def _denominator(self) -> int:
        """D, the lcm of the entries' denominators over Q and 1 over GF(p):
        the tables are filled on D phi, whose entries are integers."""
        if self.field.characteristic:
            return 1
        return lcm(*(Fraction(x).denominator
                     for row in self.matrix for x in row))

    @cached_property
    def _phi(self) -> np.ndarray:
        """The matrix in the field's row dtype, over Q the integer matrix
        D phi as python ints, with the zero row appended that the padding
        of ``peel_table`` reads."""
        f, D = self.field, self._denominator
        rows = ([[f(x) for x in row] for row in self.matrix]
                if f.characteristic else
                [[(Fraction(x) * D).numerator for x in row]
                 for row in self.matrix])
        return np.array(rows + [[0] * self.n], dtype=row_dtype(f))

    def _table(self, ring: str, d: int) -> np.ndarray:
        """The ring's one degree-d table, filling the degrees below it
        first; read-only. Over Q that of D phi, in python ints."""
        tables = self._tables.setdefault(ring, [])
        while len(tables) <= d:
            table = self._fill(ring, tables)
            table.flags.writeable = False
            tables.append(table)
        return tables[d]

    def _fill(self, ring: str, tables: list) -> np.ndarray:
        """The ring's table of the next degree d, from the degree d - 1
        table: table_d[T, S] = sum_i eps phi[t_i, s] table_{d-1}[T - t_i,
        S - s], s the largest index of S, for every (T, S) at once; eps is
        (-1)^(i+d) (i 1-based) in the exterior ring and 1 in the polynomial
        ring. Over Q the entries are the python ints of D phi's table."""
        f = self.field
        p = f.characteristic
        d = len(tables)
        if d < 2:
            # degree 0 is the empty product; degree 1 is phi itself
            return (np.ones((1, 1), dtype=self._phi.dtype) if d == 0
                    else self._phi[:-1])
        drop, row = peel_table(ring, self.n, d)
        # column S of each: phi[:, s] and table_{d-1}[:, S - s]
        phi = self._phi.take(row[:, -1], axis=1)
        prev = tables[-1].take(drop[:, -1], axis=1)

        def term(i):
            t = phi.take(row[:, i], axis=0)
            t *= prev.take(drop[:, i], axis=0)
            if fits_int64(f):
                # int64 then holds a sum of min(n, d) reduced products
                t %= p
            return t

        # eps is +1 at the last index and, in the exterior ring only,
        # alternates below it
        w = row.shape[1]
        table = term(w - 1)
        for i in range(w - 2, -1, -1):
            if ring == POLY or (w - i) % 2:
                table += term(i)
            else:
                table -= term(i)
        if p:
            table %= p
        return table

    # -- action on monomials --------------------------------------------

    def apply(self, m: Monomial) -> np.ndarray:
        """Image of a monomial as a coefficient row against
        ``basis_table(m.ring, n, m.degree)``, of dtype ``row_dtype(field)``:
        the column of m in the ring's degree table, read from its minors
        in the exterior ring and as the read-only column itself in the
        polynomial ring; over Q the image under D phi (module docstring)."""
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
        d = m.degree
        column = basis_index(POLY, self.n, d)[m.exponents]
        return self._table(POLY, d)[:, column]
