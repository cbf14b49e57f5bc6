import numpy as np
import pytest
from fractions import Fraction
from math import factorial, prod

from ginshift import changes, linalg
from ginshift.changes import (MAX_EXT_VARIABLES, CoordinateChange,
                              SingularMatrixError, SizeLimitError, peel_table)
from ginshift.fields import GFP, QQ, InvalidInputError, PrimeField
from ginshift.linalg import Subspace, vector_rank
from ginshift.monomials import (EXT, POLY, basis_table, ext_monomial,
                                poly_monomial)
from ginshift.orders import LEX, REVLEX, Inverse

import references


def test_singular_matrix_rejected():
    f = PrimeField(7)
    with pytest.raises(SingularMatrixError):
        CoordinateChange(((1, 2), (2, 4)), f)
    with pytest.raises(InvalidInputError):
        CoordinateChange(((1, 2, 3), (0, 1, 0)), f)


def test_identity_fixes_monomials():
    phi = CoordinateChange.identity(4, GFP)
    u = ext_monomial([2, 4], 4)
    assert references.image(phi, u) == {u: GFP.one}
    v = poly_monomial((1, 0, 2, 0))
    assert references.image(phi, v) == {v: GFP.one}


def test_elementary_exterior_action():
    # phi_{1,3}: e3 -> e1 + e3, so e{2,3} -> e{1,2}* (-1)? sign check below
    phi = CoordinateChange.elementary(1, 3, 3, QQ)
    img = references.image(phi, ext_monomial([2, 3], 3))
    # e2 ^ (e1 + e3) = -e{1,2} + e{2,3}
    assert img == {ext_monomial([1, 2], 3): Fraction(-1),
                   ext_monomial([2, 3], 3): Fraction(1)}
    # a monomial not involving b=3 is fixed
    assert references.image(phi, ext_monomial([1, 2], 3)) == {
        ext_monomial([1, 2], 3): Fraction(1)}


def test_elementary_polynomial_action():
    # x3 -> x1 + x3, so x3^2 -> x1^2 + 2 x1 x3 + x3^2
    phi = CoordinateChange.elementary(1, 3, 3, QQ)
    img = references.image(phi, poly_monomial((0, 0, 2)))
    assert img == {poly_monomial((2, 0, 0)): Fraction(1),
                   poly_monomial((1, 0, 1)): Fraction(2),
                   poly_monomial((0, 0, 2)): Fraction(1)}


def test_elementary_validation():
    with pytest.raises(InvalidInputError):
        CoordinateChange.elementary(3, 1, 4, GFP)
    with pytest.raises(InvalidInputError):
        CoordinateChange.elementary(1, 5, 4, GFP)


def test_permutation_action():
    # e_i -> e_perm(i); the image of e{1,2} under (1->2, 2->3, 3->1)
    phi = CoordinateChange.permutation((2, 3, 1), QQ)
    img = references.image(phi, ext_monomial([1, 2], 3))
    assert set(img) == {ext_monomial([2, 3], 3)}
    assert img[ext_monomial([2, 3], 3)] in (Fraction(1), Fraction(-1))


def test_minor_matches_numpy_det():
    rng = np.random.default_rng(3)
    mat = rng.integers(-4, 5, size=(5, 5))
    phi = CoordinateChange(tuple(tuple(Fraction(int(x)) for x in row) for row in mat),
                           QQ, "dense")
    rows, cols = (1, 3, 4), (2, 3, 5)
    sub = mat[np.ix_([0, 2, 3], [1, 2, 4])]
    expected = Fraction(round(float(np.linalg.det(sub))))
    assert phi.minor(rows, cols) == expected
    # over GF(11) the same minor, summed with operators and reduced once
    f = PrimeField(11)
    phi = CoordinateChange(tuple(tuple(f(x) for x in row) for row in mat),
                           f, "dense")
    got = phi.minor(rows, cols)
    assert type(got) is int and got == f(expected.numerator)


def test_minor_validates_its_arguments_before_any_table():
    phi = CoordinateChange.random_dense(3, GFP, np.random.default_rng(4))
    for rows, cols in [((1, 2), (1,)), ((), (1,)), ((1,), ()),
                       ((2, 1), (1, 2)), ((1, 2), (2, 1)), ((1, 1), (1, 2)),
                       ((0, 1), (1, 2)), ((1, 4), (1, 2)), ((1,), (4,))]:
        with pytest.raises(InvalidInputError):
            phi.minor(rows, cols)
    assert phi._tables == {} and phi._minors == {}
    assert phi.minor((1, 2), (2, 3)) == references.minor(phi, (1, 2), (2, 3))
    # with the tables filled, a read out of order is refused all the same
    for rows, cols in [((2, 1), (2, 3)), ((1, 2), (3, 2)), ((1, 3), (3,)),
                       ((3,), (1, 3))]:
        with pytest.raises(InvalidInputError):
            phi.minor(rows, cols)


#: an int64 prime (products of two reduced elements fit, sums of many do
#: not), a prime whose tables are object arrays of python ints, and Q
MINOR_FIELDS = [GFP, PrimeField(2 ** 40 + 15), QQ]


@pytest.mark.parametrize("field", MINOR_FIELDS, ids=str)
def test_every_degree_table_matches_laplace_expansion(field):
    rng = np.random.default_rng(23)
    for n in range(1, 7):
        # permutations have minors of +-1 and 0 only: they check the signs
        phis = _changes(n, field, rng) + [
            CoordinateChange.permutation(tuple(rng.permutation(n) + 1), field)
            for _ in range(3)]
        for phi in phis:
            # highest degree first: each read fills the tables below it;
            # degree 0 is the empty minor, 1. Every minor is a python int,
            # over Q too: these changes are integral, so D = 1
            for d in range(n, -1, -1):
                basis = basis_table(EXT, n, d)
                for s in basis:
                    expected = {t: references.minor(phi, t.support, s.support)
                                for t in basis}
                    for t in basis:
                        got = phi.minor(t.support, s.support)
                        assert got == expected[t], (phi.kind, n, t, s)
                        assert type(got) is int
                    assert references.image(phi, s) == {
                        t: c for t, c in expected.items()
                        if c != field.zero}, (phi.kind, s)


def test_int64_tables_are_the_rational_tables_reduced():
    # at n = 8 a sum of unreduced int64 products passes 2**63 in a few
    # entries of a typical random change's tables; at n <= 6 it rarely does
    rng = np.random.default_rng(29)
    n = 8
    for _ in range(3):
        phi = CoordinateChange.random_dense(n, GFP, rng)
        exact = CoordinateChange(
            tuple(tuple(map(Fraction, row)) for row in phi.matrix), QQ)
        for d in range(n + 1):
            basis = [m.support for m in basis_table(EXT, n, d)]
            for s in basis:
                for t in basis:
                    assert phi.minor(t, s) == GFP(exact.minor(t, s)), (t, s)


def _rational_changes(n, rng):
    """A random integral change, and one holding 1/3 and -5/6 among its
    entries (D = 6)."""
    integral = CoordinateChange.random_dense(n, QQ, rng)
    while True:
        rows = [[Fraction(int(x)) for x in rng.integers(-9, 10, size=n)]
                for _ in range(n)]
        rows[0][-1] = Fraction(1, 3)
        rows[-1][0] = Fraction(-5, 6)
        try:
            return [integral,
                    CoordinateChange(tuple(map(tuple, rows)), QQ)]
        except SingularMatrixError:
            continue


def test_rational_tables_are_the_fraction_fill():
    # the one table of degree d over Q is D^d times the Fraction fill, in
    # python ints
    rng = np.random.default_rng(37)
    for n in range(2, 6):
        for phi in _rational_changes(n, rng):
            d_max = 4
            scale = phi._denominator
            for ring in (EXT, POLY):
                top = min(n, d_max) if ring == EXT else d_max
                want = references.fraction_tables(phi, ring, top)
                for d in range(top, -1, -1):
                    got = phi._table(ring, d)
                    assert got.tolist() == (want[d] * scale ** d).tolist(), \
                        (n, ring, d)
                    assert all(type(x) is int for x in got.flat)
                    assert not got.flags.writeable
            if any(x.denominator > 1 for row in phi.matrix for x in row):
                assert scale == 6
            else:
                assert scale == 1
            assert not hasattr(phi, "_fractions")


def test_rational_images_and_minors_are_the_fraction_ones_scaled():
    # a row of degree d from apply or minor is the image under D phi: D^d
    # times phi's image, and phi's image itself when phi is integral
    rng = np.random.default_rng(47)
    for n in range(2, 5):
        for phi in _rational_changes(n, rng):
            scale = phi._denominator
            for ring in (EXT, POLY):
                top = n if ring == EXT else 3
                want = references.fraction_tables(phi, ring, top)
                for d in range(top + 1):
                    basis = basis_table(ring, n, d)
                    for j, m in enumerate(basis):
                        got = phi.apply(m).tolist()
                        assert got == (want[d][:, j] * scale ** d).tolist(), \
                            (n, ring, m)
                        assert all(type(x) is int for x in got)
                        if ring == POLY:
                            continue
                        for t in basis:
                            minor = phi.minor(t.support, m.support)
                            assert type(minor) is int
                            assert minor == scale ** d * references.minor(
                                phi, t.support, m.support), (n, t, m)


def test_rational_images_lead_where_the_fraction_images_lead():
    # the images under D phi span what phi's Fraction images span, so a
    # stack of them has the same leading columns under every ranking: a
    # stack of the duals of three random changes, which agree, and each
    # hand-made rational change on its own
    rng = np.random.default_rng(53)
    orders = [LEX, REVLEX, Inverse(LEX), Inverse(REVLEX)]
    for n in range(3, 6):
        duals = [CoordinateChange.random_dense(n, QQ, rng).dual
                 for _ in range(3)]
        for phis in [duals] + [[phi] for phi in _rational_changes(n, rng)]:
            for ring in (EXT, POLY):
                top = n if ring == EXT else 3
                tables = [references.fraction_tables(phi, ring, top)
                          for phi in phis]
                for d in range(2, top + 1):
                    basis = basis_table(ring, n, d)
                    picks = sorted(rng.choice(
                        len(basis), (len(basis) + 1) // 2,
                        replace=False).tolist())
                    scaled = Subspace.stack([Subspace.from_vectors(
                        [phi.apply(basis[j]) for j in picks], basis, QQ)
                        for phi in phis])
                    exact = Subspace.stack([Subspace.from_vectors(
                        [table[d][:, j] for j in picks], basis, QQ)
                        for table in tables])
                    for order in orders:
                        ranking = order.ranking(ring, n, d)
                        assert scaled.leading_columns(ranking) == \
                            exact.leading_columns(ranking), \
                            (n, ring, d, order)
        assert all(phi._denominator > 1 for phi in duals)


def test_exterior_action_rejects_wrong_variable_count():
    phi = CoordinateChange.random_dense(3, GFP, np.random.default_rng(8))
    # in range of the change, and past it
    for support in ([1, 2], [1, 4]):
        with pytest.raises(InvalidInputError):
            phi.apply(ext_monomial(support, 4))


def test_equality_ignores_the_caches():
    # the caches hold numpy arrays and depend on what has been applied, so
    # == reads the matrix, the field and the kind only
    for m in (ext_monomial([1, 2], 4), poly_monomial((1, 1, 0, 0))):
        phi, psi, other = (CoordinateChange.random_dense(
            4, GFP, np.random.default_rng(seed)) for seed in (1, 1, 2))
        assert phi == psi and phi != other
        phi.apply(m)
        assert phi == psi and psi == phi and phi != other
        psi.apply(m)
        other.apply(m)
        assert phi == psi and phi != other and other != psi


def test_random_changes_are_invertible_and_deterministic():
    rng = np.random.default_rng(11)
    phi = CoordinateChange.random_dense(4, GFP, rng)
    rng2 = np.random.default_rng(11)
    psi = CoordinateChange.random_dense(4, GFP, rng2)
    assert phi.matrix == psi.matrix
    tri = CoordinateChange.random_upper_triangular(4, GFP, np.random.default_rng(5))
    for i in range(4):
        for j in range(i):
            assert tri.matrix[i][j] == GFP.zero


def _per_entry_draw(n, field, rng, upper):
    """A random change as drawn before one draw per matrix: one
    ``field.random`` call per entry, row by row, again until invertible."""
    while True:
        rows = tuple(tuple(field.random(rng) if j >= i or not upper
                           else field.zero for j in range(n))
                     for i in range(n))
        if vector_rank(rows, field) == n:
            return rows


DRAW_FIELDS = [PrimeField(p) for p in (
    2, 3, 101, 2 ** 31 - 19, 2 ** 40 + 15, 2 ** 61 - 1, 2 ** 63 - 25,
    2 ** 89 - 1)] + [QQ]


@pytest.mark.parametrize("field", DRAW_FIELDS,
                         ids=lambda f: str(f.characteristic or "Q"))
def test_one_draw_per_matrix_gives_the_per_entry_matrices(field):
    # the same matrices from the same generator, singular redraws included,
    # and the same stream after them
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    for n in (1, 2, 3, 5):
        for upper, draw in ((False, CoordinateChange.random_dense),
                            (True, CoordinateChange.random_upper_triangular)):
            got = draw(n, field, a).matrix
            assert got == _per_entry_draw(n, field, b, upper), (n, upper)
            assert all(type(x) is type(field.one) for row in got for x in row)
    assert field.random(a) == field.random(b)


@pytest.mark.parametrize("field", DRAW_FIELDS,
                         ids=lambda f: str(f.characteristic or "Q"))
def test_a_drawn_set_is_one_single_draw_per_generator(field):
    # a dense set is the changes of one random_dense call per generator, a
    # triangular set those of one rank-checked draw per generator, singular
    # redraws included (often over GF(2) and GF(3)); each is invertible,
    # and the streams after them are the same
    for n in (1, 2, 3, 5):
        a = [np.random.default_rng(s) for s in range(4)]
        b = [np.random.default_rng(s) for s in range(4)]
        got = CoordinateChange.random_set(n, field, a)
        assert got == tuple(CoordinateChange.random_dense(n, field, rng)
                            for rng in b), n
        tri = [CoordinateChange.random_upper_triangular(n, field, rng)
               for rng in a]
        assert [c.matrix for c in tri] == [_per_entry_draw(n, field, rng, True)
                                           for rng in b], n
        assert all(vector_rank(c.matrix, field) == n for c in got + tuple(tri))
        assert [field.random(r) for r in a] == [field.random(r) for r in b]


def _counted_rref(monkeypatch):
    """Patch every binding of ``linalg.rref`` to record its calls."""
    calls, rref = [], linalg.rref

    def counting(rows, field):
        calls.append(np.shape(rows))
        return rref(rows, field)

    monkeypatch.setattr(linalg, "rref", counting)
    monkeypatch.setattr(changes, "rref", counting)
    return calls


@pytest.mark.parametrize("field", [GFP, PrimeField(2 ** 61 - 1), QQ],
                         ids=str)
def test_a_set_and_its_duals_are_proven_by_their_own_eliminations(
        field, monkeypatch):
    # k invertible dense changes: one stacked elimination for the set; k
    # triangular draws: none; a dual: the one elimination of [phi | I], and
    # psi^T phi = I
    calls = _counted_rref(monkeypatch)
    n, k = 4, 3
    rngs = [np.random.default_rng(s) for s in range(k)]
    phis = CoordinateChange.random_set(n, field, rngs)
    assert calls == [(k, n, n)]
    for rng in rngs:
        CoordinateChange.random_upper_triangular(n, field, rng)
    assert calls == [(k, n, n)]
    for phi in phis:
        del calls[:]
        psi = phi.dual
        assert calls == [(n, 2 * n)]
        product = [[field(sum(psi.matrix[t][i] * phi.matrix[t][j]
                              for t in range(n))) for j in range(n)]
                   for i in range(n)]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)]
    with pytest.raises(SingularMatrixError):
        CoordinateChange(((1, 2), (2, 4)), field)


def test_exterior_size_limit():
    n = MAX_EXT_VARIABLES + 1
    phi = CoordinateChange.identity(n, GFP)
    with pytest.raises(SizeLimitError):
        phi.apply(ext_monomial([1, 2], n))
    # no minor table is filled past the limit either
    with pytest.raises(SizeLimitError):
        phi.minor((1, 2), (1, 2))
    assert phi._tables == {} and phi._minors == {}
    assert CoordinateChange.identity(n - 1, GFP).minor((1, n - 1),
                                                       (1, n - 1)) == 1


def test_poly_action_preserves_degree_and_is_cached():
    phi = CoordinateChange.random_dense(3, GFP, np.random.default_rng(0))
    m = poly_monomial((1, 2, 0))
    img = references.image(phi, m)
    assert all(u.degree == 3 for u in img)
    assert references.image(phi, m) == img


# -- the polynomial action on the degree tables -------------------------


def _old_apply_poly(phi, m, cache):
    """The per-term expansion the table kernel replaced: the image of m is
    the image of m / x_i times phi(x_i), x_i the largest variable of m."""
    if m in cache:
        return dict(cache[m])
    f = phi.field
    if m.degree == 0:
        acc = {m: f.one}
    else:
        i = m.max_index()
        acc = {}
        for mono, coeff in _old_apply_poly(phi, m.div_var(i), cache).items():
            for k in range(phi.n):
                a = phi.matrix[k][i - 1]
                if a == f.zero:
                    continue
                m2 = mono.times_var(k + 1)
                v = f(acc.get(m2, 0) + coeff * a)
                if v == f.zero:
                    acc.pop(m2, None)
                else:
                    acc[m2] = v
    cache[m] = acc
    return dict(acc)


#: GF(p) at the default prime, two small primes, a prime past 2**31 (whose
#: products overflow int64, so its rows are object arrays of python ints)
#: and Q
ACTION_FIELDS = [GFP, PrimeField(2), PrimeField(7), PrimeField(2147483659), QQ]


def _changes(n, field, rng):
    out = [CoordinateChange.identity(n, field),
           CoordinateChange.permutation(tuple(rng.permutation(n) + 1), field),
           CoordinateChange.random_dense(n, field, rng),
           CoordinateChange.random_upper_triangular(n, field, rng)]
    if n >= 2:
        a = int(rng.integers(1, n))
        out.append(CoordinateChange.elementary(a, int(rng.integers(a + 1, n + 1)),
                                               n, field))
    return out


@pytest.mark.parametrize("field", ACTION_FIELDS, ids=str)
def test_poly_action_matches_per_term_expansion(field):
    rng = np.random.default_rng(17)
    for n in range(1, 7):
        for phi in _changes(n, field, rng):
            cache = {}
            for d in range(6):
                for m in basis_table(POLY, n, d):
                    assert references.image(phi, m) == _old_apply_poly(
                        phi, m, cache), \
                        (phi.kind, n, m)


@pytest.mark.parametrize("field", MINOR_FIELDS, ids=str)
def test_cached_poly_rows_are_read_only(field):
    phi = CoordinateChange.random_dense(3, field, np.random.default_rng(2))
    m = poly_monomial((0, 2, 1))
    img = phi.apply(m)
    expected = img.tolist()
    with pytest.raises(ValueError):
        img[0] = 5
    # so is every other column of the same degree table
    with pytest.raises(ValueError):
        phi.apply(poly_monomial((0, 1, 1)))[-1] += 1
    assert phi.apply(m).tolist() == expected


def test_poly_action_rejects_wrong_variable_count():
    phi = CoordinateChange.identity(3, GFP)
    with pytest.raises(InvalidInputError):
        phi.apply(poly_monomial((1, 1)))


def test_peel_table_entries_remove_one_index():
    for ring in (EXT, POLY):
        for n in range(1, 6):
            for d in range(1, (n if ring == EXT else 4) + 1):
                drop, row = peel_table(ring, n, d)
                prev = basis_table(ring, n, d - 1)
                basis = basis_table(ring, n, d)
                w = min(n, d)
                assert drop.shape == row.shape == (len(basis), w)
                for j, m in enumerate(basis):
                    s = m.support
                    pad = w - len(s)
                    # padded entries read the zero row appended to phi
                    assert list(row[j, :pad]) == [n] * pad, (ring, m)
                    # the distinct indices, increasing, end at the largest
                    assert list(row[j, pad:] + 1) == list(s), (ring, m)
                    assert row[j, -1] + 1 == s[-1]
                    for i, t in zip(range(pad, w), s):
                        u = prev[drop[j, i]]
                        if ring == EXT:
                            assert u.support == tuple(x for x in s if x != t)
                        else:
                            assert u == m.div_var(t)


@pytest.mark.parametrize("field", MINOR_FIELDS, ids=str)
def test_one_change_serves_both_rings_in_either_order(field):
    n = 4
    monomials = {ring: [m for d in range(n + 1)
                        for m in basis_table(ring, n, d)]
                 for ring in (EXT, POLY)}
    for first, second in ((EXT, POLY), (POLY, EXT)):
        rng = np.random.default_rng(31)
        phi = CoordinateChange.random_dense(n, field, rng)
        rows = {ring: [phi.apply(m).tolist() for m in monomials[ring]]
                for ring in (first, second)}
        for ring in (EXT, POLY):
            fresh = CoordinateChange(phi.matrix, field)
            assert rows[ring] == [fresh.apply(m).tolist()
                                  for m in monomials[ring]], (first, ring)


@pytest.mark.parametrize("field", ACTION_FIELDS, ids=str)
def test_the_dual_is_the_inverse_transpose(field):
    # against the cofactor formula, for every kind of change; cached on the
    # change, and ignored by ==
    rng = np.random.default_rng(41)
    for n in range(1, 5):
        for phi in _changes(n, field, rng):
            psi = phi.dual
            assert psi == references.dual(phi), (phi.kind, n)
            assert phi.dual is psi
            assert phi == CoordinateChange(phi.matrix, field, phi.kind)


@pytest.mark.parametrize("field", ACTION_FIELDS, ids=str)
def test_dual_tables_are_orthogonal_to_the_tables_under_the_pairing(field):
    # table_phi^T P table_psi = P in every degree, with P the diagonal
    # pairing: 1 at every exterior monomial and a! at x^a. Over GF(p) with
    # p <= d some a! is 0, P is singular, and the identity no longer makes
    # psi's images of a complement span the complement of phi's images
    p = field.characteristic
    n = 4
    for phi in _changes(n, field, np.random.default_rng(43)):
        psi = phi.dual
        for ring in (EXT, POLY):
            for d in range(n):
                basis = basis_table(ring, n, d)
                pairing = np.diag([1 if ring == EXT else
                                   prod(map(factorial, m.exponents))
                                   for m in basis]).astype(object)
                got = (phi._table(ring, d).astype(object).T @ pairing
                       @ psi._table(ring, d).astype(object))
                # the tables of D_phi phi and D_psi psi, so (D_phi D_psi)^d P
                # over Q; D is 1 over GF(p)
                want = (phi._denominator * psi._denominator) ** d * pairing
                if p:
                    got, want = got % p, want % p
                assert (got == want).all(), (phi.kind, ring, d)


def test_the_dual_refuses_a_singular_matrix():
    # a matrix turned singular after its invertibility check: [phi | I]
    # has a pivot past its first n columns
    phi = CoordinateChange.identity(3, GFP)
    phi.matrix = ((1, 1, 0), (1, 1, 0), (0, 0, 1))
    with pytest.raises(SingularMatrixError):
        phi.dual
