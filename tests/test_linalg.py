from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ginshift import linalg
from ginshift.fields import (GFP, QQ, InvalidInputError, PrimeField,
                             fits_int64, row_dtype)
from ginshift.gin import gin
from ginshift.ideals import MonomialIdeal
from ginshift.linalg import (CertificationError, Subspace, rref, rref_exact,
                             rref_prime, vector_rank)
from ginshift.monomials import EXT, all_monomials, ext_monomial
from ginshift.orders import LEX, REVLEX
import references
from references import initial_space


def test_rref_prime_known():
    mat = np.array([[2, 4, 6], [1, 2, 4], [0, 0, 1]], dtype=np.int64)
    red, piv = rref_prime(mat, 7)
    assert piv == [0, 2]
    assert red.tolist() == [[1, 2, 0], [0, 0, 1]]


def test_rref_exact_rational():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(2)]]
    red, piv = rref_exact(rows)
    assert piv == [0]
    assert red == [[Fraction(1), Fraction(2, 3)]]


def _fraction_rref(rows, field):
    """The Fraction Gauss-Jordan loop that integer elimination over Q
    replaced: each pivot row scaled to 1, every other row reduced by it.
    Each entry is computed with operators and reduced by ``field`` once."""
    p = field.characteristic
    a = [list(row) for row in rows]
    m, ncols = len(a), len(a[0]) if a else 0
    pivots, r = [], 0
    for c in range(ncols):
        if r == m:
            break
        i = next((k for k in range(r, m) if a[k][c] != field.zero), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], -1, p) if p else 1 / field(a[r][c])
        a[r] = [field(x * inv) for x in a[r]]
        for k in range(m):
            if k != r and a[k][c] != field.zero:
                f = a[k][c]
                a[k] = [field(x - f * y) for x, y in zip(a[k], a[r])]
        pivots.append(c)
        r += 1
    return a[: len(pivots)], pivots


def test_rref_exact_over_q_matches_the_fraction_loop():
    rng = np.random.default_rng(11)
    ranks = set()
    for _ in range(400):
        m, k = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        rows = [[Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 7)))
                 if rng.random() < 0.6 else Fraction(0) for _ in range(k)]
                for _ in range(m)]
        if m >= 3 and rng.random() < 0.4:  # rank-deficient: a combination
            rows[-1] = [Fraction(2, 3) * x - 5 * y
                        for x, y in zip(rows[0], rows[1])]
        if m >= 2 and rng.random() < 0.2:
            rows[1] = [Fraction(0)] * k
        red, piv = rref_exact(rows)
        assert (red, piv) == _fraction_rref(rows, QQ)
        assert all(type(x) is Fraction for row in red for x in row)
        ranks.add(len(piv) < m)
    assert ranks == {True, False}
    # plain ints are read as rationals
    assert rref_exact([[2, 4], [1, 3]]) == ([[1, 0], [0, 1]], [0, 1])


@pytest.mark.parametrize("field", [PrimeField(2 ** 40 + 15),
                                   PrimeField(2147483659)],
                         ids=["2^40+15", "2147483659"])
def test_object_rows_match_the_field_element_loop(field):
    # primes past 2**31 eliminate object arrays of python ints in
    # rref_prime; the field-element loop is the reference
    rng = np.random.default_rng(23)
    ranks, zero_columns = set(), 0
    for _ in range(150):
        m, k = int(rng.integers(1, 7)), int(rng.integers(1, 8))
        rows = [[field.random(rng) if rng.random() < 0.7 else 0
                 for _ in range(k)] for _ in range(m)]
        if m >= 3 and rng.random() < 0.4:  # rank-deficient: a combination
            a, b = field.random(rng), field.random(rng)
            rows[-1] = [(a * x + b * y) % field.p
                        for x, y in zip(rows[0], rows[1])]
        if rng.random() < 0.3:
            j = int(rng.integers(k))
            for row in rows:
                row[j] = 0
        zero_columns += any(not any(col) for col in zip(*rows))
        red, piv = rref(rows, field)
        assert red.dtype == object
        assert (red.tolist(), piv) == _fraction_rref(rows, field)
        ranks.add(len(piv) < m)
        space = Subspace(list(range(k)), np.array(rows, dtype=object), field)
        for _ in range(3):
            ranking = [int(j) for j in rng.permutation(k)]
            ref = _fraction_rref([[row[j] for j in ranking] for row in rows],
                                 field)[1]
            assert space.leading_columns(ranking) == [ranking[j] for j in ref]
    assert ranks == {True, False} and zero_columns


def test_rref_exact_over_a_prime_field_does_not_eliminate_over_q(
        monkeypatch):
    # over Q the rows are independent; over GF(2) the first one vanishes
    rows = [[2, 4], [1, 3]]
    assert rref_exact(rows) == ([[1, 0], [0, 1]], [0, 1])
    # the determinant -2p vanishes mod p alone
    p = 2 ** 40 + 15
    big = [[2, 2 * p + 4], [1, 2]]
    assert rref_exact(big)[1] == [0, 1]

    def refuse(_rows):
        raise AssertionError("rows over GF(p) eliminated over Q")

    monkeypatch.setattr(linalg, "rref_exact", refuse)
    for mat, field, reduced in ((rows, PrimeField(2), [[1, 1]]),
                                (big, PrimeField(p), [[1, 2]])):
        red, piv = rref(mat, field)
        assert (red.tolist(), piv) == (reduced, [0])
        assert vector_rank(mat, field) == 1
    with pytest.raises(AssertionError):
        rref(rows, QQ)


def test_rank_helpers():
    assert vector_rank([], GFP) == 0
    assert vector_rank([[1, 2], [2, 4], [0, 1]], GFP) == 2


#: int64 rows, object rows past 2**63, and Q
EDGE_FIELDS = [GFP, PrimeField(618970019642690137449562111), QQ]


@pytest.mark.parametrize("field", EDGE_FIELDS, ids=str)
def test_inputs_without_rows_or_columns_have_no_pivots(field):
    dtype = row_dtype(field)
    for rows, shape in (([], (0, 0)), ([[]], (0, 0)), ([[], []], (0, 0)),
                        (np.zeros((0, 4), dtype), (0, 4)),
                        (np.zeros((3, 0, 4), dtype), (3, 0, 4)),
                        (np.zeros((2, 3, 0), dtype), (2, 0, 0))):
        red, piv = rref(rows, field)
        assert (red.shape, red.dtype, piv) == (shape, dtype, [])
    # numpy arrays as well as lists
    mat = np.array([[1, 2], [2, 4], [0, 1]], dtype=dtype)
    assert vector_rank(mat, field) == 2
    assert vector_rank(mat[:0], field) == vector_rank(mat[:, :0], field) == 0


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_prime_and_rational_pivots_agree(seed):
    # with small entries and a huge modulus, pivot structure matches Q
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    mat = rng.integers(-5, 6, size=(m, k))
    _, piv_p = rref(np.mod(mat, GFP.p).tolist(), GFP)
    _, piv_q = rref([[Fraction(int(x)) for x in row] for row in mat], QQ)
    assert piv_p == piv_q


def test_rref_is_deterministic_under_row_permutation():
    rows = [[1, 2, 3], [0, 1, 1], [2, 5, 7]]
    red1, piv1 = rref(rows, PrimeField(101))
    red2, piv2 = rref([rows[2], rows[0], rows[1]], PrimeField(101))
    assert piv1 == piv2
    assert red1.tolist() == red2.tolist()


def _from_dicts(vectors, columns, field) -> Subspace:
    """A subspace spanned by dict vectors (monomial -> coefficient)."""
    return Subspace.from_vectors(
        [references.row(v, columns, field) for v in vectors], columns, field)


@pytest.mark.parametrize("field", [GFP, PrimeField(2 ** 40 + 15), QQ],
                         ids=str)
def test_from_vectors_checks_its_rows(field):
    columns = all_monomials(EXT, 4, 2)
    empty = Subspace.from_vectors([], columns, field)
    assert empty.rows.shape == (0, len(columns))
    assert empty.rows.dtype == row_dtype(field)
    rows = [[field(j + k) for j in range(len(columns))] for k in range(2)]
    sp = Subspace.from_vectors(rows, columns, field)
    assert sp.rows.shape == (2, len(columns)) and sp.rows.tolist() == rows
    # a short row, a long one, and ragged rows
    for bad in ([rows[0][:-1]], [rows[0] + [field.one]],
                [rows[0], rows[1][:-1]]):
        with pytest.raises(InvalidInputError):
            Subspace.from_vectors(bad, columns, field)


def test_initial_space_picks_leading_pivots():
    n = 4
    e = lambda s: ext_monomial(s, n)
    # span of e12 + e34 and e13 + e24
    vecs = [{e([1, 2]): 1, e([3, 4]): 1}, {e([1, 3]): 1, e([2, 4]): 1}]
    sp = _from_dicts(vecs, all_monomials(EXT, n, 2), GFP)
    assert initial_space(LEX, sp) == {e([1, 2]), e([1, 3])}
    # re-sorting the same rows under revlex changes the leading terms
    assert initial_space(REVLEX, sp) == {e([1, 2]), e([1, 3])}


def test_initial_space_order_sensitive():
    n = 4
    e = lambda s: ext_monomial(s, n)
    vecs = [{e([1, 4]): 1, e([2, 3]): 1}]
    sp_lex = _from_dicts(vecs, all_monomials(EXT, n, 2), GFP)
    assert initial_space(LEX, sp_lex) == {e([1, 4])}
    assert initial_space(REVLEX, sp_lex) == {e([2, 3])}


def test_initial_space_of_zero_rows_is_empty():
    sp = _from_dicts([{}, {}], all_monomials(EXT, 3, 2), GFP)
    assert initial_space(LEX, sp) == initial_space(REVLEX, sp) == set()


def test_full_component_span():
    n, d = 5, 2
    ms = all_monomials(EXT, n, d)
    vecs = [{m: 1} for m in ms]
    sp = _from_dicts(vecs, ms, GFP)
    assert initial_space(REVLEX, sp) == set(ms)


def test_primes_above_int64_range_are_exact():
    # above 2**31 products overflow int64; such primes run on object arrays
    # of python ints
    field = PrimeField(2 ** 40 + 15)
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = [field.random(rng) for _ in range(6)]
        c = field.random(rng) or 1
        assert vector_rank([r, [c * x % field.p for x in r]], field) == 1
    assert not fits_int64(field) and fits_int64(GFP) and not fits_int64(QQ)
    vecs = [{m: field.random(rng) for m in all_monomials(EXT, 4, 2)}
            for _ in range(3)]
    sp = _from_dicts(vecs, all_monomials(EXT, 4, 2), field)
    assert sp.rows.dtype == object
    assert len(sp.leading_columns(range(6))) == 3


# -- trial stacks, eliminated in lockstep ---------------------------------

#: int64 rows, object rows of python ints, and Q (matrix by matrix)
STACK_FIELDS = [PrimeField(5), PrimeField(2 ** 40 + 15), QQ]
STACK_IDS = ["gf5", "2^40+15", "qq"]


def _alone(mat, field):
    """One trial's (reduced rows as lists, pivots), eliminated alone."""
    if not field.characteristic:
        return rref_exact(mat)
    red, piv = rref_prime(np.array(mat, dtype=row_dtype(field)),
                          field.characteristic)
    return red.tolist(), piv


def _entry(field, rng):
    if field.characteristic:
        return field.random(rng)
    return Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))


@pytest.mark.parametrize("field", STACK_FIELDS, ids=STACK_IDS)
def test_a_stack_eliminates_as_its_trials_do_alone(field):
    # the reduced rows and pivots of each trial when they all agree, and a
    # CertificationError when their pivots part
    rng = np.random.default_rng(31)
    outcomes = Counter()
    for _ in range(200):
        k, m, ncols = (int(rng.integers(1, 4)), int(rng.integers(1, 6)),
                       int(rng.integers(1, 8)))
        zero = rng.random(ncols) < 0.2
        mats = [[[field.zero if zero[j] or rng.random() < 0.25
                  else _entry(field, rng) for j in range(ncols)]
                 for _ in range(m)] for _ in range(k)]
        for mat in mats:
            if m >= 3 and rng.random() < 0.2:  # rank-deficient
                mat[-1] = [field(2 * x - y) for x, y in zip(mat[0], mat[1])]
        alone = [_alone(mat, field) for mat in mats]
        stack = np.array(mats, dtype=row_dtype(field))
        if any(piv != alone[0][1] for _, piv in alone):
            with pytest.raises(CertificationError):
                rref(stack, field)
            outcomes["parted"] += 1
            continue
        red, piv = rref(stack, field)
        assert piv == alone[0][1]
        assert red.dtype == row_dtype(field)
        assert red.shape == (k, len(piv), ncols)
        assert red.tolist() == [rows for rows, _ in alone]
        outcomes["agreed", k == 1] += 1
    assert min(outcomes.values()) > 10 and len(outcomes) == 3, outcomes


@pytest.mark.parametrize("field", STACK_FIELDS, ids=STACK_IDS)
def test_a_stack_raises_where_one_trial_parts(field):
    f = lambda rows: [[field(x) for x in row] for row in rows]
    agree = f([[1, 2, 0, 3], [0, 0, 1, 4]])
    deficient = f([[1, 2, 0, 3], [2, 4, 0, 6]])
    other_pivot = f([[1, 2, 0, 3], [0, 1, 1, 4]])
    for odd, column in ((deficient, 2), (other_pivot, 1)):
        # the column loop names the column where the trials part
        match = (f"pivot column {column}$" if field.characteristic
                 else "pivot columns")
        with pytest.raises(CertificationError, match=match):
            rref(np.array([agree, odd, agree], dtype=row_dtype(field)), field)
    # a stack of one is its matrix
    red, piv = rref(np.array([agree], dtype=row_dtype(field)), field)
    alone = rref(agree, field)
    assert piv == alone[1] == [0, 2]
    assert red.tolist() == [alone[0].tolist()]


@pytest.mark.parametrize("p", [GFP.p, 618970019642690137449562111, 7])
def test_batch_inverses_match_pow(p):
    rng = np.random.default_rng(3)
    field = PrimeField(p)
    assert linalg._inverses([], p) == []
    for size in range(9):
        xs = [1, p - 1] + [field.random(rng) or 1 for _ in range(size)]
        rng.shuffle(xs)
        assert linalg._inverses(xs, p) == [pow(x, -1, p) for x in xs]


@pytest.mark.parametrize("field", EDGE_FIELDS[:2], ids=str)
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_lockstep_stacks_match_the_fraction_loop(field, k):
    # the head (0, 0) is zero in no trial, in the first only (a row swap in
    # that trial alone) or in all of them; a dependent row and a zero
    # column leave non-pivot columns
    rng = np.random.default_rng(k)
    p = field.characteristic
    for zero_heads in (0, 1, k):
        mats = [[[field.random(rng) or 1 for _ in range(6)]
                 for _ in range(4)] for _ in range(k)]
        for t, mat in enumerate(mats):
            if t < zero_heads:
                mat[0][0] = 0
            mat[3] = [(2 * x + 3 * y) % p for x, y in zip(mat[1], mat[2])]
            for row in mat:
                row[4] = 0
        red, piv = rref(np.array(mats, dtype=row_dtype(field)), field)
        assert red.shape == (k, 3, 6) and piv == [0, 1, 2]
        assert red.tolist() == [_fraction_rref(mat, field)[0] for mat in mats]


def test_a_stack_keeps_one_echelon_basis_for_all_its_trials(monkeypatch):
    calls = []
    lockstep = linalg._rref_lockstep
    monkeypatch.setattr(linalg, "_rref_lockstep", lambda a, p: calls.append(
        a.shape) or lockstep(a, p))
    # c0 + c2, c1 + c3 and c0 + c3, c1 + c2: leading columns {0, 1} under
    # the identity, and under a ranking both kept bases still fit
    space = Subspace.stack([Subspace(list(range(4)), np.array(
        rows, dtype=np.int64), GFP) for rows in (
            [[1, 0, 1, 0], [0, 1, 0, 1]], [[1, 0, 0, 1], [0, 1, 1, 0]])])
    assert space.rows.shape == (2, 2, 4)
    assert space.leading_columns([0, 1, 2, 3]) == [0, 1]
    assert space.leading_columns([1, 0, 3, 2]) == [1, 0]
    assert calls == [(2, 2, 4)]
    # the first basis fits [0, 2, 1, 3] and the second does not, so their
    # leading columns part: one more elimination, which raises
    with pytest.raises(CertificationError):
        space.leading_columns([0, 2, 1, 3])
    assert calls == [(2, 2, 4)] * 2


def test_a_trial_set_that_parts_escalates_and_certifies(monkeypatch):
    # under revlex over GF(31) the first three trials part inside the
    # elimination; six fresh ones certify the gin
    parted = []
    lockstep = linalg._rref_lockstep

    def record(a, p):
        try:
            return lockstep(a, p)
        except CertificationError:
            parted.append(a.shape)
            raise

    monkeypatch.setattr(linalg, "_rref_lockstep", record)
    rei = MonomialIdeal.make(EXT, 4, [ext_monomial(s, 4)
                                      for s in ((1, 2), (1, 3), (3, 4))])
    g, cert = gin(REVLEX, rei, seed=1, field=PrimeField(31))
    assert parted and all(shape[0] == 3 for shape in parted)
    assert cert.escalated and cert.accepted and cert.trials == 6
    assert g == MonomialIdeal.make(EXT, 4, [ext_monomial(s, 4) for s in
                                            ((1, 2), (1, 3), (2, 3))])
