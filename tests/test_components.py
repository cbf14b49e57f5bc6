"""The degree-component route of the gin engine (one image matrix per trial
against the basis table, one ranking per order) against the route it
replaced: dict vectors whose union of supports is sorted with ``cmp_to_key``
of the hand-written comparison in ``references`` for every (trial, order)
and then eliminated."""

import functools
import importlib

import numpy as np
import pytest

from ginshift.changes import CoordinateChange
from ginshift.fields import GFP, QQ, PrimeField
from ginshift.gin import CertificationError, _Trials
from ginshift.ideals import MonomialIdeal
from ginshift.linalg import Subspace, rref
from ginshift.monomials import (EXT, POLY, all_monomials, ext_monomial,
                                poly_monomial)
from ginshift.orders import LEX, REVLEX, Inverse, WeightOrder
from references import compare, initial_space


def _old_pivots(vectors, order, field):
    vectors = [v for v in vectors if v]
    if not vectors:
        return frozenset()
    by_order = functools.cmp_to_key(functools.partial(compare, order))
    columns = sorted(set().union(*vectors), key=by_order, reverse=True)
    index = {m: j for j, m in enumerate(columns)}
    rows = []
    for v in vectors:
        row = [field.zero] * len(columns)
        for m, c in v.items():
            row[index[m]] = c
        rows.append(row)
    return frozenset(columns[j] for j in rref(rows, field)[1])


def _old_component(order, monomials, phis):
    results = [_old_pivots([phi.apply(u) for u in monomials], order,
                           phi.field) for phi in phis]
    if any(r != results[0] for r in results) \
            or len(results[0]) != len(monomials):
        raise CertificationError("disagreement")
    return results[0]


def _outcome(compute):
    try:
        return compute()
    except CertificationError:
        return "raised"


def _phis(kind, n, field, rng):
    if kind == "dense":
        return [CoordinateChange.random_dense(n, field, rng) for _ in range(3)]
    if kind == "upper":
        return [CoordinateChange.random_upper_triangular(n, field, rng)
                for _ in range(3)]
    a = int(rng.integers(1, n))
    return [CoordinateChange.elementary(a, int(rng.integers(a + 1, n + 1)),
                                        n, field)]


def _orders(n, rng):
    w = tuple(sorted(map(int, rng.choice(10 ** 3, size=n, replace=False)
                         + 1), reverse=True))
    weight = WeightOrder(w, "revlex" if rng.integers(2) else "lex")
    return [LEX, REVLEX, weight, Inverse(LEX), Inverse(weight)]


@pytest.mark.parametrize("field", [GFP, PrimeField(2), QQ],
                         ids=["gfp", "gf2", "qq"])
@pytest.mark.parametrize("kind", ["dense", "upper", "elementary"])
@pytest.mark.parametrize("ring", [EXT, POLY])
def test_component_route_matches_the_dict_route(ring, kind, field):
    rng = np.random.default_rng([len(ring), len(kind), field.characteristic
                                 % 1000])
    seen = set()
    for sample in range(12):
        n = int(rng.integers(2, 5 if field == QQ else 6))
        d = int(rng.integers(1, n + 1 if ring == EXT else 4))
        ambient = all_monomials(ring, n, d)
        # the empty and the full component, then random spans
        size = (0, len(ambient))[sample] if sample < 2 else \
            int(rng.integers(1, max(2, len(ambient))))
        monomials = [ambient[j] for j in
                     rng.choice(len(ambient), size=size, replace=False)]
        phis = _phis(kind, n, field, rng)
        trials = _Trials(ring, n, lambda _d: monomials, phis)
        for order in _orders(n, rng):
            new = _outcome(lambda: trials.component(order, d))
            old = _outcome(lambda: _old_component(order, monomials, phis))
            assert new == old, (ring, n, d, order, sorted(map(str, monomials)))
            seen.add("raised" if new == "raised" else
                     "empty" if not monomials else
                     "full" if len(monomials) == len(ambient) else "partial")
    # over GF(2) the trials of a dense change can disagree
    assert {"empty", "full"} < seen


@pytest.mark.parametrize("ring,n,d", [(EXT, 5, 2), (EXT, 4, 4), (POLY, 3, 2)])
def test_exact_components_need_no_images(ring, n, d):
    ambient = all_monomials(ring, n, d)
    phis = [CoordinateChange.random_dense(n, GFP, np.random.default_rng(k))
            for k in range(3)]
    for monomials, want in ((ambient, set(ambient)), ([], set())):
        trials = _Trials(ring, n, lambda _d: monomials, phis)
        for order in (LEX, REVLEX, Inverse(LEX)):
            assert trials.component(order, d) == want
        assert trials._spaces == {}


def test_trials_that_agree_below_the_hilbert_function_raise():
    # two changes whose matrices turn singular after their invertibility
    # check send x1 and x2 to one form: the trials agree, on one leading
    # monomial where the Hilbert function asks for two
    phis = [CoordinateChange.identity(3, GFP) for _ in range(2)]
    for phi in phis:
        phi.matrix = ((1, 1, 0), (1, 1, 0), (0, 0, 1))
    sources = [poly_monomial((1, 0, 0)), poly_monomial((0, 1, 0))]
    trials = _Trials(POLY, 3, lambda _d: sources, phis)
    with pytest.raises(CertificationError, match="Hilbert function"):
        trials.component(LEX, 1)


def test_orders_ranking_the_table_alike_share_one_elimination():
    # in degree 1 every decreasing weight order ranks x1 > ... > xn, as lex
    n = 4
    monomials = [ext_monomial([2], n), ext_monomial([4], n)]
    phis = [CoordinateChange.random_dense(n, GFP, np.random.default_rng(k))
            for k in range(2)]
    trials = _Trials(EXT, n, lambda _d: monomials, phis)
    got = {trials.component(order, 1)
           for order in (LEX, REVLEX, WeightOrder((9, 7, 4, 1)))}
    assert got == {frozenset(ext_monomial([i], n) for i in (1, 2))}
    assert len(trials._pivots) == 1


def test_components_of_degrees_ranked_alike_stay_apart():
    # in four variables lex ranks the degree-1 and the degree-3 table by the
    # same permutation of positions
    n = 4
    ideal = MonomialIdeal.make(EXT, n, [ext_monomial([4], n)])
    trials = _Trials.draw(EXT, n, ideal.degree_component, 3, 0, GFP)
    assert LEX.ranking(EXT, n, 1) == LEX.ranking(EXT, n, 3)
    assert trials.component(LEX, 1) == {ext_monomial([1], n)}
    assert trials.component(LEX, 3) == {ext_monomial(s, n) for s in
                                        ((1, 2, 3), (1, 2, 4), (1, 3, 4))}


@pytest.mark.parametrize("field", [GFP, QQ], ids=["gfp", "qq"])
def test_subspace_rows_and_initial_space_on_both_row_kinds(field):
    n = 4
    e = lambda s: ext_monomial(s, n)
    vecs = [{e([1, 4]): field(1), e([2, 3]): field(1)}]
    basis = all_monomials(EXT, n, 2)
    sp = Subspace.from_vectors(vecs, basis, field)
    assert sp.rows.dtype == (np.int64 if field == GFP else object)
    assert initial_space(LEX, sp) == {e([1, 4])}
    assert initial_space(REVLEX, sp) == {e([2, 3])}
    assert rref(sp.rows, field)[1] == [2]


@pytest.mark.parametrize("field", [PrimeField(3), QQ], ids=["gf3", "qq"])
def test_leading_columns_match_a_fresh_elimination(field):
    # small entries give many zeros, so kept echelon bases are often
    # rejected; every answer must be the pivots of rows[:, ranking]
    rng = np.random.default_rng(7)
    for _ in range(40):
        k, ncols = int(rng.integers(1, 5)), int(rng.integers(2, 8))
        rows = [[field(int(x)) for x in rng.integers(0, 3, size=ncols)]
                for _ in range(k)]
        columns = list(range(ncols))
        space = Subspace(columns, np.array(
            rows, dtype=object if field == QQ else np.int64), field)
        for _ in range(8):
            ranking = [int(j) for j in rng.permutation(ncols)]
            fresh = rref([[row[j] for j in ranking] for row in rows],
                         field)[1]
            assert space.leading_columns(ranking) == [ranking[j]
                                                      for j in fresh]


def test_a_kept_echelon_basis_serves_every_ranking_it_fits(monkeypatch):
    linalg = importlib.import_module("ginshift.linalg")
    calls = []
    real = linalg.rref_prime
    monkeypatch.setattr(linalg, "rref_prime",
                        lambda mat, p: calls.append(mat.shape) or real(mat, p))
    # span of c0 + c2 and c1 + c3: its leading columns are {0, 1} under
    # every ranking with 0 above 2 and 1 above 3
    space = Subspace(list(range(4)),
                     np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.int64),
                     GFP)
    assert space.leading_columns([0, 1, 2, 3]) == [0, 1]
    assert space.leading_columns([1, 0, 3, 2]) == [1, 0]
    assert space.leading_columns([0, 2, 1, 3]) == [0, 1]
    assert len(calls) == 1
    assert space.leading_columns([2, 0, 1, 3]) == [2, 1]
    assert len(calls) == 2
