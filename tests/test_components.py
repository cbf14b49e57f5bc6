"""The degree-component route of the gin engine (one image matrix per trial
against the basis table, one ranking per order, the smaller side of each
component) against the direct route of ``references``: each trial's images
of the sources as dict vectors, sorted with ``cmp_to_key`` of the
hand-written comparison for every (trial, order) and then eliminated."""

import importlib

import numpy as np
import pytest

from ginshift.changes import CoordinateChange
from ginshift.fields import GFP, QQ, PrimeField, row_dtype
from ginshift.gin import (CertificationError, _Trials, complement_dual,
                          gin_space)
from ginshift.ideals import MonomialIdeal
from ginshift.linalg import Subspace, rref
from ginshift.monomials import (EXT, POLY, all_monomials, basis_table,
                                ext_monomial, poly_monomial)
from ginshift.orders import LEX, REVLEX, Inverse, WeightOrder
from ginshift.verifier import sweep_theorem1
import references
from references import initial_space


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
            old = _outcome(lambda: references.direct_component(
                order, ring, n, d, monomials, phis))
            assert new == old, (ring, n, d, order, sorted(map(str, monomials)))
            seen.add("raised" if new == "raised" else
                     "empty" if not monomials else
                     "full" if len(monomials) == len(ambient) else "partial")
    # over GF(2) the trials of a dense change can disagree
    assert {"empty", "full"} < seen


#: int64 rows, object rows of python ints, and Q
ROW_FIELDS = [GFP, PrimeField(2 ** 40 + 15), QQ]


@pytest.mark.parametrize("field", ROW_FIELDS, ids=str)
@pytest.mark.parametrize("ring", [EXT, POLY])
def test_images_are_rows_and_stack_as_the_dict_route(ring, field):
    rng = np.random.default_rng([len(ring), field.characteristic % 1000])
    stacks = duals = forced = 0
    for n in range(1, 6):
        phis = [CoordinateChange.random_dense(n, field, rng) for _ in range(3)]
        top = n if ring == EXT else 4
        for d in range(top + 1):
            basis = basis_table(ring, n, d)
            for phi in phis:
                for u in basis:
                    img = phi.apply(u)
                    assert img.dtype == row_dtype(field), (n, u)
                    assert img.shape == (len(basis),), (n, u)
        # a few ideals, each generated by random monomials of degree 1 to 3
        for _ in range(5):
            ambient = all_monomials(ring, n, int(rng.integers(1, min(top, 3)
                                                              + 1)))
            gens = [ambient[j] for j in rng.choice(
                len(ambient), size=int(rng.integers(1, 3)))]
            ideal = MonomialIdeal.make(ring, n, gens)
            trials = _Trials(ring, n, ideal.degree_component, phis,
                             ideal=True)
            for d in range(top + 1):
                got = _outcome(lambda: trials.component(REVLEX, d))
                sources, basis = trials._sources[d], basis_table(ring, n, d)
                if not 0 < len(sources) < len(basis):
                    assert d not in trials._spaces
                    continue
                if d not in trials._spaces:
                    # forced: R_1 times the degree below fills the degree
                    below = trials.component(REVLEX, d - 1)
                    assert trials._forced[below] == got == \
                        references.direct_component(REVLEX, ring, n, d,
                                                    sources, phis)
                    forced += 1
                    continue
                # the smaller side: psi = phi^{-T}'s images of the
                # complement when it has fewer monomials
                changes, stacked = phis, sources
                if 2 * len(sources) > len(basis):
                    assert d in trials._duals, (n, d, ideal)
                    changes = [references.dual(phi) for phi in phis]
                    stacked = [u for u in basis if u not in set(sources)]
                    duals += 1
                else:
                    assert d not in trials._duals, (n, d, ideal)
                want = [[references.row(references.image(change, u), basis,
                                        field) for u in stacked]
                        for change in changes]
                got = trials._spaces[d].rows
                assert got.dtype == row_dtype(field)
                assert got.tolist() == want, (n, d, ideal)
                stacks += 1
    assert stacks > 10 and 0 < duals < stacks and forced


# -- forced components ------------------------------------------------------
# in(phi(I)) is an ideal for every trial, so a degree that R_1 times the
# degree below already fills is that product, with no stack


@pytest.fixture
def stacks(monkeypatch):
    """The widths of the stacks built through ``ginshift.gin``'s binding of
    ``Subspace``, in the order they are built."""
    gin = importlib.import_module("ginshift.gin")
    widths = []

    class Counted(Subspace):
        @classmethod
        def stack(cls, spaces):
            widths.append(len(spaces[0].columns))
            return Subspace.stack(spaces)

    monkeypatch.setattr(gin, "Subspace", Counted)
    return widths


def _tied_orders(n, rng):
    """lex, revlex, and weight orders with tied weights under both
    tie-breaks, each with its inverse."""
    w = tuple(sorted(map(int, rng.integers(1, 3, size=n)), reverse=True))
    orders = [LEX, REVLEX, WeightOrder(w, "lex"), WeightOrder(w, "revlex")]
    return orders + [Inverse(order) for order in orders]


@pytest.mark.parametrize("field", ROW_FIELDS, ids=str)
@pytest.mark.parametrize("ring", [EXT, POLY])
def test_forced_components_match_the_direct_route(ring, field, stacks):
    rng = np.random.default_rng([len(ring), field.characteristic % 1000, 13])
    forced = unforced = 0
    for _ in range(6):
        # the reference eliminates over Fractions on Q: smaller tables
        n = int(rng.integers(3, 5 if field == QQ else 6))
        top = n if ring == EXT else 3 if field == QQ else 4
        gens = []
        for d in (1, 2, 3)[:int(rng.integers(2, 4))]:
            ambient = all_monomials(ring, n, d)
            gens += [ambient[j] for j in rng.choice(len(ambient), size=min(
                len(ambient), int(rng.integers(1, 3))), replace=False)]
        ideal = MonomialIdeal.make(ring, n, gens)
        phis = _phis("dense", n, field, rng)
        trials = _Trials(ring, n, ideal.degree_component, phis, ideal=True)
        for order in _tied_orders(n, rng):
            for d in range(top + 1):
                assert trials.component(order, d) == \
                    references.direct_component(
                        order, ring, n, d, list(ideal.degree_component(d)),
                        phis), (n, order, d, ideal)
        # a stack for each non-trivial degree that some order eliminated
        assert len(stacks) == len(trials._spaces)
        stacks.clear()
        forced += sum(c is not None for c in trials._forced.values())
        unforced += sum(c is None for c in trials._forced.values())
    # both outcomes: a degree R_1 * C_{d-1} fills, and one it does not
    assert forced and unforced


def test_a_cold_theorem1_sweep_forces_a_quarter_of_its_stacks(
        stacks, fresh_trial_sets):
    report = sweep_theorem1(6, 0)
    assert report.passed
    assert len(stacks) == 202  # 277 with every degree eliminated


def test_single_degree_gins_never_force(stacks):
    # gin_space's source is one degree's span for every d, not an ideal:
    # each non-trivial degree has its stack, and complement_dual's two
    # sides have one each
    rng = np.random.default_rng(27)
    for ring, n, d in ((EXT, 5, 2), (EXT, 5, 3), (POLY, 3, 2), (POLY, 3, 3)):
        basis = basis_table(ring, n, d)
        for r in range(1, len(basis)):
            monomials = [basis[j] for j in rng.choice(len(basis), size=r,
                                                      replace=False)]
            gin_space(REVLEX, monomials, ring, n, d, seed=r)
            assert stacks == [len(basis)], (ring, n, d, r)
            stacks.clear()
            if d == 2:
                complement_dual(LEX, monomials, ring, n, seed=r)
                assert stacks == [len(basis)] * 2, (ring, n, r)
                stacks.clear()


#: int64 rows, object rows of python ints, a prime at most d, and Q
DUAL_FIELDS = [GFP, PrimeField(2 ** 40 + 15), PrimeField(3), QQ]


@pytest.mark.parametrize("field", DUAL_FIELDS, ids=str)
@pytest.mark.parametrize("kind", ["dense", "upper"])
@pytest.mark.parametrize("ring", [EXT, POLY])
def test_every_component_matches_the_direct_route(ring, kind, field):
    # seeded random spans of every size r from 0 to N, under orders and
    # their inverses: the dual route where N - r < r (and p > d in the
    # polynomial ring), the direct route otherwise, against the direct
    # route of the references
    rng = np.random.default_rng([len(ring), len(kind),
                                 field.characteristic % 1000])
    shapes = ([(4, 2), (5, 2), (4, 3), (5, 3)] if ring == EXT else
              [(3, 2), (4, 2), (3, 3), (2, 4)])
    routes = set()
    for n, d in shapes:
        basis = basis_table(ring, n, d)
        phis = _phis(kind, n, field, rng)
        small = ring == POLY and 0 < field.characteristic <= d
        for r in range(len(basis) + 1):
            monomials = [basis[j] for j in
                         rng.choice(len(basis), size=r, replace=False)]
            trials = _Trials(ring, n, lambda _d: monomials, phis)
            for order in _orders(n, rng):
                got = _outcome(lambda: trials.component(order, d))
                want = _outcome(lambda: references.direct_component(
                    order, ring, n, d, monomials, phis))
                assert got == want, (n, d, order, sorted(map(str, monomials)))
            dual = d in trials._duals
            assert dual == (len(basis) < 2 * r < 2 * len(basis)
                            and not small), (n, d, r)
            routes.add(dual)
    assert routes == {False, True}


@pytest.mark.parametrize("p", [2, 3])
def test_polynomial_components_at_p_at_most_d_take_the_direct_route(p):
    # Sym^d psi is (Sym^d phi)^{-T} only up to the scaling by a!, which is
    # 0 mod p once d >= p; the exterior powers need no scaling
    field, n = PrimeField(p), 3
    phis = _phis("dense", n, field, np.random.default_rng(p))
    for ring in (EXT, POLY):
        for d in range(1, n if ring == EXT else p + 2):
            basis = basis_table(ring, n, d)
            monomials = basis[1:]
            trials = _Trials(ring, n, lambda _d: monomials, phis)
            _outcome(lambda: trials.component(LEX, d))
            if ring == EXT or d < p:
                assert d in trials._duals, (ring, d)
                continue
            assert d not in trials._duals, (ring, d)
            assert trials._spaces[d].rows.tolist() == [
                [phi.apply(u).tolist() for u in monomials] for phi in phis]


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3)], ids=str)
def test_a_disagreeing_trial_set_raises_at_the_same_degree_on_both_routes(
        field):
    rng = np.random.default_rng(field.characteristic)
    dual_raises = 0
    for _ in range(40):
        n = int(rng.integers(3, 6))
        ambient = all_monomials(EXT, n, int(rng.integers(1, 3)))
        ideal = MonomialIdeal.make(EXT, n, [ambient[j] for j in rng.choice(
            len(ambient), size=int(rng.integers(1, 3)))])
        phis = _phis("dense", n, field, rng)
        routes = [_Trials(EXT, n, ideal.degree_component, phis, dual=dual)
                  for dual in (True, False)]
        for order in (LEX, REVLEX, Inverse(LEX)):
            raised = [next((d for d in range(n + 1) if _outcome(
                lambda: t.component(order, d)) == "raised"), None)
                for t in routes]
            assert raised[0] == raised[1], (ideal, order)
            dual_raises += raised[0] in routes[0]._duals
    assert dual_raises


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
    # the dual of a singular matrix is refused: the direct route raised
    assert trials._duals == set()


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
    sp = Subspace.from_vectors([references.row(v, basis, field)
                                for v in vecs], basis, field)
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
