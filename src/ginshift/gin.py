"""Certified generic initial ideals, combinatorial shifting, and the search
for transformed strongly stable ideals.

A gin is accepted only when independent random trials agree, the result is
strongly stable, and the Hilbert function matches the input at every degree
up to the cap; anything less is reported as a certification failure.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field as dc_field

import numpy as np

from .changes import CoordinateChange
from .fields import GFP, InvalidInputError
from .ideals import MonomialIdeal, is_strongly_stable
from .linalg import pivots_of_vectors
from .monomials import EXT, POLY, Monomial, all_monomials
from .orders import LEX, Inverse, TermOrder


class CertificationError(RuntimeError):
    """Trials disagreed or the candidate failed stability / Hilbert checks."""

    def __init__(self, message, results=None):
        super().__init__(message)
        self.results = results


class DualityViolationError(RuntimeError):
    """The two sides of the complement duality differ (genericity failure)."""


@dataclass
class GinCertificate:
    order: str
    trials: int
    seed: int
    agreement: list[bool] = dc_field(default_factory=list)
    strongly_stable: bool = False
    hilbert_match: bool = False
    escalated: bool = False

    @property
    def accepted(self) -> bool:
        return all(self.agreement) and self.strongly_stable and self.hilbert_match

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "trials": self.trials,
            "seed": self.seed,
            "agreement": self.agreement,
            "strongly_stable": self.strongly_stable,
            "hilbert_match": self.hilbert_match,
            "escalated": self.escalated,
            "accepted": self.accepted,
        }


def _trial_rngs(seed: int, trials: int, salt: int = 0):
    ss = np.random.SeedSequence([seed, salt])
    return [np.random.default_rng(child) for child in ss.spawn(trials)]


def default_degree_cap(ideal: MonomialIdeal) -> int:
    if ideal.ring == EXT:
        return ideal.n
    return ideal.max_generator_degree + 1


def transformed_components(order: TermOrder, phi: CoordinateChange,
                           ideal: MonomialIdeal, cap: int) -> dict[int, frozenset]:
    """in_order(phi(I))_d for every d <= cap; exact because I is graded."""
    if ideal.ring == EXT:
        cap = min(cap, ideal.n)
    comps: dict[int, frozenset] = {}
    for d in range(cap + 1):
        comp = ideal.degree_component(d)
        vectors = [phi.apply(u) for u in comp]
        comps[d] = frozenset(
            pivots_of_vectors(vectors, order, phi.field, ideal.ring, ideal.n, d))
    return comps


def ideal_from_components(ring: str, n: int, comps: dict[int, frozenset]) -> MonomialIdeal:
    return MonomialIdeal.from_components(ring, n, {d: set(s) for d, s in comps.items()})


def truncated_initial_ideal(order: TermOrder, phi: CoordinateChange,
                            ideal: MonomialIdeal, cap: int) -> MonomialIdeal:
    """One layer of the Trans composition: in_order(phi(I)), exact up to cap."""
    return ideal_from_components(ideal.ring, ideal.n,
                                 transformed_components(order, phi, ideal, cap))


def _stability_flavor(ring: str) -> bool:
    # exterior monomials are squarefree by construction; the plain rule applies
    return False


def gin(order: TermOrder, ideal: MonomialIdeal, cap: int | None = None,
        trials: int = 3, seed: int = 0, field=GFP,
        ) -> tuple[MonomialIdeal, GinCertificate]:
    """Certified generic initial ideal, exact up to ``cap``.

    Each trial uses an independent random dense matrix; acceptance requires
    unanimous agreement, strong stability, and Hilbert preservation.  On
    failure the trial count is doubled once before giving up.
    """
    if trials < 2:
        raise InvalidInputError("gin requires at least 2 trials")
    if cap is None:
        cap = default_degree_cap(ideal)
    results, cert = _gin_components(order, ideal, cap, trials, seed, field)
    if cert.accepted:
        return ideal_from_components(ideal.ring, ideal.n, results[0]), cert
    results, cert = _gin_components(order, ideal, cap, 2 * trials, seed, field, salt=1)
    cert.escalated = True
    if cert.accepted:
        return ideal_from_components(ideal.ring, ideal.n, results[0]), cert
    raise CertificationError(
        f"gin certification failed for {ideal} under {order}", results)


def _gin_components(order, ideal, cap, trials, seed, field, salt=0):
    cert = GinCertificate(order=str(order), trials=trials, seed=seed)
    results = []
    for rng in _trial_rngs(seed, trials, salt):
        phi = CoordinateChange.random_dense(ideal.n, field, rng)
        results.append(transformed_components(order, phi, ideal, cap))
    cert.agreement = [r == results[0] for r in results]
    candidate = ideal_from_components(ideal.ring, ideal.n, results[0])
    cert.strongly_stable = is_strongly_stable(candidate)[0]
    cert.hilbert_match = all(
        len(results[0][d]) == len(ideal.degree_component(d)) for d in results[0])
    return results, cert


def gin_adaptive(order: TermOrder, ideal: MonomialIdeal, trials: int = 3,
                 seed: int = 0, field=GFP, max_cap: int = 12,
                 ) -> tuple[MonomialIdeal, GinCertificate, int]:
    """Polynomial-ring gin with the cap grown until it clears the top
    generator degree of the certified candidate (regularity bound)."""
    cap = default_degree_cap(ideal)
    while True:
        g, cert = gin(order, ideal, cap, trials, seed, field)
        if g.max_generator_degree < cap or cap >= max_cap:
            return g, cert, cap
        cap = g.max_generator_degree + 1


def gin_multi(orders, ideal: MonomialIdeal, cap: int | None = None,
              trials: int = 3, seed: int = 0, field=GFP) -> list[MonomialIdeal]:
    """Certified gins under several orders at once, sharing the transformed
    image vectors across orders (the coordinate change is order-independent,
    so one application per trial serves every order)."""
    if cap is None:
        cap = default_degree_cap(ideal)
    if ideal.ring == EXT:
        cap = min(cap, ideal.n)
    degrees = range(cap + 1)
    trial_images = []
    for rng in _trial_rngs(seed, trials):
        phi = CoordinateChange.random_dense(ideal.n, field, rng)
        trial_images.append({d: [phi.apply(u) for u in ideal.degree_component(d)]
                             for d in degrees})
    out = []
    for order in orders:
        results = []
        for images in trial_images:
            comps = {d: frozenset(pivots_of_vectors(
                images[d], order, field, ideal.ring, ideal.n, d))
                for d in degrees}
            results.append(comps)
        candidate = ideal_from_components(ideal.ring, ideal.n, results[0])
        agree = all(r == results[0] for r in results)
        stable = is_strongly_stable(candidate)[0]
        hilbert = all(len(results[0][d]) == len(ideal.degree_component(d))
                      for d in degrees)
        if not (agree and stable and hilbert):
            raise CertificationError(
                f"shared-trial gin failed under {order} for {ideal}",
                results)
        out.append(candidate)
    return out


def gin_multi_adaptive(orders, ideal: MonomialIdeal, trials: int = 3,
                       seed: int = 0, field=GFP, max_cap: int = 12,
                       ) -> list[tuple[MonomialIdeal, int]]:
    """Adaptive-cap gins under several orders with shared trial matrices.

    The coordinate changes live across cap growth, so image vectors computed
    for low degrees are reused when the cap rises; each order's result is
    certified like ``gin`` (agreement, stability, Hilbert).  Returns
    (gin, cap) per order.
    """
    for salt in (0, 1):
        n_trials = trials if salt == 0 else 2 * trials
        phis = [CoordinateChange.random_dense(ideal.n, field, rng)
                for rng in _trial_rngs(seed, n_trials, salt)]
        try:
            return [_adaptive_one(order, ideal, phis, max_cap)
                    for order in orders]
        except CertificationError:
            if salt == 1:
                raise
    raise AssertionError("unreachable")


@functools.lru_cache(maxsize=4096)
def _component(ideal: MonomialIdeal, d: int) -> tuple:
    return tuple(ideal.degree_component(d))


def _adaptive_one(order, ideal, phis, max_cap):
    cap = default_degree_cap(ideal)
    results: list[dict[int, frozenset]] = [{} for _ in phis]
    while True:
        for phi, comps in zip(phis, results):
            for d in range(cap + 1):
                if d not in comps:
                    vectors = [phi.apply(u) for u in _component(ideal, d)]
                    comps[d] = frozenset(pivots_of_vectors(
                        vectors, order, phi.field, ideal.ring, ideal.n, d))
        candidate = ideal_from_components(ideal.ring, ideal.n, results[0])
        agree = all(r == results[0] for r in results)
        stable = is_strongly_stable(candidate)[0]
        hilbert = all(len(results[0][d]) == len(_component(ideal, d))
                      for d in results[0])
        if not (agree and stable and hilbert):
            raise CertificationError(
                f"adaptive gin failed under {order} for {ideal}", results)
        if candidate.max_generator_degree < cap or cap >= max_cap:
            return candidate, cap
        cap = candidate.max_generator_degree + 1


def _stable_component(monomials) -> bool:
    """Within-degree Borel closure: every index-lowering exchange of every
    member stays inside the set."""
    s = set(monomials)
    from .ideals import _smaller_exchanges
    return all(v in s for u in s for v in _smaller_exchanges(u))


def gins_agree_adaptive(order_a: TermOrder, order_b: TermOrder,
                        ideal: MonomialIdeal, trials: int = 3, seed: int = 0,
                        field=GFP, max_cap: int = 12) -> bool:
    """Certified equality test for two adaptive-cap gins, stopping at the
    first degree where the (exact, per-degree) components differ.

    Much cheaper than computing both gins in full when they disagree early:
    degree components of in(phi(I)) are exact independently of any cap, so a
    certified low-degree mismatch already settles inequality.
    """
    for salt in (0, 1):
        n_trials = trials if salt == 0 else 2 * trials
        phis = [CoordinateChange.random_dense(ideal.n, field, rng)
                for rng in _trial_rngs(seed, n_trials, salt)]
        try:
            return _agree_adaptive(order_a, order_b, ideal, phis, max_cap)
        except CertificationError:
            if salt == 1:
                raise
    raise AssertionError("unreachable")


def _agree_adaptive(order_a, order_b, ideal, phis, max_cap):
    cap = default_degree_cap(ideal)
    if ideal.ring == EXT:
        max_cap = min(max_cap, ideal.n)
        cap = min(cap, ideal.n)
    per_order: dict = {order_a: [dict() for _ in phis],
                       order_b: [dict() for _ in phis]}
    done = 0
    while True:
        for d in range(done, cap + 1):
            comp = _component(ideal, d)
            for order, results in per_order.items():
                for phi, comps in zip(phis, results):
                    vectors = [phi.apply(u) for u in comp]
                    comps[d] = frozenset(pivots_of_vectors(
                        vectors, order, phi.field, ideal.ring, ideal.n, d))
                if any(r[d] != results[0][d] for r in results):
                    raise CertificationError(
                        f"trials disagreed in degree {d} under {order}")
                if len(results[0][d]) != len(comp):
                    raise CertificationError(
                        f"Hilbert mismatch in degree {d} under {order}")
                if not _stable_component(results[0][d]):
                    raise CertificationError(
                        f"unstable degree-{d} component under {order}")
            if per_order[order_a][0][d] != per_order[order_b][0][d]:
                return False
        done = cap + 1
        candidate = ideal_from_components(ideal.ring, ideal.n,
                                          per_order[order_a][0])
        if candidate.max_generator_degree < cap or cap >= max_cap:
            return True
        cap = min(max_cap, candidate.max_generator_degree + 1)


# -- monomial-spanned subspaces (single degree) -------------------------


def gin_space(order: TermOrder, monomials, ring: str, n: int, degree: int,
              trials: int = 3, seed: int = 0, field=GFP,
              upper_triangular: bool = False) -> set[Monomial]:
    """Certified gin of the span of a monomial set, within one degree."""
    monomials = set(monomials)
    if not monomials:
        return set()
    results = []
    for rng in _trial_rngs(seed, trials):
        if upper_triangular:
            phi = CoordinateChange.random_upper_triangular(n, field, rng)
        else:
            phi = CoordinateChange.random_dense(n, field, rng)
        vectors = [phi.apply(u) for u in monomials]
        results.append(frozenset(pivots_of_vectors(vectors, order, field, ring, n, degree)))
    if any(r != results[0] for r in results) or len(results[0]) != len(monomials):
        raise CertificationError(f"subspace gin trials disagreed (n={n}, d={degree})",
                                 results)
    return set(results[0])


def complement_dual(order: TermOrder, monomials, ring: str, n: int,
                    trials: int = 3, seed: int = 0, field=GFP,
                    verify: bool = True) -> set[Monomial]:
    """Complement of gin_order(span W) in the full degree-2 component.

    With ``verify`` the dual route gin_{order^{-1}}(complement W) is computed
    too and must coincide (complement duality); a mismatch raises.
    """
    ambient = set(all_monomials(ring, n, 2))
    w = set(monomials)
    if not w <= ambient:
        raise InvalidInputError("monomials are not of degree 2 in the given ring")
    primal = ambient - gin_space(order, w, ring, n, 2, trials, seed, field)
    if verify:
        dual = gin_space(Inverse(order), ambient - w, ring, n, 2, trials, seed + 1, field)
        if primal != dual:
            raise DualityViolationError(
                f"complement duality violated for {sorted(map(str, w))} under {order}")
    return primal


# -- combinatorial shifting and Trans ----------------------------------


def combinatorial_shift(order: TermOrder, ideal: MonomialIdeal,
                        pairs, cap: int | None = None, field=GFP) -> MonomialIdeal:
    """Left fold of elementary initial-ideal steps over the pair sequence."""
    if cap is None:
        cap = default_degree_cap(ideal)
    current = ideal
    for a, b in pairs:
        phi = CoordinateChange.elementary(a, b, ideal.n, field)
        current = truncated_initial_ideal(order, phi, current, cap)
    return current


_ELEMENTARY_CACHE: dict = {}


def _cached_elementary(a: int, b: int, n: int, field) -> CoordinateChange:
    key = (a, b, n, field)  # fields are frozen dataclasses: equal by value
    phi = _ELEMENTARY_CACHE.get(key)
    if phi is None:
        phi = CoordinateChange.elementary(a, b, n, field)
        _ELEMENTARY_CACHE[key] = phi
    return phi


def elementary_shift_space(order: TermOrder, monomials, ring: str, n: int,
                           degree: int, a: int, b: int,
                           field=GFP) -> frozenset:
    """in_order(phi_{a,b}(span of the monomials)) within a single degree."""
    phi = _cached_elementary(a, b, n, field)
    vectors = [phi.apply(u) for u in monomials]
    return frozenset(pivots_of_vectors(vectors, order, field, ring, n, degree))


def _shift_bfs(ideal: MonomialIdeal, budget: int, cap: int | None,
               order: TermOrder, field):
    """Yield (stable ideal, first shift sequence reaching it) breadth-first.

    Sequences are explored by length, then lexicographically by pair;
    ``budget`` bounds the number of shift applications.  Non-stable nodes keep
    expanding; stable nodes are terminal.
    """
    if cap is None:
        cap = default_degree_cap(ideal)
    n = ideal.n
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    seen = {ideal}
    queue: deque[tuple[MonomialIdeal, tuple]] = deque([(ideal, ())])
    spent = 0
    while queue:
        current, seq = queue.popleft()
        if is_strongly_stable(current)[0]:
            yield current, seq
            continue
        for pair in pairs:
            if spent >= budget:
                return
            spent += 1
            nxt = combinatorial_shift(order, current, [pair], cap, field)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, seq + (pair,)))


def trans_witnesses(ideal: MonomialIdeal, budget: int = 200,
                    cap: int | None = None, order: TermOrder = LEX, field=GFP,
                    ) -> dict[MonomialIdeal, tuple]:
    """All strongly stable ideals reachable by elementary shift sequences
    within the budget, each with the first sequence reaching it."""
    found: dict[MonomialIdeal, tuple] = {}
    for stable, seq in _shift_bfs(ideal, budget, cap, order, field):
        found.setdefault(stable, seq)
    if not found:
        raise CertificationError(
            f"shift budget {budget} exhausted with no stable result")
    return found
