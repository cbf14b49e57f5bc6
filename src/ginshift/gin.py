"""Certified generic initial ideals, combinatorial shifting, and the search
for transformed strongly stable ideals.

A gin is accepted only when independent random trials agree, the result is
strongly stable in its order's ranking (``ideals.relabel``), and the Hilbert
function matches up to the cap; anything less is a certification failure.

Complement duality: the leading monomials of phi(V)_d are exactly the
degree-d monomials that do not lead psi(W)_d under the reversed ranking,
where W is the span of the monomials outside V and psi = phi^{-T}
(``CoordinateChange.dual``), in the exterior ring over any field and in the
polynomial ring over Q or GF(p) with p > d. So in_<(phi(V)) is the
complement of in_{<^{-1}}(psi(W)), which is also the fact criterion 9
checks on gin_space (``complement_dual``). The engine eliminates the side
with fewer monomials (``_Trials``); ``gin_space`` keeps the direct side
always, so that check never compares the engine with itself.

Forced components: for every trial phi, in_<(phi(I)) is an ideal, in the
exterior ring as in the polynomial ring, because each order here is
multiplicative (lex, revlex, weight orders and their inverses: u > v
implies x_i u > x_i v whenever both are non-zero; for the exterior ring
see Aramova-Herzog-Hibi, J. Algebra 191, 1997). So its degree-d
component contains R_1 * C_{d-1}, the multiples of the certified
component C_{d-1} one degree down, and it has dim I_d monomials. When
R_1 * C_{d-1} already has dim I_d monomials, it is every trial's
component, exactly, and the engine returns it with no ranking, image,
stack or elimination (``_Trials``). That needs a source that is an
ideal: ``gin_space`` passes one degree's span for every d, so it never
forces, and ``complement_dual`` checks the duality on eliminated
components only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .changes import CoordinateChange, SingularMatrixError, peel_table
from .families import is_stable_family, pair_shift, sized
from .fields import GFP, InvalidInputError, SizeLimitError
from .ideals import (MonomialIdeal, family_ideal, is_strongly_stable,
                     relabel, squarefree_family)
from .linalg import CertificationError, Subspace
from .monomials import (EXT, Monomial, all_monomials, basis_index,
                        basis_table)
from .orders import LEX, Inverse, TermOrder


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
        return {**asdict(self), "accepted": self.accepted}


def _trial_rngs(seed: int, trials: int, salt: int = 0):
    ss = np.random.SeedSequence([seed, salt])
    return [np.random.default_rng(child) for child in ss.spawn(trials)]


#: trial sets kept at once. A sweep visits its classes n by n and draws one
#: set per n (and one more for an escalation), so it needs only the last
#: two; the property suite draws by seed + k and shares mostly between
#: neighbouring samples. A bound of 16 already adds 2% to the suite's peak
#: memory in kept rational rows, for no measurable gain in time
TRIAL_SETS = 8


@lru_cache(maxsize=TRIAL_SETS)
def _trial_changes(n: int, field, trials: int, seed: int, salt: int,
                   upper_triangular: bool) -> tuple[CoordinateChange, ...]:
    """The random changes of (seed, trials, salt) on n variables over the
    field, one per trial generator, each proven invertible once: a dense
    set by one stacked elimination (``CoordinateChange.random_set``), a
    triangular change by its diagonal. They depend on nothing else, so
    every certified gin drawing the same set shares these objects and, with
    them, their degree tables in both rings; the key holds the field, so no
    change serves another."""
    rngs = _trial_rngs(seed, trials, salt)
    if upper_triangular:
        return tuple(CoordinateChange.random_upper_triangular(n, field, rng)
                     for rng in rngs)
    return CoordinateChange.random_set(n, field, rngs)


def default_degree_cap(ideal: MonomialIdeal) -> int:
    if ideal.ring == EXT:
        return ideal.n
    return ideal.max_generator_degree + 1


def _degree_cap(ideal: MonomialIdeal, cap: int | None) -> int:
    """``cap``, or the default cap of the ideal when it is None."""
    if cap is not None and cap < 0:
        raise InvalidInputError(f"degree cap {cap} is negative")
    return default_degree_cap(ideal) if cap is None else cap


class _Trials:
    """The coordinate changes phi of one (seed, trials, salt) applied to a
    graded span V, whose degree-d part ``source(d)`` spans. A drawn set of
    changes is shared by every call with the same draw (``draw``); the
    sources, image matrices and pivots below belong to one call.

    A degree component lives against the basis table of its degree: each
    (phi, d) has one image matrix, assembled once and shared by every order,
    and an order enters only as its ranking of the table. The k image
    matrices of a degree are one stack, eliminated in lockstep, which
    raises at the first column where the trials part. Orders that rank the
    table alike share one result, and orders whose initial spaces agree
    share one elimination (``Subspace.leading_columns``). A component
    in_order(phi(V))_d is certified when every phi gives the same one and it
    has |V_d| monomials; for a single invertible phi both always hold. When
    V_d is 0 or all of R_d, so is every phi(V_d), and no image is needed.

    ``ideal`` turns on both shortcuts below. ``gin_space`` leaves it off: its
    span is no ideal, so nothing is forced, and ``complement_dual`` checks
    the duality the dual route rests on, so not through that route.

    Forced components: with ``ideal`` the sources are the graded pieces of
    an ideal I. Then each phi's component of degree d >= 1 contains R_1
    times its certified component C_{d-1} under the same order (module
    docstring), and when that product has |I_d| monomials it is the
    component of every phi: returned as it is, with no ranking, stack or
    elimination, and certified as an eliminated one would be. The product
    is read off ``peel_table`` on basis positions once per distinct
    C_{d-1} (``_forced``), which the orders of a sweep class mostly share.

    One candidate per ranking and component sequence: a gin candidate is
    the sequence of its certified components up to the cap, and its ideal
    is built and checked once for strong stability in the order's ranking
    (``relabel``); every later order or call with the same ranking and
    sequence gets it back. Only candidates that pass are kept, so one that
    fails raises for every order of that ranking yielding it.

    The smaller side of a component: with r sources among N basis
    monomials and N - r < r, the stack is the images of the N - r other
    monomials under each psi = phi^{-T} (``CoordinateChange.dual``), and
    the component is the complement of their leading columns under the
    reversed ranking (module docstring). That holds in the exterior ring
    over any field and in the polynomial ring over Q or GF(p) with p > d;
    below that, or without ``ideal``, or for a phi whose dual is refused,
    the stack is the r direct images. Both sides give each trial the same
    component, so agreement, escalations and certificates do not depend on
    the side taken. ``_duals`` holds the degrees whose stack is the dual.
    """

    def __init__(self, ring: str, n: int, source, phis, seed=None, salt=0,
                 ideal=False):
        self.ring, self.n, self.source = ring, n, source
        self.phis, self.seed, self.salt = phis, seed, salt
        self.ideal = ideal
        self._sources: dict[int, list] = {}
        self._forced: dict[frozenset, frozenset | None] = {}
        self._spaces: dict[int, Subspace] = {}
        self._duals: set[int] = set()
        self._pivots: dict[tuple, frozenset] = {}
        self._stable: dict[tuple, MonomialIdeal] = {}

    @classmethod
    def draw(cls, ring, n, source, trials, seed, field, salt=0,
             upper_triangular=False, ideal=False) -> "_Trials":
        """The trials of (seed, trials, salt): shared changes
        (``_trial_changes``), with this call's own sources, images and
        pivots. Fewer than 2 trials would certify nothing."""
        if trials < 2:
            raise InvalidInputError("gin requires at least 2 trials")
        return cls(ring, n, source, _trial_changes(
            n, field, trials, seed, salt, upper_triangular), seed, salt,
            ideal)

    def top(self, cap: int) -> int:
        """The highest degree up to ``cap`` that can be non-zero."""
        return min(cap, self.n) if self.ring == EXT else cap

    def component(self, order: TermOrder, d: int) -> frozenset:
        if d not in self._sources:
            self._sources[d] = list(self.source(d))
        sources = self._sources[d]
        basis = basis_table(self.ring, self.n, d)
        if not 0 < len(sources) < len(basis):
            return frozenset(basis) if sources else frozenset()
        if self.ideal:
            forced = self._forced_component(self.component(order, d - 1), d,
                                            len(sources))
            if forced is not None:
                return forced
        ranking = order.ranking(self.ring, self.n, d)
        if (ranking, d) not in self._pivots:
            if d not in self._spaces:
                self._spaces[d] = self._stack(d, sources, basis)
            try:
                if d in self._duals:
                    dual = self._spaces[d].leading_columns(ranking[::-1])
                    leading = set(range(len(basis))).difference(dual)
                else:
                    leading = self._spaces[d].leading_columns(ranking)
            except CertificationError as exc:
                raise CertificationError(
                    f"{exc} in degree {d} under {order}") from None
            if len(leading) != len(sources):
                raise CertificationError(
                    f"trials missed the Hilbert function in degree {d} "
                    f"under {order}")
            self._pivots[ranking, d] = frozenset(basis[j] for j in leading)
        return self._pivots[ranking, d]

    def _forced_component(self, below: frozenset, d: int,
                          rank: int) -> frozenset | None:
        """R_1 * below, the degree-d monomials with a divisor in the
        degree d - 1 component ``below``, when it has ``rank`` = |V_d|
        monomials (then it is every trial's component: class docstring),
        else None. Read off ``peel_table``, whose columns past the padding
        hold each monomial less one of its variables; once per distinct
        ``below``, which fixes d unless it is empty, and then forces
        nothing."""
        if below not in self._forced:
            index = basis_index(self.ring, self.n, d - 1)
            mask = np.zeros(len(index), dtype=bool)
            mask[[index[u.exponents] for u in below]] = True
            drop, row = peel_table(self.ring, self.n, d)
            hit = np.flatnonzero((mask[drop] & (row < self.n)).any(axis=1))
            basis = basis_table(self.ring, self.n, d)
            self._forced[below] = (frozenset(basis[j] for j in hit)
                                   if len(hit) == rank else None)
        return self._forced[below]

    def _stack(self, d: int, sources: list, basis: list) -> Subspace:
        """The k image matrices of degree d as one stack: psi's images of
        the monomials outside the sources when that side is smaller and the
        dual route holds (class docstring), phi's images of the sources
        otherwise."""
        field, changes = self.phis[0].field, self.phis
        p = field.characteristic
        if (self.ideal and 2 * len(sources) > len(basis)
                and (self.ring == EXT or not 0 < p <= d)):
            try:
                changes = [phi.dual for phi in self.phis]
            except SingularMatrixError:
                pass
            else:
                self._duals.add(d)
                chosen = set(sources)
                sources = [u for u in basis if u not in chosen]
        return Subspace.stack([Subspace.from_vectors(
            [change.apply(u) for u in sources], basis, field)
            for change in changes])

    def initial_ideal(self, order: TermOrder, cap: int) -> MonomialIdeal:
        """in_order(phi(V)), exact up to ``cap`` and strongly stable in the
        order's ranking, keyed by that ranking and its components: one that
        passed before, under an order of that ranking, is returned as it
        is, and one that fails is never kept."""
        ranking = order.ranking(self.ring, self.n, 1)
        components = tuple(self.component(order, d)
                           for d in range(self.top(cap) + 1))
        g = self._stable.get((ranking, components))
        if g is None:
            g = MonomialIdeal.make(self.ring, self.n,
                                   (u for c in components for u in c))
            if not is_strongly_stable(relabel(g, ranking))[0]:
                raise CertificationError(
                    f"unstable gin candidate under {order}")
            self._stable[ranking, components] = g
        return g

    def adaptive(self, order: TermOrder, cap: int, max_cap: int, twin=None):
        """(gin, cap), the cap grown from ``cap`` until the gin is complete:
        no degree lies above the cap, or all generators lie below it (the
        regularity bound). A gin needing a cap past ``max_cap`` raises
        instead of truncating. With a ``twin`` order, (None, d) at the first
        degree d where the two gins differ."""
        while True:
            for d in range(self.top(cap) + 1) if twin else ():
                if self.component(order, d) != self.component(twin, d):
                    # a difference counts once both are certified up to d
                    self.initial_ideal(order, d), self.initial_ideal(twin, d)
                    return None, d
            g = self.initial_ideal(order, cap)
            deg = g.max_generator_degree
            if deg < cap or self.top(cap + 1) == self.top(cap):
                return g, self.top(cap)
            if deg >= max_cap:
                raise SizeLimitError(f"gin needs a degree cap above {max_cap}")
            cap = deg + 1

    def certificate(self, order: TermOrder) -> GinCertificate:
        k = len(self.phis)
        return GinCertificate(str(order), k, self.seed, [True] * k, True, True,
                              escalated=bool(self.salt))


def _certified(run, ideal: MonomialIdeal, trials: int, seed: int, field):
    """(run(t), t) for the trials t of (seed, trials); after a certification
    failure once more on 2 * trials fresh changes (salt 1), whose failure
    raises. Fewer than 2 trials raise at the draw."""
    for salt in (0, 1):
        t = _Trials.draw(ideal.ring, ideal.n, ideal.degree_component,
                         trials * (1 + salt), seed, field, salt, ideal=True)
        try:
            return run(t), t
        except CertificationError:
            if salt:
                raise


def gin(order: TermOrder, ideal: MonomialIdeal, cap: int | None = None,
        trials: int = 3, seed: int = 0, field=GFP,
        ) -> tuple[MonomialIdeal, GinCertificate]:
    """Certified generic initial ideal, exact up to ``cap``.

    Each trial uses an independent random dense matrix; acceptance requires
    unanimous agreement, strong stability, and Hilbert preservation.  On
    failure the trial count is doubled once before giving up.
    """
    cap = _degree_cap(ideal, cap)
    g, t = _certified(lambda t: t.initial_ideal(order, cap), ideal, trials,
                      seed, field)
    return g, t.certificate(order)


def gin_adaptive(order: TermOrder, ideal: MonomialIdeal, trials: int = 3,
                 seed: int = 0, field=GFP, max_cap: int = 12,
                 ) -> tuple[MonomialIdeal, GinCertificate, int]:
    """Gin with the cap grown until it clears the top generator degree of
    the certified candidate (regularity bound); returns (gin, certificate,
    cap). A gin that needs a cap above ``max_cap`` raises SizeLimitError."""
    (g, cap), t = _certified(
        lambda t: t.adaptive(order, default_degree_cap(ideal), max_cap),
        ideal, trials, seed, field)
    return g, t.certificate(order), cap


def gin_multi(orders, ideal: MonomialIdeal, cap: int | None = None,
              trials: int = 3, seed: int = 0, field=GFP) -> list[MonomialIdeal]:
    """Certified gins under several orders at once, sharing the image rows
    across orders (the coordinate change is order-independent, so one
    application per trial serves every order). Orders whose certified
    components agree up to the cap share one candidate, built and checked
    for strong stability once and returned as the same ideal: one for all
    22 orders of a Theorem 1 class satisfying condition (v)."""
    cap = _degree_cap(ideal, cap)
    return _certified(lambda t: [t.initial_ideal(order, cap)
                                 for order in orders],
                      ideal, trials, seed, field)[0]


def gin_multi_adaptive(orders, ideal: MonomialIdeal, trials: int = 3,
                       seed: int = 0, field=GFP, max_cap: int = 12,
                       ) -> list[tuple[MonomialIdeal, int]]:
    """Adaptive-cap gins under several orders with shared trial matrices;
    returns (gin, cap) per order, each as ``gin_adaptive`` would."""
    cap = default_degree_cap(ideal)
    return _certified(lambda t: [t.adaptive(order, cap, max_cap)
                                 for order in orders],
                      ideal, trials, seed, field)[0]


def gins_agree_adaptive(order_a: TermOrder, order_b: TermOrder,
                        ideal: MonomialIdeal, trials: int = 3, seed: int = 0,
                        field=GFP, max_cap: int = 12) -> bool:
    """Certified equality test for two adaptive-cap gins, stopping at the
    first degree where the (exact, per-degree) components differ.

    Much cheaper than computing both gins in full when they disagree early:
    degree components of in(phi(I)) are exact independently of any cap, so a
    certified low-degree mismatch already settles inequality.
    """
    g, _cap = _certified(lambda t: t.adaptive(
        order_a, default_degree_cap(ideal), max_cap, twin=order_b),
        ideal, trials, seed, field)[0]
    return g is not None


# -- monomial-spanned subspaces (single degree) -------------------------


def _of_degree(monomials, ring: str, n: int, degree: int) -> set:
    """The monomials as a set, all of them in degree ``degree`` of the ring."""
    monomials = set(monomials)
    if any(u.ring != ring or u.n != n or u.degree != degree
           for u in monomials):
        raise InvalidInputError(
            f"monomials are not of degree {degree} in ({ring}, n={n})")
    return monomials


def gin_space(order: TermOrder, monomials, ring: str, n: int, degree: int,
              trials: int = 3, seed: int = 0, field=GFP,
              upper_triangular: bool = False) -> set[Monomial]:
    """Certified gin of the span of a monomial set, within one degree; at
    least 2 trials.

    No escalation: the characteristic-2 duality check relies on the first
    disagreement raising. No stability check either: one degree of a span
    that is no ideal is certified by agreement and dimension alone. Always
    the direct route, and never forced (``_Trials`` without ``ideal``).
    """
    monomials = _of_degree(monomials, ring, n, degree)
    t = _Trials.draw(ring, n, lambda d: monomials, trials, seed, field,
                     upper_triangular=upper_triangular)
    return set(t.component(order, degree))


def complement_dual(order: TermOrder, monomials, ring: str, n: int,
                    trials: int = 3, seed: int = 0, field=GFP,
                    ) -> set[Monomial]:
    """Complement of gin_order(span W) in the full degree-2 component,
    checked against the dual route gin_{order^{-1}}(complement W), which
    must coincide (complement duality); a mismatch raises.
    """
    ambient = set(all_monomials(ring, n, 2))
    w = set(monomials)
    primal = ambient - gin_space(order, w, ring, n, 2, trials, seed, field)
    dual = gin_space(Inverse(order), ambient - w, ring, n, 2, trials, seed + 1, field)
    if primal != dual:
        raise DualityViolationError(
            f"complement duality violated for {sorted(map(str, w))} under {order}")
    return primal


# -- combinatorial shifting and Trans ----------------------------------


def _exterior_step(order: TermOrder, n: int):
    """The elementary shift (family, a, b) -> family on bitset families of
    [n] under the order. phi_{a,b}(e_S) is e_S +- e_{S-b+a} when b is in S
    and a is not, and every order ranks S - b + a above S exactly when it
    ranks e_a above e_b: then the step is ``pair_shift``, else the identity."""
    place = {j + 1: i for i, j in enumerate(order.ranking(EXT, n, 1))}

    def step(family: int, a: int, b: int) -> int:
        shifted = pair_shift(family, a, b, n)  # checks the pair
        return shifted if place[a] < place[b] else family
    return step


def combinatorial_shift(order: TermOrder, ideal: MonomialIdeal,
                        pairs, cap: int | None = None, field=GFP) -> MonomialIdeal:
    """Left fold of elementary initial-ideal steps over the pair sequence:
    ``_exterior_step`` on bitset families for an exterior ideal, the
    algebraic elementary shift over ``field`` for a polynomial one."""
    cap = _degree_cap(ideal, cap)
    pairs, n = list(pairs), ideal.n
    if pairs and ideal.ring == EXT:
        step = _exterior_step(order, n)
        family = squarefree_family(ideal) & sized(n, 0, min(cap, n))
        for a, b in pairs:
            family = step(family, a, b)
        return family_ideal(EXT, n, family)
    current = ideal
    for a, b in pairs:
        phi = CoordinateChange.elementary(a, b, n, field)
        t = _Trials(current.ring, n, current.degree_component, [phi],
                    ideal=True)
        current = MonomialIdeal.make(current.ring, n, (
            u for d in range(t.top(cap) + 1) for u in t.component(order, d)))
    return current


def trans_search(ideal: MonomialIdeal, budget: int = 200,
                 cap: int | None = None, order: TermOrder = LEX, field=GFP,
                 ) -> tuple[dict[MonomialIdeal, tuple], bool]:
    """Breadth-first search for the strongly stable ideals reachable by
    elementary shift sequences: (each one found with the first sequence
    reaching it, whether the search drained its queue).

    Sequences are explored by length, then lexicographically by pair;
    ``budget`` bounds the number of shift applications, and a search it cuts
    with states left to expand is not complete. Stable nodes are terminal.
    An exterior search shifts bitset families by ``_exterior_step``, a
    polynomial one ideals by ``combinatorial_shift``. Finding no stable
    ideal raises, naming the budget only when it cut the search.
    """
    if budget < 0:
        raise InvalidInputError(f"shift budget {budget} is negative")
    cap = _degree_cap(ideal, cap)
    if is_strongly_stable(ideal)[0]:
        return {ideal: ()}, True
    n = ideal.n
    if ideal.ring == EXT:
        start = squarefree_family(ideal) & sized(n, 0, min(cap, n))
        # an ideal with generators above the cap differs from its truncation
        seen = {start} if ideal.max_generator_degree <= min(cap, n) else set()
        shift = _exterior_step(order, n)

        def stable_ideal(state):
            return (family_ideal(EXT, n, state) if is_stable_family(state, n)
                    else None)
    else:
        start, seen = ideal, {ideal}

        def shift(state, a, b):
            return combinatorial_shift(order, state, [(a, b)], cap, field)

        def stable_ideal(state):
            return state if is_strongly_stable(state)[0] else None

    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    found: dict[MonomialIdeal, tuple] = {}
    queue = deque([(start, ())])
    spent, complete = 0, True
    while queue and complete:
        state, seq = queue.popleft()
        # the start is not stable, even where its truncation is
        stable = stable_ideal(state) if seq else None
        if stable is not None:
            found.setdefault(stable, seq)
            continue
        for pair in pairs:
            if spent >= budget:
                complete = False
                break
            spent += 1
            nxt = shift(state, *pair)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, seq + (pair,)))
    if not found:
        raise CertificationError(
            "no strongly stable ideal is reachable" if complete else
            f"shift budget {budget} exhausted with no stable result")
    return found, complete


def trans_witnesses(ideal: MonomialIdeal, budget: int = 200,
                    cap: int | None = None, order: TermOrder = LEX, field=GFP,
                    ) -> dict[MonomialIdeal, tuple]:
    """All strongly stable ideals reachable by elementary shift sequences
    within the budget, each with the first sequence reaching it
    (``trans_search`` without its completeness flag)."""
    return trans_search(ideal, budget, cap, order, field)[0]
