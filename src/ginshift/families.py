"""Families of exterior monomials as subset bitsets.

A family of exterior monomials of [n], in any mix of degrees, is one int:
bit S is set when e_S is in it, S being the support bitmask sum of 2^(i-1)
over i in S. With Y_i the family of every support containing i, Kalai's
shifting operator, strong stability, closure upward and downward, and
minimal and maximal elements are each a few int operations per variable.

A family of [n] is a 2**n-bit int: 128 KB at 20 variables, 128 MB at 30.
``MAX_FAMILY_VARIABLES`` is the one bound on n for every user of families
(complexes, exterior ideals, squarefree stability and exterior shifting),
refused by ``check_size`` before any family is built.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_

import numpy as np

from .fields import InvalidInputError, SizeLimitError

#: the most variables a family may span: 2**20 bits, 128 KB
MAX_FAMILY_VARIABLES = 20


def check_size(n: int) -> None:
    """Refuse families of [n] past ``MAX_FAMILY_VARIABLES``."""
    if n > MAX_FAMILY_VARIABLES:
        raise SizeLimitError(f"subset families on n={n} > "
                             f"{MAX_FAMILY_VARIABLES} variables refused")


@lru_cache(maxsize=None)
def sized(n: int, low: int, high: int) -> int:
    """The family of every support of [n] with low to high elements: those
    of [n - 1], then those of [n - 1] one smaller with n added. Past
    ``MAX_FAMILY_VARIABLES`` refused before any family is built. The
    bounds are clamped to [0, n], so the recursion reaches finitely many
    keys."""
    check_size(n)
    low, high = max(low, 0), min(high, n)
    if n <= 0:
        return int(low <= 0 <= high)
    return sized(n - 1, low, high) | sized(n - 1, low - 1, high - 1) << (
        1 << (n - 1))


@lru_cache(maxsize=1 << 12)
def support_mask(support: tuple[int, ...]) -> int:
    """The bitmask sum of 2^(i-1) over the indices i of a support; cached,
    since the supports in use are those of a few small basis tables."""
    return sum([1 << (i - 1) for i in support])


@lru_cache(maxsize=None)
def _containing(n: int) -> tuple[int, ...]:
    """(Y_1, ..., Y_n) on [n]: Y_i has bit S for every support S with i in
    S, that is the upper half of every block of 2^i bits. Shifts, closures
    and minimal and maximal elements all read these, so past
    ``MAX_FAMILY_VARIABLES`` they are refused here, before n such ints
    are built and cached."""
    check_size(n)
    out = []
    for i in range(n):
        width = 1 << i
        y, span = ((1 << width) - 1) << width, 2 * width
        while span < 1 << n:
            y |= y << span
            span *= 2
        out.append(y)
    return tuple(out)


@lru_cache(maxsize=None)
def _shift_mask(n: int, a: int, b: int) -> tuple[int, int]:
    """(X, delta) of the shift (a, b) on [n]: X = Y_b & ~Y_a has bit S for
    every support S with b in S and a not in S, and S - delta is S - b + a."""
    if not 1 <= a < b <= n:
        raise InvalidInputError(f"elementary pair ({a},{b}) invalid for n={n}")
    y = _containing(n)
    return y[b - 1] & ~y[a - 1], (1 << (b - 1)) - (1 << (a - 1))


def pair_shift(family: int, a: int, b: int, n: int) -> int:
    """Kalai's shifting operator (a, b) on a family of exterior monomials of
    [n], in any mix of degrees: each e_S with b in S and a not in S becomes
    e_{S-b+a}, unless that is in the family already.

    With the mask X and offset delta of ``_shift_mask``, the step is a few
    int operations in every degree at once.
    """
    mask, delta = _shift_mask(n, a, b)
    moving = family & mask
    moving &= ~(((moving >> delta) & family) << delta)
    return (family & ~moving) | (moving >> delta)


def is_stable_family(family: int, n: int) -> bool:
    """Whether a family is strongly stable: every shift (a, b) leaves it
    fixed, that is ((F & X) >> delta) & ~F == 0. Adjacent pairs (a, a + 1)
    suffice, since S - b + a is reached from S by moving indices down one
    step at a time into indices outside S."""
    for a in range(1, n):
        mask, delta = _shift_mask(n, a, a + 1)
        if ((family & mask) >> delta) & ~family:
            return False
    return True


def up_closure(family: int, n: int) -> int:
    """Every support of [n] containing a support of the family: after the
    step for i, every S u T with S in the family and T within [i]."""
    for i, y in enumerate(_containing(n)):
        family |= (family & ~y) << (1 << i)
    return family


def minimal_family(family: int, n: int) -> int:
    """The supports of the family with no proper subset in it: the minimal
    generators of the ideal the family generates."""
    above = 0
    for i, y in enumerate(_containing(n)):
        above |= (family & ~y) << (1 << i)
    return family & ~up_closure(above, n)


def down_closure(family: int, n: int) -> int:
    """Every subset of a support of the family: after the step for i,
    every S - T with S in the family and T within [i]."""
    for i, y in enumerate(_containing(n)):
        family |= (family & y) >> (1 << i)
    return family


def maximal_family(family: int, n: int) -> int:
    """The supports of the family with no proper superset in it: the
    facets of the complex the family spans."""
    below = 0
    for i, y in enumerate(_containing(n)):
        below |= (family & y) >> (1 << i)
    return family & ~down_closure(below, n)


def family_of(supports) -> int:
    """The family of the given supports (index sequences)."""
    return reduce(or_, (1 << support_mask(tuple(s)) for s in supports), 0)


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of an array, ascending, by a sort and a
    comparison with each neighbour: ``np.unique`` imports ``numpy.ma`` on
    its first call in a process, about 14 ms of CPU time."""
    values = np.sort(values)
    keep = np.ones(values.shape, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


@lru_cache(maxsize=None)
def _byte_supports(k: int) -> tuple[tuple[int, ...], ...]:
    """The support of each value b of byte k of a support bitmask: the
    indices 8k + i + 1 of the set bits i of b, increasing."""
    return tuple(tuple(8 * k + i + 1 for i in range(8) if b >> i & 1)
                 for b in range(256))


def _masks_supports(masks: np.ndarray, n: int, k: int = 0) -> list:
    """The supports of increasing bitmasks over the indices 8k + 1, ..., n,
    bit i standing for index 8k + i + 1: each is the cached support of its
    low byte joined to that of its other bits, found once per distinct
    value of those."""
    table = _byte_supports(k)
    if n <= 8 * (k + 1) or not masks.size:
        return [table[s] for s in masks.tolist()]
    rest = distinct(masks >> 8)
    upper = [()] * (int(rest[-1]) + 1)
    for r, u in zip(rest.tolist(), _masks_supports(rest, n, k + 1)):
        upper[r] = u
    return [table[s & 255] + upper[s >> 8] for s in masks.tolist()]


def family_supports(family: int, n: int) -> list[tuple[int, ...]]:
    """The supports in a family of [n], in bitmask order: its set bits,
    read off its bytes in one pass, each support built from the cached
    supports of its mask's bytes (``_byte_supports``)."""
    data = family.to_bytes((family.bit_length() + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(data, np.uint8), bitorder="little")
    return _masks_supports(np.flatnonzero(bits), n)
