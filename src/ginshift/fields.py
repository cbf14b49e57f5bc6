"""Exact coefficient fields: large prime fields and arbitrary-precision
rationals.

A field is its reduction: ``field(x)`` is the element an integer (or, over
Q, a rational) stands for, ``int(x) % p`` over GF(p) and ``Fraction(x)``
over Q. Field arithmetic is python or numpy operators followed by that one
reduction (``% p`` on a whole row of dtype ``row_dtype``). Besides it a
field gives only its characteristic, ``zero``, ``one`` and uniform random
elements.

The prime-field mode is the default work horse (dense generic matrices over Q
blow up badly under elimination). The rational mode is exact everywhere but
reaches less far: both sweeps at n = 6, the revlex gin of the 5-cycle's
edge ideal and the shifted complex of a 12-vertex flag complex (2.1-2.5 s
of CPU and 67 MB, against 0.5 s over the default prime) finish over Q in
seconds, while the lex gin of that edge ideal takes 9-11 s and 66 MB over
Q, against 0.4 s over the default prime: its top degree is forced (``gin``),
and the rest is elimination over Q up to degree 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: largest prime below 2**31; products of two elements fit in int64
DEFAULT_PRIME = 2_147_483_629


#: the first 13 primes: Miller-Rabin to all of them as bases is
#: deterministic below 3,317,044,064,679,887,385,961,981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(m: int) -> bool:
    """Miller-Rabin to the bases ``_BASES``: deterministic for every
    m < 3,317,044,064,679,887,385,961,981 (about 3.3 * 10**24), a strong
    probable-prime test above that bound."""
    if m < 2:
        return False
    for q in _BASES:
        if m % q == 0:
            return m == q
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class InvalidInputError(ValueError):
    """Raised on malformed or mismatched inputs (CLI exit code 2)."""


class SizeLimitError(ValueError):
    """Raised when an operation exceeds its configured size cap (exit code 4)."""


@dataclass(frozen=True)
class PrimeField:
    """F_p with elements represented as python ints in [0, p)."""

    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidInputError(f"{self.p} is not prime")

    @property
    def characteristic(self) -> int:
        return self.p

    def __call__(self, x) -> int:
        return int(x) % self.p

    zero = 0
    one = 1

    def random(self, rng, size=None):
        """A uniform element, or a list of ``size`` of them, via a numpy
        Generator. Below 2**63 a list is one draw, and holds the elements
        that ``size`` single draws would give."""
        p = self.p
        if p <= 2 ** 63:
            x = rng.integers(0, p, size=size)
            return int(x) if size is None else x.tolist()
        if size is not None:
            return [self.random(rng) for _ in range(size)]
        # numpy draws below 2**63 only: the top bits of 63-bit limbs, with
        # draws of p or more rejected, stay uniform
        bits = (p - 1).bit_length()
        limbs = -(-bits // 63)
        while True:
            x = 0
            for _ in range(limbs):
                x = x << 63 | int(rng.integers(0, 2 ** 63))
            x >>= 63 * limbs - bits
            if x < p:
                return x


@dataclass(frozen=True)
class RationalField:
    """Q via fractions.Fraction."""

    @property
    def characteristic(self) -> int:
        return 0

    def __call__(self, x) -> Fraction:
        return Fraction(x)

    zero = Fraction(0)
    one = Fraction(1)

    def random(self, rng, size=None):
        """A uniform integer in [-10**6, 10**6], or a list of ``size`` of
        them drawn at once, as ``Fraction``s."""
        x = rng.integers(-10**6, 10**6 + 1, size=size)
        return Fraction(int(x)) if size is None else list(map(Fraction,
                                                               x.tolist()))


QQ = RationalField()
GFP = PrimeField()


def fits_int64(field) -> bool:
    """Whether the field's arithmetic may run on int64 arrays: a prime
    field with p < 2**31, so that a product of two reduced elements, or a
    sum of a few such products, fits."""
    return isinstance(field, PrimeField) and field.p < 2 ** 31


def row_dtype(field):
    """The numpy dtype of the field's coefficient rows: int64 where
    ``fits_int64`` holds, else ``object``: python ints for larger primes
    and for the images of a change over Q, ``Fraction``s in a matrix's."""
    return np.int64 if fits_int64(field) else object


def parse_field(spec: str):
    """Parse a field mode string: "prime:<p>", "prime", or "rational"."""
    if spec == "rational":
        return QQ
    if spec == "prime":
        return GFP
    if spec.startswith("prime:"):
        return PrimeField(int(spec.split(":", 1)[1]))
    raise InvalidInputError(f"unknown field spec {spec!r}")
