"""Exact arithmetic in the residue rings Z/p^m and exact rational helpers.

An element of Z/p^m is a plain int in [0, p^m).  `PrimePowerModulus` holds
p, m and p^m, and whoever computes a residue reduces it with `% modulus.pm`.

Everything here is arbitrary precision: p^m routinely exceeds 64 bits
(499^7 is close to 2^63.5) and the verification work upstream depends on
the arithmetic being exact, so there is no floating point and no
fixed-width fast path anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

__all__ = [
    "CongrlabError",
    "NotPInteger",
    "PrimePowerModulus",
    "Valuation",
    "is_prime",
    "parse_rational",
    "residue_of_rational",
    "valuation_of_difference",
]


class CongrlabError(Exception):
    """Base class for all errors raised by this package."""


class NotPInteger(CongrlabError):
    """Raised when a rational with p in its denominator is reduced mod p^m."""


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

# Bases (2, 3, 5, 7) are a deterministic Miller-Rabin witness set below this
# bound, which comfortably covers the range the toolkit is meant to scan.
_DETERMINISTIC_LIMIT = 3_215_031_751


def _miller_rabin(n: int, bases) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test, exact below 3.3e24 and the same on every call.

    Below ~3.2e9 the bases 2, 3, 5 and 7 decide.  Above it all eighteen
    `_SMALL_PRIMES` serve as Miller-Rabin bases.  They include the first
    thirteen primes, which are a deterministic witness set below
    psi_13 = 3317044064679887385961981 (Sorenson & Webster, 2017).  Beyond
    that bound a composite built to be a strong pseudoprime to all eighteen
    bases would be reported prime.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    if n < _DETERMINISTIC_LIMIT:
        return _miller_rabin(n, (2, 3, 5, 7))
    return _miller_rabin(n, _SMALL_PRIMES)


# ---------------------------------------------------------------------------
# the ring Z/p^m
# ---------------------------------------------------------------------------


class _Ring(NamedTuple):
    p: int
    m: int
    pm: int


class PrimePowerModulus(_Ring):
    """The ring Z/p^m for an odd prime p and exponent m >= 1.

    p^m is computed once at construction and kept as `pm`; instances are
    immutable tuples and safe to share across worker processes.
    """

    __slots__ = ()

    def __new__(cls, p: int, m: int):
        if m < 1:
            raise ValueError(f"exponent must be >= 1, got {m}")
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise ValueError(f"modulus base must be an odd prime, got {p}")
        return super().__new__(cls, p, m, p**m)

    def __getnewargs__(self):
        """Pickled as (p, m): a pool worker's modulus is validated again."""
        return self.p, self.m

    def with_exponent(self, m: int) -> "PrimePowerModulus":
        """Z/p^m for the same p, which is not tested for primality again."""
        if m < 1:
            raise ValueError(f"exponent must be >= 1, got {m}")
        return _Ring.__new__(PrimePowerModulus, self.p, m, self.p**m)

    def __str__(self) -> str:
        return f"Z/{self.p}^{self.m}"


class Valuation(NamedTuple):
    """A p-adic valuation, possibly only known as a lower bound.

    `is_floor` is True when the measured difference vanished in the working
    ring, so the true valuation is >= `value`.
    """

    value: int
    is_floor: bool

    def __str__(self) -> str:
        return f">={self.value}" if self.is_floor else str(self.value)


_valuation = cache(Valuation)  # one object per distinct valuation, shared


def valuation_of_difference(a: int, b: int, modulus: PrimePowerModulus) -> Valuation:
    """Largest j <= m with p^j | (a - b) in Z/p^m; reported as a floor when a == b."""
    p = modulus.p
    d = (a - b) % modulus.pm
    if d == 0:
        return _valuation(modulus.m, True)
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return _valuation(v, False)


def residue_of_rational(q, modulus: PrimePowerModulus) -> int:
    """Reduce a rational with denominator coprime to p into [0, p^m)."""
    q = Fraction(q)
    if q.denominator % modulus.p == 0:
        raise NotPInteger(
            f"{q} is not a {modulus.p}-integer (denominator divisible by p)"
        )
    return q.numerator * pow(q.denominator, -1, modulus.pm) % modulus.pm


# ---------------------------------------------------------------------------
# exact rationals
# ---------------------------------------------------------------------------
#
# Exact rationals are fractions.Fraction throughout the package, which keeps
# them in normal form (reduced, positive denominator).


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" into a reduced Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc
