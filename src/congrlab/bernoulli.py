"""Bernoulli numbers: B_{p-3} modulo p^2, and the exact numbers.

Every run reads B_{p-3} from `bernoulli_pm3`, and only modulo p^2: no
catalog term or lemma link reads it further.  From p = 7 it comes from
Faulhaber's formula, in O(p) modular powers; at p = 5 it is B_2 = 1/6.
`lemmas` holds it in each prime's lemma record (`check_bernoulli_power_sums`),
and the two links' rows (`LINK_ROWS`) read it there as the report is written.

The exact numbers, generated by z/(e^z - 1) = sum B_n z^n / n!, are the
tests' reference for `bernoulli_pm3`; no scan or lemma run computes them.
They come from the integer tangent numbers T_k, the coefficients of
tan z = sum T_k z^(2k-1) / (2k-1)!, by

    B_{2k} = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)),

and are only reduced modulo p^j afterwards.  T_1 .. T_K take O(K^2)
additions and small multiples of integers, with no fractions (Brent &
Harvey, "Fast computation of Bernoulli, Tangent and Secant numbers", 2013).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .harmonic import LemmaFamily, LemmaRecord
from .residues import CongrlabError, PrimePowerModulus, is_prime, residue_of_rational

__all__ = [
    "LINK_ROWS",
    "NonPIntegerBernoulli",
    "bernoulli_exact",
    "bernoulli_mod",
    "bernoulli_pm3",
    "check_bernoulli_power_sums",
    "warm_bernoulli_cache",
]


class NonPIntegerBernoulli(CongrlabError):
    """Raised when p divides the denominator of the requested B_n."""


# B_0 .. B_{len - 1}, exact; only warm_bernoulli_cache appends to it
_BERNOULLI = [Fraction(1), Fraction(-1, 2)]


def _tangent_numbers(count: int) -> list:
    """T_1 .. T_count, by Brent & Harvey's in-place recurrence."""
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def _staudt_clausen_denominator(n: int) -> int:
    """The product of the primes q with (q - 1) | n, for even n >= 2."""
    return math.prod(d + 1 for d in range(1, n + 1) if n % d == 0 and is_prime(d + 1))


def warm_bernoulli_cache(n: int) -> None:
    """Extend this process's list of exact Bernoulli numbers to B_n.

    The tangent numbers cannot be extended in place, so the list is
    recomputed to at least twice its length, which keeps the total cost of
    a growing sequence of requests within a constant factor of the last.
    Each new B_{2k} must have the denominator von Staudt and Clausen give.
    """
    values = _BERNOULLI
    if len(values) > n:
        return
    size = max(n + 1, 2 * len(values))
    tangents = _tangent_numbers((size - 1) // 2)
    for index in range(len(values), size):
        if index % 2:
            values.append(Fraction(0))
            continue
        k = index // 2
        b = Fraction((-1) ** (k - 1) * index * tangents[k - 1], 4**k * (4**k - 1))
        expected = _staudt_clausen_denominator(index)
        if b.denominator != expected:
            raise CongrlabError(
                f"B_{index} has denominator {b.denominator}, "
                f"von Staudt-Clausen gives {expected}"
            )
        values.append(b)


def bernoulli_exact(n: int) -> Fraction:
    """Exact B_n (B_1 = -1/2)."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    warm_bernoulli_cache(n)
    return _BERNOULLI[n]


def bernoulli_mod(p: int, n: int, j: int) -> int:
    """Residue of B_n in Z/p^j; B_{p-3} is always reducible for p >= 5."""
    b = bernoulli_exact(n)
    if b.denominator % p == 0:
        raise NonPIntegerBernoulli(f"p={p} divides the denominator of B_{n}")
    return residue_of_rational(b, PrimePowerModulus(p, j))


def bernoulli_pm3(p: int) -> int:
    """B_{p-3} mod p^2, for a prime p >= 5.

    Modulo p^2 is all the catalog can read: a "B" term carries p^3 and is
    compared at most at p^5 (`congruences._catalog` rejects any finer read).
    From p = 7 it is read off sum_{k<p} k^(p-3) mod p^3, which is p B_{p-3}
    modulo p^3: in Faulhaber's formula for the sum, the p^2 term carries
    B_{p-4} = 0, the next is (p-3)(p-4)/6 B_{p-5} p^3, and every later term
    carries at least p^4 times a p-integral Bernoulli number.  At p = 5 the
    B_1 term survives (1 + 4 + 9 + 16 = 30), so B_2 = 1/6 is given.
    """
    if p < 5:
        raise ValueError(f"B_(p-3) is read only for p >= 5, got p={p}")
    if p == 5:
        return pow(6, -1, 25)
    p3 = p**3
    total = sum(pow(k, p - 3, p3) for k in range(1, p)) % p3
    if total % p:
        raise CongrlabError(f"power sum for B_{p - 3} not divisible by p={p}")
    return total // p


def check_bernoulli_power_sums(p: int) -> Optional[int]:
    """The Bernoulli links' slice of a lemma record: B_{p-3} mod p^2, or
    None below p = 5.

    Its rows (`LINK_ROWS`) link B_{p-3} to the first two inverse power sums:

        S_1 == -(1/3) p^2 B_{p-3}  (mod p^3)
        S_2 ==  (2/3) p   B_{p-3}  (mod p^2)

    The sums are read off the record's harmonic table, modulo p^3 or a
    higher power of p: S_1 = H_1, and S_2 = H_1^2 - 2 H_2 by Newton's
    identity.  B_{p-3} is `bernoulli_pm3`'s, which checks its own power sum,
    as the links read it only modulo p^2.
    """
    return bernoulli_pm3(p) if p >= 5 else None


def _link(record: LemmaRecord, m: int, s: int, coefficient: Fraction, modulus):
    """(m, S, coefficient * B_{p-3}) for one link, or its skip below p = 5."""
    if record.b is None:
        return "needs p >= 5"
    return m, s, residue_of_rational(coefficient, modulus) * record.b


def _links(p: int) -> int:
    return 3


LINK_ROWS = (
    LemmaFamily(
        "bernoulli.s1_link", _links,
        lambda r, k, mod: _link(r, 3, r.table.h[1], -Fraction(mod.p**2, 3), mod),
    ),
    LemmaFamily(
        "bernoulli.s2_link", _links,
        lambda r, k, mod: _link(
            r, 2, r.table.h[1] ** 2 - 2 * r.table.h[2], Fraction(2 * mod.p, 3), mod
        ),
    ),
)
