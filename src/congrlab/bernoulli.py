"""Exact Bernoulli numbers and their reductions modulo prime powers.

The numbers are generated by z/(e^z - 1) = sum B_n z^n / n!.  They are
computed exactly with the classical recurrence

    sum_{k=0}^{n} C(n+1, k) B_k = 0,  B_0 = 1,

and only reduced modulo p^j afterwards.  The recurrence costs far more than
cubic in n, so it serves the lemma link suite, p = 5, and the tests as an
oracle.  Each process extends its own list on demand, so a pool worker
needs nothing from the process that started it.

The catalog only needs B_{p-3} modulo p^2, which Faulhaber's formula gives
in O(p) modular powers without any exact number (`bernoulli_pm3_faulhaber`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .harmonic import power_sum_table
from .residues import CongrlabError, PrimePowerModulus, residue_of_rational
from .verdicts import judge, skip

__all__ = [
    "NonPIntegerBernoulli",
    "bernoulli_exact",
    "bernoulli_mod",
    "bernoulli_pm3_faulhaber",
    "check_bernoulli_power_sums",
    "warm_bernoulli_cache",
]


class NonPIntegerBernoulli(CongrlabError):
    """Raised when p divides the denominator of the requested B_n."""


# B_0 .. B_{len - 1}, exact; only warm_bernoulli_cache appends to it
_BERNOULLI = [Fraction(1), Fraction(-1, 2)]


def warm_bernoulli_cache(n: int) -> None:
    """Extend this process's list of exact Bernoulli numbers to B_n."""
    values = _BERNOULLI
    while len(values) <= n:
        r = len(values)
        acc = Fraction(0)
        for k, bk in enumerate(values):
            if bk:
                acc += math.comb(r + 1, k) * bk
        b = -acc / (r + 1)
        if r % 2 == 1 and b != 0:
            raise AssertionError(f"B_{r} should vanish, recurrence gave {b}")
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


def bernoulli_pm3_faulhaber(p: int) -> int:
    """B_{p-3} mod p^2 for p >= 7, read off sum_{k<p} k^(p-3) mod p^3.

    The sum is p B_{p-3} modulo p^3.  In Faulhaber's formula for it, the
    p^2 term carries B_{p-4} = 0, the next is (p-3)(p-4)/6 B_{p-5} p^3, and
    every later term carries at least p^4 times a p-integral Bernoulli
    number.  At p = 5 the B_1 term survives, so p = 5 needs the exact route.
    """
    if p < 7:
        raise ValueError(f"Faulhaber's route to B_(p-3) needs p >= 7, got {p}")
    p3 = p**3
    total = sum(pow(k, p - 3, p3) for k in range(1, p)) % p3
    if total % p:
        raise CongrlabError(f"power sum for B_{p - 3} not divisible by p={p}")
    return total // p


def check_bernoulli_power_sums(p: int) -> list:
    """Links between B_{p-3} and the first two inverse power sums (p >= 5):

        S_1 == -(1/3) p^2 B_{p-3}  (mod p^3)
        S_2 ==  (2/3) p   B_{p-3}  (mod p^2)
    """
    if p < 5:
        return [
            skip("bernoulli.s1_link", p, None, "needs p >= 5"),
            skip("bernoulli.s2_link", p, None, "needs p >= 5"),
        ]
    modulus = PrimePowerModulus(p, 3)
    sums = power_sum_table(modulus, 2)
    b = bernoulli_mod(p, p - 3, 3)
    rhs1 = residue_of_rational(-Fraction(p * p, 3), modulus) * b % modulus.pm
    rhs2 = residue_of_rational(Fraction(2 * p, 3), modulus) * b % modulus.pm
    return [
        judge("bernoulli.s1_link", p, None, 3, sums.value(1), rhs1, modulus),
        judge("bernoulli.s2_link", p, None, 2, sums.value(2), rhs2, modulus),
    ]
