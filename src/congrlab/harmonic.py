"""Generalized harmonic numbers and inverse power sums modulo p^m.

H_k is the k-th elementary symmetric function of 1/1, 1/2, ..., 1/(p-1),
with H_0 = 1 and H_k = 0 for k >= p.  The coefficient of x^j in
prod_{k<p} (x + k), an unsigned Stirling number of the first kind, is
(p-1)! H_j; the table multiplies that product out exactly in one
Kronecker-packed int, one fixed-width slot per coefficient.

A range scan needs only H_0 .. H_{D-1} modulo p^D at each prime, the
coefficients of that product modulo t^D.  `harmonic_vectors` gets them for
every prime of a range at once from one accumulating remainder tree, so no
prime pays an O(p) loop of its own; the catalog's S_1, S_2 and S_3 follow
from H_1, H_2 and H_3 by Newton's identities.

Power sums S_m = sum_{k<p} 1/k^m take one of two routes.  The first few,
which the catalog reads where a prime has no vector and the scanner reads
once to check the tree, come straight from a table of inverses, one mulmod
per k and m (`power_sum_table`).  The power-sum suite
reads S_1 .. S_{2p+1}, which that route would pay O(p^2) for, so it reads
them off the harmonic table instead: prod_{k<p} (1 - x/k) is
Q(x) = sum_j (-1)^j H_j x^j, and -x Q'(x) / Q(x) = sum_{m>=1} S_m x^m.  Q is
inverted by Newton iteration on packed ints (`power_sums_from_harmonic`).
The suite checks the highest sum, which depends on every Newton step,
against sum_{k<p} k^(-N) computed directly, and a mismatch is an internal
error.

The check_* functions verify families of congruences these quantities
satisfy and return one row per instance, including explicit skip rows for
instances excluded by a stated side condition.  A row is `verdicts.judge`'s
arguments less the alpha, (name, p, m, lhs, rhs, working modulus), or
(name, p, None, None, None, reason) for a skip.  The suites' internal
checks raise while the rows are built; `lemmas` judges the rows afterwards
(`scanner._by_name`).  Each suite takes a harmonic table modulo a power of
the same prime at least its own and reduces it to its own modulus; `lemmas`
builds one table per prime, at p^(p+2) (p^6 at p = 3), for all four suites
(`scanner.run_lemma_suites`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .residues import CongrlabError, PrimePowerModulus, residue_of_rational

__all__ = [
    "HarmonicTable",
    "check_harmonic_congruences",
    "check_power_sum_congruences",
    "check_reflection_identity",
    "harmonic_table",
    "harmonic_vectors",
    "inverse_table",
    "power_sum_table",
    "power_sums_from_harmonic",
]


def inverse_table(p: int, modulus: int) -> list:
    """inv[k] for k = 1..p-1 modulo `modulus`, via one batched inversion.

    Entry 0 is a placeholder so the table can be indexed by k directly.
    """
    prefix = [1] * p
    for k in range(1, p):
        prefix[k] = prefix[k - 1] * k % modulus
    inv = [0] * p
    running = pow(prefix[p - 1], -1, modulus)
    for k in range(p - 1, 0, -1):
        inv[k] = running * prefix[k - 1] % modulus
        running = running * k % modulus
    return inv


class HarmonicTable(NamedTuple):
    """Residues of H_0 .. H_{p-1} in Z/p^m, indexed by k in `h`."""

    modulus: PrimePowerModulus
    h: tuple

    def reduced(self, modulus: PrimePowerModulus) -> "HarmonicTable":
        """The same table in Z/p^m, for a p^m that divides this table's modulus."""
        if modulus.p != self.modulus.p or modulus.m > self.modulus.m:
            raise ValueError(f"a table in {self.modulus} does not reduce to {modulus}")
        return HarmonicTable(modulus, tuple(x % modulus.pm for x in self.h))


def _unpack(packed: int, count: int, width: int) -> list:
    """The `count` slots of `width` bytes in `packed`, lowest first."""
    raw = packed.to_bytes(count * width, "little")
    return [
        int.from_bytes(raw[i : i + width], "little")
        for i in range(0, count * width, width)
    ]


def _pack(coeffs, width: int) -> int:
    """The inverse of `_unpack`: each coefficient in a slot of `width` bytes."""
    raw = b"".join(c.to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(raw, "little")


def harmonic_table(modulus: PrimePowerModulus) -> HarmonicTable:
    p, pm = modulus.p, modulus.pm
    # the coefficients of prod (x + k) are positive and sum to p!, so a slot
    # one bit wider than p! never carries into the next
    width = math.factorial(p).bit_length() // 8 + 1
    packed = 1
    for k in range(1, p):
        packed = (packed << 8 * width) + k * packed
    c = _unpack(packed, p, width)
    inv_c0 = pow(c[0], -1, pm)  # c_0 = (p-1)!
    return HarmonicTable(modulus, tuple(cj * inv_c0 % pm for cj in c))


def _times_mod_t(a: list, b: list, d: int) -> list:
    """a(t) * b(t) mod t^d, for coefficient lists lowest degree first."""
    out = [0] * d
    for i, ai in enumerate(a[:d]):
        if ai:
            for j in range(d - i):
                out[i + j] += ai * b[j]
    return out


def _rising(lo: int, hi: int, d: int) -> list:
    """prod_{lo <= k < hi} (k + t) mod t^d, exactly, by binary splitting."""
    if hi - lo <= 8:
        c = [1] + [0] * (d - 1)
        for k in range(lo, hi):
            c = [k * c[0]] + [k * c[j] + c[j - 1] for j in range(1, d)]
        return c
    mid = (lo + hi) // 2
    return _times_mod_t(_rising(lo, mid, d), _rising(mid, hi, d), d)


def harmonic_vectors(primes, exponents) -> list:
    """(H_0, .., H_{D-1}) modulo p^D for each prime p and its exponent D.

    c(t) = prod_{k<p} (k + t) mod t^D has c_j = (p-1)! H_j, so every prime
    of the range needs a prefix of one long product.  This is the
    accumulating remainder tree of Costa, Gerbicz & Harvey ("A search for
    Wilson primes", Math. Comp. 2014): leaf i is the exact product over
    p_{i-1} <= k < p_i (p_0 = 1), truncated at t^(max D).  Going up, the
    tree multiplies the leaves and the moduli p^D in pairs.  Going down
    from 1 at the root, a left child takes its parent's prefix reduced by
    its own subtree's modulus, and a right child takes the parent's prefix
    times its left sibling's product, reduced by its own.  Leaf i then holds
    the product of the leaves before it modulo p_i^(D_i), and one more
    product gives c.  No product on the right spine is ever needed, the
    root's included.
    """
    primes, exponents = list(primes), list(exponents)
    if len(primes) != len(exponents):
        raise ValueError("one exponent per prime")
    if any(q <= p for p, q in zip(primes, primes[1:])):
        raise ValueError("primes must increase")
    if any(e < 1 for e in exponents):
        raise ValueError("exponents must be >= 1")
    if not primes:
        return []
    d = max(exponents)
    mods = [p**e for p, e in zip(primes, exponents)]
    leaves = [_rising(lo, p, d) for lo, p in zip([1] + primes[:-1], primes)]
    below = {}  # (lo, hi) -> left child's product, left and right moduli

    def up(lo: int, hi: int, keep: bool):
        """Product of leaves lo..hi-1 (None unless `keep`) and of their moduli."""
        if hi - lo == 1:
            return leaves[lo], mods[lo]
        mid = (lo + hi) // 2
        left, m_left = up(lo, mid, True)
        right, m_right = up(mid, hi, keep)
        below[lo, hi] = left, m_left, m_right
        return (_times_mod_t(left, right, d) if keep else None), m_left * m_right

    out = [None] * len(primes)

    def reduced(c: list, m: int) -> list:
        # from Python 3.12, divmod divides huge ints subquadratically; % does not
        return [divmod(x, m)[1] for x in c]

    def down(lo: int, hi: int, prefix: list) -> None:
        """`prefix` is the product of the leaves before lo, reduced."""
        if hi - lo == 1:
            m, e = mods[lo], exponents[lo]
            c = [x % m for x in _times_mod_t(prefix, leaves[lo], e)]
            inv_c0 = pow(c[0], -1, m)  # c_0 = (p-1)!
            out[lo] = tuple(x * inv_c0 % m for x in c)
            return
        mid = (lo + hi) // 2
        left, m_left, m_right = below.pop((lo, hi))
        down(lo, mid, reduced(prefix, m_left))
        right = _times_mod_t(reduced(prefix, m_right), reduced(left, m_right), d)
        down(mid, hi, reduced(right, m_right))

    up(0, len(primes), False)
    down(0, len(primes), [1] + [0] * (d - 1))
    return out


def power_sum_table(modulus: PrimePowerModulus, max_exponent: int) -> tuple:
    """Residues of S_m = sum_{k=1}^{p-1} 1/k^m, S_m at index m - 1."""
    p, pm = modulus.p, modulus.pm
    inv = inverse_table(p, pm)
    acc = [0] * max_exponent
    for k in range(1, p):
        w = 1
        ik = inv[k]
        for e in range(max_exponent):
            w = w * ik % pm
            acc[e] += w
    return tuple(a % pm for a in acc)


def power_sums_from_harmonic(table: HarmonicTable, n: int) -> tuple:
    """S_1 .. S_n modulo the table's modulus, read off H_0 .. H_{p-1}.

    Q(x) = sum_j (-1)^j H_j x^j (H_j = 0 for j >= p) has -x Q'/Q =
    sum_m S_m x^m, so one inverse of Q modulo x^(n+1) gives every sum.  The
    inverse comes from Newton's iteration R <- R (2 - Q R), which doubles
    the number of correct coefficients per step (Brent & Kung, JACM 1978).
    If Q R = 1 + x^k F modulo x^(2k), the step is R <- R - x^k (R F), so
    each step needs only the k coefficients F and k of R F.  Every series
    product is one multiplication of Kronecker-packed ints.  Coefficients
    are reduced below pm before packing, so a product's slots hold at most
    (n + 1) pm^2; the mask that truncates a product keeps CPython from
    dividing.
    """
    pm = table.modulus.pm
    q = [-h % pm if j % 2 else h for j, h in enumerate(table.h[: n + 1])]
    q += [0] * (n + 1 - len(q))
    width = (2 * pm.bit_length() + n.bit_length()) // 8 + 1
    slot = 8 * width

    def low(packed: int, count: int) -> list:
        """The lowest `count` coefficients of a packed product, reduced."""
        mask = (1 << slot * count) - 1
        return [c % pm for c in _unpack(packed & mask, count, width)]

    packed_q = _pack(q, width)
    r = [1]  # 1/Q modulo x, since Q(0) = H_0 = 1
    while len(r) <= n:
        k = len(r)
        top = min(2 * k, n + 1)
        q_top = packed_q & ((1 << slot * top) - 1)
        f = low(q_top * _pack(r, width) >> slot * k, top - k)
        rf = low(_pack(r[: top - k], width) * _pack(f, width), top - k)
        r += [-c % pm for c in rf]
    minus_xdq = _pack([-j * c % pm for j, c in enumerate(q)], width)
    s = low(minus_xdq * _pack(r, width), n + 1)
    return tuple(s[1:])


# ---------------------------------------------------------------------------
# congruence suites
# ---------------------------------------------------------------------------


# H_k = 0 for k >= p; the suites' top pairs read up to H_{p+3}
_PAST_THE_END = (0,) * 4


def _shift_by_p(s: list, p: int, pm: int) -> list:
    """The coefficients of sum_k s_k (x + p)^k, exactly, for 0 <= s_k < pm.

    Horner's rule Q <- Q (x + p) + s_k on one Kronecker-packed int.  The
    coefficients sum to Q(1) < pm (p+1)^p / p < 2 pm (p+1)^(p-1), so none
    carries into the next slot.
    """
    width = (pm * (p + 1) ** (len(s) - 1)).bit_length() // 8 + 1
    packed = 0
    for sk in reversed(s):
        packed = (packed << 8 * width) + p * packed + sk
    return _unpack(packed, len(s), width)


def _shifted_sums(h: tuple, p: int, pm: int) -> tuple:
    """P(x + p) modulo pm, and the pair sums T_r for r < p, from one shift.

    With s_k = (-1)^k H_k reduced mod pm (and s_p = 0), slot r of the exact
    shift is M_r = sum_{k>=r} C(k, r) p^(k-r) s_k, so

        T_r = sum_{k>=r+2} C(k, r) p^(k-r-2) s_k
            = (M_r - s_r - (r+1) p s_{r+1}) / p^2

    exactly, in O(1) big-int steps per r.  A division that leaves a
    remainder, or a T_1 that differs from sum_{k>=3} k p^(k-3) s_k summed
    by its own Horner pass, is an internal error.
    """
    s = [-x % pm if k % 2 else x for k, x in enumerate(h)] + [0]
    shift = _shift_by_p(s[:p], p, pm)
    sums = []
    for r, mr in enumerate(shift):
        total, rest = divmod(mr - s[r] - (r + 1) * p * s[r + 1], p * p)
        if rest:
            raise CongrlabError(f"Taylor shift slot {r} is not exact at p={p}")
        sums.append(total)
    direct = 0
    for k in range(p - 1, 2, -1):
        direct = direct * p + k * s[k]
    if direct != sums[1]:
        raise CongrlabError(f"reflection pair sum mismatch at p={p}")
    return [mr % pm for mr in shift], sums


def check_reflection_identity(p: int, table: HarmonicTable) -> list:
    """Verify the reflection structure of the harmonic polynomial at high precision.

    The product P(x) = prod (1 - x/k) satisfies P(x) = P(p - x).  Two
    consequences are checked in Z/p^(p+2):

    * the exact pair identity
      H_{2m-1} - m p H_{2m}
        = (p^2/2) * sum_{k=2m+1}^{p-1} (-1)^k C(k, 2m-1) p^{k-2m-1} H_k,
    * coefficient-by-coefficient agreement of P(x) and P(p - x),
      i.e. H_j = [x^j] P(x + p) = sum_{k>=j} (-1)^k C(k, j) p^{k-j} H_k
      for every j, where P(x + p) is the Taylor shift of P by p.

    Both sides are equal as rationals with p-free denominators, so they must
    agree at any working exponent; p + 2 is high enough that no summand is
    truncated away entirely.  The Taylor shift is one Horner pass, and each
    pair sum is read off one slot of it before that slot is reduced; the
    sum for m = 1 is also summed on its own and must agree (`_shifted_sums`).
    The suite reduces `table`, H_0 .. H_{p-1} modulo p^(p+2) or a higher
    power of p, to p^(p+2).
    """
    m_work = p + 2
    modulus = PrimePowerModulus(p, m_work)
    pm = modulus.pm
    table = table.reduced(modulus)
    h = table.h + _PAST_THE_END
    half_p2 = residue_of_rational(Fraction(p * p, 2), modulus)
    mirror, sums = _shifted_sums(table.h, p, pm)

    out = []
    for m in range(1, (p - 1) // 2 + 3):
        r = 2 * m - 1
        lhs = (h[r] - m * p * h[r + 1]) % pm
        rhs = half_p2 * sums[r] % pm if r < p else 0
        out.append((f"reflection.pair[m={m}]", p, m_work, lhs, rhs, modulus))
    for j, mirrored in enumerate(mirror):
        out.append((f"reflection.mirror[j={j}]", p, m_work, h[j], mirrored, modulus))
    return out


def check_harmonic_congruences(p: int, table: HarmonicTable) -> list:
    """Congruences satisfied by individual harmonic numbers.

    (a) H_m == 0 (mod p) for 1 <= m <= p-2
    (b) H_m == 0 (mod p^2) for odd m != p-2
    (c) H_{2m-1} - m p H_{2m} == 0 (mod p^4) when 2m+1 != p-2
    (d) H_{p-4} - ((p-3)/2) p H_{p-3} == -p^3/4 (mod p^4), needs p >= 5
    (e) H_{p-2} == p/2 (mod p^2)
    (f) H_{p-1} == -1 (mod p)

    The suite reduces `table`, H_0 .. H_{p-1} modulo p^4 or a higher power
    of p, to p^4.
    """
    modulus = PrimePowerModulus(p, 4)
    pm = modulus.pm
    table = table.reduced(modulus)
    h = table.h + _PAST_THE_END
    out = []

    for m in range(1, p - 1):
        out.append((f"harmonic.h_mod_p[m={m}]", p, 1, h[m], 0, modulus))

    for m in range(1, p, 2):
        if m == p - 2:
            continue
        out.append((f"harmonic.h_mod_p2[m={m}]", p, 2, h[m], 0, modulus))

    for m in range(1, (p + 1) // 2 + 2):
        if 2 * m + 1 == p - 2:
            # boundary pair handled by the -p^3/4 case below
            continue
        lhs = (h[2 * m - 1] - m * p * h[2 * m]) % pm
        out.append((f"harmonic.pair_mod_p4[m={m}]", p, 4, lhs, 0, modulus))

    if p >= 5:
        lhs = (h[p - 4] - (p - 3) // 2 * p * h[p - 3]) % pm
        rhs = residue_of_rational(-Fraction(p**3, 4), modulus)
        out.append(("harmonic.pair_boundary", p, 4, lhs, rhs, modulus))
    else:
        out.append(("harmonic.pair_boundary", p, None, None, None, "needs index p-4 >= 1"))

    rhs = residue_of_rational(Fraction(p, 2), modulus)
    out.append(("harmonic.h_p_minus_2", p, 2, h[p - 2], rhs, modulus))
    out.append(("harmonic.h_p_minus_1", p, 1, h[p - 1], -1, modulus))
    return out


def check_power_sum_congruences(p: int, table: HarmonicTable) -> list:
    """Congruences satisfied by the inverse power sums S_m.

    Swept over 1 <= m <= 2(p-1) + 1 so both branches of every divisibility
    condition occur:

    (1) S_m == 0 (mod p) unless (p-1) | m, in which case S_m == -1 (mod p)
    (2) for odd m, S_m == 0 (mod p^2) unless (p-1) | m+1, then S_m == mp/2
    (3) for odd m, 2 S_m + m p S_{m+1} == 0 (mod p^3); modulo p^4 it is 0
        when (p-1) does not divide m+3 and -m(m+1)(m+2) p^3 / 12 when it does
    (4) for odd m with (p-1) not dividing m+5,
        S_m + (m/2) p S_{m+1} + (m(m+1)/12) p^2 S_{m+2} == 0 (mod p^6)

    The sums are read off `table`, H_0 .. H_{p-1} modulo p^6 or a higher
    power of p, reduced to p^6.
    """
    modulus = PrimePowerModulus(p, 6)
    pm = modulus.pm
    top = 2 * (p - 1) + 1
    table = table.reduced(modulus)
    s = (None,) + power_sums_from_harmonic(table, top + 2)  # s[m] is S_m
    direct = sum(pow(k, -(top + 2), pm) for k in range(1, p)) % pm
    if s[top + 2] != direct:
        raise CongrlabError(f"power sum S_{top + 2} mismatch at p={p}")
    inv2 = pow(2, -1, pm)
    # 12 is a unit only for p >= 5, and at p = 3 every triple is skipped
    inv12 = pow(12, -1, pm) if p >= 5 else None
    out = []

    for m in range(1, top + 1):
        rhs = -1 % pm if m % (p - 1) == 0 else 0
        out.append((f"power_sum.mod_p[m={m}]", p, 1, s[m], rhs, modulus))

        if m % 2 == 0:
            continue

        rhs = m * p * inv2 % pm if (m + 1) % (p - 1) == 0 else 0
        out.append((f"power_sum.mod_p2[m={m}]", p, 2, s[m], rhs, modulus))

        pair = (2 * s[m] + m * p * s[m + 1]) % pm
        out.append((f"power_sum.pair_mod_p3[m={m}]", p, 3, pair, 0, modulus))
        if (m + 3) % (p - 1) == 0:
            rhs = residue_of_rational(
                -Fraction(m * (m + 1) * (m + 2), 12) * p**3, modulus
            )
        else:
            rhs = 0
        out.append((f"power_sum.pair_mod_p4[m={m}]", p, 4, pair, rhs, modulus))

        name = f"power_sum.triple_mod_p6[m={m}]"
        if (m + 5) % (p - 1) == 0:
            out.append((name, p, None, None, None, f"excluded: {p - 1} divides m+5"))
        else:
            triple = (
                s[m]
                + m * inv2 * p * s[m + 1]
                + m * (m + 1) * inv12 * p * p * s[m + 2]
            ) % pm
            out.append((name, p, 6, triple, 0, modulus))

    return out
