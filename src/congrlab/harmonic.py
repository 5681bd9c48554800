"""Generalized harmonic numbers and inverse power sums modulo p^m.

H_k is the k-th elementary symmetric function of 1/1, 1/2, ..., 1/(p-1),
with H_0 = 1 and H_k = 0 for k >= p; c(t) = prod_{k<p} (k + t) has
c_j = (p-1)! H_j.  `_rising` is the one loop that multiplies such products
out, and `_harmonic_from` checks c by Fermat's little theorem and divides
by c_0: on all of c for the lemma table (`harmonic_table`), and modulo t^D
for a range scan, whose H_0 .. H_{D-1} modulo p^D `harmonic_vectors` gets
for every prime at once from one accumulating remainder tree.

Power sums S_m = sum_{k<p} 1/k^m take one of two routes.  The first few,
which the scanner reads once, at a range's largest prime, to check the
sums the catalog reads off the vectors, come straight from a table of
inverses, one mulmod per k and m (`power_sum_table`).  The power-sum suite
reads S_1 .. S_{2p+1}, which that route would pay O(p^2) for, so it reads
them off the harmonic table instead: prod_{k<p} (1 - x/k) is
Q(x) = sum_j (-1)^j H_j x^j, and -x Q'(x) / Q(x) = sum_{m>=1} S_m x^m.  Q is
inverted by Newton iteration on packed ints (`power_sums_from_harmonic`).
The suite checks the highest sum, which depends on every Newton step,
against sum_{k<p} k^(-N) computed directly, and a mismatch is an internal
error.

Four suites check congruences these quantities satisfy at each prime
(`congrlab lemmas`).  A suite's check_* function builds its slice of the
prime's `LemmaRecord` from a harmonic table modulo a power of p at least its
own, and runs the suite's internal checks, which raise, as it does;
`lemmas` builds one table per prime, at p^(p+2) (p^6 at p = 3), for all
four suites (`scanner.run_lemma_suites`).  No row is built then.  Each
family of lemma names is one rule kept beside its suite, a `LemmaFamily` in
`REFLECTION_ROWS`, `HARMONIC_ROWS`, `POWER_SUM_ROWS` or
`bernoulli.LINK_ROWS`, that makes its row at k from a record: the (m, lhs,
rhs) that `verdicts.judge` judges, as it judges every catalog case, or a
skip's reason.  `lemmas` holds the records, and builds, judges and writes
each row as its report reads it (`scanner._lemma_records`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .residues import CongrlabError, PrimePowerModulus, residue_of_rational

__all__ = [
    "HARMONIC_ROWS",
    "POWER_SUM_ROWS",
    "REFLECTION_ROWS",
    "HarmonicTable",
    "LemmaFamily",
    "LemmaRecord",
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


def _times_mod_t(a: list, b: list, d: int) -> list:
    """a(t) * b(t) mod t^d, for coefficient lists lowest degree first."""
    out = [0] * d
    for i, ai in enumerate(a[:d]):
        if ai:
            for j in range(d - i):
                out[i + j] += ai * b[j]
    return out


def _rising(lo: int, hi: int, d: int) -> list:
    """prod_{lo <= k < hi} (k + t) mod t^d, exactly.  Up to max(d, 64) factors
    by Horner on one Kronecker-packed int, slots wider than the coefficients'
    sum prod (k + 1), masked to d once it has more; longer ones split in two."""
    if hi - lo > max(d, 64):
        mid = (lo + hi) // 2
        return _times_mod_t(_rising(lo, mid, d), _rising(mid, hi, d), d)
    width = math.prod(range(lo + 1, hi + 1)).bit_length() // 8 + 1
    packed, slot = 1, 8 * width
    mask = (1 << slot * d) - 1 if hi - lo >= d else math.inf  # no product-sized mask
    for k in range(lo, hi):
        packed = (packed << slot) + k * packed
        if packed > mask:
            packed &= mask
    return _unpack(packed, d, width)


def _harmonic_from(c: list, p: int, pm: int) -> tuple:
    """H_0 .. H_{D-1} mod pm, a power of p, from c = prod_{k<p} (k + t) mod
    t^D, c_j = (p-1)! H_j.  By Fermat, c(t) == t^(p-1) - 1 (mod p): a c_0
    other than -1, or a c_j other than 0 for 0 < j < min(D, p - 1), raises;
    a multiple of p passes (the scanner checks a range's largest prime)."""
    c0 = c[0] % pm  # (p-1)!
    if (c0 + 1) % p or any(x % p for x in c[1 : min(len(c), p - 1)]):
        raise CongrlabError(f"Fermat check fails at p={p}")
    inv_c0 = pow(c0, -1, pm)
    return tuple(x * inv_c0 % pm for x in c)


def harmonic_table(modulus: PrimePowerModulus) -> HarmonicTable:
    """H_0 .. H_{p-1} modulo p^m, off the exact prod_{k<p} (k + t)."""
    p = modulus.p
    return HarmonicTable(modulus, _harmonic_from(_rising(1, p, p), p, modulus.pm))


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
    product gives c, for `_harmonic_from`.  No product on the right spine
    is ever needed, the root's included.
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
            c = _times_mod_t(prefix, leaves[lo], exponents[lo])
            out[lo] = _harmonic_from(c, primes[lo], mods[lo])
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


class LemmaRecord(NamedTuple):
    """What every lemma row at one prime reads.

    `table` holds H_0 .. H_{p-1} modulo p^(p+2) (p^6 at p = 3) as
    `lemmas` builds it, or modulo any power of p at least the working
    modulus of each suite read.  The other fields are the suites' slices,
    each built, and its internal checks run, by that suite's check_*
    function; a test may leave out a suite it does not read.
    """

    table: HarmonicTable
    pairs: tuple = ()  # (m, right side) where it is not pair m's left side, mod p^(p+2)
    mirror: tuple = ()  # (j, [x^j] P(x + p)) where that is not H_j mod p^(p+2)
    sums: tuple = ()  # S_1 .. S_{2p+1} modulo p^6, S_m at index m - 1
    b: Optional[int] = None  # B_{p-3} modulo p^2, from p = 5

    @property
    def p(self) -> int:
        return self.table.modulus.p


def _once(p: int) -> range:
    return range(1)


class LemmaFamily(NamedTuple):
    """One family of lemma names, as the rule that makes its rows.

    Its row at k is named `name.format(k)`; a fixed name has no field and
    covers k = 0 alone.  The row at k of a prime's record is judged in
    Z/p^exponent(p), its suite's working modulus, which `row(record, k,
    modulus)` is given: it returns `verdicts.judge`'s (m, lhs, rhs), whose
    sides need only be congruent to the residues modulo p^exponent(p), or
    the reason the row is skipped.  `ks(p)` holds the k it covers at p.
    """

    name: str
    exponent: Callable
    row: Callable
    ks: Callable = _once


def _pair(h: tuple, k: int, p: int) -> int:
    """H_{2k-1} - k p H_{2k}, unreduced; H_j = 0 for j >= p, past the table."""
    odd, even, *_ = h[2 * k - 1 : 2 * k + 1] + (0, 0)
    return odd - k * p * even


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


def check_reflection_identity(p: int, table: HarmonicTable) -> tuple:
    """The reflection suite's slice of a lemma record: (pairs, mirror).

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
    This returns, with their indices, each pair's right side that is not
    its left side (`_pair`) and each coefficient of P(x + p) that is not
    H_j (normally none of either), for `REFLECTION_ROWS` to read.
    The suite reduces `table`, H_0 .. H_{p-1} modulo p^(p+2) or a higher
    power of p, to p^(p+2).
    """
    modulus = PrimePowerModulus(p, p + 2)
    pm = modulus.pm
    h = table.reduced(modulus).h
    half_p2 = residue_of_rational(Fraction(p * p, 2), modulus)
    mirror, sums = _shifted_sums(h, p, pm)
    # m = 1 .. (p-1)/2 read T_1, T_3, .., T_{p-2}; both pairs past them are 0
    rights = [half_p2 * t % pm for t in sums[1::2]] + [0, 0]
    pairs = tuple((m, x) for m, x in enumerate(rights, 1) if x != _pair(h, m, p) % pm)
    return pairs, tuple((j, x) for j, (x, hj) in enumerate(zip(mirror, h)) if x != hj)


def _reflection(p: int) -> int:
    return p + 2


def _reflection_pair(record: LemmaRecord, k: int, modulus: PrimePowerModulus):
    """Pair k, whose right side the record holds where it is not the left."""
    left = _pair(record.table.h, k, modulus.p)
    return modulus.m, left, dict(record.pairs).get(k, left)


REFLECTION_ROWS = (
    LemmaFamily(
        "reflection.pair[m={}]", _reflection, _reflection_pair,
        lambda p: range(1, (p - 1) // 2 + 3),
    ),
    LemmaFamily(
        "reflection.mirror[j={}]", _reflection,
        lambda r, j, mod: (mod.m, r.table.h[j], dict(r.mirror).get(j, r.table.h[j])),
        range,
    ),
)


def check_harmonic_congruences(p: int, table: HarmonicTable) -> HarmonicTable:
    """The harmonic suite's slice of a lemma record: `table` itself.

    Its rows (`HARMONIC_ROWS`) read H_0 .. H_{p-1} alone, modulo p^4:

    (a) H_m == 0 (mod p) for 1 <= m <= p-2
    (b) H_m == 0 (mod p^2) for odd m != p-2
    (c) H_{2m-1} - m p H_{2m} == 0 (mod p^4) when 2m+1 != p-2
    (d) H_{p-4} - ((p-3)/2) p H_{p-3} == -p^3/4 (mod p^4), needs p >= 5
    (e) H_{p-2} == p/2 (mod p^2)
    (f) H_{p-1} == -1 (mod p)

    so the one check is that `table` holds them modulo p^4 or a higher
    power of p.
    """
    if table.modulus.p != p or table.modulus.m < 4:
        raise ValueError(f"the harmonic suite reads {p}^4, not {table.modulus}")
    return table


def _harmonic(p: int) -> int:
    return 4


def _boundary_pair(record: LemmaRecord, k: int, modulus: PrimePowerModulus):
    """The pair m = (p - 3)/2, H_{p-4} - ((p-3)/2) p H_{p-3}, against -p^3/4."""
    p = modulus.p
    if p < 5:
        return "needs index p-4 >= 1"
    rhs = residue_of_rational(-Fraction(p**3, 4), modulus)
    return 4, _pair(record.table.h, (p - 3) // 2, p), rhs


HARMONIC_ROWS = (
    LemmaFamily(
        "harmonic.h_mod_p[m={}]", _harmonic,
        lambda r, k, mod: (1, r.table.h[k], 0), lambda p: range(1, p - 1),
    ),
    LemmaFamily(
        "harmonic.h_mod_p2[m={}]", _harmonic,
        lambda r, k, mod: (2, r.table.h[k], 0), lambda p: range(1, p - 2, 2),
    ),
    LemmaFamily(  # the pair with 2m + 1 = p - 2 is harmonic.pair_boundary
        "harmonic.pair_mod_p4[m={}]", _harmonic,
        lambda r, k, mod: (4, _pair(r.table.h, k, mod.p), 0),
        lambda p: set(range(1, (p + 1) // 2 + 2)) - {(p - 3) // 2},
    ),
    LemmaFamily("harmonic.pair_boundary", _harmonic, _boundary_pair),
    LemmaFamily(
        "harmonic.h_p_minus_2", _harmonic,
        lambda r, k, mod: (
            2, r.table.h[mod.p - 2], residue_of_rational(Fraction(mod.p, 2), mod)
        ),
    ),
    LemmaFamily(
        "harmonic.h_p_minus_1", _harmonic, lambda r, k, mod: (1, r.table.h[mod.p - 1], -1)
    ),
)


def check_power_sum_congruences(p: int, table: HarmonicTable) -> tuple:
    """The power-sum suite's slice of a lemma record: S_1 .. S_{2p+1} mod p^6.

    Its rows (`POWER_SUM_ROWS`) sweep 1 <= m <= 2(p-1) + 1, so both
    branches of every divisibility condition occur:

    (1) S_m == 0 (mod p) unless (p-1) | m, in which case S_m == -1 (mod p)
    (2) for odd m, S_m == 0 (mod p^2) unless (p-1) | m+1, then S_m == mp/2
    (3) for odd m, 2 S_m + m p S_{m+1} == 0 (mod p^3); modulo p^4 it is 0
        when (p-1) does not divide m+3 and -m(m+1)(m+2) p^3 / 12 when it does
    (4) for odd m with (p-1) not dividing m+5,
        S_m + (m/2) p S_{m+1} + (m(m+1)/12) p^2 S_{m+2} == 0 (mod p^6)

    The sums are read off `table`, H_0 .. H_{p-1} modulo p^6 or a higher
    power of p, reduced to p^6.  The highest, which depends on every Newton
    step, must equal sum_{k<p} k^-(2p+1) computed directly.
    """
    modulus = PrimePowerModulus(p, 6)
    pm, top = modulus.pm, 2 * p + 1
    sums = power_sums_from_harmonic(table.reduced(modulus), top)
    if sums[-1] != sum(pow(k, -top, pm) for k in range(1, p)) % pm:
        raise CongrlabError(f"power sum S_{top} mismatch at p={p}")
    return sums


def _power_sum(p: int) -> int:
    return 6


def _odd(p: int) -> range:
    return range(1, 2 * p, 2)


def _sum_pair(record: LemmaRecord, m: int, p: int) -> int:
    """2 S_m + m p S_{m+1}, unreduced."""
    return 2 * record.sums[m - 1] + m * p * record.sums[m]


def _half_mp(record: LemmaRecord, m: int, modulus: PrimePowerModulus):
    p = modulus.p
    rhs = residue_of_rational(Fraction(m * p, 2), modulus) if (m + 1) % (p - 1) == 0 else 0
    return 2, record.sums[m - 1], rhs


def _pair_mod_p4(record: LemmaRecord, m: int, modulus: PrimePowerModulus):
    p = modulus.p
    rhs = 0
    if (m + 3) % (p - 1) == 0:
        rhs = residue_of_rational(-Fraction(m * (m + 1) * (m + 2), 12) * p**3, modulus)
    return 4, _sum_pair(record, m, p), rhs


def _triple(record: LemmaRecord, m: int, modulus: PrimePowerModulus):
    p, s = modulus.p, record.sums
    if (m + 5) % (p - 1) == 0:
        return f"excluded: {p - 1} divides m+5"
    # twelve times the triple; 12 is a unit from p = 5, and at p = 3 every
    # triple is excluded
    twelve = 12 * s[m - 1] + 6 * m * p * s[m] + m * (m + 1) * p * p * s[m + 1]
    return 6, twelve * pow(12, -1, modulus.pm), 0


POWER_SUM_ROWS = (
    LemmaFamily(
        "power_sum.mod_p[m={}]", _power_sum,
        lambda r, m, mod: (1, r.sums[m - 1], 0 if m % (mod.p - 1) else -1),
        lambda p: range(1, 2 * p),
    ),
    LemmaFamily("power_sum.mod_p2[m={}]", _power_sum, _half_mp, _odd),
    LemmaFamily(
        "power_sum.pair_mod_p3[m={}]", _power_sum,
        lambda r, m, mod: (3, _sum_pair(r, m, mod.p), 0), _odd,
    ),
    LemmaFamily("power_sum.pair_mod_p4[m={}]", _power_sum, _pair_mod_p4, _odd),
    LemmaFamily("power_sum.triple_mod_p6[m={}]", _power_sum, _triple, _odd),
)
