"""The congruence catalog: both sides of every case, evaluated exactly.

Most catalog entries compare C(alpha*p - 1, p - 1) -- or the signed central
binomial coefficient (-1)^((p-1)/2) * C(p-1, (p-1)/2) -- against a series
in p whose coefficients are harmonic numbers, inverse power sums or
B_{p-3}.  Each prime gets one ingredient record, `prime_record`: a dict
from each name X a request reads (`ingredients`) to its residue at one
working exponent: S_1, S_2, S_3 and H_2 (`SUMS`), 4^(p-1), B_{p-3} modulo
p^2, C(2p-1, p-1), the central binomial and the binomial at each alpha.
It is computed in full, inside Z/p^m, before any case is evaluated, on
one of two routes that differ in two helpers only.  Given the vector
H_0 .. H_{m-1} (which a range scan builds for all its primes at once, see
`harmonic.harmonic_vectors`), it reads C(alpha*p - 1, p - 1) =
sum_{j<m} (-alpha*p)^j H_j off it by Horner's rule, in O(m) per alpha,
and S_1, S_2, S_3 off H_1, H_2, H_3 by Newton's identities.  Without one,
it takes the product route, prod_{k=1}^{p-1} (alpha*p - k) / k (every k
is a unit), numerator and factorial each multiplied in runs of 64 factors
and reduced once per run, and one `power_sum_table` pass for the sums;
`binom_alpha_mod` is that route's binomial.  The record runs its checks as
it goes: the central binomial against its 4^(p-1) transfer, and B_{p-3}
against Glaisher's S_2 == (2/3) p B_{p-3} (mod p^2) wherever the record
holds S_2.  The scanner compares the two routes at a range's largest
prime, name by name over `ROUTED`.  The exact-rational product formula
that serves as the independent oracle of both lives with the tests, in
tests/oracles.py; it never reads a vector.

Each side of a case is data: a tuple of `Term`s c(alpha) * p^k * X.
`verify_case` folds each side of a case once into polynomials in alpha and
then evaluates them at every alpha it is given, against a `PrimeContext`
over one prime's record.  The context only reads the record: reading a
name the record lacks is an error, never a computation.  Each case then
reduces to its own modulus, and a record never changes once built, so the
cases of a single prime may share one, in any order.

The catalog writes each alpha-polynomial once.  Seven parametric cases
(rel26, coro_rel2, coro_rel5b, coro_rel5, thm1, rel38, coro_63_alpha) hold
the only copies of their right sides, and seventeen fixed cases are those
rows at alpha = 2 (C(2p-1, p-1) on the left) or alpha = 1/2 (the central
binomial on the left, every right term times 4^(p-1)), made by `_at`.
Three rows stay literal: rel34 and rel63 are power-sum identities, not
binomial ones, and carlitz leaves 4^(p-1) off its B term.  That is the same
congruence mod p^4 as coro_rel2 at 1/2, but not one power up, where
`--tightness` compares it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .bernoulli import bernoulli_pm3
from .harmonic import power_sum_table
from .residues import CongrlabError, NotPInteger, PrimePowerModulus, residue_of_rational
from .verdicts import judge, skip

__all__ = [
    "CATALOG",
    "CongruenceCase",
    "PrimeContext",
    "Term",
    "binom_alpha_mod",
    "ingredients",
    "prime_record",
    "signed_central_binomial",
    "thm1_rhs",
    "verify_case",
]


# ---------------------------------------------------------------------------
# binomial evaluation
# ---------------------------------------------------------------------------


def _prod_mod(factors: range, pm: int) -> int:
    """Product of `factors` modulo pm.

    `math.prod` multiplies each run of 64 consecutive factors in C, so the
    loop reduces len(factors)/64 times instead of once per factor.
    """
    out = 1
    for i in range(0, len(factors), 64):
        out = out * math.prod(factors[i : i + 64]) % pm
    return out


def _factorial_inverse(modulus: PrimePowerModulus) -> int:
    """Residue of 1/(p-1)! in Z/p^m."""
    return pow(_prod_mod(range(1, modulus.p), modulus.pm), -1, modulus.pm)


def _horner(poly: tuple, a):
    """A polynomial, highest degree first, at a, unreduced: sound at a
    residue, as reduction mod p^e is a ring homomorphism on p-integral Q,
    and exact at the Fraction alphas of `_at`."""
    total = 0
    for c in poly:
        total = total * a + c
    return total


def binom_alpha_mod(
    alpha, modulus: PrimePowerModulus, fact_inv: Optional[int] = None
) -> int:
    """Residue of C(alpha*p - 1, p - 1), computed inside Z/p^m.

    The numerator prod_{k=1}^{p-1} (alpha*p - k) is taken in runs of 64
    factors by `_prod_mod`.  `fact_inv` is the residue of 1/(p-1)!, which
    does not depend on alpha; a caller with several alphas computes it once
    and passes it in.
    """
    p, pm = modulus.p, modulus.pm
    if fact_inv is None:
        fact_inv = _factorial_inverse(modulus)
    a = residue_of_rational(alpha, modulus) * p % pm
    return _prod_mod(range(a - 1, a - p, -1), pm) * fact_inv % pm


def signed_central_binomial(p: int) -> int:
    """(-1)^((p-1)/2) * C(p-1, (p-1)/2), exactly."""
    n = (p - 1) // 2
    c = math.comb(p - 1, n)
    return -c if n % 2 else c


# ---------------------------------------------------------------------------
# the ingredient record
# ---------------------------------------------------------------------------

_TWO = Fraction(2)
_HALF = Fraction(1, 2)

# The alpha at which each fixed left side reads C(alpha*p - 1, p - 1); the
# central binomial is 4^(p-1) C(p/2 - 1, p - 1).
FIXED_ALPHAS = {"binom2": _TWO, "central": _HALF}

# The sums, which one route computes together: S_1, S_2, S_3 and H_2.
SUMS = ("S1", "S2", "S3", "H2")

# The names whose values depend on the route: the binomials and the sums.
ROUTED = frozenset(SUMS) | {"binom", "binom2"}

# Every name a catalog term may read (see `Term`).
_NAMES = ROUTED | {"one", "four", "B", "central"}


def _binomials(modulus: PrimePowerModulus, alphas: dict, h: Optional[tuple]) -> dict:
    """C(alpha*p - 1, p - 1) modulo p^m by alpha's residue, which is all it
    depends on, for `alphas`, a dict from that residue to alpha.

    Given `h`, C(alpha*p - 1, p - 1) = prod_{k<p} (1 - alpha*p/k) is
    sum_j (-alpha*p)^j H_j, and the terms j >= m vanish.  Without it, every
    alpha's product shares one 1/(p-1)!.
    """
    p, pm = modulus.p, modulus.pm
    if h is not None:
        poly = h[::-1]
        return {a: _horner(poly, -a * p) % pm for a in alphas}
    fact_inv = _factorial_inverse(modulus) if alphas else None
    return {a: binom_alpha_mod(alpha, modulus, fact_inv) for a, alpha in alphas.items()}


def _sums(modulus: PrimePowerModulus, h: Optional[tuple]) -> tuple:
    """(S_1, S_2, S_3, H_2) modulo p^m.

    Newton's identities have integer coefficients, so off the vector
    S_1 = H_1, S_2 = H_1^2 - 2 H_2 and S_3 = H_1^3 - 3 H_1 H_2 + 3 H_3
    hold exactly mod p^m; they read H_3, so the vector must be at least 4
    long.  Without it, one `power_sum_table` pass and
    H_2 = sum_{i<j} 1/(ij) = (S_1^2 - S_2)/2.
    """
    pm = modulus.pm
    if h is None:
        s1, s2, s3 = power_sum_table(modulus, 3)
        return s1, s2, s3, (s1 * s1 - s2) * pow(2, -1, pm) % pm
    if modulus.m < 4:
        raise ValueError(f"S_3 reads H_3, past a vector of length {modulus.m}")
    _, h1, h2, h3 = h[:4]
    return h1, (h1 * h1 - 2 * h2) % pm, (h1**3 - 3 * h1 * h2 + 3 * h3) % pm, h2


class PrimeContext:
    """One prime's ingredient record at one working exponent, and the
    arithmetic that evaluates a catalog side against it.

    `record` is what `prime_record` returns.  A context only reads it:
    reading a name the record lacks is an error, never a computation, so a
    scan keeps each prime's record and modulus alone.
    """

    __slots__ = ("modulus", "p", "exponent", "pm", "record", "_inverses")

    def __init__(self, modulus: PrimePowerModulus, record: dict):
        self.modulus = modulus
        self.p, self.exponent, self.pm = modulus.p, modulus.m, modulus.pm
        self.record = record
        self._inverses: dict = {}

    def modulus_at(self, m: int) -> PrimePowerModulus:
        """The ring Z/p^m, for the same p."""
        return self.modulus if m == self.exponent else self.modulus.with_exponent(m)

    def rat(self, q) -> int:
        """Residue of a p-integral int or Fraction; builds no Fraction."""
        d = q.denominator
        if d not in self._inverses:
            if d % self.p == 0:
                raise NotPInteger(f"{q} is not a {self.p}-integer")
            self._inverses[d] = pow(d, -1, self.pm)
        return q.numerator * self._inverses[d] % self.pm

    @staticmethod
    def central_binomial(modulus: PrimePowerModulus, half: int) -> int:
        """Signed central binomial residue, checked against its transfer
        4^(p-1) * `half`, C(p/2 - 1, p - 1) on the record's route.  A
        mismatch would mean the ring arithmetic is broken, so it is treated
        as an internal error rather than a verdict."""
        p, pm = modulus.p, modulus.pm
        direct = signed_central_binomial(p) % pm
        if direct != pow(4, p - 1, pm) * half % pm:
            raise CongrlabError(f"central binomial transfer mismatch at p={p}")
        return direct

    def ingredient(self, x: str) -> int:
        """`record[x]`; a name that `prime_record` did not compute raises."""
        try:
            return self.record[x]
        except KeyError:
            message = f"ingredient {x!r} is not in the record at p={self.p}"
            raise ValueError(message) from None

    def side(self, side: tuple) -> tuple:
        """(P, Q): the side as P(a) + Q(a) * C(alpha*p - 1, p - 1) in a,
        alpha's residue, with residue coefficients highest degree first."""
        polys = ([], [])
        for coef, k, x, four in side:
            binom = x == "binom"
            factor = self.p**k * (1 if binom else self.ingredient(x))
            if four:
                factor *= self.ingredient("four")
            poly = polys[binom]
            poly.extend([0] * (len(coef) - len(poly)))
            for j, q in enumerate(coef):
                poly[j] = (poly[j] + self.rat(q) * factor) % self.pm
        return tuple(reversed(polys[0])), tuple(reversed(polys[1]))


def prime_record(modulus: PrimePowerModulus, names, alphas=(), h=None) -> dict:
    """One prime's ingredient record modulo p^m: each name in `names`, in full.

    The record maps each name (see `Term`) to its residue, and "binom" to
    a dict from the residue of each alpha in `alphas`, which must be
    p-integral, to C(alpha*p - 1, p - 1).  Given `h`, (H_0, .., H_{m-1})
    modulo p^m, the binomials and sums come off it (the tree route);
    without, off products and one `power_sum_table` pass (the product
    route).  Its checks run here, so a bad ingredient stops a scan before
    any verdict: the central binomial's transfer and, wherever the record
    holds S_2 (always on the tree route), Glaisher's S_2 == (2/3) p B_{p-3}
    (mod p^2), which ties Faulhaber's B_{p-3} modulo p to the sums.
    """
    if not _NAMES.issuperset(names):
        raise ValueError(f"unknown catalog ingredient {min(set(names) - _NAMES)!r}")
    if h is not None and len(h) != modulus.m:
        raise ValueError(f"harmonic vector of length {len(h)}, need {modulus.m}")
    p, pm = modulus.p, modulus.pm
    record = {"one": 1}
    rat = PrimeContext(modulus, record).rat
    read = list(alphas) if "binom" in names else []
    read += [FIXED_ALPHAS[x] for x in FIXED_ALPHAS.keys() & names]
    binoms = _binomials(modulus, {rat(a): a for a in read}, h)
    if "binom" in names:
        record["binom"] = {a: binoms[a] for a in map(rat, alphas)}
    if "binom2" in names:
        record["binom2"] = binoms[rat(_TWO)]
    if "central" in names:
        record["central"] = PrimeContext.central_binomial(modulus, binoms[rat(_HALF)])
    if "four" in names:
        record["four"] = pow(4, p - 1, pm)
    if any(x in names for x in SUMS) or ("B" in names and h is not None):
        record.update(zip(SUMS, _sums(modulus, h)))
    if "B" in names:
        b = record["B"] = bernoulli_pm3(p)
        if "S2" in record and (3 * record["S2"] - 2 * p * b) % min(p * p, pm):
            raise CongrlabError(f"B_{p - 3} fails Glaisher's S_2 congruence at p={p}")
    return record


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------


class Term(NamedTuple):
    """One summand c(alpha) * p^k * X of a catalog side, times 4^(p-1) if `four`.

    `coef` is a polynomial in alpha, lowest degree first, with int or
    Fraction coefficients.  `x` names the ingredient X: "one" (1), "S1",
    "S2", "S3" (inverse power sums), "H2" (harmonic number), "B" (B_{p-3}),
    "binom" (C(alpha*p - 1, p - 1)), "binom2" (C(2p - 1, p - 1)) or
    "central" (the signed central binomial).  `four` takes the record's
    "four", 4^(p-1).
    """

    coef: tuple
    k: int
    x: str
    four: bool = False


class CongruenceCase(NamedTuple):
    """One named congruence lhs == rhs (mod p^m), each side a tuple of `Term`s.

    `min_p` is the range the case verifiably holds on; where a source states
    a wider range that fails in practice, the wider bound is kept in
    `claimed_min_p` so the scanner can probe it on demand.  With
    `drops_at_seven` the modulus exponent is m - 1 at p = 7.
    """

    id: str
    statement: str
    min_p: int
    claimed_min_p: int
    alpha_mode: str  # "none" | "sweep" | "integer"
    m: int
    lhs: tuple
    rhs: tuple
    note: str = ""
    drops_at_seven: bool = False

    def modulus_exponent(self, p: int) -> int:
        return self.m - 1 if self.drops_at_seven and p == 7 else self.m

    def reads(self) -> frozenset:
        """The ingredient names its terms read, "four" included."""
        terms = self.lhs + self.rhs
        return frozenset([t.x for t in terms] + ["four" for t in terms if t.four])

    def takes(self, alpha) -> bool:
        """Whether alpha is in the case's domain: an "integer" case takes
        the integers >= 1 only."""
        return self.alpha_mode != "integer" or (alpha.denominator == 1 and alpha >= 1)


def ingredients(cases, p: int, alphas=()) -> tuple:
    """(names, alphas): what `prime_record` computes for `cases` at p.

    The names are every ingredient the cases read; the alphas, in the order
    given, are the p-integral ones at which some case reads
    C(alpha*p - 1, p - 1).
    """
    names = frozenset().union(*(case.reads() for case in cases))
    binom = [case for case in cases if "binom" in case.reads()]
    read = tuple(
        a for a in alphas
        if a.denominator % p and any(case.takes(a) for case in binom)
    )
    return names, read


_ONE = (Term((1,), 0, "one"),)
_ZERO = ()
_FOUR = (Term((1,), 0, "one", True),)
_BINOM = (Term((1,), 0, "binom"),)
_BINOM2 = (Term((1,), 0, "binom2"),)
_CENTRAL = (Term((1,), 0, "central"),)

# The right sides of the seven parametric cases, C(ap-1, p-1) on the left.
# -a(a-1)(a^2-a-1) is the S_1 coefficient of Theorem 1 and of rel38.
_MINUS_A1 = (0, -1, 0, 2, -1)
_REL26 = _ONE
_CORO_REL2 = _ONE + (Term((0, Fraction(1, 3), Fraction(-1, 3)), 3, "B"),)
_CORO_REL5B = _ONE + (Term((0, -1, 1), 1, "S1"),)
_CORO_REL5 = _ONE + (Term((0, Fraction(1, 2), Fraction(-1, 2)), 2, "S2"),)
_THM1 = _ONE + (Term(_MINUS_A1, 1, "S1"), Term((0, 0, 1, -2, 1), 2, "H2"))
_REL38 = _ONE + (
    Term(_MINUS_A1, 1, "S1"),
    Term((0, 0, Fraction(-1, 2), 1, Fraction(-1, 2)), 2, "S2"),
)
_CORO_63 = _CORO_REL5B + (
    Term((0, 0, Fraction(1, 6), Fraction(-1, 3), Fraction(1, 6)), 3, "S3"),
)


def _at(rhs: tuple, alpha: Fraction) -> tuple:
    """(lhs, rhs) of a parametric right side specialized to alpha = 2 or 1/2.

    At 2 the left side is C(2p-1, p-1).  At 1/2 it is the signed central
    binomial, which is 4^(p-1) C(p/2 - 1, p - 1) exactly, so every right
    term takes the factor 4^(p-1).  Each coefficient is its polynomial at
    alpha, by Horner's rule.
    """
    if alpha not in (_TWO, _HALF):
        raise ValueError(f"no fixed left side at alpha = {alpha}")
    terms = []
    for coef, k, x, _ in rhs:
        terms.append(Term((_horner(coef[::-1], alpha),), k, x, alpha == _HALF))
    return (_BINOM2 if alpha == _TWO else _CENTRAL), tuple(terms)


_CASES = (
    # -- fixed central/binomial congruences, in historical order ------------
    CongruenceCase(
        "babbage",
        "C(2p-1, p-1) == 1 (mod p^2), p >= 3",
        3, 3, "none", 2, *_at(_REL26, _TWO),
    ),
    CongruenceCase(
        "wolstenholme_rel70",
        "C(2p-1, p-1) == 1 (mod p^3), p >= 5",
        5, 5, "none", 3, *_at(_REL26, _TWO),
    ),
    CongruenceCase(
        "morley",
        "(-1)^((p-1)/2) C(p-1, (p-1)/2) == 4^(p-1) (mod p^3), p >= 5",
        5, 5, "none", 3, *_at(_REL26, _HALF),
    ),
    CongruenceCase(
        "glaisher_rel74",
        "C(np-1, p-1) == 1 (mod p^3), p >= 5, integer n >= 1",
        5, 5, "integer", 3, _BINOM, _REL26,
    ),
    CongruenceCase(
        "glaisher_rel3",
        "C(np-1, p-1) == 1 - n(n-1) p^3 B_{p-3} / 3 (mod p^4), p >= 5",
        5, 5, "integer", 4, _BINOM, _CORO_REL2,
    ),
    CongruenceCase(
        "glaisher1900_p4",
        "C(2p-1, p-1) == 1 + 2p S_1 (mod p^4), p >= 3",
        3, 3, "none", 4, *_at(_CORO_REL5B, _TWO),
    ),
    CongruenceCase(
        "carlitz",
        "central == 4^(p-1) + p^3 B_{p-3} / 12 (mod p^4), p >= 5",
        5, 5, "none", 4, _CENTRAL,
        _FOUR + (Term((Fraction(1, 12),), 3, "B"),),
    ),
    CongruenceCase(
        "mcintosh",
        "C(2p-1, p-1) == 1 - p^2 S_2 (mod p^5), p >= 7",
        7, 7, "none", 5, *_at(_CORO_REL5, _TWO),
    ),
    CongruenceCase(
        "zhao",
        "C(2p-1, p-1) == 1 + 2p S_1 (mod p^5), p >= 7",
        7, 7, "none", 5, *_at(_CORO_REL5B, _TWO),
    ),
    CongruenceCase(
        "tauraso92",
        "C(2p-1, p-1) == 1 + 2p S_1 + (2/3) p^3 S_3 (mod p^6), p >= 7",
        7, 7, "none", 6, *_at(_CORO_63, _TWO),
        note="stated from p >= 7; the p >= 11 reading is a sub-range",
    ),
    CongruenceCase(
        "tauraso93",
        "C(2p-1, p-1) == 1 - 2p S_1 - 2 p^2 S_2 (mod p^6), p >= 7",
        7, 7, "none", 6, *_at(_REL38, _TWO),
        note="stated from p >= 7; the p >= 11 reading is a sub-range",
    ),
    CongruenceCase(
        "mestrovic80",
        "C(2p-1, p-1) == 1 - 2p S_1 + 4 p^2 H_2 (mod p^7), p >= 11",
        11, 11, "none", 7, *_at(_THM1, _TWO),
    ),
    # -- the generalized congruence and its specializations -----------------
    CongruenceCase(
        "thm1",
        "C(ap-1, p-1) == 1 - a(a-1)(a^2-a-1) p S_1 + a^2(a-1)^2 p^2 H_2 "
        "(mod p^m), m = 7 except m = 6 at p = 7",
        3, 3, "sweep", 7, _BINOM, _THM1,
        note="claimed for every odd prime; proof range is p = 7 and "
        "p >= 11, so outcomes at p = 3, 5 are findings",
        drops_at_seven=True,
    ),
    CongruenceCase(
        "rel30",
        "thm1 at alpha = 2: C(2p-1, p-1) == 1 - 2p S_1 + 4 p^2 H_2 (mod p^m)",
        3, 3, "none", 7, *_at(_THM1, _TWO),
        drops_at_seven=True,
    ),
    CongruenceCase(
        "rel31",
        "central == 4^(p-1) (1 - (5/16) p S_1 + (1/16) p^2 H_2) (mod p^m)",
        3, 3, "none", 7, *_at(_THM1, _HALF),
        drops_at_seven=True,
    ),
    CongruenceCase(
        "rel26",
        "C(ap-1, p-1) == 1 (mod p^3), p >= 5, any p-integer a",
        5, 5, "sweep", 3, _BINOM, _REL26,
    ),
    CongruenceCase(
        "rel38",
        "C(ap-1, p-1) == 1 - a(a-1)(a^2-a-1) p S_1 - (1/2) a^2(a-1)^2 p^2 S_2 "
        "(mod p^6)",
        5, 3, "sweep", 6, _BINOM, _REL38,
        note="stated for every odd prime but fails at p = 3 (difference "
        "valuation 4); needs S_1 == 0 mod p^2, hence p >= 5",
    ),
    CongruenceCase(
        "rel36",
        "C(2p-1, p-1) == 1 - 2p S_1 - 2 p^2 S_2 (mod p^6)",
        5, 3, "none", 6, *_at(_REL38, _TWO),
        note="alpha = 2 instance of rel38; same p = 3 caveat",
    ),
    CongruenceCase(
        "rel37",
        "central == 4^(p-1) (1 - (5/16) p S_1 - (1/32) p^2 S_2) (mod p^6)",
        5, 3, "none", 6, *_at(_REL38, _HALF),
        note="alpha = 1/2 instance of rel38; same p = 3 caveat",
    ),
    CongruenceCase(
        "coro_rel2",
        "C(ap-1, p-1) == 1 - a(a-1) p^3 B_{p-3} / 3 (mod p^4), p >= 5",
        5, 5, "sweep", 4, _BINOM, _CORO_REL2,
    ),
    CongruenceCase(
        "rel34",
        "2p S_1 + p^2 S_2 == 0 (mod p^5), p >= 7",
        7, 7, "none", 5,
        (Term((2,), 1, "S1"), Term((1,), 2, "S2")),
        _ZERO,
    ),
    CongruenceCase(
        "coro_rel5b",
        "C(ap-1, p-1) == 1 + a(a-1) p S_1 (mod p^5), p >= 7",
        7, 7, "sweep", 5, _BINOM, _CORO_REL5B,
    ),
    CongruenceCase(
        "coro_rel5",
        "C(ap-1, p-1) == 1 - (1/2) a(a-1) p^2 S_2 (mod p^5), p >= 7",
        7, 7, "sweep", 5, _BINOM, _CORO_REL5,
    ),
    CongruenceCase(
        "coro_rel6b",
        "central == 4^(p-1) (1 - (1/4) p S_1) (mod p^5), p >= 7",
        7, 7, "none", 5, *_at(_CORO_REL5B, _HALF),
    ),
    CongruenceCase(
        "coro_rel6",
        "central == 4^(p-1) (1 + (1/8) p^2 S_2) (mod p^5), p >= 7",
        7, 7, "none", 5, *_at(_CORO_REL5, _HALF),
    ),
    CongruenceCase(
        "rel63",
        "S_1 + (1/2) p S_2 + (1/6) p^2 S_3 == 0 (mod p^6), p >= 11",
        11, 11, "none", 6,
        (
            Term((1,), 0, "S1"),
            Term((Fraction(1, 2),), 1, "S2"),
            Term((Fraction(1, 6),), 2, "S3"),
        ),
        _ZERO,
        note="also holds at p = 5, the only smaller prime where p-1 does "
        "not divide 6; the lemma suite tests that reading",
    ),
    CongruenceCase(
        "coro_63_alpha",
        "C(ap-1, p-1) == 1 + a(a-1) p S_1 + (1/6) a^2(a-1)^2 p^3 S_3 "
        "(mod p^6), p >= 11",
        11, 11, "sweep", 6, _BINOM, _CORO_63,
    ),
    CongruenceCase(
        "coro_63_alpha2",
        "C(2p-1, p-1) == 1 + 2p S_1 + (2/3) p^3 S_3 (mod p^6), p >= 11",
        11, 11, "none", 6, *_at(_CORO_63, _TWO),
    ),
    CongruenceCase(
        "coro_63_half",
        "central == 4^(p-1) (1 - (1/4) p S_1 + (1/96) p^3 S_3) (mod p^6), "
        "p >= 11",
        11, 11, "none", 6, *_at(_CORO_63, _HALF),
    ),
)

def _catalog(cases) -> dict:
    """Cases by id; rejects a duplicate id and a "B" term read past p^2.

    B_{p-3} is known only modulo p^2, so a term p^k * B_{p-3} may be compared
    at most at p^(k+2), including the extra power `--tightness` adds.
    """
    catalog = {case.id: case for case in cases}
    if len(catalog) != len(cases):
        raise ValueError("duplicate catalog id")
    for case in cases:
        for term in case.lhs + case.rhs:
            if term.x == "B" and case.m + 1 - term.k > 2:
                raise ValueError(
                    f"case {case.id}: B_(p-3) is known mod p^2, too coarse "
                    f"for p^{term.k} at modulus p^{case.m + 1}"
                )
    return catalog


CATALOG = _catalog(_CASES)


def thm1_rhs(alpha, modulus: PrimePowerModulus) -> int:
    """1 - a(a-1)(a^2-a-1) p H_1 + a^2 (a-1)^2 p^2 H_2 in Z/p^m (H_1 = S_1)."""
    ctx = PrimeContext(modulus, prime_record(modulus, {"S1", "H2"}))
    return _horner(ctx.side(CATALOG["thm1"].rhs)[0], ctx.rat(Fraction(alpha))) % ctx.pm


def verify_case(
    case, p: int, alphas=(None,), tightness: bool = False,
    ctx: Optional[PrimeContext] = None, claimed_ranges: bool = False,
) -> list:
    """Evaluate one catalog case at one prime: one verdict per alpha, in order.

    A fixed case gives one verdict, alpha None, whatever `alphas` holds;
    a parametric case raises ValueError on a None alpha, and an int
    alpha becomes a Fraction.  A skip verdict means the case does not
    apply: prime below its range, alpha outside an integer-only case's
    domain, or alpha not a p-integer.  Each side is folded once per
    call.  With `tightness` the sides are compared at exponent m + 1, so
    the valuation can reveal a congruence that holds one power higher
    than stated.  `ctx` must hold every ingredient the case reads at p, at
    every alpha it takes; without it the call builds the product route's
    record for itself.
    """
    if isinstance(case, str):
        try:
            case = CATALOG[case]
        except KeyError:
            raise KeyError(f"unknown congruence case {case!r}") from None
    parametric = case.alpha_mode != "none"
    min_p = case.claimed_min_p if claimed_ranges else case.min_p
    if p >= min_p:
        m = case.modulus_exponent(p)
        m_eval = m + 1 if tightness else m
        if ctx is None:
            modulus = PrimePowerModulus(p, m_eval)
            given = [Fraction(a) for a in alphas if a is not None] if parametric else ()
            record = prime_record(modulus, *ingredients([case], p, given))
            ctx = PrimeContext(modulus, record)
        if ctx.exponent < m_eval:
            raise ValueError(f"context exponent {ctx.exponent} below required {m_eval}")
        modulus = ctx.modulus_at(m_eval)
        (lhs_p, lhs_q), (rhs_p, rhs_q) = ctx.side(case.lhs), ctx.side(case.rhs)
        if lhs_q or rhs_q:
            binoms = ctx.ingredient("binom")
    verdicts, a, binom = [], 0, 0
    for alpha in alphas if parametric else (None,):
        if parametric:
            if alpha is None:
                raise ValueError(f"case {case.id} requires an alpha parameter")
            if not isinstance(alpha, Fraction):
                alpha = Fraction(alpha)
        if p < min_p:
            verdicts.append(skip(case.id, p, alpha, f"requires p >= {min_p}"))
            continue
        if parametric:
            if not case.takes(alpha):
                reason = "requires an integer alpha >= 1"
                verdicts.append(skip(case.id, p, alpha, reason))
                continue
            if alpha.denominator % p == 0:
                verdicts.append(skip(case.id, p, alpha, f"alpha is not a {p}-integer"))
                continue
            a = ctx.rat(alpha)
        if lhs_q or rhs_q:
            binom = binoms.get(a)
            if binom is None:
                raise ValueError(f"no binomial at alpha = {alpha} in the record at p={p}")
        lhs = (_horner(lhs_p, a) + _horner(lhs_q, a) * binom) % modulus.pm
        rhs = (_horner(rhs_p, a) + _horner(rhs_q, a) * binom) % modulus.pm
        verdicts.append(judge(case.id, p, alpha, m, lhs, rhs, modulus))
    return verdicts
