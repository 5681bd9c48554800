"""The congruence catalog: both sides of every case, evaluated exactly.

Most catalog entries compare C(alpha*p - 1, p - 1) -- or the signed central
binomial coefficient (-1)^((p-1)/2) * C(p-1, (p-1)/2) -- against a series
in p whose coefficients are harmonic numbers, inverse power sums or
B_{p-3}.  Each prime gets one ingredient record, `prime_record`: a dict
from each name X a request reads (`ingredients`) to its residue at one
working exponent: S_1, S_2, S_3 and H_2 (`SUMS`), 4^(p-1), B_{p-3} modulo
p^2 (`bernoulli_pm3`), C(2p-1, p-1), the central binomial and the
polynomial f in alpha with f(alpha) == C(alpha*p - 1, p - 1), so no record
depends on the alphas.  It is computed in full, inside Z/p^m, before any
case is evaluated, off one harmonic vector H_0, H_1, ..: f = sum_j
(-alpha*p)^j H_j, and S_1, S_2, S_3 off H_1, H_2, H_3 by Newton's
identities.  A range scan builds the vectors of all its primes at once
(`harmonic.harmonic_vectors`); otherwise the record interpolates f from
O(p) products (`binom_alpha_mod`) and divides its coefficients by powers of
-p (`_product_vector`).  The record runs its checks as it goes.  The
scanner compares the two routes at a range's largest prime, name by name
over `ROUTED`, and their sums with one `harmonic.power_sum_table` pass.
The independent oracle, the exact-rational product formula, lives with the
tests, in tests/oracles.py.

Each side of a case is data: a tuple of `Term`s c(alpha) * p^k * X.
Whether a case is evaluated at (p, alpha) is one rule,
`CongruenceCase.skip_reason` (the prime range, an integer-only domain, a
p-integral alpha), which `verify_case` and the scanner's plans share.
`verify_case` folds each side once into one polynomial in alpha and
evaluates it at every alpha it is given, against a `PrimeContext` over one
prime's record.  The context only reads the record: a name the record lacks
is an error, never a computation.  Each case reduces to its own modulus,
and a record never changes once built, so the cases of a prime share one
context, and its inverses, in any order.

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
from .harmonic import _times_mod_t
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

# The names read off the polynomial f(alpha) == C(alpha*p - 1, p - 1): f,
# f(2), and the central binomial, which is 4^(p-1) f(1/2).
BINOMIALS = frozenset({"binom", "binom2", "central"})

# The sums, which a record computes together: S_1, S_2, S_3 and H_2.
SUMS = ("S1", "S2", "S3", "H2")

# The names read off the vector, which the scanner compares across routes.
ROUTED = frozenset(SUMS) | {"binom", "binom2"}

# Every name a catalog term may read (see `Term`).
_NAMES = ROUTED | {"one", "four", "B", "central"}


def _vector_exponent(names: frozenset, m: int) -> int:
    """The exponent e of the product route's vector for a record of `names`
    modulo p^m, 0 for none: e = m for f, m + 3 for H_1 .. H_3 modulo p^m
    (the sums), and at least 4 for S_2 modulo p^2 (Glaisher's check on B)."""
    if names <= {"one", "four"}:
        return 0
    return m + 3 if not names.isdisjoint(SUMS) else max(m, 4) if "B" in names else m


def _product_vector(modulus: PrimePowerModulus, e: int) -> tuple:
    """H_0 .. H_{e-1}, each H_j modulo p^(e-j), reduced mod p^m.

    C(alpha*p - 1, p - 1) = prod_{k<p} (1 - alpha*p/k) = sum_j
    (-alpha*p)^j H_j, and H_j = 0 for j >= p: so mod p^e it is a polynomial
    f = sum_j c_j alpha^j of degree below n = min(e, p), c_j = (-p)^j H_j.
    f is interpolated from its values at alpha = 0 .. n-1 by Newton's
    forward differences: f(0) = f(1) = 1, and each other value is one
    product, all sharing one 1/(p-1)!.  It divides only by k < n, units.  A
    c_j that is not a multiple of p^j means a wrong product.
    """
    p, wide = modulus.p, modulus.with_exponent(e)
    pe, n = wide.pm, min(e, p)
    fact_inv = _factorial_inverse(wide) if n > 2 else None
    d = [1, 1][:n] + [binom_alpha_mod(a, wide, fact_inv) for a in range(2, n)]
    for k in range(1, n):  # d_i <- the i-th forward difference at 0
        d[k:] = [x - y for x, y in zip(d[k:], d[k - 1 :])]
    # f = d_0 + a (d_1 + (a - 1)/2 (d_2 + (a - 2)/3 (...))), inside out
    poly = d[-1:]
    for k in range(n - 2, -1, -1):
        inv = pow(k + 1, -1, pe)
        poly = [(c - k * nxt) * inv % pe for c, nxt in zip([0] + poly, poly + [0])]
        poly[0] = (poly[0] + d[k]) % pe
    h = []
    for j, c in enumerate(poly):
        hj, rest = divmod(c, (-p) ** j)
        if rest:
            raise CongrlabError(f"binomial's c_{j} is not a multiple of p^{j} at p={p}")
        h.append(hj % modulus.pm)
    return tuple(h) + (0,) * (e - n)


class PrimeContext:
    """One prime's ingredient record at one working exponent, and the
    arithmetic that evaluates a catalog side against it.

    `record` is what `prime_record` returns.  A context only reads it:
    reading a name the record lacks is an error, never a computation.  A
    scan keeps one context per prime, which every case reads in turn, so
    the inverses of the catalog's denominators are computed once per prime.
    """

    __slots__ = ("modulus", "p", "exponent", "pm", "record", "_inverses")

    def __init__(self, modulus: PrimePowerModulus, record: dict):
        self.modulus = modulus
        self.p, self.exponent, self.pm = modulus.p, modulus.m, modulus.pm
        self.record = record
        self._inverses: dict = {}

    def rat(self, q) -> int:
        """Residue of a p-integral int or Fraction; builds no Fraction."""
        d = q.denominator
        if d == 1:
            return q.numerator % self.pm
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
        """The side as one polynomial in a, alpha's residue, with residue
        coefficients highest degree first; "binom" is the record's f(a)."""
        poly = []
        for coef, k, x, four in side:
            binom = x == "binom"
            factor = self.p**k * (1 if binom else self.ingredient(x))
            if four:
                factor *= self.ingredient("four")
            coef = [self.rat(q) * factor for q in coef]
            if binom:
                f = self.ingredient("binom") + (0,) * (len(coef) - 1)
                coef = _times_mod_t(coef, f, len(f))
            poly.extend([0] * (len(coef) - len(poly)))
            for j, c in enumerate(coef):
                poly[j] = (poly[j] + c) % self.pm
        return tuple(reversed(poly))


def prime_record(modulus: PrimePowerModulus, names, h=None) -> dict:
    """One prime's ingredient record modulo p^m: each name in `names`, in full.

    Every binomial and sum comes off one harmonic vector: `h`, (H_0, ..,
    H_{m-1}) modulo p^m off the remainder tree, or else the product route's
    (`_product_vector`).  "binom" maps to the coefficients c_j = (-p)^j H_j
    of f, f(alpha) == C(alpha*p - 1, p - 1); "binom2" is f(2), and the
    central binomial's transfer reads f(1/2).  Newton's identities, with
    integer coefficients, give S_1 = H_1, S_2 = H_1^2 - 2 H_2 and S_3 =
    H_1^3 - 3 H_1 H_2 + 3 H_3 exactly.  Every check runs here, so a bad
    ingredient stops a scan before any verdict: the product route's
    coefficients, the central binomial's transfer, and Glaisher's S_2 ==
    (2/3) p B_{p-3} (mod p^2), which ties Faulhaber's B_{p-3} to the vector.
    """
    names = frozenset(names)
    if not _NAMES.issuperset(names):
        raise ValueError(f"unknown catalog ingredient {min(names - _NAMES)!r}")
    if h is not None and len(h) != modulus.m:
        raise ValueError(f"harmonic vector of length {len(h)}, need {modulus.m}")
    p, pm, m = modulus.p, modulus.pm, modulus.m
    if h is None and (e := _vector_exponent(names, m)):
        h = _product_vector(modulus, e)
    record = {"one": 1}
    if not BINOMIALS.isdisjoint(names):
        f = tuple((-p) ** j * hj % pm for j, hj in enumerate(h[:m]))
        if "binom" in names:
            record["binom"] = f
        if "binom2" in names:
            record["binom2"] = _horner(f[::-1], 2) % pm
        if "central" in names:
            half = _horner(f[::-1], pow(2, -1, pm)) % pm
            record["central"] = PrimeContext.central_binomial(modulus, half)
    if "four" in names:
        record["four"] = pow(4, p - 1, pm)
    if "B" in names or not names.isdisjoint(SUMS):
        if len(h) < 4:
            raise ValueError(f"S_3 reads H_3, past a vector of length {len(h)}")
        _, h1, h2, h3 = h[:4]
        sums = h1, (h1 * h1 - 2 * h2) % pm, (h1**3 - 3 * h1 * h2 + 3 * h3) % pm, h2
        if not names.isdisjoint(SUMS):
            record.update(zip(SUMS, sums))
    if "B" in names:
        b = record["B"] = bernoulli_pm3(p)
        if (3 * sums[1] - 2 * p * b) % min(p * p, pm):
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

    def skip_reason(self, p: int, alpha=None, claimed: bool = False) -> Optional[str]:
        """Why the case is not evaluated at (p, alpha), or None: p below its
        range (`claimed_min_p` if `claimed`), or a parametric case's alpha
        outside an "integer" case's domain (integers >= 1) or not a p-integer."""
        min_p = self.claimed_min_p if claimed else self.min_p
        if p < min_p:
            return f"requires p >= {min_p}"
        if alpha is None or self.alpha_mode == "none":
            return None
        if self.alpha_mode == "integer" and (alpha.denominator != 1 or alpha < 1):
            return "requires an integer alpha >= 1"
        return f"alpha is not a {p}-integer" if alpha.denominator % p == 0 else None


def ingredients(cases) -> frozenset:
    """The names `prime_record` computes for `cases`: every ingredient they read."""
    return frozenset().union(*(case.reads() for case in cases))


_TWO = Fraction(2)
_HALF = Fraction(1, 2)
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
    return _horner(ctx.side(CATALOG["thm1"].rhs), ctx.rat(Fraction(alpha))) % ctx.pm


def verify_case(
    case, p: int, alphas=(None,), tightness: bool = False,
    ctx: Optional[PrimeContext] = None, claimed_ranges: bool = False,
) -> list:
    """Evaluate one catalog case at one prime: one verdict per alpha, in order.

    A fixed case gives one verdict, alpha None, whatever `alphas` holds;
    a parametric case raises ValueError on a None alpha, and an int
    alpha becomes a Fraction.  Where the case does not apply, the verdict
    is a skip with `CongruenceCase.skip_reason`'s reason.  Each side is
    folded once per call into one polynomial in alpha, and evaluated by
    Horner's rule at each alpha.  With `tightness` the sides are compared
    at exponent m + 1, so the valuation can reveal a congruence that holds
    one power higher than stated.  `ctx` must hold every ingredient the
    case reads; without it the call builds the product route's record for
    itself.
    """
    if isinstance(case, str):
        try:
            case = CATALOG[case]
        except KeyError:
            raise KeyError(f"unknown congruence case {case!r}") from None
    parametric = case.alpha_mode != "none"
    if case.skip_reason(p, claimed=claimed_ranges) is None:
        m = case.modulus_exponent(p)
        m_eval = m + 1 if tightness else m
        if ctx is None:
            modulus = PrimePowerModulus(p, m_eval)
            ctx = PrimeContext(modulus, prime_record(modulus, ingredients([case])))
        if ctx.exponent < m_eval:
            raise ValueError(f"context exponent {ctx.exponent} below required {m_eval}")
        modulus = ctx.modulus.with_exponent(m_eval)
        lhs_poly, rhs_poly = ctx.side(case.lhs), ctx.side(case.rhs)
    verdicts, a = [], 0
    for alpha in alphas if parametric else (None,):
        if parametric:
            if alpha is None:
                raise ValueError(f"case {case.id} requires an alpha parameter")
            if not isinstance(alpha, Fraction):
                alpha = Fraction(alpha)
        if reason := case.skip_reason(p, alpha, claimed_ranges):
            verdicts.append(skip(case.id, p, alpha, reason))
            continue
        if parametric:
            a = ctx.rat(alpha)
        lhs, rhs = _horner(lhs_poly, a) % modulus.pm, _horner(rhs_poly, a) % modulus.pm
        verdicts.append(judge(case.id, p, alpha, m, lhs, rhs, modulus))
    return verdicts
