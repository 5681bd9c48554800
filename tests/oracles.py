"""Independent routes the tests compare the package against.

Apart from the binomial expansion and the pair sum, everything here is
exact arithmetic over Q with fractions.Fraction, and nothing is reduced
modulo p^m: binomials from their falling-factorial product, H_j and S_m
from their defining recurrence and sums, the exact identity behind the
central binomial's 4^(p-1) transfer, the coefficient schedule and the p = 7
gap of the main congruence, the Bernoulli numbers by their classical
recurrence, and the von Staudt-Clausen check on them.
`reflection_pair_sum` is the reflection suite's pair sum over residues of
H_k, by the incremental loop that the suite's Taylor shift replaced.
`binom_alpha_expansion` is a third route to C(alpha*p - 1, p - 1) in
Z/p^m, the sum over j of (-alpha p)^j H_j, read off the package's harmonic
table.  `skip_reason_exact` states where a catalog case applies.
`record_dict` and `json_records` write a report's records through
json.JSONEncoder, `csv_report` through csv.writer and `text_report` with
str.ljust, the routes the scanner's templates replaced.  `emitted` catches
the bytes `emit_report` writes in memory, and `collected` reads a streamed
report's records into a list.  `verdicts_of` judges a lemma record's rows
as `lemmas` does, and `suite_verdicts` one suite's rows on a table.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from congrlab import PrimePowerModulus, emit_report, residue_of_rational, scanner
from congrlab import bernoulli, harmonic
from congrlab.bernoulli import bernoulli_exact
from congrlab.harmonic import HarmonicTable, LemmaRecord
from congrlab.residues import NotPInteger, is_prime


# ---------------------------------------------------------------------------
# harmonic numbers, power sums and valuations over Q
# ---------------------------------------------------------------------------


def harmonic_numbers_exact(p: int) -> tuple:
    """H_0 .. H_{p-1} as exact rationals, by the coefficient recurrence over Q."""
    c = [Fraction(0)] * p
    c[0] = Fraction(1)
    for k in range(1, p):
        ik = Fraction(1, k)
        for j in range(k, 0, -1):
            c[j] = c[j] - ik * c[j - 1]
    return tuple(c[k] if k % 2 == 0 else -c[k] for k in range(p))


def power_sum_exact(p: int, exponent: int) -> Fraction:
    return sum(Fraction(1, k**exponent) for k in range(1, p))


def reflection_pair_sum(h, p: int, r: int) -> int:
    """sum_{k=r+2}^{p-1} (-1)^k C(k, r) p^(k-r-2) h_k, for h_k = H_k mod p^m.

    The coefficient C(k, r) p^(k-r-2) is carried exactly from term to term,
    O(p) big-int steps per r, independent of any Taylor shift.
    """
    total, coef = 0, (r + 2) * (r + 1) // 2
    for k in range(r + 2, p):
        total += -coef * h[k] if k % 2 else coef * h[k]
        coef = coef * p * (k + 1) // (k + 1 - r)
    return total


def rational_valuation(q, p: int):
    """p-adic valuation of a rational; None for 0 (valuation +infinity)."""
    q = Fraction(q)
    if q == 0:
        return None
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


# ---------------------------------------------------------------------------
# binomials
# ---------------------------------------------------------------------------


def binom_rational_exact(x, r: int) -> Fraction:
    """C(x, r) for rational x: the falling product x(x-1)...(x-r+1)/r!."""
    x = Fraction(x)
    num = Fraction(1)
    for j in range(r):
        num *= x - j
    return num / math.factorial(r)


def binom_exact(alpha, p: int) -> Fraction:
    """Exact rational value of C(alpha*p - 1, p - 1); the oracle path."""
    return binom_rational_exact(Fraction(alpha) * p - 1, p - 1)


def binom_alpha_expansion(
    alpha, modulus: PrimePowerModulus, table: HarmonicTable
) -> int:
    """Same binomial via the polynomial expansion sum_k (-alpha)^k H_k p^k.

    Terms with k >= m vanish in Z/p^m, so only min(p, m) harmonic numbers
    contribute.  Cross-checks the product path.
    """
    p, pm, m = modulus.p, modulus.pm, modulus.m
    if table.modulus != modulus:
        raise ValueError("harmonic table built for a different modulus")
    a = residue_of_rational(alpha, modulus)
    total = 0
    coef = 1  # (-alpha)^k p^k
    for k in range(min(p, m)):
        total = (total + coef * table.h[k]) % pm
        coef = -coef * a % pm * p % pm
    return total


def central_binomial_identity(n: int) -> bool:
    """Exact rational identity (-1)^n C(2n, n) = 4^(2n) C(n - 1/2, 2n)."""
    lhs = Fraction(math.comb(2 * n, n))
    if n % 2:
        lhs = -lhs
    return lhs == 4 ** (2 * n) * binom_rational_exact(Fraction(2 * n - 1, 2), 2 * n)


# ---------------------------------------------------------------------------
# the generalized congruence and its coefficient machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionCoefficients:
    """Coefficient schedule that collapses the degree-4 harmonic expansion.

    lam and mu are the unique multipliers of the two auxiliary relations
    (the alpha = 1 expansion and the p^3 H_3 - 2 p^4 H_4 pair) that kill the
    k = 3 and k = 4 terms; what survives are the coefficients of the main
    congruence: a1 = -a(a-1)(a^2-a-1) and a2 = a^2(a-1)^2.
    """

    alpha: Fraction
    lam: Fraction
    mu: Fraction
    a0: Fraction
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction


def reduction_coefficients(alpha) -> ReductionCoefficients:
    a = Fraction(alpha)
    lam = a**4 - 2 * a**3
    mu = a**4 - a**3
    return ReductionCoefficients(
        alpha=a,
        lam=lam,
        mu=mu,
        a0=Fraction(1),
        a1=-a - lam,
        a2=a * a + lam,
        a3=-(a**3) - lam + mu,
        a4=a**4 + lam - 2 * mu,
    )


@dataclass(frozen=True)
class P7Residual:
    """Exact difference between the two sides of the main congruence at p = 7.

    The difference equals alpha^3 (alpha-1)^3 * 7^6 / 720 exactly, so its
    7-adic valuation is 6 + 3 v_7(alpha) + 3 v_7(alpha - 1); `tight` records
    whether the valuation is exactly 6, i.e. the exponent 6 cannot be raised.
    """

    alpha: Fraction
    difference: Fraction
    expected: Fraction
    matches: bool
    valuation: Optional[int]
    tight: bool


def p7_residual(alpha) -> P7Residual:
    alpha = Fraction(alpha)
    if alpha.denominator % 7 == 0:
        raise NotPInteger(f"{alpha} is not a 7-integer")
    h = harmonic_numbers_exact(7)
    a1 = -alpha * (alpha - 1) * (alpha * alpha - alpha - 1)
    a2 = alpha * alpha * (alpha - 1) ** 2
    rhs = 1 + a1 * 7 * h[1] + a2 * 49 * h[2]
    difference = binom_exact(alpha, 7) - rhs
    expected = alpha**3 * (alpha - 1) ** 3 * Fraction(7**6, 720)
    v = rational_valuation(difference, 7)
    return P7Residual(
        alpha=alpha,
        difference=difference,
        expected=expected,
        matches=difference == expected,
        valuation=v,
        tight=v == 6,
    )


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------


def bernoulli_recurrence(n: int) -> list:
    """B_0 .. B_n from sum_{k=0}^{r} C(r+1, k) B_k = 0, B_0 = 1, over Q."""
    values = [Fraction(1)]
    for r in range(1, n + 1):
        acc = Fraction(0)
        for k, bk in enumerate(values):
            if bk:
                acc += math.comb(r + 1, k) * bk
        values.append(-acc / (r + 1))
    return values


def von_staudt_clausen_defect(n: int) -> Fraction:
    """B_n + sum of 1/q over primes q with (q-1) | n.

    For even n this must be an integer; it is an independent structural check
    on the package's numbers, since the set of primes involved is derived from
    divisibility alone.
    """
    total = bernoulli_exact(n)
    for d in range(1, n + 1):
        if n % d == 0 and is_prime(d + 1):
            total += Fraction(1, d + 1)
    return total


# ---------------------------------------------------------------------------
# where a catalog case applies
# ---------------------------------------------------------------------------


def skip_reason_exact(case, p: int, alpha, claimed: bool) -> Optional[str]:
    """The skip reason of a catalog case at (p, alpha), or None where it is
    evaluated, read off the case's fields and stated without the package.

    The prime range comes first: p at least `claimed_min_p` under claimed
    ranges, else `min_p`.  A fixed case takes no alpha.  A parametric case
    then needs its alpha a positive integer if its mode is "integer", and a
    p-adic valuation of at least 0 (0 itself is a p-integer).
    """
    bound = case.claimed_min_p if claimed else case.min_p
    if p < bound:
        return f"requires p >= {bound}"
    if case.alpha_mode == "none" or alpha is None:
        return None
    if case.alpha_mode == "integer" and not (alpha == int(alpha) and alpha > 0):
        return "requires an integer alpha >= 1"
    v = rational_valuation(alpha, p)
    return None if v is None or v >= 0 else f"alpha is not a {p}-integer"


# ---------------------------------------------------------------------------
# report records
# ---------------------------------------------------------------------------

RECORD_KEYS = ("case", "p", "alpha", "m", "lhs", "rhs", "status", "valuation", "reason")


def record_dict(v) -> dict:
    """A verdict as the JSON object a report holds, built key by key."""
    alpha, lhs, rhs, valuation = v.alpha, v.lhs, v.rhs, v.valuation
    return dict(
        zip(
            RECORD_KEYS,
            (
                v.case, v.p, None if alpha is None else str(alpha), v.m,
                None if lhs is None else str(lhs),
                None if rhs is None else str(rhs),
                v.status, None if valuation is None else str(valuation),
                v.reason or None,
            ),
        )
    )


# json.JSONEncoder writes each record with its indentation folded into the
# item separator, as json.dumps(indent=2) lays it out two levels down
_encode_record = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def json_records(records) -> str:
    """A report's record list, each record through json.JSONEncoder."""
    if not records:
        return "[]"
    body = ",\n".join(
        "    {\n      " + _encode_record(record_dict(v))[1:-1] + "\n    }"
        for v in records
    )
    return "[\n" + body + "\n  ]"


def csv_report(records) -> bytes:
    """A report's CSV, every record less its reason, through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_KEYS[:-1])
    # the csv module writes None as an empty cell and str() of the rest
    writer.writerows(v[:-1] for v in records)
    return buf.getvalue().encode()


def text_report(report) -> bytes:
    """A report as text: the records as a table, each cell ljust to its
    column's width, then the summary and the anomalies."""
    rows = [["" if x is None else str(x) for x in v] for v in report.records]
    widths = [max(map(len, column)) for column in zip(RECORD_KEYS, *rows)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(RECORD_KEYS, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    s = report.summary
    lines.append("")
    lines.append(f"summary: pass={s['pass']} fail={s['fail']} skip={s['skip']}")
    if report.anomalies:
        lines.append("anomalies:")
        for v in report.anomalies:
            alpha = "" if v.alpha is None else f" alpha={v.alpha}"
            lines.append(
                f"  {v.case} p={v.p}{alpha} status={v.status} "
                f"m={v.m} valuation={v.valuation}"
            )
    else:
        lines.append("anomalies: none")
    return ("\n".join(lines) + "\n").encode()


def collected(report):
    """`report` with its records read into a list, once, so that a test may
    read them again; its summary and anomalies are complete after."""
    report.records = list(report.records)
    return report


def emitted(report, fmt: str) -> bytes:
    """The bytes `emit_report` writes for a report, caught in memory."""
    buf = io.BytesIO()
    assert emit_report(report, fmt, buf) == buf.tell()
    return buf.getvalue()


def verdicts_of(record, families=scanner._LEMMA_FAMILIES) -> list:
    """The verdicts `lemmas` makes of the rows `families` make of one
    prime's lemma record, by the walk its report takes: sorted by name."""
    return list(scanner._lemma_records([record], families))


# each lemma suite's slice of a record on a table, and the families that read it
_SUITES = {
    "reflection": (
        lambda p, t: LemmaRecord(t, *harmonic.check_reflection_identity(p, t)),
        harmonic.REFLECTION_ROWS,
    ),
    "harmonic": (
        lambda p, t: LemmaRecord(harmonic.check_harmonic_congruences(p, t)),
        harmonic.HARMONIC_ROWS,
    ),
    "power_sum": (
        lambda p, t: LemmaRecord(t, sums=harmonic.check_power_sum_congruences(p, t)),
        harmonic.POWER_SUM_ROWS,
    ),
    "bernoulli": (
        lambda p, t: LemmaRecord(t, b=bernoulli.check_bernoulli_power_sums(p)),
        bernoulli.LINK_ROWS,
    ),
}


def suite_verdicts(suite: str, p: int, table) -> list:
    """One lemma suite's verdicts at p, sorted by name: its families' rows of
    a record that holds `table` and that suite's slice of it alone."""
    build, families = _SUITES[suite]
    return verdicts_of(build(p, table), families)
