"""The verdict record shared by the congruence catalog and the lemma suites."""

from __future__ import annotations

from fractions import Fraction
from sys import intern
from typing import NamedTuple, Optional

from .residues import PrimePowerModulus, Valuation, valuation_of_difference

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


class Verdict(NamedTuple):
    """Outcome of checking one congruence instance.

    For pass/fail verdicts `lhs` and `rhs` are the canonical residues of the
    two sides modulo p^m and `valuation` measures p^v | (lhs - rhs) at the
    evaluation modulus (which is p^(m+1) when tightness reporting is on).
    Skip verdicts carry only the reason.  A plain tuple, so a scan's
    thousands of records cost little to build, sort and slice, and lean: the
    name is interned and a pass holds one residue for both sides.
    """

    case: str
    p: int
    alpha: Optional[Fraction]
    m: Optional[int]
    lhs: Optional[int]
    rhs: Optional[int]
    status: str
    valuation: Optional[Valuation] = None
    reason: str = ""


def skip(case: str, p: int, alpha: Optional[Fraction], reason: str) -> Verdict:
    return Verdict(intern(case), p, alpha, None, None, None, SKIP, None, reason)


def judged(m: int, lhs: int, rhs: int, eval_modulus: PrimePowerModulus) -> tuple:
    """What a verdict records of two working residues judged against p^m.

    lhs and rhs live in `eval_modulus` (exponent >= m).  They come back
    reduced modulo p^m, one residue for both where they agree there (a
    pass), with the valuation of their difference as seen at the evaluation
    exponent: (lhs, rhs, valuation).
    """
    val = valuation_of_difference(lhs, rhs, eval_modulus)
    pm = eval_modulus.pm if m == eval_modulus.m else eval_modulus.p**m
    lhs %= pm
    return lhs, lhs if val.value >= m else rhs % pm, val


def judge(
    case: str,
    p: int,
    alpha: Optional[Fraction],
    m: int,
    lhs: int,
    rhs: int,
    eval_modulus: PrimePowerModulus,
) -> Verdict:
    """Judge two working residues against the target modulus p^m.

    The verdict records what `judged` makes of them; pass means the sides
    agree modulo p^m.
    """
    lhs, rhs, val = judged(m, lhs, rhs, eval_modulus)
    status = PASS if val.value >= m else FAIL
    return Verdict(intern(case), p, alpha, m, lhs, rhs, status, val)
