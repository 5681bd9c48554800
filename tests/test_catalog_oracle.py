"""Every catalog row against an exact oracle over Q, and mutants of every term.

The oracle interprets the same term rows as the modular interpreter in
congrlab.congruences, but over the rationals and from independent exact
routes: the binomial from its product formula, the central binomial from
math.comb, the power sums and H_2 from their defining sums and recurrence,
and B_{p-3} from the exact Bernoulli recurrence.  Reduction happens only at
the end, through the p-adic valuation of the exact difference.

Seventeen fixed cases are generated from the rows of seven parametric
cases at alpha = 2 or 1/2 (`congruences._at`); their sides are checked
against the parent's, over Q, at every prime p <= 47.

The mutation tests give each term of each row a unit change -- one more in
the constant coefficient, or one more power of p -- and require the mutated
case to fail at some prime p <= 47.  A mutant that survives would mark a
term that the check cannot see.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from congrlab import CATALOG, PrimeContext, PrimePowerModulus, verify_case
from congrlab.bernoulli import bernoulli_exact
from congrlab.congruences import _at, ingredients, prime_record, signed_central_binomial
from congrlab.residues import Valuation
from congrlab.scanner import DEFAULT_ALPHA_SWEEP, odd_primes_between
from congrlab.verdicts import FAIL, PASS, SKIP
from oracles import (
    binom_exact,
    harmonic_numbers_exact,
    power_sum_exact,
    rational_valuation,
    reduction_coefficients,
)

PRIMES = odd_primes_between(3, 47)

# The ten rational points of acceptance criterion 08.
CRITERION_08_POINTS = (
    Fraction(2), Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(3),
    Fraction(-1, 2), Fraction(2, 3), Fraction(7, 3), Fraction(5, 4),
    Fraction(-7, 5),
)


@lru_cache(maxsize=None)
def exact_ingredients(p: int) -> dict:
    return {
        "one": Fraction(1),
        "S1": power_sum_exact(p, 1),
        "S2": power_sum_exact(p, 2),
        "S3": power_sum_exact(p, 3),
        "H2": harmonic_numbers_exact(p)[2],
        "B": bernoulli_exact(p - 3),
        "binom2": binom_exact(2, p),
        "central": Fraction(signed_central_binomial(p)),
        "four": Fraction(4) ** (p - 1),
    }


@lru_cache(maxsize=None)
def exact_binom(alpha: Fraction, p: int) -> Fraction:
    return binom_exact(alpha, p)


@lru_cache(maxsize=None)
def context(p: int) -> PrimeContext:
    # exponent 8 covers every case's m + 1, so the scan's sharing is
    # exercised: one record for every case that applies at p, claimed or not
    cases = [case for case in CATALOG.values() if p >= case.claimed_min_p]
    modulus = PrimePowerModulus(p, 8)
    record = prime_record(modulus, *ingredients(cases, p, DEFAULT_ALPHA_SWEEP))
    return PrimeContext(modulus, record)


def poly(coef, alpha) -> Fraction:
    return sum(Fraction(c) * alpha**i for i, c in enumerate(coef))


def exact_side(side, p: int, alpha) -> Fraction:
    values = exact_ingredients(p)
    total = Fraction(0)
    for coef, k, x, four in side:
        value = exact_binom(alpha, p) if x == "binom" else values[x]
        term = poly(coef, alpha or 0) * Fraction(p) ** k * value
        total += term * values["four"] if four else term
    return total


def alphas_for(case):
    return (None,) if case.alpha_mode == "none" else DEFAULT_ALPHA_SWEEP


def expected_skip(case, p: int, alpha, claimed: bool) -> bool:
    if p < (case.claimed_min_p if claimed else case.min_p):
        return True
    if alpha is None:
        return False
    if case.alpha_mode == "integer" and (alpha.denominator != 1 or alpha < 1):
        return True
    return alpha.denominator % p == 0


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("claimed", [False, True], ids=["verified", "claimed"])
def test_every_case_matches_exact_oracle(p, claimed):
    for case in CATALOG.values():
        m = case.modulus_exponent(p)
        for alpha in alphas_for(case):
            got = verify_case(case, p, [alpha], ctx=context(p), claimed_ranges=claimed)[0]
            where = (case.id, p, alpha)
            if expected_skip(case, p, alpha, claimed):
                assert got.status == SKIP, where
                continue
            assert got.status != SKIP, where
            diff = exact_side(case.lhs, p, alpha) - exact_side(case.rhs, p, alpha)
            v = rational_valuation(diff, p)
            assert (got.status == PASS) == (v is None or v >= m), where
            if v is None or v >= m:
                assert got.valuation == Valuation(m, True), where
            else:
                assert got.valuation == Valuation(v, False), where


@pytest.mark.parametrize("alpha", CRITERION_08_POINTS)
def test_thm1_row_carries_the_reduction_coefficients(alpha):
    one, s1, h2 = CATALOG["thm1"].rhs
    c = reduction_coefficients(alpha)
    assert (one.coef, one.k, one.x) == ((1,), 0, "one")
    assert (s1.k, s1.x, h2.k, h2.x) == (1, "S1", 2, "H2")
    assert poly(s1.coef, alpha) == c.a1
    assert poly(h2.coef, alpha) == c.a2


TWO, HALF = Fraction(2), Fraction(1, 2)

# parent -> the fixed cases that are its row at alpha = 2 and at alpha = 1/2
SPECIALIZATIONS = {
    "rel26": (("babbage", "wolstenholme_rel70"), ("morley",)),
    "coro_rel2": ((), ()),  # carlitz agrees with its 1/2 row only mod p^4
    "coro_rel5b": (("glaisher1900_p4", "zhao"), ("coro_rel6b",)),
    "coro_rel5": (("mcintosh",), ("coro_rel6",)),
    "thm1": (("mestrovic80", "rel30"), ("rel31",)),
    "rel38": (("tauraso93", "rel36"), ("rel37",)),
    "coro_63_alpha": (("tauraso92", "coro_63_alpha2"), ("coro_63_half",)),
}


@pytest.mark.parametrize("alpha", [TWO, HALF], ids=["2", "1/2"])
@pytest.mark.parametrize("parent", SPECIALIZATIONS)
def test_specialized_sides_equal_the_parent_at_alpha(parent, alpha):
    # central = 4^(p-1) C(p/2 - 1, p - 1) exactly, so at 1/2 both of the
    # parent's sides are scaled by 4^(p-1)
    case = CATALOG[parent]
    lhs, rhs = _at(case.rhs, alpha)
    assert all(len(t.coef) == 1 and t.x != "binom" for t in lhs + rhs)
    for p in PRIMES:
        scale = exact_ingredients(p)["four"] if alpha == HALF else 1
        assert exact_side(lhs, p, None) == scale * exact_side(case.lhs, p, alpha), p
        assert exact_side(rhs, p, None) == scale * exact_side(case.rhs, p, alpha), p


@pytest.mark.parametrize("parent", SPECIALIZATIONS)
def test_fixed_cases_are_generated_from_their_parent(parent):
    at_two, at_half = SPECIALIZATIONS[parent]
    for alpha, children in ((TWO, at_two), (HALF, at_half)):
        sides = _at(CATALOG[parent].rhs, alpha)
        for child in children:
            assert (CATALOG[child].lhs, CATALOG[child].rhs) == sides, child


def test_specialization_needs_a_fixed_left_side():
    with pytest.raises(ValueError, match="no fixed left side"):
        _at(CATALOG["thm1"].rhs, Fraction(3))


def mutants():
    for case in CATALOG.values():
        for side_name in ("lhs", "rhs"):
            side = getattr(case, side_name)
            for i, term in enumerate(side):
                for kind, changed in (
                    ("coef", term._replace(coef=(term.coef[0] + 1,) + term.coef[1:])),
                    ("k", term._replace(k=term.k + 1)),
                ):
                    mutated = side[:i] + (changed,) + side[i + 1 :]
                    mutant = case._replace(**{side_name: mutated})
                    yield pytest.param(mutant, id=f"{case.id}.{side_name}[{i}].{kind}")


def first_failure(case):
    for p in PRIMES:
        for alpha in alphas_for(case):
            if verify_case(case, p, [alpha], ctx=context(p))[0].status == FAIL:
                return p, alpha
    return None


@pytest.mark.parametrize("mutant", mutants())
def test_every_term_mutant_fails_somewhere(mutant):
    assert first_failure(mutant) is not None


def test_unmutated_catalog_never_fails():
    for case in CATALOG.values():
        assert first_failure(case) is None, case.id
