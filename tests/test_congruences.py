"""The congruence catalog, binomial evaluation paths and proof machinery."""

import math
from fractions import Fraction

import pytest

from congrlab import (
    CATALOG,
    PrimeContext,
    PrimePowerModulus,
    CongrlabError,
    bernoulli_mod,
    binom_alpha_mod,
    prime_record,
    residue_of_rational,
    thm1_rhs,
    verify_case,
)
from congrlab import congruences
from congrlab.congruences import (
    CongruenceCase,
    SUMS,
    Term,
    _catalog,
    _factorial_inverse,
    signed_central_binomial,
)
from congrlab.harmonic import harmonic_table, harmonic_vectors, power_sum_table
from congrlab.residues import NotPInteger
from congrlab.scanner import DEFAULT_ALPHA_SWEEP, odd_primes_between
from congrlab.verdicts import FAIL, PASS, SKIP
from oracles import (
    binom_alpha_expansion,
    binom_exact,
    binom_rational_exact,
    central_binomial_identity,
    harmonic_numbers_exact,
    p7_residual,
    reduction_coefficients,
)


def record(p: int, exponent: int, names, alphas=(), h=None) -> dict:
    return prime_record(PrimePowerModulus(p, exponent), names, alphas, h)


def binomials(p: int, exponent: int, alphas, h=None) -> list:
    """C(alpha*p - 1, p - 1) at each alpha, read off one record."""
    modulus = PrimePowerModulus(p, exponent)
    binom = prime_record(modulus, {"binom"}, alphas, h)["binom"]
    return [binom[residue_of_rational(a, modulus)] for a in alphas]


class TestBinomialPaths:
    def test_ring_path_example(self):
        m = PrimePowerModulus(5, 7)
        assert binom_alpha_mod(2, m) == 126  # C(9, 4)

    @pytest.mark.parametrize("p,e", [(5, 7), (7, 6), (11, 3)])
    def test_alpha_one_and_zero(self, p, e):
        m = PrimePowerModulus(p, e)
        assert binom_alpha_mod(1, m) == 1
        assert binom_alpha_mod(0, m) == 1  # (-1)^(p-1) = 1 for odd p

    def test_not_p_integer(self):
        with pytest.raises(NotPInteger):
            binom_alpha_mod(Fraction(1, 7), PrimePowerModulus(7, 2))

    @pytest.mark.parametrize(
        "alpha,p,expected",
        [
            (Fraction(2), 5, Fraction(126)),
            (Fraction(1, 2), 5, Fraction(3, 128)),
            (Fraction(1), 11, Fraction(1)),
        ],
    )
    def test_exact_oracle_examples(self, alpha, p, expected):
        assert binom_exact(alpha, p) == expected

    def test_exact_oracle_matches_comb_for_integers(self):
        for p in odd_primes_between(3, 31):
            for n in range(1, 7):
                assert binom_exact(n, p) == math.comb(n * p - 1, p - 1)

    @pytest.mark.parametrize("p", odd_primes_between(3, 31))
    def test_two_path_agreement(self, p):
        modulus = PrimePowerModulus(p, 7)
        for alpha in DEFAULT_ALPHA_SWEEP:
            if alpha.denominator % p == 0:
                continue
            ring = binom_alpha_mod(alpha, modulus)
            oracle = residue_of_rational(binom_exact(alpha, p), modulus)
            assert ring == oracle, (p, alpha)

    @pytest.mark.parametrize("p", odd_primes_between(3, 31))
    def test_expansion_path_agreement(self, p):
        modulus = PrimePowerModulus(p, 7)
        table = harmonic_table(modulus)
        for alpha in DEFAULT_ALPHA_SWEEP:
            if alpha.denominator % p == 0:
                continue
            assert (
                binom_alpha_expansion(alpha, modulus, table)
                == binom_alpha_mod(alpha, modulus)
            ), (p, alpha)

    # p - 1 = 60, 66, 126, 130, 192, 196, 256, 262 factors: 0 to 4 full runs
    # of 64 in the products, with and without a partial run after them
    RUN_BOUNDARY_PRIMES = [61, 67, 127, 131, 193, 197, 257, 263]

    @pytest.mark.parametrize("p", RUN_BOUNDARY_PRIMES)
    def test_ring_path_across_run_boundaries(self, p):
        for alpha in DEFAULT_ALPHA_SWEEP:
            exact = binom_exact(alpha, p)
            for m in range(1, 9):
                modulus = PrimePowerModulus(p, m)
                oracle = residue_of_rational(exact, modulus)
                assert binom_alpha_mod(alpha, modulus) == oracle, (p, alpha, m)

    @pytest.mark.parametrize("p", RUN_BOUNDARY_PRIMES)
    def test_factorial_inverse_across_run_boundaries(self, p):
        for m in range(1, 9):
            expected = pow(math.factorial(p - 1), -1, p**m)
            assert _factorial_inverse(PrimePowerModulus(p, m)) == expected, (p, m)

    def test_expansion_checks_table_modulus(self):
        table = harmonic_table(PrimePowerModulus(5, 3))
        with pytest.raises(ValueError):
            binom_alpha_expansion(2, PrimePowerModulus(5, 7), table)


class TestMainCongruence:
    def test_rhs_p5_alpha2(self):
        assert thm1_rhs(2, PrimePowerModulus(5, 7)) == 126

    def test_rhs_trivial_alphas(self):
        m = PrimePowerModulus(13, 7)
        assert thm1_rhs(0, m) == 1
        assert thm1_rhs(1, m) == 1

    def test_rhs_p3_alpha2(self):
        assert thm1_rhs(2, PrimePowerModulus(3, 6)) == 10

    def test_exact_identity_below_p7(self):
        # for p = 3 and p = 5 the two sides agree as rational numbers, which
        # is why the congruence holds there despite sitting outside the
        # derivation range
        for p in (3, 5):
            h = harmonic_numbers_exact(p)
            for alpha in DEFAULT_ALPHA_SWEEP:
                if alpha.denominator % p == 0:
                    continue
                a = Fraction(alpha)
                rhs = (
                    1
                    - a * (a - 1) * (a * a - a - 1) * p * h[1]
                    + a * a * (a - 1) ** 2 * p * p * h[2]
                )
                assert binom_exact(a, p) == rhs, (p, alpha)


class TestCentralBinomial:
    @pytest.mark.parametrize("p,expected", [(3, -2), (5, 6), (7, -20), (11, -252), (13, 924)])
    def test_signed_values(self, p, expected):
        assert signed_central_binomial(p) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
    def test_transfer_identity(self, n):
        assert central_binomial_identity(n)

    def test_transfer_identity_spot_values(self):
        # n = 1: -2 = 16 * C(1/2, 2) = 16 * (-1/8)
        assert binom_rational_exact(Fraction(1, 2), 2) == Fraction(-1, 8)
        # n = 2: 6 = 256 * C(3/2, 4) = 256 * 3/128
        assert binom_rational_exact(Fraction(3, 2), 4) == Fraction(3, 128)
        # n = 3: -20 = 4096 * C(5/2, 6)
        assert binom_rational_exact(Fraction(5, 2), 6) == Fraction(-5, 1024)

    @pytest.mark.parametrize("p", odd_primes_between(3, 97))
    def test_both_evaluation_routes_agree(self, p):
        direct = signed_central_binomial(p) % p**7
        assert record(p, 7, {"central"})["central"] == direct
        h = harmonic_vectors([p], [7])[0]
        assert record(p, 7, {"central"}, h=h)["central"] == direct


class TestReductionCoefficients:
    def test_alpha_two(self):
        c = reduction_coefficients(2)
        assert (c.lam, c.mu) == (0, 8)
        assert (c.a1, c.a2, c.a3, c.a4) == (-2, 4, 0, 0)

    def test_alpha_one(self):
        c = reduction_coefficients(1)
        assert (c.lam, c.mu) == (-1, 0)
        assert c.a1 == c.a2 == c.a3 == c.a4 == 0

    def test_alpha_half(self):
        c = reduction_coefficients(Fraction(1, 2))
        assert c.a1 == Fraction(-5, 16)
        assert c.a2 == Fraction(1, 16)

    @pytest.mark.parametrize(
        "alpha",
        [
            Fraction(2),
            Fraction(-1),
            Fraction(3),
            Fraction(1, 2),
            Fraction(-1, 2),
            Fraction(2, 3),
            Fraction(7, 3),
            Fraction(5, 4),
            Fraction(-7, 5),
            Fraction(11, 6),
        ],
    )
    def test_collapse_and_closed_forms(self, alpha):
        c = reduction_coefficients(alpha)
        a = Fraction(alpha)
        assert c.a3 == 0 and c.a4 == 0
        assert c.a1 == -a * (a - 1) * (a * a - a - 1)
        assert c.a2 == a * a * (a - 1) ** 2


class TestP7Residual:
    def test_alpha_one_vanishes(self):
        r = p7_residual(1)
        assert r.difference == 0 and r.matches
        assert r.valuation is None and not r.tight

    def test_alpha_two(self):
        r = p7_residual(2)
        assert r.difference == Fraction(7**6, 90)
        assert r.matches and r.valuation == 6 and r.tight

    def test_alpha_three(self):
        r = p7_residual(3)
        assert r.difference == 3 * Fraction(7**6, 10)
        assert r.matches and r.tight

    def test_alpha_multiple_of_seven_not_tight(self):
        r = p7_residual(Fraction(7, 3))
        assert r.matches and r.valuation == 9 and not r.tight

    def test_rejects_non_seven_integer(self):
        with pytest.raises(NotPInteger):
            p7_residual(Fraction(1, 7))


class TestCatalog:
    def test_expected_cases_present(self):
        expected = {
            "babbage", "wolstenholme_rel70", "morley", "glaisher_rel74",
            "glaisher_rel3", "glaisher1900_p4", "carlitz", "mcintosh", "zhao",
            "tauraso92", "tauraso93", "mestrovic80", "thm1", "rel30", "rel31",
            "rel26", "rel38", "rel36", "rel37", "coro_rel2", "rel34",
            "coro_rel5b", "coro_rel5", "coro_rel6b", "coro_rel6", "rel63",
            "coro_63_alpha", "coro_63_alpha2", "coro_63_half",
        }
        assert set(CATALOG) == expected

    def test_case_metadata_consistent(self):
        for case in CATALOG.values():
            assert case.alpha_mode in ("none", "sweep", "integer")
            assert case.min_p >= case.claimed_min_p >= 3
            assert case.statement

    def test_modulus_exponent_drops_at_seven(self):
        for cid in ("thm1", "rel30", "rel31"):
            case = CATALOG[cid]
            assert case.modulus_exponent(7) == 6
            assert case.modulus_exponent(5) == 7
            assert case.modulus_exponent(11) == 7


class TestVerifyCase:
    def test_wolstenholme_p5(self):
        v = verify_case("wolstenholme_rel70", 5)[0]
        assert v.status == PASS and (v.lhs, v.rhs) == (1, 1)
        assert str(v.valuation) == ">=3"

    def test_morley_p5(self):
        v = verify_case("morley", 5)[0]
        assert v.status == PASS and v.lhs == v.rhs == 6

    def test_babbage_p3(self):
        v = verify_case("babbage", 3)[0]
        assert v.status == PASS and v.lhs == 1  # C(5, 2) = 10 == 1 mod 9

    def test_skip_below_range(self):
        v = verify_case("wolstenholme_rel70", 3)[0]
        assert v.status == SKIP and v.reason == "requires p >= 5"

    def test_skip_non_p_integer_alpha(self):
        v = verify_case("thm1", 7, [Fraction(1, 7)])[0]
        assert v.status == SKIP and "7-integer" in v.reason

    def test_skip_non_integer_alpha_on_integer_case(self):
        v = verify_case("glaisher_rel74", 7, [Fraction(1, 2)])[0]
        assert v.status == SKIP and "integer" in v.reason
        v = verify_case("glaisher_rel74", 7, [Fraction(-2)])[0]
        assert v.status == SKIP

    def test_parametric_case_requires_alpha(self):
        with pytest.raises(ValueError):
            verify_case("thm1", 7)

    def test_unknown_case(self):
        with pytest.raises(KeyError):
            verify_case("nonesuch", 7)

    def test_alpha_ignored_on_fixed_cases(self):
        v = verify_case("morley", 7, [Fraction(5)])[0]
        assert v.alpha is None and v.status == PASS

    def test_context_exponent_guard(self):
        ctx = PrimeContext(PrimePowerModulus(5, 2), record(5, 2, {"binom2"}))
        with pytest.raises(ValueError):
            verify_case("wolstenholme_rel70", 5, ctx=ctx)

    def test_tightness_reports_exact_valuation(self):
        v = verify_case("wolstenholme_rel70", 5, tightness=True)[0]
        assert v.status == PASS and str(v.valuation) == "3"
        # babbage strengthens: the gap already has valuation 3 > m = 2
        v = verify_case("babbage", 5, tightness=True)[0]
        assert v.status == PASS and v.valuation.value == 3 and v.m == 2

    def test_documented_failure_rel38_at_3(self):
        # the mod p^6 power-sum form is claimed for every odd prime but its
        # derivation needs S_1 == 0 mod p^2, which fails at p = 3: the gap
        # has 3-adic valuation exactly 4
        v = verify_case("rel38", 3, [Fraction(2)], claimed_ranges=True)[0]
        assert v.status == FAIL and v.valuation.value == 4
        default = verify_case("rel38", 3, [Fraction(2)])[0]
        assert default.status == SKIP

    def test_rel38_holds_from_p5(self):
        for p in (5, 7, 11, 13):
            assert verify_case("rel38", p, [Fraction(2)])[0].status == PASS

    def test_tauraso_cases_hold_at_p7(self):
        # stated from p >= 7; the stricter p >= 11 reading is a sub-range
        assert verify_case("tauraso92", 7)[0].status == PASS
        assert verify_case("tauraso93", 7)[0].status == PASS

    @pytest.mark.parametrize("p", odd_primes_between(5, 97))
    def test_derivation_chain_per_prime(self, p):
        # the fixed-alpha forms follow from the parametric power-sum form at
        # alpha = 2 and alpha = 1/2 (the latter through the central-binomial
        # transfer), so their verdicts must never diverge
        base2 = verify_case("rel38", p, [Fraction(2)])[0]
        base_half = verify_case("rel38", p, [Fraction(1, 2)])[0]
        if base2.status == PASS:
            assert verify_case("rel36", p)[0].status == PASS
        if base_half.status == PASS:
            assert verify_case("rel37", p)[0].status == PASS

    def test_thm1_modulus_exponent_recorded(self):
        assert verify_case("thm1", 7, [2])[0].m == 6
        assert verify_case("thm1", 5, [2])[0].m == 7

    def test_spot_exactness(self):
        v = verify_case("thm1", 5, [2])[0]
        assert v.status == PASS and v.lhs == v.rhs == 126

    def test_central_transfer_guard_is_internal(self):
        # building the record verifies the central binomial's routes and
        # keeps the value; the guard exists but never fires
        modulus = PrimePowerModulus(11, 4)
        half = binom_alpha_mod(Fraction(1, 2), modulus)
        first = prime_record(modulus, {"central"})["central"]
        assert PrimeContext.central_binomial(modulus, half) == first


class TestAlphaLoop:
    # the default sweep, plus an alpha that is no 7-integer
    ALPHAS = DEFAULT_ALPHA_SWEEP + (Fraction(1, 7),)

    @pytest.mark.parametrize("tightness", [False, True])
    @pytest.mark.parametrize("p", odd_primes_between(3, 47))
    def test_one_call_equals_the_one_alpha_calls(self, p, tightness):
        # the loop carries nothing from one alpha to the next: each call
        # below builds its own context
        for case in CATALOG.values():
            got = verify_case(case, p, self.ALPHAS, tightness)
            singles = [verify_case(case, p, [a], tightness)[0] for a in self.ALPHAS]
            if case.alpha_mode == "none":
                assert got == singles[:1] and set(singles) == set(got), case.id
            else:
                assert got == singles, case.id

    def test_fixed_case_gives_one_verdict_whatever_the_alphas(self):
        for alphas in ((), (None,), [2, Fraction(1, 2), Fraction(1, 7)]):
            (v,) = verify_case("morley", 7, alphas)
            assert v.alpha is None and v.status == PASS

    def test_int_alpha_becomes_a_fraction_in_skips_too(self):
        below = verify_case("coro_63_alpha", 7, [2, -1])  # below p >= 11
        not_integer = verify_case("glaisher_rel74", 7, [-2, 0])  # integer >= 1 only
        judged = verify_case("thm1", 7, [2])
        for v in below + not_integer + judged:
            assert type(v.alpha) is Fraction, v
        assert [v.status for v in below + not_integer] == [SKIP] * 4
        assert [v.alpha for v in below] == [Fraction(2), Fraction(-1)]
        assert judged[0].status == PASS

    def test_integer_only_skip_comes_before_the_p_integer_skip(self):
        (v,) = verify_case("glaisher_rel74", 7, [Fraction(1, 7)])
        assert v.status == SKIP and v.reason == "requires an integer alpha >= 1"
        (v,) = verify_case("thm1", 7, [Fraction(1, 7)])
        assert v.status == SKIP and v.reason == "alpha is not a 7-integer"

    @pytest.mark.parametrize("alphas", [(None,), [2, None]])
    @pytest.mark.parametrize("cid,p", [("thm1", 7), ("coro_63_alpha", 5)])
    def test_parametric_case_given_none_raises(self, cid, p, alphas):
        # below the range too, and whatever alphas come first
        with pytest.raises(ValueError, match="requires an alpha"):
            verify_case(cid, p, alphas)

    def test_empty_alphas_give_no_verdict_on_a_parametric_case(self):
        assert verify_case("thm1", 7, ()) == []


class TestPrimeContext:
    def test_binomials_cached_per_alpha(self, monkeypatch):
        # one product per alpha residue, the fixed alpha 2 included
        calls = []
        real = congruences.binom_alpha_mod
        monkeypatch.setattr(
            congruences, "binom_alpha_mod",
            lambda alpha, *rest: calls.append(alpha) or real(alpha, *rest),
        )
        alphas = [Fraction(2), Fraction(2 + 7**6), Fraction(3)]
        got = record(7, 6, {"binom", "binom2"}, alphas)
        assert got["binom"] == {2: 1716 % 7**6, 3: math.comb(20, 6) % 7**6}
        assert got["binom2"] == 1716 % 7**6
        assert len(calls) == 2

    def test_bernoulli_residue(self):
        # B_4 = -1/30; the exact route reduces it to any power, the record
        # defines B_{p-3} only modulo p^2
        b4 = Fraction(-1, 30)
        assert bernoulli_mod(7, 4, 4) == residue_of_rational(
            b4, PrimePowerModulus(7, 4)
        )
        assert record(7, 4, {"B"})["B"] == residue_of_rational(
            b4, PrimePowerModulus(7, 2)
        )

    def test_unknown_ingredient_raises(self):
        with pytest.raises(ValueError, match="unknown catalog ingredient 'nope'"):
            record(7, 4, {"S1", "nope"})

    def test_reading_computes_nothing(self):
        # the record is built in full up front; a read never extends it
        modulus = PrimePowerModulus(7, 6)
        ctx = PrimeContext(modulus, prime_record(modulus, {"S1"}))
        with pytest.raises(ValueError, match="'B' is not in the record at p=7"):
            ctx.ingredient("B")
        with pytest.raises(ValueError, match="'binom' is not in the record"):
            verify_case("thm1", 7, [2], ctx=ctx)
        assert set(ctx.record) == {"one"} | set(SUMS)

    def test_bernoulli_needs_p_at_least_five(self):
        with pytest.raises(ValueError, match="p >= 5"):
            record(3, 4, {"B"})

    @pytest.mark.parametrize("p", [3, 7, 13, 97])
    def test_binomials_match_the_oracle(self, p):
        # every alpha of one record shares one 1/(p-1)!
        modulus = PrimePowerModulus(p, 6)
        alphas = [a for a in DEFAULT_ALPHA_SWEEP if a.denominator % p]
        for alpha, got in zip(alphas, binomials(p, 6, alphas)):
            assert got == residue_of_rational(binom_exact(alpha, p), modulus), alpha

    @pytest.mark.parametrize("p", [3, 7, 13, 97])
    def test_horner_binomials_match_the_oracle(self, p):
        # every alpha read off one harmonic vector
        modulus = PrimePowerModulus(p, 6)
        alphas = [a for a in DEFAULT_ALPHA_SWEEP if a.denominator % p]
        h = harmonic_vectors([p], [6])[0]
        for alpha, got in zip(alphas, binomials(p, 6, alphas, h)):
            assert got == residue_of_rational(binom_exact(alpha, p), modulus), alpha

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("exponent", [4, 8])
    @pytest.mark.parametrize("route", ["product", "horner"])
    def test_binomial_cache_tells_alpha_residues_apart(self, p, exponent, route):
        # the record is keyed by alpha's residue mod p^exponent; alphas that
        # agree only modulo a lower power of p must not share an entry
        h = harmonic_vectors([p], [exponent])[0] if route == "horner" else None
        modulus = PrimePowerModulus(p, exponent)
        alphas = [
            alpha
            for base in (Fraction(1), Fraction(-1, 2), Fraction(2, 5 if p != 5 else 7))
            for j in range(exponent)
            for alpha in (base + p**j, base + 2 * p**j, base)
        ]
        for alpha, got in zip(alphas, binomials(p, exponent, alphas, h)):
            assert got == residue_of_rational(binom_exact(alpha, p), modulus), alpha

    @pytest.mark.parametrize("p", odd_primes_between(3, 199))
    def test_sums_match_the_tables(self, p):
        # H_2 by Newton's identity against the product recurrence's table
        modulus = PrimePowerModulus(p, 8)
        got = prime_record(modulus, SUMS)
        sums = power_sum_table(modulus, 3)
        for e in (1, 2, 3):
            assert got[f"S{e}"] == sums[e - 1]
        assert got["H2"] == harmonic_table(modulus).h[2]

    @pytest.mark.parametrize("d", range(4, 10))
    def test_vector_sums_match_the_table(self, d):
        # Newton's identities off H_1, H_2, H_3, for every odd prime <= 199
        primes = odd_primes_between(3, 199)
        for p, h in zip(primes, harmonic_vectors(primes, [d] * len(primes))):
            modulus = PrimePowerModulus(p, d)
            s1, s2, s3 = power_sum_table(modulus, 3)
            h2 = harmonic_table(modulus).h[2]
            assert prime_record(modulus, SUMS, h=h) == {
                "one": 1, "S1": s1, "S2": s2, "S3": s3, "H2": h2
            }, p

    def test_vector_too_short_for_the_third_sum(self):
        h = harmonic_vectors([11], [3])[0]
        with pytest.raises(ValueError, match="S_3 reads H_3"):
            record(11, 3, {"S1"}, h=h)

    @pytest.mark.parametrize("route", ["product", "tree"])
    def test_corrupted_bernoulli_fails_glaisher(self, monkeypatch, route):
        # S_2 == (2/3) p B_{p-3} (mod p^2) ties B to the sums, wherever the
        # record holds both: always on the tree route
        p = 13
        h = harmonic_vectors([p], [5])[0] if route == "tree" else None
        names = {"B"} if route == "tree" else {"B", "S2"}
        assert record(p, 5, names, h=h)["B"] == congruences.bernoulli_pm3(p)
        real = congruences.bernoulli_pm3
        monkeypatch.setattr(congruences, "bernoulli_pm3", lambda q: (real(q) + 1) % q**2)
        with pytest.raises(CongrlabError, match="B_10 fails Glaisher's S_2 congruence at p=13"):
            record(p, 5, names, h=h)

    def test_corrupted_half_binomial_fails_the_central_check(self):
        p, d = 13, 4
        h = harmonic_vectors([p], [d])[0]
        assert record(p, d, {"central"}, h=h)["central"] == (
            signed_central_binomial(p) % p**d
        )
        # H_1 off by one moves C(p/2 - 1, p - 1) by -p/2
        bad = (h[0], (h[1] + 1) % p**d) + h[2:]
        with pytest.raises(CongrlabError, match="central binomial transfer"):
            record(p, d, {"central"}, h=bad)

    def test_vector_length_must_match_the_exponent(self):
        with pytest.raises(ValueError, match="harmonic vector"):
            record(7, 4, {"S1"}, h=harmonic_vectors([7], [3])[0])

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            record(9, 2, {"S1"})


class TestCatalogGuard:
    @staticmethod
    def _case(k, m):
        rhs = (Term((1,), 0, "one"), Term((1,), k, "B"))
        lhs = (Term((1,), 0, "binom2"),)
        return CongruenceCase("made_up", "", 5, 5, "none", m, lhs, rhs)

    def test_bernoulli_term_read_past_p2_rejected(self):
        # B_{p-3} is known mod p^2: p^2 B read at p^(4+1) needs it mod p^3
        with pytest.raises(ValueError, match="B_"):
            _catalog((self._case(2, 4),))

    def test_bernoulli_term_at_the_bound_accepted(self):
        assert list(_catalog((self._case(3, 4),))) == ["made_up"]

    def test_duplicate_id_rejected(self):
        case = CATALOG["babbage"]
        with pytest.raises(ValueError, match="duplicate"):
            _catalog((case, case))
