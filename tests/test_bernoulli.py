"""Exact Bernoulli numbers, their reductions, and the power-sum links."""

from fractions import Fraction

import pytest

from congrlab import (
    CongrlabError,
    PrimePowerModulus,
    bernoulli_mod,
    residue_of_rational,
)
from congrlab import bernoulli
from congrlab.bernoulli import (
    NonPIntegerBernoulli,
    bernoulli_exact,
    bernoulli_pm3,
)
from congrlab.congruences import prime_record
from congrlab.harmonic import harmonic_table
from congrlab.residues import is_prime
from congrlab.scanner import ScanConfig, odd_primes_between, run_scan
from congrlab.verdicts import PASS, SKIP
from oracles import (
    bernoulli_recurrence, collected, power_sum_exact, suite_verdicts,
    von_staudt_clausen_defect,
)


def own_table(p):
    """H_0 .. H_{p-1} modulo p^3, the link suite's table at its own modulus."""
    return harmonic_table(PrimePowerModulus(p, 3))


class TestExactValues:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, Fraction(1)),
            (1, Fraction(-1, 2)),
            (2, Fraction(1, 6)),  # 1 + 3*(-1/2) + 3*B_2 = 0
            (4, Fraction(-1, 30)),
            (6, Fraction(1, 42)),
            (10, Fraction(5, 66)),
            (12, Fraction(-691, 2730)),
        ],
    )
    def test_small_values(self, n, expected):
        assert bernoulli_exact(n) == expected

    def test_odd_indices_vanish(self):
        for k in range(1, 21):
            assert bernoulli_exact(2 * k + 1) == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_exact(-1)

    def test_cache_grows_monotonically(self, monkeypatch):
        monkeypatch.setattr(bernoulli, "_BERNOULLI", [Fraction(1), Fraction(-1, 2)])
        assert len(bernoulli._BERNOULLI) == 2
        bernoulli_exact(10)
        assert len(bernoulli._BERNOULLI) == 11
        bernoulli_exact(4)
        assert len(bernoulli._BERNOULLI) == 11

    def test_tangent_route_matches_the_recurrence(self, monkeypatch):
        monkeypatch.setattr(bernoulli, "_BERNOULLI", [Fraction(1), Fraction(-1, 2)])
        bernoulli.warm_bernoulli_cache(300)
        assert bernoulli._BERNOULLI[:301] == bernoulli_recurrence(300)

    def test_list_at_least_doubles(self, monkeypatch):
        monkeypatch.setattr(bernoulli, "_BERNOULLI", [Fraction(1), Fraction(-1, 2)])
        bernoulli.warm_bernoulli_cache(2)
        assert len(bernoulli._BERNOULLI) == 4
        bernoulli.warm_bernoulli_cache(4)
        assert len(bernoulli._BERNOULLI) == 8

    @pytest.mark.parametrize("k", [1, 2, 6, 40])
    def test_corrupted_tangent_number_fails_von_staudt_clausen(self, monkeypatch, k):
        tangent_numbers = bernoulli._tangent_numbers

        def corrupted(count):
            t = tangent_numbers(count)
            t[k - 1] += 1
            return t

        monkeypatch.setattr(bernoulli, "_tangent_numbers", corrupted)
        monkeypatch.setattr(bernoulli, "_BERNOULLI", [Fraction(1), Fraction(-1, 2)])
        with pytest.raises(CongrlabError, match=f"B_{2 * k} has denominator"):
            bernoulli_exact(100)

    @pytest.mark.parametrize("n", range(2, 42, 2))
    def test_von_staudt_clausen(self, n):
        # B_n plus the sum of 1/q over primes with (q-1) | n is an integer
        assert von_staudt_clausen_defect(n).denominator == 1

    @pytest.mark.parametrize("n", range(2, 42, 2))
    def test_denominator_structure(self, n):
        # the denominator is exactly the (squarefree) product of those primes
        product = 1
        for d in range(1, n + 1):
            if n % d == 0 and is_prime(d + 1):
                product *= d + 1
        assert bernoulli_exact(n).denominator == product


class TestReductions:
    @pytest.mark.parametrize(
        "p,n,j,expected",
        [
            (5, 2, 1, 1),  # 1/6: 6 == 1 mod 5
            (7, 4, 2, 31),  # -inv(30) mod 49, inv(30) = 18
            (5, 1, 1, 2),  # -inv(2) = -3 == 2 mod 5
        ],
    )
    def test_examples(self, p, n, j, expected):
        assert bernoulli_mod(p, n, j) == expected

    def test_non_p_integer_rejected(self):
        with pytest.raises(NonPIntegerBernoulli):
            bernoulli_mod(3, 2, 1)  # 3 divides 6
        with pytest.raises(NonPIntegerBernoulli):
            bernoulli_mod(5, 4, 2)  # 5 divides 30

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_reduction_consistency(self, p):
        high = bernoulli_mod(p, p - 3, 4)
        for j in (1, 2, 3):
            assert high % p**j == bernoulli_mod(p, p - 3, j)

    def test_b_p_minus_3_always_reducible(self):
        # p - 1 never divides p - 3 for p >= 5, so p never hits the denominator
        for p in (5, 7, 11, 13, 17, 19, 23):
            bernoulli_mod(p, p - 3, 3)


class TestFaulhaber:
    @pytest.mark.parametrize("p", odd_primes_between(5, 997))
    def test_catalog_route_matches_exact(self, p):
        # Faulhaber's sum for p >= 7, the constant B_2 = 1/6 at p = 5
        exact = bernoulli_mod(p, p - 3, 2)
        assert bernoulli_pm3(p) == exact
        assert prime_record(PrimePowerModulus(p, 2), {"B"})["B"] == exact

    @pytest.mark.parametrize(
        "config",
        [ScanConfig(), ScanConfig(command="lemmas", prime_max=199)],
        ids=["default_scan", "lemmas_3_199"],
    )
    def test_no_run_computes_an_exact_number(self, monkeypatch, config):
        # every B_{p-3} a run reads is Faulhaber's, the lemma links' too
        warmed = []
        monkeypatch.setattr(bernoulli, "warm_bernoulli_cache", warmed.append)
        report = collected(run_scan(config))
        assert report.records and not report.failed
        assert warmed == []


class TestPowerSumLinks:
    def test_p7_first_sum_difference(self):
        # S_1 = 49/20, rhs = -(49/3)(-1/30) = 49/90; gap 343/180 == 0 mod 7^3
        s1 = power_sum_exact(7, 1)
        rhs = -Fraction(49, 3) * bernoulli_exact(4)
        assert s1 - rhs == Fraction(343, 180)

    def test_p5_first_sum_difference(self):
        s1 = power_sum_exact(5, 1)
        rhs = -Fraction(25, 3) * bernoulli_exact(2)
        assert s1 - rhs == Fraction(125, 36)

    def test_p5_second_sum_difference(self):
        s2 = power_sum_exact(5, 2)
        assert s2 == Fraction(205, 144)
        rhs = Fraction(2 * 5, 3) * bernoulli_exact(2)
        assert s2 - rhs == Fraction(125, 144)  # == 0 mod 25

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_suite_all_pass(self, p):
        verdicts = suite_verdicts("bernoulli", p, own_table(p))
        assert all(v.status == PASS for v in verdicts), verdicts

    def test_fresh_list_gives_the_same_verdicts(self, monkeypatch):
        # a spawned pool worker starts from B_0 and B_1, and the links read
        # Faulhaber's B_{p-3}, so the list stays as it was
        warm = suite_verdicts("bernoulli", 199, own_table(199))
        monkeypatch.setattr(bernoulli, "_BERNOULLI", [Fraction(1), Fraction(-1, 2)])
        fresh = suite_verdicts("bernoulli", 199, own_table(199))
        assert len(bernoulli._BERNOULLI) == 2
        assert fresh == warm
        assert all(v.status == PASS for v in fresh), fresh

    def test_skipped_below_p5(self):
        verdicts = suite_verdicts("bernoulli", 3, own_table(3))
        assert all(v.status == SKIP for v in verdicts)

    def test_rhs_recorded_exactly(self):
        verdicts = {v.case: v for v in suite_verdicts("bernoulli", 7, own_table(7))}
        m3 = PrimePowerModulus(7, 3)
        expected = residue_of_rational(-Fraction(49, 3) * bernoulli_exact(4), m3)
        assert verdicts["bernoulli.s1_link"].rhs == expected
