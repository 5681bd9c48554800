"""Harmonic tables, power sums and their congruence suites.

The exact-rational functions are the oracles here: every residue the ring
computations produce is compared against the same quantity computed over Q
and reduced afterwards.
"""

import math
import random
from fractions import Fraction
from operator import attrgetter

import pytest

from congrlab import (
    CongrlabError,
    PrimePowerModulus,
    binom_alpha_mod,
    prime_record,
    residue_of_rational,
)
from congrlab import harmonic, scanner
from congrlab.bernoulli import bernoulli_pm3
from congrlab.cli import main
from congrlab.harmonic import (
    HarmonicTable,
    check_harmonic_congruences,
    harmonic_table,
    harmonic_vectors,
    power_sum_table,
    power_sums_from_harmonic,
)
from congrlab.scanner import odd_primes_between, run_lemma_suites
from congrlab.verdicts import FAIL, PASS, SKIP
from oracles import (
    harmonic_numbers_exact, power_sum_exact, reflection_pair_sum, suite_verdicts,
    verdicts_of,
)

SMALL_PRIMES = odd_primes_between(3, 31)


def assert_all_pass(verdicts):
    bad = [v for v in verdicts if v.status == FAIL]
    assert not bad, bad[:5]


def recurrence_table(p, pm):
    """H_0 .. H_{p-1} mod pm by the O(p^2) coefficient recurrence.

    After step k the list holds the coefficients of prod_{i<=k} (1 - x/i)
    modulo pm, so the final coefficient of x^j is (-1)^j H_j.
    """
    c = [1] + [0] * (p - 1)
    for k in range(1, p):
        ik = pow(k, -1, pm)
        for j in range(k, 0, -1):
            c[j] = (c[j] - ik * c[j - 1]) % pm
    return tuple(c[k] if k % 2 == 0 else -c[k] % pm for k in range(p))


def own_table(p, m):
    """H_0 .. H_{p-1} modulo p^m, a suite's table at its own modulus."""
    return harmonic_table(PrimePowerModulus(p, m))


def corrupted(table, index):
    """`table` with H_index raised by one."""
    h = list(table.h)
    h[index] = (h[index] + 1) % table.modulus.pm
    return HarmonicTable(table.modulus, tuple(h))


def corrupt_table(monkeypatch, index):
    """Make the table run_lemma_suites shares its true one with H_index raised by one."""
    true_table = scanner.harmonic_table
    monkeypatch.setattr(scanner, "harmonic_table", lambda m: corrupted(true_table(m), index))


def corrupted_verdicts(p, index, suite):
    """One suite's verdicts by case at p, on the table run_lemma_suites shares
    with H_index raised by one.

    With every suite run, the power-sum suite's internal cross-check would
    raise on such a table before any row was read.
    """
    table = corrupted(own_table(p, max(p + 2, 6)), index)
    return {v.case: v for v in suite_verdicts(suite, p, table)}


class TestHarmonicTable:
    def test_p5_mod_p(self):
        table = harmonic_table(PrimePowerModulus(5, 1))
        assert table.h == (1, 0, 0, 0, 4)

    def test_p5_mod_p2_penultimate(self):
        # H_3 = 5/12, and 5 * inv(12) = 5 * 23 = 115 == 15 mod 25, i.e. p/2
        table = harmonic_table(PrimePowerModulus(5, 2))
        assert table.h[3] == 15
        assert table.h[3] == residue_of_rational(Fraction(5, 2), table.modulus)

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_empty_product_convention(self, p):
        assert harmonic_table(PrimePowerModulus(p, 2)).h[0] == 1

    def test_queries_past_the_end_are_zero(self):
        # the table stops at H_{p-1} and the suites read H_k = 0 past it, so
        # every pair H_{2m-1} - m p H_{2m} with 2m - 1 >= p is 0 on both sides
        for p in (3, 5, 7, 13):
            assert len(harmonic_table(PrimePowerModulus(p, 2)).h) == p
            suites = suite_verdicts("reflection", p, own_table(p, p + 2))
            suites += suite_verdicts("harmonic", p, own_table(p, 4))
            verdicts = {v.case: v for v in suites}
            top = [
                verdicts[f"{family}[m={m}]"]
                for family in ("reflection.pair", "harmonic.pair_mod_p4")
                for m in range((p + 1) // 2, (p + 1) // 2 + 2)
            ]
            assert all(v.status == PASS and v.lhs == v.rhs == 0 for v in top), (p, top)

    @pytest.mark.parametrize("p", [3, 5, 13])
    def test_reduced_equals_a_table_built_lower(self, p):
        high = harmonic_table(PrimePowerModulus(p, p + 4))
        for m in (1, 3, p + 4):
            modulus = PrimePowerModulus(p, m)
            assert high.reduced(modulus) == harmonic_table(modulus), m

    def test_reduced_rejects_a_higher_power_or_another_prime(self):
        table = harmonic_table(PrimePowerModulus(5, 3))
        with pytest.raises(ValueError):
            table.reduced(PrimePowerModulus(5, 4))
        with pytest.raises(ValueError):
            table.reduced(PrimePowerModulus(7, 2))

    def test_exact_values_p5(self):
        assert harmonic_numbers_exact(5) == (
            Fraction(1),
            Fraction(25, 12),
            Fraction(35, 24),
            Fraction(5, 12),
            Fraction(1, 24),
        )

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_table_matches_exact_oracle(self, p, m):
        modulus = PrimePowerModulus(p, m)
        table = harmonic_table(modulus)
        exact = harmonic_numbers_exact(p)
        for k in range(p):
            assert table.h[k] == residue_of_rational(exact[k], modulus), (p, m, k)

    @pytest.mark.parametrize("p", odd_primes_between(3, 199))
    @pytest.mark.parametrize("exponent", ["4", "p+2"])
    def test_table_matches_recurrence(self, p, exponent):
        modulus = PrimePowerModulus(p, 4 if exponent == "4" else p + 2)
        table = harmonic_table(modulus)
        assert len(table.h) == p
        assert table.h == recurrence_table(p, modulus.pm)

    def test_last_value_is_minus_one_mod_p(self):
        for p in SMALL_PRIMES:
            table = harmonic_table(PrimePowerModulus(p, 1))
            assert table.h[p - 1] == p - 1


def table_prefix(p, d):
    """H_0 .. H_{d-1} mod p^d from the packed Stirling table, zero past p - 1."""
    h = harmonic_table(PrimePowerModulus(p, d)).h[:d]
    return h + (0,) * (d - len(h))


class TestHarmonicVectors:
    """The remainder tree against the per-prime routes it replaces."""

    PRIMES = odd_primes_between(3, 199)

    def test_binom2_matches_the_product_route_to_10_4(self):
        primes = odd_primes_between(5, 10_000)
        for p, h in zip(primes, harmonic_vectors(primes, [4] * len(primes))):
            expected = binom_alpha_mod(2, PrimePowerModulus(p, 4))
            assert prime_record(PrimePowerModulus(p, 4), {"binom2"}, h=h)["binom2"] == expected, p

    @pytest.mark.parametrize("d", range(1, 10))
    def test_vectors_match_the_packed_table(self, d):
        vectors = harmonic_vectors(self.PRIMES, [d] * len(self.PRIMES))
        for p, h in zip(self.PRIMES, vectors):
            assert h == table_prefix(p, d), p

    @pytest.mark.parametrize("start", [0, 1, 20, 44])
    def test_mixed_exponents_and_a_late_first_prime(self, start):
        # the first leaf is then the whole product below primes[start]
        primes = self.PRIMES[start:]
        rng = random.Random(start)
        exponents = [rng.randint(1, 9) for _ in primes]
        vectors = harmonic_vectors(primes, exponents)
        assert [len(h) for h in vectors] == exponents
        for p, d, h in zip(primes, exponents, vectors):
            assert h == table_prefix(p, d), (p, d)

    @pytest.mark.parametrize("d, j", [(d, j) for d in (2, 4, 9) for j in range(d)])
    def test_fermat_check_reads_each_coefficient_below_p_minus_1(
        self, monkeypatch, d, j
    ):
        # the first leaf is c itself at p = 13, prod_{1 <= k < 13} (k + t)
        # (its halves recurse through `_rising` too); 2 t^j more there moves
        # c_j alone by a unit, leaves c_0 a unit, and 0 <= j < min(D, p - 1)
        rising = harmonic._rising

        def moved(lo, hi, d):
            c = rising(lo, hi, d)
            if (lo, hi) == (1, 13):
                c[j] += 2
            return c

        monkeypatch.setattr(harmonic, "_rising", moved)
        with pytest.raises(CongrlabError, match=r"^Fermat check fails at p=13$"):
            harmonic_vectors([13, 17], [d] * 2)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_fermat_check_stops_at_p_minus_1(self, p):
        # c_{p-1} = 1 (mod p), and the vector is longer than p - 1 here
        assert harmonic_vectors([p], [9]) == [table_prefix(p, 9)]

    def test_fermat_check_passes_a_multiple_of_p(self, monkeypatch):
        # the check's limit: leaf 11 off by 13 t leaves c modulo 13 as it
        # was, so p = 13 gets a wrong vector that the scanner's cross-check
        # at the largest prime must catch
        rising = harmonic._rising

        def moved(lo, hi, d):
            c = rising(lo, hi, d)
            if lo == 11:
                c[1] += 13
            return c

        monkeypatch.setattr(harmonic, "_rising", moved)
        vectors = harmonic_vectors([7, 11, 13], [4] * 3)
        assert vectors[:2] == [table_prefix(7, 4), table_prefix(11, 4)]
        assert vectors[2] != table_prefix(13, 4)

    def test_wilson_primes_off_the_leaves(self, monkeypatch):
        # a known answer for the tree: each leaf's c_0 is (p - 1)! mod p^D,
        # which it inverts through the module's `pow`, and the Wilson primes,
        # (p - 1)! == -1 (mod p^2), are exactly 5, 13 and 563 below 2*10^13
        # (Costa, Gerbicz & Harvey, "A search for Wilson primes", 2014)
        factorials = {}

        def spy(base, exp, mod):
            if exp == -1:
                factorials[mod] = base
            return pow(base, exp, mod)

        monkeypatch.setattr(harmonic, "pow", spy, raising=False)
        primes = odd_primes_between(5, 10_000)
        harmonic_vectors(primes, [2] * len(primes))
        assert sorted(factorials) == [p * p for p in primes]
        for p in primes[:25]:
            assert factorials[p * p] == math.factorial(p - 1) % (p * p), p
        wilson = [p for p in primes if (factorials[p * p] + 1) % (p * p) == 0]
        assert wilson == [5, 13, 563]

    def test_empty_range(self):
        assert harmonic_vectors([], []) == []

    @pytest.mark.parametrize(
        "primes, exponents",
        [([5, 7], [2]), ([7, 5], [2, 2]), ([5, 5], [2, 2]), ([5, 7], [2, 0])],
    )
    def test_rejects_bad_input(self, primes, exponents):
        with pytest.raises(ValueError):
            harmonic_vectors(primes, exponents)


class TestPowerSums:
    @pytest.mark.parametrize(
        "p,m,exp,expected",
        [
            (5, 2, 1, 0),  # 25/12 == 0 mod 25
            (5, 1, 4, 4),  # p-1 | 4, so the sum is -1 mod p
            (7, 1, 3, 0),  # 6 does not divide 3
        ],
    )
    def test_examples(self, p, m, exp, expected):
        assert power_sum_table(PrimePowerModulus(p, m), exp)[exp - 1] == expected

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_table_matches_exact_oracle(self, p, m):
        modulus = PrimePowerModulus(p, m)
        table = power_sum_table(modulus, 6)
        expected = [residue_of_rational(power_sum_exact(p, e), modulus) for e in range(1, 7)]
        assert list(table) == expected

    @pytest.mark.parametrize("p", odd_primes_between(3, 199))
    def test_series_route_matches_the_direct_route(self, p):
        modulus = PrimePowerModulus(p, 6)
        series = power_sums_from_harmonic(harmonic_table(modulus), 2 * p + 1)
        assert series == power_sum_table(modulus, 2 * p + 1)

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_series_route_matches_exact_oracle(self, p):
        exact = [power_sum_exact(p, m) for m in range(1, 2 * p + 2)]
        for e in range(1, 8):
            modulus = PrimePowerModulus(p, e)
            sums = power_sums_from_harmonic(harmonic_table(modulus), 2 * p + 1)
            expected = [residue_of_rational(s, modulus) for s in exact]
            assert list(sums) == expected, (p, e)

    def test_corrupted_series_fails_the_cross_check(self, monkeypatch, capsys):
        # H_{p-1} raised by one moves every S_m from m = p - 1 on
        route = harmonic.power_sums_from_harmonic

        def corrupted(table, n):
            h = list(table.h)
            h[-1] = (h[-1] + 1) % table.modulus.pm
            return route(HarmonicTable(table.modulus, tuple(h)), n)

        monkeypatch.setattr(harmonic, "power_sums_from_harmonic", corrupted)
        assert main(["lemmas", "--primes", "3..47", "--workers", "1"]) == 3
        err = capsys.readouterr().err
        assert err == "congrlab: internal error: power sum S_7 mismatch at p=3\n"

    @pytest.mark.parametrize("p", odd_primes_between(3, 61))
    def test_newton_identity_links_table_and_sums(self, p):
        # H_2 from the packed Stirling product equals (S_1^2 - S_2)/2, where
        # the power sums are computed by an unrelated route
        modulus = PrimePowerModulus(p, 7)
        table = harmonic_table(modulus)
        sums = power_sum_table(modulus, 2)
        half = residue_of_rational(Fraction(1, 2), modulus)
        s1, s2 = sums
        assert table.h[2] == half * (s1 * s1 - s2) % modulus.pm


class TestReflectionIdentity:
    def test_exact_pair_identity_small_prime(self):
        # rational-arithmetic oracle for the m = 1 pair identity at p = 5:
        # H_1 - p H_2 = -125/24, and (p^2/2) * (-3 H_3 + 4 p H_4) = -125/24
        h = harmonic_numbers_exact(5)
        lhs = h[1] - 5 * h[2]
        rhs = Fraction(25, 2) * (-3 * h[3] + 4 * 5 * h[4])
        assert lhs == rhs == Fraction(-125, 24)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_exact_pair_identity_oracle(self, p):
        h = list(harmonic_numbers_exact(p)) + [Fraction(0)] * p
        for m in range(1, (p - 1) // 2 + 3):
            lhs = h[2 * m - 1] - m * p * h[2 * m]
            rhs = Fraction(p * p, 2) * sum(
                (-1) ** k * math.comb(k, 2 * m - 1) * p ** (k - 2 * m - 1) * h[k]
                for k in range(2 * m + 1, p)
            )
            assert lhs == rhs, (p, m)

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_suite_all_pass(self, p):
        verdicts = suite_verdicts("reflection", p, own_table(p, p + 2))
        assert_all_pass(verdicts)
        names = {v.case for v in verdicts}
        assert "reflection.pair[m=1]" in names
        assert "reflection.mirror[j=0]" in names

    @pytest.mark.parametrize("p", odd_primes_between(5, 61))
    def test_mirror_and_pair_match_direct_binomial_sums(self, p):
        # the packed Taylor shift and the incremental pair coefficient
        # against one math.comb per term
        pm = p ** (p + 2)
        h = recurrence_table(p, pm)
        verdicts = suite_verdicts("reflection", p, own_table(p, p + 2))
        rhs = {v.case: v.rhs for v in verdicts}
        for j in range(p):
            direct = sum(
                (-1) ** k * math.comb(k, j) * p ** (k - j) * h[k] for k in range(j, p)
            )
            assert rhs[f"reflection.mirror[j={j}]"] == direct % pm, (p, j)
        half_p2 = residue_of_rational(Fraction(p * p, 2), PrimePowerModulus(p, p + 2))
        for m in range(1, (p - 1) // 2 + 3):
            direct = sum(
                (-1) ** k * math.comb(k, 2 * m - 1) * p ** (k - 2 * m - 1) * h[k]
                for k in range(2 * m + 1, p)
            )
            assert rhs[f"reflection.pair[m={m}]"] == half_p2 * direct % pm, (p, m)

    @pytest.mark.parametrize("p", odd_primes_between(3, 199))
    def test_pair_sums_match_the_incremental_loop(self, p):
        # every pair sum read off the Taylor shift, against the loop that
        # carries C(k, r) p^(k-r-2) from term to term
        modulus = PrimePowerModulus(p, p + 2)
        pm = modulus.pm
        h = harmonic_table(modulus).h
        _, sums = harmonic._shifted_sums(h, p, pm)
        half_p2 = residue_of_rational(Fraction(p * p, 2), modulus)
        verdicts = suite_verdicts("reflection", p, own_table(p, p + 2))
        rhs = {v.case: v.rhs for v in verdicts}
        for m in range(1, (p - 1) // 2 + 3):
            r = 2 * m - 1
            oracle = reflection_pair_sum(h, p, r)
            if r < p:
                assert sums[r] % pm == oracle % pm, (p, m)
            assert rhs[f"reflection.pair[m={m}]"] == half_p2 * oracle % pm, (p, m)

    def test_trivial_branch_past_the_table(self):
        # indices at or past p make both sides vanish
        verdicts = suite_verdicts("reflection", 5, own_table(5, 7))
        boundary = [v for v in verdicts if v.case == "reflection.pair[m=4]"]
        assert boundary and boundary[0].status == PASS
        assert boundary[0].lhs == 0 and boundary[0].rhs == 0


class TestReflectionChecksCanFail:
    """A table with one wrong entry must fail the checks that read it."""

    @pytest.mark.parametrize("p,j", [(5, 1), (13, 7), (31, 29), (61, 3)])
    def test_mirror_fails_at_a_corrupted_odd_index(self, p, j):
        # for odd j the k = j term enters the shifted sum as -H_j, so the
        # two sides of mirror[j] move in opposite directions
        verdicts = corrupted_verdicts(p, j, "reflection")
        assert verdicts[f"reflection.mirror[j={j}]"].status == FAIL

    @pytest.mark.parametrize("p,j", [(5, 2), (13, 8), (31, 30), (61, 40)])
    def test_mirror_fails_below_a_corrupted_even_index(self, p, j):
        # H_j enters mirror[j-1] as j p H_j, which p^(p+2) does not absorb
        verdicts = corrupted_verdicts(p, j, "reflection")
        assert verdicts[f"reflection.mirror[j={j - 1}]"].status == FAIL

    @pytest.mark.parametrize("p,j", [(7, 3), (13, 5), (31, 11), (61, 59)])
    def test_pair_fails_at_a_corrupted_odd_index(self, p, j):
        verdicts = corrupted_verdicts(p, j, "reflection")
        failed = {case for case, v in verdicts.items() if v.status == FAIL}
        assert f"reflection.pair[m={(j + 1) // 2}]" in failed

    @pytest.mark.parametrize("p", [5, 13, 31])
    def test_harmonic_congruences_flag_a_corrupted_last_entry(self, p):
        verdicts = corrupted_verdicts(p, p - 1, "harmonic")
        assert verdicts["harmonic.h_p_minus_1"].status == FAIL

    @pytest.mark.parametrize(
        "p,j,case",
        [
            (7, 1, "bernoulli.s1_link"),
            (31, 1, "bernoulli.s1_link"),
            (7, 2, "bernoulli.s2_link"),
            (31, 2, "bernoulli.s2_link"),
        ],
    )
    def test_bernoulli_links_flag_a_corrupted_h1_or_h2(self, p, j, case):
        # S_1 = H_1 and S_2 = H_1^2 - 2 H_2 are read off the shared table
        verdicts = corrupted_verdicts(p, j, "bernoulli")
        assert verdicts[case].status == FAIL

    def test_corrupted_shared_table_is_an_internal_error(self, monkeypatch, capsys):
        # with every suite running, the power-sum cross-check stops the run
        corrupt_table(monkeypatch, 1)
        assert main(["lemmas", "--primes", "3..47", "--workers", "1"]) == 3
        err = capsys.readouterr().err
        assert err == "congrlab: internal error: power sum S_7 mismatch at p=3\n"


class TestTaylorShiftChecksCanFail:
    """A wrong slot of the Taylor shift stops the run as an internal error."""

    @staticmethod
    def shift_slot_off(monkeypatch, slot, delta):
        true_shift = harmonic._shift_by_p

        def off(s, p, pm):
            shift = true_shift(s, p, pm)
            if slot < len(shift):
                shift[slot] += delta(p)
            return shift

        monkeypatch.setattr(harmonic, "_shift_by_p", off)

    @pytest.mark.parametrize("slot, first_p", [(0, 3), (1, 3), (2, 3), (3, 5), (9, 11)])
    def test_slot_off_by_one_fails_the_remainder_check(
        self, monkeypatch, capsys, slot, first_p
    ):
        # without the check the floor division would hide the extra one
        self.shift_slot_off(monkeypatch, slot, lambda p: 1)
        assert main(["lemmas", "--primes", "3..47", "--workers", "1"]) == 3
        err = capsys.readouterr().err
        expected = f"Taylor shift slot {slot} is not exact at p={first_p}"
        assert err == f"congrlab: internal error: {expected}\n"

    def test_slot_off_by_p2_fails_the_m1_cross_check(self, monkeypatch, capsys):
        # a multiple of p^2 divides exactly, so only the second route sees it
        self.shift_slot_off(monkeypatch, 1, lambda p: p * p)
        assert main(["lemmas", "--primes", "3..47", "--workers", "1"]) == 3
        err = capsys.readouterr().err
        assert err == "congrlab: internal error: reflection pair sum mismatch at p=3\n"


class TestSharedTable:
    """run_lemma_suites builds one table per prime and every suite reduces it."""

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_one_table_per_prime(self, monkeypatch, p):
        built = []
        true_table = scanner.harmonic_table

        def spy(modulus):
            built.append(modulus)
            return true_table(modulus)

        def refuse(*args):
            raise AssertionError("a suite built a table of its own")

        monkeypatch.setattr(scanner, "harmonic_table", spy)
        for module, name in [
            (harmonic, "harmonic_table"),
            (harmonic, "power_sum_table"),
            (harmonic, "inverse_table"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        assert_all_pass(verdicts_of(run_lemma_suites(p)))
        # p^(p+2) for the reflection suite, but at least p^6 for the power sums
        assert built == [PrimePowerModulus(p, max(p + 2, 6))]

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_shared_table_gives_each_suites_own_verdicts(self, p):
        own = (
            suite_verdicts("reflection", p, own_table(p, p + 2))
            + suite_verdicts("harmonic", p, own_table(p, 4))
            + suite_verdicts("power_sum", p, own_table(p, 6))
            + suite_verdicts("bernoulli", p, own_table(p, 3))
        )
        assert verdicts_of(run_lemma_suites(p)) == sorted(own, key=attrgetter("case"))

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 61])
    def test_record_holds_each_suites_slice(self, p):
        record = run_lemma_suites(p)
        assert record.p == p
        assert record.table == harmonic_table(PrimePowerModulus(p, max(p + 2, 6)))
        # no pair's right side off its left side, and no coefficient of
        # P(x + p) off the table
        assert record.pairs == ()
        assert record.mirror == ()
        assert record.sums == power_sum_table(PrimePowerModulus(p, 6), 2 * p + 1)
        assert record.b == (bernoulli_pm3(p) if p >= 5 else None)

    @pytest.mark.parametrize("p", [3, 5, 13])
    def test_harmonic_suite_refuses_a_table_below_p4(self, p):
        with pytest.raises(ValueError):
            check_harmonic_congruences(p, own_table(p, 3))
        with pytest.raises(ValueError):
            check_harmonic_congruences(p, own_table(7, 4))
        assert check_harmonic_congruences(p, own_table(p, 4)) == own_table(p, 4)


class TestHarmonicCongruences:
    def test_p11_h3_vanishes_mod_p2(self):
        table = harmonic_table(PrimePowerModulus(11, 2))
        assert table.h[3] == 0

    def test_p5_penultimate_value(self):
        verdicts = {v.case: v for v in suite_verdicts("harmonic", 5, own_table(5, 4))}
        v = verdicts["harmonic.h_p_minus_2"]
        assert v.status == PASS and v.lhs == 15

    def test_p7_boundary_pair_equals_minus_p3_over_4(self):
        # exact oracle: H_3 - 2*7*H_4 + 343/4 has 7-adic valuation >= 4
        h = harmonic_numbers_exact(7)
        diff = h[3] - 2 * 7 * h[4] + Fraction(343, 4)
        assert diff.numerator % 7**4 == 0
        verdicts = {v.case: v for v in suite_verdicts("harmonic", 7, own_table(7, 4))}
        v = verdicts["harmonic.pair_boundary"]
        assert v.status == PASS
        assert v.rhs == residue_of_rational(-Fraction(343, 4), PrimePowerModulus(7, 4))

    def test_boundary_pair_also_holds_at_p5(self):
        verdicts = {v.case: v for v in suite_verdicts("harmonic", 5, own_table(5, 4))}
        assert verdicts["harmonic.pair_boundary"].status == PASS

    def test_boundary_pair_skipped_at_p3(self):
        verdicts = {v.case: v for v in suite_verdicts("harmonic", 3, own_table(3, 4))}
        assert verdicts["harmonic.pair_boundary"].status == SKIP

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_suite_all_pass(self, p):
        assert_all_pass(suite_verdicts("harmonic", p, own_table(p, 4)))


class TestPowerSumCongruences:
    def test_p7_pair_valuation_is_exactly_four(self):
        # 2 S_1 + p S_2 = 55223/3600 at p = 7; 55223 = 23 * 7^4, so the pair
        # vanishes mod p^4 but not mod p^5 (its p-multiple is the p^5 case)
        t = 2 * power_sum_exact(7, 1) + 7 * power_sum_exact(7, 2)
        assert t == Fraction(55223, 3600)
        assert t.numerator % 7**4 == 0 and t.numerator % 7**5 != 0
        assert (7 * t).numerator % 7**5 == 0

    def test_p5_pair_hits_the_correction_term(self):
        # p-1 divides m+3 at m = 1, so the mod p^4 value is -p^3/2
        t = 2 * power_sum_exact(5, 1) + 5 * power_sum_exact(5, 2)
        assert (t + Fraction(125, 2)).numerator % 5**4 == 0

    def test_p11_triple_vanishes_mod_p6(self):
        t = (
            power_sum_exact(11, 1)
            + Fraction(11, 2) * power_sum_exact(11, 2)
            + Fraction(121, 6) * power_sum_exact(11, 3)
        )
        assert t.numerator % 11**6 == 0

    def test_triple_also_holds_at_p5(self):
        # p = 5 satisfies the divisibility condition (4 does not divide 6)
        # even though it sits below the usual application range
        verdicts = {v.case: v for v in suite_verdicts("power_sum", 5, own_table(5, 6))}
        v = verdicts["power_sum.triple_mod_p6[m=1]"]
        assert v.status == PASS

    def test_triple_skip_reason_recorded(self):
        verdicts = {v.case: v for v in suite_verdicts("power_sum", 7, own_table(7, 6))}
        v = verdicts["power_sum.triple_mod_p6[m=1]"]
        assert v.status == SKIP and "divides m+5" in v.reason

    def test_divisibility_branches_both_hit(self):
        verdicts = suite_verdicts("power_sum", 7, own_table(7, 6))
        minus_one = [
            v for v in verdicts if v.case.startswith("power_sum.mod_p[") and v.rhs != 0
        ]
        zero = [
            v for v in verdicts if v.case.startswith("power_sum.mod_p[") and v.rhs == 0
        ]
        assert minus_one and zero

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_suite_all_pass(self, p):
        assert_all_pass(suite_verdicts("power_sum", p, own_table(p, 6)))
