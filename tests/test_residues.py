"""Ring arithmetic in Z/p^m and the exact-rational helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrlab import PrimeContext, PrimePowerModulus, prime_record, residue_of_rational
from congrlab.harmonic import inverse_table
from congrlab.residues import (
    NotPInteger,
    Valuation,
    is_prime,
    parse_rational,
    valuation_of_difference,
)
from oracles import power_sum_exact, rational_valuation


class TestPrimePowerModulus:
    def test_precomputes_power(self):
        m = PrimePowerModulus(5, 3)
        assert m.pm == 125

    @pytest.mark.parametrize("p", [2, 4, 9, 15, 1, 0, -7])
    def test_rejects_non_odd_primes(self, p):
        with pytest.raises(ValueError):
            PrimePowerModulus(p, 1)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            PrimePowerModulus(5, 0)

    def test_equality_ignores_cached_power(self):
        assert PrimePowerModulus(5, 3) == PrimePowerModulus(5, 3)
        assert PrimePowerModulus(5, 3) != PrimePowerModulus(5, 4)

    def test_large_prime_accepted(self):
        # beyond the deterministic Miller-Rabin range
        PrimePowerModulus(3_000_000_019, 1)


class TestIsPrime:
    def test_agrees_with_trial_division_below_10000(self):
        def slow(n):
            if n < 2:
                return False
            return all(n % d for d in range(2, int(n**0.5) + 1))

        for n in range(10_000):
            assert is_prime(n) == slow(n), n

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not is_prime(n)

    @pytest.mark.parametrize(
        "n",
        [
            3825123056546413051,  # strong pseudoprime to bases 2..23
            318665857834031151167461,  # psi_12: strong pseudoprime to 2..37
            3317044064679887385961981,  # psi_13: strong pseudoprime to 2..41
        ],
    )
    def test_strong_pseudoprimes_rejected(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [2**61 - 1, 2**89 - 1])
    def test_mersenne_primes_accepted(self, n):
        assert is_prime(n)


class TestRingOps:
    def test_inverse_example(self):
        inv = inverse_table(5, 125)
        assert inv[4] == 94  # 4 * 94 = 376 = 3*125 + 1

    def test_pow_example(self):
        assert prime_record(PrimePowerModulus(5, 3), {"four"})["four"] == 6  # 4^4 mod 125

    def test_canonical_form(self):
        m = PrimePowerModulus(7, 2)
        assert residue_of_rational(-1, m) == 48
        assert residue_of_rational(49, m) == 0
        assert residue_of_rational(40 + 30, m) == 21

    def test_non_unit_rejected(self):
        ctx = PrimeContext(PrimePowerModulus(5, 3), {"one": 1})
        with pytest.raises(NotPInteger):
            ctx.rat(Fraction(1, 10))
        with pytest.raises(NotPInteger):
            ctx.rat(Fraction(3, 25))

    def test_unit_group_randomized(self):
        # every entry of the batched inverse table is the inverse of its index
        for p, e in ((5, 3), (7, 2), (11, 5), (499, 7)):
            pm = p**e
            inv = inverse_table(p, pm)
            assert all(k * inv[k] % pm == 1 for k in range(1, p))

    def test_reduction_compatibility(self):
        # reducing mod p^m then mod p^j equals reducing directly mod p^j
        m7 = PrimePowerModulus(5, 7)
        for v in (0, 1, 126, 5**6 + 3, 5**7 - 1):
            for j in (1, 2, 3, 6):
                direct = residue_of_rational(v, PrimePowerModulus(5, j))
                assert residue_of_rational(v, m7) % 5**j == direct


class TestResidueOfRational:
    @pytest.mark.parametrize(
        "q,p,m,expected",
        [
            (Fraction(1), 5, 3, 1),
            (Fraction(1, 2), 7, 1, 4),  # 2*4 = 8 == 1 mod 7
            (Fraction(25, 12), 5, 2, 0),  # 25 == 0 mod 25, 12 a unit
            (Fraction(5, 12), 5, 2, 15),
            (Fraction(-1, 4), 5, 3, 94 * 124 % 125),
        ],
    )
    def test_examples(self, q, p, m, expected):
        assert residue_of_rational(q, PrimePowerModulus(p, m)) == expected

    def test_not_p_integer(self):
        with pytest.raises(NotPInteger):
            residue_of_rational(Fraction(1, 7), PrimePowerModulus(7, 1))
        with pytest.raises(NotPInteger):
            residue_of_rational(Fraction(3, 14), PrimePowerModulus(7, 5))

    @given(
        n1=st.integers(-50, 50),
        d1=st.integers(1, 50),
        n2=st.integers(-50, 50),
        d2=st.integers(1, 50),
    )
    @settings(max_examples=300)
    def test_ring_homomorphism(self, n1, d1, n2, d2):
        m = PrimePowerModulus(7, 3)
        if d1 % 7 == 0 or d2 % 7 == 0:
            return
        q1, q2 = Fraction(n1, d1), Fraction(n2, d2)
        r1, r2 = residue_of_rational(q1, m), residue_of_rational(q2, m)
        assert residue_of_rational(q1 + q2, m) == (r1 + r2) % m.pm
        assert residue_of_rational(q1 * q2, m) == r1 * r2 % m.pm
        # reduction to a smaller exponent commutes with the ring operations
        for j in (1, 2):
            assert residue_of_rational(q1 * q2, PrimePowerModulus(7, j)) == (
                r1 * r2 % 7**j
            )

    @given(v=st.integers(-(10**12), 10**12))
    @settings(max_examples=200)
    def test_canonical_range(self, v):
        m = PrimePowerModulus(11, 4)
        r = residue_of_rational(v, m)
        assert 0 <= r < m.pm


class TestValuation:
    def test_equal_residues_report_floor(self):
        m = PrimePowerModulus(5, 7)
        v = valuation_of_difference(42, 42 + 5**7, m)
        assert v == Valuation(7, True)
        assert str(v) == ">=7"

    def test_wolstenholme_gap(self):
        m = PrimePowerModulus(5, 7)
        assert valuation_of_difference(126, 1, m) == Valuation(3, False)

    def test_morley_gap(self):
        m = PrimePowerModulus(5, 7)
        assert valuation_of_difference(256, 6, m) == Valuation(3, False)

    def test_parse_round_trip(self):
        assert str(Valuation(3, False)) == "3"
        assert str(Valuation(6, True)) == ">=6"

    def test_rational_valuation(self):
        assert rational_valuation(Fraction(125, 36), 5) == 3
        assert rational_valuation(Fraction(2, 25), 5) == -2
        assert rational_valuation(Fraction(0), 5) is None


class TestExactRationals:
    def test_harmonic_sum_p5(self):
        assert power_sum_exact(5, 1) == Fraction(25, 12)

    def test_harmonic_sum_p7(self):
        assert power_sum_exact(7, 1) == Fraction(49, 20)

    @pytest.mark.parametrize(
        "text,expected",
        [("1/2", Fraction(1, 2)), ("-3", Fraction(-3)), (" 7/3 ", Fraction(7, 3))],
    )
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["", "x", "1/0", "1.5.2"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)
