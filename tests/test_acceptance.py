"""Acceptance gate: every release criterion, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts the criterion at its stated tolerance, which is exact residue
equality everywhere: there are no approximate comparisons in this package.
"""

import math
import time
from fractions import Fraction

from congrlab import (
    PrimeContext,
    PrimePowerModulus,
    ScanConfig,
    binom_alpha_mod,
    residue_of_rational,
    run_scan,
    thm1_rhs,
)
from congrlab.cli import main
from congrlab.congruences import signed_central_binomial
from congrlab.harmonic import harmonic_table
from congrlab.scanner import DEFAULT_ALPHA_SWEEP, odd_primes_between
from congrlab.verdicts import PASS, SKIP
from oracles import (
    binom_alpha_expansion,
    binom_exact,
    central_binomial_identity,
    collected,
    emitted,
    p7_residual,
    reduction_coefficients,
)

WORKERS = 2


def report_line(number, description, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number:02d} {description}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_generalized_congruence_sweep():
    """lhs == rhs in Z/p^m for every odd prime <= 499 and every sweep alpha."""
    start = time.perf_counter()
    config = ScanConfig(cases=("thm1",), workers=WORKERS)
    report = collected(run_scan(config))
    elapsed = time.perf_counter() - start

    assert report.summary["fail"] == 0
    # outcome below the derivation range is a reported finding, not silence:
    # at p = 3 and p = 5 every applicable sweep alpha passes outright
    small = [v for v in report.records if v.p in (3, 5) and v.status != SKIP]
    assert small and all(v.status == PASS for v in small)
    seven = [v for v in report.records if v.p == 7 and v.status != SKIP]
    assert seven and all(v.m == 6 for v in seven)
    rest = [v for v in report.records if v.p not in (7,) and v.status != SKIP]
    assert all(v.m == 7 for v in rest)
    print(
        f"  finding: all {len(small)} instances at p in (3, 5) hold although "
        "the derivation starts at p = 7"
    )
    report_line(1, "main congruence sweep p <= 499", elapsed < 60, elapsed)


def test_criterion_02_oracle_equivalence():
    """Ring binomials agree with the exact-rational oracle and the expansion."""
    start = time.perf_counter()
    for p in odd_primes_between(3, 97):
        modulus = PrimePowerModulus(p, 7)
        for alpha in DEFAULT_ALPHA_SWEEP:
            if alpha.denominator % p == 0:
                continue
            ring = binom_alpha_mod(alpha, modulus)
            oracle = residue_of_rational(binom_exact(alpha, p), modulus)
            assert ring == oracle, (p, alpha)
    for p in odd_primes_between(3, 31):
        modulus = PrimePowerModulus(p, 7)
        table = harmonic_table(modulus)
        for alpha in DEFAULT_ALPHA_SWEEP:
            if alpha.denominator % p == 0:
                continue
            expansion = binom_alpha_expansion(alpha, modulus, table)
            assert expansion == binom_alpha_mod(alpha, modulus), (p, alpha)
    elapsed = time.perf_counter() - start
    report_line(2, "binomial oracle equivalence p <= 97", True, elapsed)


def test_criterion_03_spot_exactness():
    """Both sides equal 126 mod 5^7 and 10 mod 3^6 at alpha = 2."""
    m5 = PrimePowerModulus(5, 7)
    m3 = PrimePowerModulus(3, 6)
    ok = (
        binom_alpha_mod(2, m5) == 126
        and thm1_rhs(2, m5) == 126
        and binom_alpha_mod(2, m3) == 10
        and thm1_rhs(2, m3) == 10
    )
    report_line(3, "spot exactness at (5, 2) and (3, 2)", ok)


def test_criterion_04_p7_tightness():
    """The p = 7 gap is alpha^3 (alpha-1)^3 7^6 / 720 with valuation exactly 6."""
    for alpha in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(2, 3)):
        r = p7_residual(alpha)
        assert r.matches, alpha
        assert r.difference == alpha**3 * (alpha - 1) ** 3 * Fraction(7**6, 720)
        num = alpha * (alpha - 1)
        assert num.numerator % 7 != 0
        assert r.valuation == 6 and r.tight, alpha
    report_line(4, "exponent 6 is sharp at p = 7", True)


def test_criterion_05_lemma_suites():
    """All verdict suites pass for every odd prime p <= 199."""
    start = time.perf_counter()
    report = collected(
        run_scan(ScanConfig(command="lemmas", prime_min=3, prime_max=199, workers=WORKERS))
    )
    elapsed = time.perf_counter() - start

    assert report.summary["fail"] == 0
    by_case = {}
    for v in report.records:
        by_case.setdefault(v.case, []).append(v)
    # boundary identities are present and pass wherever applicable
    assert all(v.status == PASS for v in by_case["harmonic.h_p_minus_1"])
    assert all(v.status == PASS for v in by_case["harmonic.h_p_minus_2"])
    boundary = by_case["harmonic.pair_boundary"]
    assert all(v.status == PASS for v in boundary if v.p >= 5)
    assert all(v.status == SKIP for v in boundary if v.p == 3)
    report_line(5, "lemma suites p <= 199", elapsed < 30, elapsed)


HISTORICAL_CASES = (
    "babbage",
    "wolstenholme_rel70",
    "morley",
    "glaisher_rel74",
    "glaisher_rel3",
    "glaisher1900_p4",
    "carlitz",
    "mcintosh",
    "zhao",
    "tauraso92",
    "tauraso93",
    "mestrovic80",
)


def test_criterion_06_historical_catalog():
    """Every historical congruence passes for primes <= 499 at its modulus."""
    start = time.perf_counter()
    config = ScanConfig(cases=HISTORICAL_CASES, workers=WORKERS)
    report = collected(run_scan(config))
    elapsed = time.perf_counter() - start

    assert report.summary["fail"] == 0
    passes = {}
    for v in report.records:
        if v.status == PASS:
            passes.setdefault(v.case, set()).add((v.p, v.alpha))

    primes = odd_primes_between(3, 499)
    from_5 = [p for p in primes if p >= 5]
    from_7 = [p for p in primes if p >= 7]
    from_11 = [p for p in primes if p >= 11]

    assert {p for p, _ in passes["babbage"]} == set(primes)
    assert {p for p, _ in passes["wolstenholme_rel70"]} == set(from_5)
    assert {p for p, _ in passes["morley"]} == set(from_5)
    assert {p for p, _ in passes["carlitz"]} == set(from_5)
    assert {p for p, _ in passes["glaisher1900_p4"]} == set(primes)
    for case in ("mcintosh", "zhao"):
        assert {p for p, _ in passes[case]} == set(from_7)
    # both stated ranges for the two mod p^6 congruences: they hold from
    # p = 7, hence in particular from p = 11
    for case in ("tauraso92", "tauraso93"):
        covered = {p for p, _ in passes[case]}
        assert covered == set(from_7)
        assert set(from_11) <= covered
    assert {p for p, _ in passes["mestrovic80"]} == set(from_11)
    # integer upper arguments n = 1..6 all exercised
    for case in ("glaisher_rel74", "glaisher_rel3"):
        ns = {alpha for _, alpha in passes[case]}
        assert ns == {Fraction(n) for n in range(1, 7)}
    report_line(6, "historical catalog p <= 499", elapsed < 60, elapsed)


def test_criterion_07_central_binomial_transfer():
    """(-1)^n C(2n,n) = 4^(2n) C(n-1/2, 2n) exactly, and both residue routes agree."""
    start = time.perf_counter()
    for n in range(1, 201):
        assert central_binomial_identity(n), n
    for p in odd_primes_between(3, 499):
        ctx = PrimeContext(PrimePowerModulus(p, 7))
        assert ctx.central_binomial() == signed_central_binomial(p) % ctx.pm
    elapsed = time.perf_counter() - start
    report_line(7, "central binomial transfer", True, elapsed)


def test_criterion_08_reduction_coefficients():
    """The coefficient schedule collapses to the stated closed forms."""
    points = [
        Fraction(2), Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(3),
        Fraction(-1, 2), Fraction(2, 3), Fraction(7, 3), Fraction(5, 4),
        Fraction(-7, 5),
    ]
    assert len(set(points)) == 10
    for a in points:
        c = reduction_coefficients(a)
        assert c.a3 == 0 and c.a4 == 0, a
        assert c.a1 == -a * (a - 1) * (a * a - a - 1), a
        assert c.a2 == a * a * (a - 1) ** 2, a
    report_line(8, "coefficient machinery at 10 rational points", True)


def test_criterion_09_scanner_contract(capsys):
    """Byte-identical default reports at any worker count; exit codes 0/1/2."""
    start = time.perf_counter()
    blobs = []
    for workers in (1, 4, 8):
        report = run_scan(ScanConfig(workers=workers))
        blobs.append(emitted(report, "json"))
    assert blobs[0] == blobs[1] == blobs[2]

    assert main(["scan", "--primes", "5..13", "--case", "morley"]) == 0
    forced_failure = [
        "scan", "--primes", "3..3", "--case", "rel38",
        "--alpha", "2", "--claimed-ranges",
    ]
    assert main(forced_failure) == 1
    assert main(["scan", "--primes", "oops"]) == 2
    assert main(["scan", "--primes", "5..5", "-o", "/nonexistent/dir/x"]) == 2
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    report_line(9, "deterministic reports and exit codes", True, elapsed)


def test_criterion_10_wolstenholme_anomaly_scan():
    """No prime below 10^4 strengthens C(2p-1,p-1) == 1 to mod p^4."""
    start = time.perf_counter()
    config = ScanConfig(
        prime_min=5,
        prime_max=10_000,
        cases=("wolstenholme_rel70",),
        tightness=True,
        workers=WORKERS,
    )
    report = collected(run_scan(config))
    assert report.summary["fail"] == 0
    assert report.anomalies == []
    assert all(v.valuation.value == 3 for v in report.records)

    # independent oracle: exact integer binomials say the same thing
    by_p = {v.p: v for v in report.records}
    for p in odd_primes_between(5, 10_000):
        c = math.comb(2 * p - 1, p - 1)
        assert (c - 1) % p**3 == 0, p
        assert (c - 1) % p**4 != 0, p
        assert by_p[p].lhs == c % p**3
    elapsed = time.perf_counter() - start
    report_line(10, "anomaly scan p <= 10^4", elapsed < 300, elapsed)
