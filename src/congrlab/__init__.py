"""congrlab: exact verification of binomial and harmonic-number congruences
modulo prime powers, with a prime-sweeping scanner."""

from .bernoulli import (
    BernoulliCache,
    NonPIntegerBernoulli,
    bernoulli_exact,
    bernoulli_mod,
    check_bernoulli_power_sums,
    von_staudt_clausen_defect,
    warm_bernoulli_cache,
)
from .congruences import (
    CATALOG,
    CongruenceCase,
    P7Residual,
    PrimeContext,
    ReductionCoefficients,
    binom_alpha_expansion,
    binom_alpha_mod,
    binom_exact,
    binom_rational_exact,
    central_binomial_identity,
    p7_residual,
    reduction_coefficients,
    signed_central_binomial,
    thm1_rhs,
    verify_case,
)
from .harmonic import (
    DomainTooSmall,
    HarmonicTable,
    PowerSumTable,
    check_harmonic_congruences,
    check_power_sum_congruences,
    check_reflection_identity,
    harmonic_numbers_exact,
    harmonic_table,
    power_sum_exact,
    power_sum_table,
)
from .residues import (
    CongrlabError,
    NotPInteger,
    PrimePowerModulus,
    Valuation,
    is_prime,
    parse_rational,
    rational_valuation,
    residue_of_rational,
    valuation_of_difference,
)
from .scanner import (
    DEFAULT_ALPHA_SWEEP,
    ScanConfig,
    ScanReport,
    UsageError,
    emit_report,
    odd_primes_between,
    report_from_json,
    run_lemma_suites,
    run_scan,
    sieve_primes,
)
from .verdicts import Verdict

__version__ = "0.1.0"
