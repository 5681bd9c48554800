"""congrlab: exact verification of binomial and harmonic-number congruences
modulo prime powers, with a prime-sweeping scanner."""

from .bernoulli import (
    NonPIntegerBernoulli,
    bernoulli_exact,
    bernoulli_mod,
    check_bernoulli_power_sums,
    warm_bernoulli_cache,
)
from .congruences import (
    CATALOG,
    CongruenceCase,
    PrimeContext,
    binom_alpha_mod,
    ingredients,
    signed_central_binomial,
    thm1_rhs,
    verify_case,
)
from .harmonic import (
    HarmonicTable,
    check_harmonic_congruences,
    check_power_sum_congruences,
    check_reflection_identity,
    harmonic_table,
    harmonic_vectors,
    power_sum_table,
    power_sums_from_harmonic,
)
from .residues import (
    CongrlabError,
    NotPInteger,
    PrimePowerModulus,
    Valuation,
    is_prime,
    parse_rational,
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
    run_lemma_suites,
    run_scan,
    sieve_primes,
)
from .verdicts import Verdict

__version__ = "0.1.0"
