"""congrlab: exact verification of binomial and harmonic-number congruences
modulo prime powers, with a prime-sweeping scanner.  The root holds the names
the README's Library section uses; the rest come from their modules."""

from .bernoulli import bernoulli_mod
from .congruences import (
    CATALOG,
    PrimeContext,
    binom_alpha_mod,
    ingredients,
    prime_record,
    thm1_rhs,
    verify_case,
)
from .residues import CongrlabError, PrimePowerModulus, residue_of_rational
from .scanner import ScanConfig, ScanReport, emit_report, run_scan
from .verdicts import Verdict

__all__ = [
    "CATALOG",
    "CongrlabError",
    "PrimeContext",
    "PrimePowerModulus",
    "ScanConfig",
    "ScanReport",
    "Verdict",
    "bernoulli_mod",
    "binom_alpha_mod",
    "emit_report",
    "ingredients",
    "prime_record",
    "residue_of_rational",
    "run_scan",
    "thm1_rhs",
    "verify_case",
]

__version__ = "0.1.0"
