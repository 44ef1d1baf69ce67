"""Exact arithmetic, congruence certificates and sieves for odd-perfect-number candidates."""

from .arith import (
    EffortExceededError,
    Factorization,
    PrimalityResult,
    SigmaTriple,
    SpoofFactor,
    SpoofFactorization,
    aliquot,
    classify_prime,
    deficiency,
    divisor_sum_geometric,
    factorize,
    is_prime,
    primes_below,
    sigma,
    sigma_prime_power,
    sigma_range,
    sigma_triple,
    spoof_sigma,
)
from .congruences import (
    InfeasibilityCertificate,
    OracleReport,
    ResidueClass,
    THEOREM_CASES,
    TheoremCase,
    aliquot_m2_mod4,
    aliquot_pk_mod8,
    certify_case,
    deficiency_m2_mod4,
    deficiency_pk_mod8,
    forced_sigma_m2_mod4,
    lemma_oracle,
    sigma_pk_mod8,
)
from .identities import (
    SPOOF,
    TRUE_SIGMA,
    EulerTriple,
    IdentityReport,
    compute_identity_report,
    is_perfect_decomposition,
    report_from_spoof,
    validate_euler_form,
)
from .sieve import (
    SieveHit,
    candidate_from_root,
    min_special_prime,
    mod16_filter,
    scan_special_primes,
    sieve_special_primes,
)

__version__ = "0.1.0"
