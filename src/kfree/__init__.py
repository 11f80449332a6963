"""Toolkit for k-free integers: sieving, avoidance certificates, translate
witnesses, explicit sequence constructions, exact window maxima with large
sieve upper bounds, and OEIS b-file cross-checking."""

from .admissible import (
    AdmissibleMaxResult,
    admissible_max_exact,
    admissible_max_lower_shift,
    admissible_max_sweep,
    admissible_max_upper_sieve,
)
from .constructions import (
    DenseQState,
    GreedyResult,
    OverPSequence,
    SlowDensitySequence,
    dense_q_step,
    greedy_squarefree_sums,
    membership_probability,
    overp_base_point,
    overp_sequence,
    property_p_sequence,
    sample_counterexample,
    suff_witness_search,
)
from .errors import BudgetError, KfreeError, NotAdmissibleError, ResourceError
from .large_sieve import (
    OmegaProfile,
    es_omega,
    h_sum,
    optimize_q,
    sieve_bound,
    verify_sqsieve_inequality,
)
from .oeis import BFile, crosscheck, load_bfile, load_manifest, parse_oeis_bfile
from .properties import (
    AvoidanceCertificate,
    Certification,
    NoWitness,
    SumViolation,
    WitnessReport,
    admissibility_certificate,
    check_q_prefix,
    check_squarefree_sums,
    find_translate_witness,
    named_sequence_certificate,
    named_sequence_prefix,
    named_sequence_term,
    property_p_evidence,
)
from .sieve import (
    KFreeWindow,
    PrimeTable,
    ResidueClass,
    build_prime_table,
    count_power_free_upto,
    crt_combine,
    density_main_term,
    integer_kth_root,
    kfree_window,
    primes_upto,
    smallest_power_divisor,
    zeta,
)

__version__ = "0.1.0"
