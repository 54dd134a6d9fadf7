"""Window-bounded decision procedures for recurrence sequences and orbit density.

Asymptotic notions (syndetic, thick, piecewise syndetic, recurrence and
orbit-density families) are undecidable from finite data, so every check
here answers about a declared finite window, with exact brute-force oracles
on finite systems and numeric eps-density tests on rotation-type systems.
"""
from .intsets import (
    SequenceFormatError,
    Status,
    Verdict,
    Window,
    banach_density_estimate,
    difference_set,
    finite_ip,
    format_sequence,
    is_syndetic,
    is_thick,
    parse_sequence_file,
    parse_sequence_text,
    piecewise_syndetic_certificate,
    shifted_hit,
    write_sequence_file,
)
from .systems import (
    GOLDEN,
    CoverMismatchError,
    CyclicSystem,
    FiniteCover,
    OdometerSystem,
    ProductCover,
    ProductSystem,
    RotationSystem,
    SkewProductSystem,
    TorusCover,
    eps_dense,
    is_totally_minimal,
    orbit_at,
)
from .recurrence import (
    DEFAULT_SWEEP_SEED,
    CoverageError,
    ProductTransitivityResult,
    RSequenceReport,
    ReturnTimesResult,
    birkhoff_window_test,
    cesaro_average_along,
    cesaro_interval_closed_form,
    crosscheck_cyclic_equivalence,
    finite_subcover,
    product_transitive_finite,
    r_sequence_cyclic,
    r_sequence_metric,
    random_windows,
    return_times,
    shift_family_test,
)
from .permpoly import (
    CapExceededError,
    NonSurjectiveResult,
    OracleDisagreementError,
    PolyModP,
    PolynomialSyntaxError,
    PrimeField,
    brute_permutation_check,
    find_non_surjective_prime,
    hermite_check,
    is_permutation,
    parse_int_polynomial,
)
from .constructions import (
    BlockInfo,
    BuiltSequence,
    IPBlockSchedule,
    build_ip_block_sequence,
    default_t_sequence,
    verify_not_pws,
    verify_shifted_recurrence,
)

__version__ = "0.1.0"
