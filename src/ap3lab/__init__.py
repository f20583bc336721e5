"""Numerical laboratory for three-term progressions in sieved prime sets.

Modules: primes (sieving), cyclic (Fourier analysis mod P), wtrick
(small-prime sieving construction), bohr (Bohr sets and smoothing), threeap
(progression operator and exact additive counts), sieve_bounds (tuple counts
and sieve bounds), bounds (closed-form evaluators), pipeline (end-to-end
runs), cli (command line).
"""

from .bohr import BohrSet, build_bohr_set, kernel_spectrum, smooth
from .bounds import (
    choose_k,
    choose_k_from_log,
    density_bound_table,
    epsilon_delta_constraint,
    smoothed_progression_floor,
    sanders_lower_bound,
)
from .cyclic import (
    CyclicFunction,
    ScaledIndicator,
    Spectrum,
    fixed_sum,
    forward_transform,
    lp_norm,
    spectral_lp_norm,
    threshold_spectrum,
)
from .errors import (
    InvalidArgumentError,
    InvariantError,
    LabError,
    PreconditionError,
    ResourceLimitError,
)
from .pipeline import ExperimentReport, PipelineConfig, delta_sweep, run_pipeline
from .primes import (
    PrimeTable,
    is_prime,
    next_prime_above,
    sieve_primes,
)
from .sieve_bounds import (
    SingularSeries,
    TupleSpec,
    count_prime_tuples,
    klimov_upper_bound,
    convolution_norm_bound,
    singular_series,
)
from .threeap import (
    AdditiveCounts,
    additive_counts,
    lambda_fourier,
    lambda_of_spectra,
)
from .wtrick import (
    WTrickContext,
    build_context,
    build_sieved_function,
    choose_residue,
    compute_parameters,
)

__version__ = "0.1.0"
