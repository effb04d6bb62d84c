"""Symmetric quantum retrodiction for arbitrary (biased) sources.

The source-function transform maps any prepare-and-measure pair to a
retrodictive pair on which Born's rule reproduces the Bayes conditionals in
both time directions.  On top of it: the retrodictive dual of two-state
unambiguous discrimination with its closed-form optimum, the swap-symmetric
entangled channel with its no-signaling check, a reproducible Monte Carlo
sampler, and a CLI that packages the verification suites.
"""

__version__ = "0.1.0"

from .channel import (
    NoSignalingReport,
    entangled_state,
    no_signaling_check,
    sqrt_omega_in_retro_basis,
    symmetric_state,
)
from .ensembles import (
    Ensemble,
    Povm,
    ValidationReport,
    Violation,
    validate_density_matrix,
    validate_ensemble,
    validate_povm,
    validate_priors,
    validate_state_vector,
)
from .errors import (
    DimensionMismatch,
    NonHermitianInput,
    NumericIntegrityError,
    RetrodictorError,
    SingularOperator,
    ValidationError,
    ZeroProbabilityOutcome,
)
from .linalg import (
    Spectrum,
    hermitian_eig,
    inv_sqrtm_psd,
    sqrtm_psd,
)
from .retrodiction import (
    RetroDual,
    retro_transform,
    transform_stack,
    unbiased_stack,
)
from .sim import EmpiricalReport, SampleCounts, StatTable, empirical_report, sample
from .ud import (
    DualOptimum,
    OmegaClosedForm,
    PurityIdentificationReport,
    RetroBasis,
    UdInstance,
    brute_force_dual,
    omega_closed_form,
    omega_in_retro_basis,
    omega_matrix,
    optimal_dual,
    retro_basis,
    retro_basis_closed_form,
    ud_ensemble,
    ud_retro_dual,
    verify_purity_identification,
)

__all__ = [name for name in dir() if not name.startswith("_")]
