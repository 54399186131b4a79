"""focklab: a numerical laboratory for weighted Fock-space norms.

Implements weighted p-norms of log-subharmonic test functions on R^m, the
superlevel-set monotonicity diagnostic, convex-functional extremality of
coherent states, and the large-p limit norm, with seeded reproducible
numerics and a verification CLI.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatchError,
    FocklabError,
    FunctionSpecError,
    InvalidInputError,
    MethodUnavailableError,
    NoEnvelopeError,
    OptimizationFailureError,
    UnsupportedFunctionalError,
)
from .functions import (
    Coherent,
    Constant,
    ExpQuadratic,
    FockParams,
    Monomial,
    Polynomial,
    SumOfCoherent,
    TestFunction,
    default_family_members,
    envelope_radius,
    log_density_batch,
)
from .integrate import (
    ConvexFunction,
    FunctionalEstimate,
    GaussHermite,
    IntegralEstimate,
    MonteCarlo,
    NormEstimate,
    PiecewiseLinear,
    Power,
    Radial,
    convex_functional,
    fock_norm,
    gauss_hermite_integrate,
    mc_integrate,
    norm_constant,
    radial_integrate,
)
from .levelset import (
    IsoperimetricVariant,
    LayerCakeResult,
    LevelGrid,
    LevelProfile,
    MaxResult,
    MeasureEstimate,
    find_max,
    g_diagnostic,
    g_from_mu,
    layer_cake,
    superlevel_measure,
    superlevel_measure_exact,
)
from .verify import (
    VerificationReport,
    check_contraction,
    check_decay,
    check_extremal_convex,
    check_isoperimetric_variant,
    check_limit_norm,
    check_monotone_g,
    check_pointwise_bound,
    check_rearrangement_lemma,
    richardson_limit,
)
