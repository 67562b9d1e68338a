"""oscillax: a numerical laboratory for lattice oscillating random walks."""

from .errors import OscillaxError, ValidationError
from .evolve import (
    KernelTable,
    StepKernels,
    Window,
    default_window,
    excursion_functions,
    first_passage_rows,
    marginal_sequence,
)
from .ladder import (
    FluctuationConstants,
    LadderVariant,
    fluctuation_constants,
    ladder_potentials,
    wiener_hopf_heights,
)
from .model import (
    DriftCase,
    LatticeDist,
    Medium,
    OscillatingModel,
    argmin_laplace,
    cross_point,
    dist,
    dump_model,
    essential_class,
    geometric_tilt,
    laplace,
    laplace_deriv,
    load_model,
    mirror_dist,
    mirror_model,
    save_model,
    tilt,
    validate_model,
)
from .regimes import (
    RegimePrediction,
    classify,
    invariant_profile,
    predict,
    predicted_constant_Cy,
    select_tilt,
)
from .switching import (
    SpectralData,
    SwitchingKernel,
    WeightSpec,
    build_Q,
    default_weight,
    dominant_eigenpair,
    limit_operator_E,
    limit_operator_E_ell,
    renewal_sequence,
    switching_kernel,
    switching_time_marginals,
)
from .verify import (
    AsymptoticFit,
    SimResult,
    asymptotics_suite,
    convergence_suite,
    fit_rate_exponent,
    identity_suite,
    simulate,
)

__version__ = "0.1.0"
