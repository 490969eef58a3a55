"""Local identification diagnostics for conditional moment models.

The package discretizes function spaces on weighted grids, represents
derivatives of moment maps as dense kernel operators, and turns
identification conditions (rank conditions, curvature-restricted
neighborhoods, partialled-out Gram matrices, positive-kernel eigenpairs)
into executable checks with independent oracles.
"""

from .errors import (
    ConvergenceError,
    DegenerateMarginalError,
    EmptyNeighborhoodError,
    GridMismatchError,
)
from .fnspace import (
    GridFunction,
    GridMeasure,
    OrthonormalBasis,
    cosine_basis,
    fourier_coeffs,
    inner,
    norm,
    project,
)
from .linop import (
    LinearOperator,
    OperatorStack,
    SvdDecomposition,
    adjoint,
    apply,
    conditional_expectation,
    from_kernel,
    hs_norm,
    singular_values,
    svd,
)
from .identcore import (
    ConeMembership,
    MomentMap,
    NonlinearityBound,
    cone_classify,
    cone_inclusion_suite,
    counterexample,
    counterexample_cases,
    counterexample_map,
    estimate_nonlinearity,
    gateaux_check,
    in_ellipsoid,
    in_identification_set,
    rank_condition,
    verify_local_id,
)
from .genericity import GeneratorConfig, OperatorDraw, draw_operator, mc_injectivity
from .semiparam import (
    PartialOutReport,
    SemiparametricMap,
    SplitDerivative,
    partial_out,
    split_lower_bound_check,
    verify_semiparam_linear,
    verify_semiparam_nonlinear,
)
from . import models

__version__ = "0.1.0"
