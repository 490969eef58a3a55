"""Worked model designs: endogenous quantile, single index, asset pricing."""

from .quantile import QuantileIvModel, gaussian_quantile_model, quantile_moment_map
from .single_index import (
    IndexDiagnosis,
    SingleIndexModel,
    diagnose_single_index,
    gaussian_index_design,
    single_index_map,
)
from .ccapm import (
    CcapmModel,
    CompletenessReport,
    EigenPair,
    GlobalIdReport,
    build_pf_operator,
    ccapm_moment_map,
    check_global_identification,
    completeness_check,
    fixed_state_completeness_operator,
    lognormal_ccapm_model,
    perron_frobenius,
    positive_eigenpair,
)
