"""Sum-capacity bounds for the K-user cognitive interference channel
with cumulative message sharing, in the linear deterministic and
Gaussian models, plus gDoF model comparisons."""

from . import gaussian, gdof, gf2, ldc
from .gaussian import (
    DpcParams,
    GapCertificate,
    GaussianSymChannel,
    RateVector,
    additive_gap_certificate,
    analytic_gap_bound,
    closed_form_params,
    closed_form_sum_rates,
    dpc_rates,
    optimize_inner,
    optimize_outer,
    outer_sum,
)
from .gdof import curve_sweep, empirical_gdof, gdof_bc, gdof_cms, gdof_ifc
from .ldc import (
    LdcGains,
    LdcScheme,
    SumRateBound,
    build_generic3_scheme,
    build_sym_scheme,
    f_function,
    ldc3_sum_outer,
    ldc_k_sym_sum_capacity,
    verify_scheme,
)

__version__ = "0.1.0"

__all__ = [
    "gf2", "ldc", "gaussian", "gdof",
    "LdcGains", "LdcScheme", "SumRateBound",
    "f_function", "ldc3_sum_outer", "ldc_k_sym_sum_capacity",
    "build_sym_scheme", "build_generic3_scheme", "verify_scheme",
    "GaussianSymChannel", "DpcParams", "RateVector", "GapCertificate",
    "outer_sum", "dpc_rates", "closed_form_params", "closed_form_sum_rates",
    "additive_gap_certificate", "analytic_gap_bound",
    "optimize_inner", "optimize_outer",
    "gdof_cms", "gdof_ifc", "gdof_bc", "curve_sweep", "empirical_gdof",
]
