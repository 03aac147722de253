"""Exact arithmetic for interpolated finite multiple harmonic q-series.

The package computes nested q-series over Q and Q(zeta_n), their one-parameter
interpolations between strict and non-strict summation, height-counting
generating functions with closed product forms, and runs a registry of
mechanical identity checks.  Everything outside qseries.z_t_float and the
xi-check CLI subcommand is exact.
"""
from .exact import (
    CycloNumber,
    DivisionByZero,
    IrrationalCoefficient,
    QHarmonicError,
    Scalar,
    TPoly,
    binomial,
    is_rational,
    parse_rational,
    render_rational,
    scalar_eq,
    scalar_from_json,
    scalar_to_json,
)
from .series import Series, SeriesRing
from .indices import (
    HeightProfile,
    compositions,
    contract,
    depth,
    enumerate_indices,
    enumerate_patterns,
    height,
    weight,
)
from .qseries import (
    InvalidQ,
    L_poly,
    SeriesParams,
    ZPoly,
    g_sum,
    theta_q,
    x_sum,
    z,
    z_star,
    z_t,
    z_t_float,
    zbar,
    zbar_star,
    zbar_t,
    zeta_params,
)
from .genfun import (
    IdentityReport,
    eval_constant_index,
    kpow_generating,
    psi_bruteforce,
    psi_product,
    sum_formula,
    u_poly,
    xi_ones_coeff,
)
from .identities import (
    InvalidParams,
    UnknownIdentity,
    check_identity,
    default_instances,
    list_identities,
)

__version__ = "0.1.0"

__all__ = [
    "CycloNumber", "DivisionByZero", "IrrationalCoefficient", "QHarmonicError",
    "Scalar", "TPoly", "binomial", "is_rational", "parse_rational",
    "render_rational", "scalar_eq", "scalar_from_json", "scalar_to_json",
    "Series", "SeriesRing",
    "HeightProfile", "compositions", "contract", "depth", "enumerate_indices",
    "enumerate_patterns", "height", "weight",
    "InvalidQ", "L_poly", "SeriesParams", "ZPoly", "g_sum", "theta_q", "x_sum",
    "z", "z_star", "z_t", "z_t_float", "zbar", "zbar_star", "zbar_t",
    "zeta_params",
    "IdentityReport", "eval_constant_index", "kpow_generating",
    "psi_bruteforce", "psi_product", "sum_formula", "u_poly", "xi_ones_coeff",
    "InvalidParams", "UnknownIdentity", "check_identity", "default_instances",
    "list_identities",
    "__version__",
]
