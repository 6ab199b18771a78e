"""Generalized Dirichlet series: explicit constants, norm inequalities,
short-interval lower bounds, and a numerical verification harness."""

from .bounds import (
    BoundReport,
    CLASSICAL_C,
    class_params,
    hurwitz_lower_bound,
    l1_tail_from_l2,
    lambda1_floor,
    local_l2_bound,
    log_minus_weighted_bound,
    log_plus_weighted_bound,
    nonvanishing_abscissa,
    short_interval_log_bounds,
    supnorm_lp_lower_bound,
)
from .errors import (
    HardySeriesError,
    InvalidParameterError,
    InvalidSeriesError,
    NearZeroAnchorError,
    PoleError,
    PrecisionError,
    QuadratureError,
    ZeroSeriesError,
)
from .harness import ExperimentConfig, ExperimentResult, dispatch
from .quadrature import (
    IntegralResult,
    integrate_abs_pow,
    integrate_log,
    interval_sup,
    poisson_log_integral,
)
from .series import (
    ClassParams,
    DirichletSeries,
    ExponentSequence,
    classical_polynomial,
    hurwitz_family,
    l1_norm_at,
    l2_norm,
    line_evaluator,
    normalize_leading,
    separation_constant,
    series_from_json,
)
from .special import (
    KappaConstants,
    hurwitz_zeta,
    kappa_constants,
    lambert_w0,
    lerch_phi,
    riemann_zeta,
)

__version__ = "0.1.0"
