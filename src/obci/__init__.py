"""Overlapping-batch confidence intervals on statistical functionals.

Asymptotically valid intervals for real-valued functionals of stationary
time series via overlapping-batch procedures (OB-I, OB-II, OB-III), a Monte
Carlo engine for the nonstandard critical values of their Wiener-functional
limit laws, a subsampling baseline, and a coverage-experiment harness.
"""

from .cip import (
    IntervalResult,
    MonteCarloCriticalValues,
    TableCriticalValues,
    VarianceEstimate,
    build_interval,
    classify_b_inf,
    var_ob1,
    var_ob2,
    var_ob3,
)
from .errors import (
    AllDegenerateError,
    DataFormatError,
    DegenerateEstimateError,
    DegenerateIntervalError,
    ObciError,
)
from .experiments import (
    CoverageReport,
    GeneratorSpec,
    MethodConfig,
    coverage_experiment,
    generate,
    offset_sweep,
    study_setup,
)
from .functionals import (
    FunctionalEstimator,
    ar1_estimator,
    cvar_estimator,
    cvar_tail_mean_estimator,
    mean_estimator,
    nhpp_rate_estimator,
    parse_estimator_tag,
    quantile_estimator,
)
from .limits import (
    INFINITE,
    BatchAsymptotics,
    CriticalValueEntry,
    CriticalValueTable,
    LimitSample,
    WeightFunction,
    constant_sqrt12,
    critical_value,
    critical_values,
    draw_limit_samples,
    kappa1,
    kappa2,
    obi_asymptotic_variance,
    obi_variance_fully_overlapping,
    sample_obi_limit,
    sample_obii_limit,
    sample_obiii_limit,
    weighting_condition_estimate,
)
from .paths import DEFAULT_GRID, SeedSpec, WienerPath, bridge_weight_integral, simulate_wiener
from .series import (
    BatchEstimates,
    BatchLayout,
    TimeSeriesData,
    batch_estimates,
    layout_from_fractions,
    load_series,
    make_layout,
    prefix_estimates,
)
from .subsampling import SubsamplingDistribution, subsample_distribution, subsampling_interval

__version__ = "0.1.0"
