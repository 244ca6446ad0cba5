"""EU balance accounting, exponential accumulation fits, gap stability.

The package chains three stages: ingestion of country-year GDP and balance
tables into an immutable dataset, aggregation over configurable country
groups with the identity CAB = GGB + PSB, and regression of cumulative
surpluses/deficits on alpha*exp(beta*t) feeding a surplus-deficit gap
analysis with turning points and uncertainty time intervals.
"""
from .dataset import (
    BASE_YEAR,
    BadNumeric,
    Dataset,
    DatasetError,
    DuplicateKey,
    MalformedHeader,
    MissingGdp,
    assemble,
    load_bundled,
    load_files,
    parse_table,
)
from .accounting import (
    AccountingError,
    DegenerateSpan,
    EmptyIntersection,
    RegionDefinition,
    SumOverflow,
    TotalsRow,
    average_rate,
    bundled_regions,
    gdp_share,
    load_regions,
    region_series,
    region_total,
    totals_table,
)
from .expfit import (
    AnovaTable,
    DegenerateTotal,
    ExpFitModel,
    FitError,
    NoConvergence,
    PredictionRow,
    SingularJacobian,
    fit_exponential,
    param_confidence_interval,
    predict,
    r_squared,
    se_single,
    t_quantile,
)
from .stability import (
    DEFAULT_BAND_LEVEL,
    GapAnalysis,
    NoIntersection,
    RootNotBracketed,
    StabilityError,
    TurningPoints,
    UncertaintyInterval,
    band_envelope,
    gap_eval,
    phase_label,
    turning_points,
    uncertainty_interval,
)

__version__ = "0.1.0"
