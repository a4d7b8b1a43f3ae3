"""Coherence of double-integrator consensus networks.

Closed-form per-node variance of P-, DAPI- and F-DPD-controlled consensus
networks driven by white noise, Lyapunov-equation oracles for verification,
filter tuning, stochastic simulation, and size sweeps.
"""

__version__ = "0.1.0"

from .closed_loop import (
    ClosedLoopSystem,
    DapiGains,
    FdpdGains,
    PGains,
    assemble,
    assemble_dapi,
    assemble_fdpd,
    assemble_p,
    droop_preset,
    ideal_pd_equivalent,
    parse_gains_config,
    power_preset,
    zero_averaging_equivalent,
)
from .errors import (
    CoherenceError,
    DisconnectedGraphError,
    FitError,
    GraphFormatError,
    InstabilityError,
    InvalidParameterError,
    InvalidSizeError,
    MarginalModeObservableError,
    NumericalError,
    OracleSizeError,
    SearchError,
    StepSizeError,
    UnboundedVarianceError,
    WindowError,
)
from .graphs import (
    LaplacianSpectrum,
    WeightedGraph,
    build_complete,
    build_path,
    build_ring,
    build_torus,
    complete_spectrum,
    from_edge_list,
    laplacian,
    path_spectrum,
    ring_spectrum,
    spectrum,
    torus_spectrum,
)
from .scaling import ScalingResult, fit_exponent, run_scaling
from .simulate import (
    SimConfig,
    Trajectory,
    empirical_variance,
    ensemble_variance,
    recommended_step,
    run_scenario,
    scenario_config,
    simulate_em,
    slowest_time_constant,
)
from .tuning import (
    CStarClassification,
    ScalarSearchConfig,
    c_star_complete,
    c_star_numeric,
    classify_c_star,
    fdpd_dv_dtau,
)
from .variance import (
    VarianceReport,
    dapi_bound,
    dapi_variance,
    fdpd_bound,
    fdpd_variance,
    full_variance,
    modal_variance,
    p_variance,
    variance_by_kind,
)
