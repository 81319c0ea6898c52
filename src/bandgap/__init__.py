"""bandgap: recovery of missing samples by optimal band-limited approximation.

Recovers gaps in 1D series and 2D grids by approximating the observed data
with a band-limited sequence and reading off the approximation on the
missing set, which reduces to one small symmetric linear system per
problem.  Also provides short-horizon forecasting by interpolating between
the observed past and a dummy long-horizon forecast, plus a lab module
with an independent brute-force oracle and a seeded experiment harness.
"""

__version__ = "0.1.0"

from .errors import (
    BandgapError,
    GeometryError,
    NonConvergenceError,
    OracleConditioningError,
    ParameterError,
    SolverError,
)
from .forecast import ForecastResult, ForecastSpec, SensitivityReport, dummy_sensitivity, forecast
from .kernel import BandLimit
from .lab import (
    ExperimentConfig,
    NoisySeries,
    SignalSpec,
    add_noise,
    gen_bandlimited,
    oracle_grid_sensitivity,
    oracle_recover,
    run_experiment,
)
from .masks import (
    IndexWindow,
    ObservationMask,
    apply_mask,
    make_mask,
    observed_halfline_exists,
    parse_missing_spec,
)
from .operators import (
    GapOperator,
    OperatorDiagnostics,
    assemble_operator,
    assemble_rhs,
    diagnostics,
    eigenvalues,
)
from .recovery import (
    RecoveryProblem,
    RecoverySolution,
    default_rho,
    recover,
    recover_single_value,
)
from .series import Series, read_series_csv, write_series_csv
from .solvers import SolveReport, SolverConfig, error_bound, solve_direct, solve_neumann
