"""bandgap: recovery of missing samples by optimal band-limited approximation.

Recovers gaps in 1D series and 2D grids by approximating the observed data
with a band-limited sequence and reading off the approximation on the
missing set, which reduces to one small symmetric linear system per
problem.  Also provides short-horizon forecasting by interpolating between
the observed past and a dummy long-horizon forecast, plus a lab module
with test-signal synthesis and a seeded experiment harness.  The
independent references the tests check this against (a brute-force
oracle, a Neumann-series solve, the single-gap closed form) live in
`tests/oracles.py`, not in the package.
"""

__version__ = "0.1.0"

from .errors import BandgapError, GeometryError, ParameterError, SolverError
from .forecast import ForecastResult, SensitivityReport, dummy_sensitivity, forecast
from .kernel import BandLimit
from .lab import (
    ExperimentConfig,
    NoisySeries,
    add_noise,
    gen_bandlimited,
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
    recover,
)
from .series import Series, read_series_csv
from .solvers import SolveReport, error_bound, solve_direct
