"""Independent references the tests check the recovery pipeline against.

None of this runs in the `bandgap` pipeline, which solves each geometry by
one Cholesky factor (`recovery.prepare`); each function here reaches the
same answer, or writes the same input, by another route:

- `oracle_recover` re-solves a 1D recovery problem by brute force over
  frequency-sampled band-limited sequences, with no operator or solver
  code (acceptance criterion 4, `tests/test_lab.py`);
- `solve_neumann` solves the recovery equation by the geometric-series
  expansion of the inverse instead of the factor (criterion 5,
  `tests/test_solvers.py`);
- `recover_single_value` is the closed form for a single gap
  (`tests/test_recovery.py`, `tests/test_cli.py`);
- `write_series_csv` writes the series files that the reader and the CLI
  tests read back.

The oracle parameterizes a real band-limited sequence by cosine/sine
spectral samples on a uniform frequency grid over [0, omega], forms the
quadratic objective of the truncated-input problem

    sum_{t in D, |t| <= W} (x_bl(t) - x(t))^2
      + sum_{|t| > W} x_bl(t)^2  +  rho * ||x_bl||^2,

with both infinite sums evaluated through the Parseval identity by
trapezoidal quadrature on the grid, and solves the resulting normal
equations.  The normal matrix is diagonal plus a rank-|M| correction, so
the solve goes through the Woodbury identity, which keeps very fine grids
affordable; grids this fine are what the refinement gate (output change
<= 1e-8 under grid doubling) requires.  Nothing from `bandgap.operators`
or `bandgap.solvers` is used on this path (`tests/test_lab.py` checks
this).  So the oracle takes rho as given: the pipeline's default rho is
read from the operator's margin, which this path does not compute.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from bandgap import solvers
from bandgap.errors import GeometryError, ParameterError, SolverError
from bandgap.kernel import BandLimit, kernel_profile
from bandgap.masks import ObservationMask
from bandgap.operators import GapOperator
from bandgap.recovery import RecoveryProblem
from bandgap.series import _HEADERS, Series

ORACLE_MAX_HALF_WIDTH = 64
ORACLE_MIN_GRID_FACTOR = 4
ORACLE_DEFAULT_GRID = 50_000
ORACLE_CONDITION_LIMIT = 1e12


class NonConvergenceError(SolverError):
    """Iterative solve hit its iteration budget before reaching tolerance.

    Carries the last iterate so callers can inspect or restart.
    """

    def __init__(self, message: str, iterate: np.ndarray, residual: float, iterations: int):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual
        self.iterations = iterations


class OracleConditioningError(SolverError):
    """The brute-force oracle's normal equations are too ill-conditioned to trust."""


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OracleSolution:
    """The oracle's recovered values keyed by missing index."""

    values: dict

    def vector(self) -> np.ndarray:
        return np.array(list(self.values.values()), dtype=np.float64)


def _oracle_inputs(problem: RecoveryProblem, grid: int):
    window = problem.mask.window
    if window.ndim != 1:
        raise GeometryError("the oracle handles 1D problems only")
    if max(abs(window.lo), abs(window.hi)) > ORACLE_MAX_HALF_WIDTH:
        raise GeometryError(
            f"oracle is restricted to windows within +-{ORACLE_MAX_HALF_WIDTH}"
        )
    if problem.mask.n_missing == 0:
        raise GeometryError("missing set is empty; nothing to recover")
    if grid < ORACLE_MIN_GRID_FACTOR * window.size:
        raise ParameterError(
            f"grid must be at least {ORACLE_MIN_GRID_FACTOR} * window size "
            f"= {ORACLE_MIN_GRID_FACTOR * window.size}"
        )
    if problem.series.window != window:
        raise GeometryError("series and mask are defined on different windows")
    rho = problem.rho
    if rho is None:
        raise ParameterError("the oracle needs an explicit rho; the default is read from the gap operator")
    if not (math.isfinite(rho) and rho >= 0):
        raise ParameterError(f"rho must be a finite nonnegative number, not {rho}")
    return window, float(rho)


def oracle_recover(problem: RecoveryProblem, grid: int = ORACLE_DEFAULT_GRID) -> OracleSolution:
    """Brute-force quadratic minimization over frequency-sampled band-limited sequences.

    Parameters
    ----------
    problem : RecoveryProblem
        Same inputs as `recover`; window half-width at most 64.
    grid : int
        Number of frequency samples on [0, omega]; at least 4x the window
        size.  Accuracy improves as O(1/grid^2); check
        `oracle_grid_sensitivity` before trusting a new configuration.
    """
    window, rho = _oracle_inputs(problem, grid)
    (w,) = problem.omega.axes

    missing = np.array(problem.mask.missing, dtype=np.int64)
    ts = window.lo + np.arange(window.checked_size())
    observed_sel = ~np.isin(ts, missing)
    obs_t = ts[observed_sel]
    obs_x = problem.series.values[observed_sel]

    # Trapezoid rule on [0, w]; q is the diagonal of the Parseval form for
    # both the cosine and the sine coefficient blocks.
    omega_grid = np.linspace(0.0, w, int(grid))
    weights = np.full(int(grid), omega_grid[1] - omega_grid[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    q = weights / np.pi

    # Basis rows at the missing indices: (q_j cos(omega_j t), q_j sin(omega_j t)).
    cos_m = q[None, :] * np.cos(np.outer(missing, omega_grid))
    sin_m = q[None, :] * np.sin(np.outer(missing, omega_grid))

    # r = B_D^T x_d, accumulated one observed sample at a time to bound memory.
    r_cos = np.zeros(int(grid))
    r_sin = np.zeros(int(grid))
    for t, xt in zip(obs_t, obs_x):
        r_cos += xt * q * np.cos(omega_grid * t)
        r_sin += xt * q * np.sin(omega_grid * t)

    # Normal matrix (1+rho) Q - B_M^T B_M: diagonal minus rank-|M|; solve by
    # the Woodbury identity through the small capacitance matrix S.
    d0 = (1.0 + rho) * q
    alpha_cos = r_cos / d0
    alpha_sin = r_sin / d0
    beta = cos_m @ alpha_cos + sin_m @ alpha_sin
    capacitance = (
        np.eye(len(missing))
        - (cos_m / d0[None, :]) @ cos_m.T
        - (sin_m / d0[None, :]) @ sin_m.T
    )
    if np.linalg.cond(capacitance) > ORACLE_CONDITION_LIMIT:
        raise OracleConditioningError(
            "oracle normal equations are too ill-conditioned at this rho/gap size; "
            "shrink the instance or increase rho"
        )
    gamma = np.linalg.solve(capacitance, beta)
    coef_cos = alpha_cos + (cos_m / d0[None, :]).T @ gamma
    coef_sin = alpha_sin + (sin_m / d0[None, :]).T @ gamma

    recovered = cos_m @ coef_cos + sin_m @ coef_sin
    return OracleSolution(values={t: float(v) for t, v in zip(problem.mask.missing, recovered)})


def oracle_grid_sensitivity(problem: RecoveryProblem, grid: int = ORACLE_DEFAULT_GRID) -> float:
    """Max output change under grid doubling; must be <= 1e-8 to trust the oracle."""
    coarse = oracle_recover(problem, grid).vector()
    fine = oracle_recover(problem, 2 * grid).vector()
    return float(np.max(np.abs(coarse - fine)))


# ---------------------------------------------------------------------------
# Neumann iteration
# ---------------------------------------------------------------------------

@dataclass
class SolverConfig:
    """Stopping rule of the Neumann iteration (`solve_neumann`)."""

    tol: float = 1e-12
    max_iter: int = 10_000

    def __post_init__(self):
        if not (self.tol > 0):
            raise ParameterError("tol must be positive")
        if self.max_iter < 1:
            raise ParameterError("max_iter must be at least 1")


@dataclass(frozen=True, eq=False)
class NeumannReport:
    """The iterate that met the stopping rule, its equation residual and the steps it took."""

    y: np.ndarray
    residual: float
    iterations: int


def solve_neumann(op: GapOperator, rho: float, rhs: np.ndarray,
                  config: SolverConfig | None = None) -> NeumannReport:
    """Solve ((1+rho)I - A) y = a by the geometric fixed-point iteration y <- (A y + a)/(1+rho).

    The iteration is a contraction with factor q = ||A||/(1+rho) < 1, with
    ||A|| read from the operator's `diagnostics` margin, whose checks (and
    those of the right-hand side) are the direct solve's.  It stops once the
    successive-iterate distance certifies, through q, that the remaining
    error is below `tol`: the threshold on ||y_{k+1} - y_k|| is
    tol * min(1, (1-q)/q).  A plain threshold at `tol` would leave an error
    of up to tol*q/(1-q), which is orders of magnitude above tol when ||A||
    is close to 1.
    """
    config = config or SolverConfig()
    diag = solvers._solvable(op, rho)
    a = solvers._rhs(op, rhs)
    q = (1.0 + rho - diag.margin) / (1.0 + rho)  # below 1, as the margin is positive
    threshold = config.tol * min(1.0, (1.0 - q) / q) if q > 0 else config.tol
    scale = 1.0 / (1.0 + rho)
    y = scale * a
    iterations = 0
    for _ in range(config.max_iter):
        y_next = scale * (op.matrix @ y + a)
        step = float(np.linalg.norm(y_next - y))
        y = y_next
        if step <= threshold:
            return NeumannReport(y=y, residual=solvers._residual(op, rho, a, y), iterations=iterations)
        iterations += 1
    raise NonConvergenceError(
        f"no convergence after {config.max_iter} iterations (last step {step:.3e}, "
        f"threshold {threshold:.3e})",
        iterate=y,
        residual=solvers._residual(op, rho, a, y),
        iterations=config.max_iter,
    )


# ---------------------------------------------------------------------------
# closed form and series files
# ---------------------------------------------------------------------------

def recover_single_value(series: Series, s: int, omega: BandLimit) -> float:
    """Closed-form recovery of one missing sample from all other window samples,

        x_hat(s) = omega/(pi - omega) * sum_{m != s} x(m) * sinc(omega*(s - m)).
    """
    if series.ndim != 1:
        raise GeometryError("single-value recovery is a 1D operation")
    if not series.window.lo <= s <= series.window.hi:
        raise GeometryError(f"index {s} outside window [{series.window.lo}, {series.window.hi}]")
    (w,) = omega.axes
    ts = np.arange(series.window.lo, series.window.hi + 1)
    keep = ts != s
    weighted = kernel_profile(w, s - ts[keep]) @ series.values[keep]
    return float(np.pi / (np.pi - w) * weighted)


def write_series_csv(series: Series, path, mask: ObservationMask | None = None) -> None:
    """Write a series; with a mask, missing entries are omitted (kept absent)."""
    if mask is not None and mask.window != series.window:
        raise GeometryError("mask and series windows differ")
    keep = np.ones(series.window.shape, dtype=bool)
    if mask is not None:
        keep[tuple(mask.offsets.T)] = False
    index = np.argwhere(keep) + np.asarray(series.window.lo)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(_HEADERS[series.ndim - 1])
        writer.writerows(t + [repr(v)] for t, v in zip(index.tolist(), series.values[keep].tolist()))
