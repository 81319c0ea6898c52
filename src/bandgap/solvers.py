"""Direct and iterative solvers for the recovery equation (1+rho)*y = A*y + a.

Each solver takes the gap operator A, rho and the right-hand side a of one
series, and checks a; what depends on A and rho alone (factor, margin and
the margin's warnings, `operators.diagnostics`) is memoised on the operator
and serves every right-hand side.

For finite missing sets the matrix (1+rho)*I - A is symmetric positive
definite (its eigenvalues are at least 1 + rho - ||A|| > 0), so the direct
path solves with the operator's Cholesky factor, the same factor its margin
is read from; it is the one solve of the recovery pipeline.  The iterative path
realizes the geometric-series expansion of the inverse:
y_{k+1} = (A y_k + a) / (1+rho), a contraction with factor
q = ||A||/(1+rho) < 1.  It is kept as an independent cross-check of the
direct solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, NonConvergenceError, ParameterError, SolverError
from .operators import GapOperator, OperatorDiagnostics, cholesky, diagnostics


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
class SolveReport:
    """Solution vector plus the evidence that it solves the system."""

    y: np.ndarray
    residual: float
    iterations: int
    norm_bound: float
    rho: float
    method: str


def _rhs(op: GapOperator, rhs: np.ndarray) -> np.ndarray:
    """`rhs` as floats; a length other than |M| is a GeometryError, a non-finite entry a SolverError."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (op.size,):
        raise GeometryError(f"rhs length {rhs.shape} does not match operator size {op.size}")
    if not np.all(np.isfinite(rhs)):
        raise SolverError("non-finite entries in the right-hand side")
    return rhs


def _solvable(op: GapOperator, rho: float) -> OperatorDiagnostics:
    """The operator's `diagnostics` record; one whose margin is 0 is a SolverError."""
    diag = diagnostics(op, rho)
    if diag.margin == 0.0:
        raise SolverError(
            "system is singular to working precision at this rho: "
            "1 + rho - ||A|| is at most |M| eps (1 + rho)"
        )
    return diag


def _residual(op: GapOperator, rho: float, a: np.ndarray, y: np.ndarray) -> float:
    """Norm of the equation residual; a non-finite one certifies nothing and is an error."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm((1.0 + rho) * y - op.matrix @ y - a))
    if not np.isfinite(residual):
        raise SolverError(f"residual is not finite ({residual}); the solution cannot be certified")
    return residual


def _report(op: GapOperator, rho: float, a: np.ndarray, diag: OperatorDiagnostics, y: np.ndarray,
            iterations: int, method: str) -> SolveReport:
    """A solve's report: its residual and the norm bound 1/margin."""
    return SolveReport(y=y, residual=_residual(op, rho, a, y), iterations=iterations,
                       norm_bound=1.0 / diag.margin, rho=rho, method=method)


def solve_direct(op: GapOperator, rho: float, rhs: np.ndarray) -> SolveReport:
    """Solve ((1+rho)I - A) y = a for the right-hand side a = `rhs` by Cholesky factorization.

    The factor is kept on the operator, so further right-hand sides for the
    same operator and rho cost two blocked triangular solves each.
    """
    diag = _solvable(op, rho)
    a = _rhs(op, rhs)
    return _report(op, rho, a, diag, cholesky(op, rho).solve(a), 0, "direct")


def solve_neumann(op: GapOperator, rho: float, rhs: np.ndarray,
                  config: SolverConfig | None = None) -> SolveReport:
    """Solve by the geometric fixed-point iteration y <- (A y + a)/(1+rho).

    Stops once the successive-iterate distance certifies, through the
    contraction factor q = ||A||/(1+rho), that the remaining error is below
    `tol`: the threshold on ||y_{k+1} - y_k|| is tol * min(1, (1-q)/q).  A
    plain threshold at `tol` would leave an error of up to tol*q/(1-q),
    which is orders of magnitude above tol when ||A|| is close to 1.
    """
    config = config or SolverConfig()
    diag = _solvable(op, rho)
    a = _rhs(op, rhs)
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
            return _report(op, rho, a, diag, y, iterations, "neumann")
        iterations += 1
    raise NonConvergenceError(
        f"no convergence after {config.max_iter} iterations (last step {step:.3e}, "
        f"threshold {threshold:.3e})",
        iterate=y,
        residual=_residual(op, rho, a, y),
        iterations=config.max_iter,
    )


def error_bound(op: GapOperator, rho: float, eta_norm: float) -> float:
    """Worst-case output perturbation for an input perturbation of norm eta_norm.

    Returns eta_norm / margin, with the margin 1 + rho - ||A|| of
    `diagnostics(op, rho)`; a margin of 0 has no such bound and is a
    SolverError.
    """
    if not (math.isfinite(eta_norm) and eta_norm >= 0):
        raise ParameterError(f"perturbation norm must be a finite nonnegative number, not {eta_norm}")
    return eta_norm / _solvable(op, rho).margin
