"""The solve of the recovery equation (1+rho)*y = A*y + a, and its error bound.

Each function takes the gap operator A and rho, and checks what else it is
given; what depends on A and rho alone (the factor, `operators.factor`, and
the margin the `operators.diagnostics` record is worked out from) is kept
on the operator and serves every right-hand side.

For finite missing sets the matrix (1+rho)*I - A is symmetric positive
definite (its eigenvalues are at least 1 + rho - ||A|| > 0), so
`solve_direct` solves with the operator's Cholesky factor, the same factor
its margin is read from; it is the one solve of the recovery pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParameterError, SolverError
from .operators import GapOperator, OperatorDiagnostics, diagnostics, factor


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solution vector plus the evidence that it solves the system."""

    y: np.ndarray
    residual: float
    norm_bound: float
    rho: float


def _rhs(op: GapOperator, rhs: np.ndarray) -> np.ndarray:
    """`rhs` as floats; a length other than |M| is a GeometryError, a non-finite entry a SolverError."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (op.size,):
        raise GeometryError(f"rhs length {rhs.shape} does not match operator size {op.size}")
    if not np.all(np.isfinite(rhs)):
        raise SolverError("non-finite entries in the right-hand side")
    return rhs


_SINGULAR = ("system is singular to working precision at this rho: "
             "1 + rho - ||A|| is at most |M| eps (1 + rho)")


def _solvable(op: GapOperator, rho: float) -> OperatorDiagnostics:
    """The operator's `diagnostics` record; one whose margin is 0 is a SolverError."""
    diag = diagnostics(op, rho)
    if diag.margin == 0.0:
        raise SolverError(_SINGULAR)
    return diag


def _residual(op: GapOperator, rho: float, a: np.ndarray, y: np.ndarray) -> float:
    """Norm of the equation residual; a non-finite one certifies nothing and is an error."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm((1.0 + rho) * y - op.matrix @ y - a))
    if not np.isfinite(residual):
        raise SolverError(f"residual is not finite ({residual}); the solution cannot be certified")
    return residual


def solve_direct(op: GapOperator, rho: float, rhs: np.ndarray) -> SolveReport:
    """Solve ((1+rho)I - A) y = a for the right-hand side a = `rhs` by Cholesky factorization.

    The factor is kept on the operator, so further right-hand sides for the
    same operator and rho cost two blocked triangular solves each.  The
    report carries the residual and the norm bound 1/margin.  A factor that
    fails at rho is the singular SolverError, as a margin of 0 is.
    """
    diag = _solvable(op, rho)
    a = _rhs(op, rhs)
    held = factor(op, rho)
    if held is None:
        raise SolverError(_SINGULAR)
    y = held.solve(a)
    return SolveReport(y=y, residual=_residual(op, rho, a, y), norm_bound=1.0 / diag.margin, rho=rho)


def error_bound(op: GapOperator, rho: float, eta_norm: float) -> float:
    """Worst-case output perturbation for an input perturbation of norm eta_norm.

    Returns eta_norm / margin, with the margin 1 + rho - ||A|| of
    `diagnostics(op, rho)`; a margin of 0 has no such bound and is a
    SolverError.
    """
    if not (math.isfinite(eta_norm) and eta_norm >= 0):
        raise ParameterError(f"perturbation norm must be a finite nonnegative number, not {eta_norm}")
    return eta_norm / _solvable(op, rho).margin
