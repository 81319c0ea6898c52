"""High-level recovery of missing samples from observed series.

Given a windowed series, a mask and a band limit, `recover` assembles the
gap operator and right-hand side, solves (1+rho)*y = A*y + a, and returns
the recovered values on the missing set together with spectral and solver
diagnostics.  Only the missing trace is ever computed; the in-sample
band-limited approximation on the observed set is never materialized.
`recover_all` recovers several series that share a mask, a band limit and
rho against one operator and one factorization.

`recover_single_value` is the closed form for a single gap,

    x_hat(s) = omega/(pi - omega) * sum_{m != s} x(m) * sinc(omega*(s - m)).

Grids use the separable rectangular-band kernel, and collapse exactly to
the 1D path when the window is a single row or column.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParameterError
from .kernel import BandLimit, kernel_profile
from .masks import IndexWindow, ObservationMask, make_mask, observed_halfline_exists
from .operators import (
    OperatorDiagnostics,
    assemble_operator,
    assemble_rhs,
    diagnostics,
    with_rhs,
)
from .series import Series
from .solvers import SolveReport, solve_direct

# A tiny ridge buys stability once the gap set is large enough for the
# smallest eigenvalue of I - A to become tiny; small gaps are left exact.
SMALL_GAP_LIMIT = 32
DEFAULT_RHO_LARGE = 1e-4

HALFLINE_WARNING = (
    "observed set contains no half-line: missing samples touch every side of "
    "the window, so uniqueness of the underlying band-limited extension is "
    "not guaranteed (the finite system still has a unique solution)"
)


def default_rho(n_missing: int) -> float:
    return 0.0 if n_missing <= SMALL_GAP_LIMIT else DEFAULT_RHO_LARGE


@dataclass
class RecoveryProblem:
    """Inputs of one recovery: observed series, mask, band limit, ridge weight.

    `rho=None` selects the default policy (0 for small gap sets, a tiny
    ridge for large ones).  Missing entries of the series are ignored.
    """

    series: Series
    mask: ObservationMask
    omega: BandLimit
    rho: float | None = None


@dataclass(frozen=True, eq=False)
class RecoverySolution:
    """Recovered values keyed by missing index, plus solve evidence.

    The brute-force lab oracle returns values only (diagnostics fields None).
    """

    values: dict
    operator_diagnostics: OperatorDiagnostics | None
    solve_report: SolveReport | None
    warnings: tuple[str, ...] = ()

    def vector(self) -> np.ndarray:
        return np.array(list(self.values.values()), dtype=np.float64)


def _resolve_rho(problem: RecoveryProblem) -> float:
    rho = problem.rho if problem.rho is not None else default_rho(problem.mask.n_missing)
    if rho < 0:
        raise ParameterError("rho must be nonnegative")
    return float(rho)


def _recover_pipeline(problems: list[RecoveryProblem]) -> list[RecoverySolution]:
    """One operator, factorization and margin for the shared geometry; one solve per series."""
    problem = problems[0]
    mask, omega = problem.mask, problem.omega
    if mask.n_missing == 0:
        raise GeometryError("missing set is empty; nothing to recover")
    if any(p.series.window != mask.window for p in problems):
        raise GeometryError("series and mask are defined on different windows")
    if omega.ndim != mask.window.ndim:
        raise ParameterError("band limit dimensionality does not match the window")
    rho = _resolve_rho(problem)

    warnings = () if observed_halfline_exists(mask) else (HALFLINE_WARNING,)
    op = assemble_operator(mask, omega)
    diag = diagnostics(op, rho)
    solutions = []
    for p in problems:
        report = solve_direct(with_rhs(op, assemble_rhs(p.series, mask, omega)), rho)
        solutions.append(RecoverySolution(
            values={t: float(v) for t, v in zip(op.order, report.y)},
            operator_diagnostics=diag,
            solve_report=report,
            warnings=warnings + report.warnings,
        ))
    return solutions


def recover(problem: RecoveryProblem) -> RecoverySolution:
    """Recover the missing trace on a 1D or 2D window.

    A 2D window that is a single row or column carries no resolvable
    structure along the degenerate axis, so the problem is routed through
    the 1D pipeline on the other axis; keeping the tensor kernel instead
    would silently rescale everything by the degenerate axis' omega/pi.
    """
    return recover_all([problem])[0]


def recover_all(problems: list[RecoveryProblem]) -> list[RecoverySolution]:
    """Recover problems that differ only in their series, in order.

    The gap operator, its factorization and its margin depend on the
    mask, the band limit and rho alone, so they are computed once; each
    problem then costs one right-hand side and one solve.  Each solution is
    the one `recover` returns for its problem.
    """
    if not problems:
        return []
    first = problems[0]
    shared = (first.mask, first.omega, first.rho)
    if any((p.mask, p.omega, p.rho) != shared for p in problems[1:]):
        raise ParameterError("problems recovered together must share mask, omega and rho")
    window = first.mask.window
    degenerate = _degenerate_axes(window) if window.ndim == 2 else []
    if degenerate and window.size > 1:
        sub = _recover_pipeline([_collapse_to_1d(p, degenerate[0]) for p in problems])
        return [_expand_to_2d(p, s) for p, s in zip(problems, sub)]
    return _recover_pipeline(problems)


def recover_single_value(series: Series, s: int, omega: BandLimit) -> float:
    """Closed-form recovery of one missing sample from all other window samples."""
    if series.ndim != 1:
        raise GeometryError("single-value recovery is a 1D operation")
    if not series.window.contains(s):
        raise GeometryError(f"index {s} outside window [{series.window.lo}, {series.window.hi}]")
    (w,) = omega.axes
    ts = np.arange(series.window.lo, series.window.hi + 1)
    keep = ts != s
    weighted = kernel_profile(w, s - ts[keep]) @ series.values[keep]
    return float(np.pi / (np.pi - w) * weighted)


def _degenerate_axes(window: IndexWindow) -> list[int]:
    return [axis for axis, extent in enumerate(window.shape) if extent == 1]


def _collapse_to_1d(problem: RecoveryProblem, squeeze_axis: int) -> RecoveryProblem:
    """Strip a single-sample axis; recovery along a one-row window is a 1D problem."""
    keep_axis = 1 - squeeze_axis
    window = problem.mask.window
    sub_window = IndexWindow(window.lo[keep_axis], window.hi[keep_axis])
    values = problem.series.values.reshape(window.shape)
    return RecoveryProblem(
        series=Series(window=sub_window, values=values[0, :] if squeeze_axis == 0 else values[:, 0]),
        mask=make_mask(sub_window, problem.mask.offsets[:, keep_axis] + sub_window.lo),
        omega=BandLimit(problem.omega.axes[keep_axis]),
        rho=problem.rho,
    )


def _expand_to_2d(problem: RecoveryProblem, solution: RecoverySolution) -> RecoverySolution:
    """Key a collapsed problem's solution by the 2D indices (the canonical orders agree)."""
    return dataclasses.replace(
        solution, values=dict(zip(problem.mask.missing, solution.values.values()))
    )
