"""High-level recovery of missing samples from observed series.

Given a windowed series, a mask and a band limit, `recover` assembles the
gap operator and right-hand side, solves (1+rho)*y = A*y + a, and returns
the recovered values on the missing set together with spectral and solver
diagnostics.  Only the missing trace is ever computed; the in-sample
band-limited approximation on the observed set is never materialized.
The operator, its factorization, its margin and every warning depend on
the mask, the band limit and rho alone: `prepare` builds them once and
returns the per-series solve, which the forecast and lab layers call once
per series.  rho only keeps the system solvable: by default it is 0, or
CONDITION_WARN_THRESHOLD where the margin 1 - ||A|| is below it.
`RecoverySolution.diagnostics` is the one serialization of a solution's
evidence: the `diagnostics` object of recover and forecast JSON.

Grids use the separable rectangular-band kernel, and collapse exactly to
the 1D path when the window is a single row or column.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .errors import GeometryError
from .kernel import BandLimit
from .masks import IndexWindow, ObservationMask, make_mask, observed_halfline_exists
from .operators import (
    CONDITION_WARN_THRESHOLD,
    OperatorDiagnostics,
    assemble_operator,
    assemble_rhs,
    check_dims,
    check_rho,
    diagnostics,
)
from .series import Series
from .solvers import SolveReport, solve_direct

HALFLINE_WARNING = (
    "observed set contains no half-line: missing samples touch every side of "
    "the window, so uniqueness of the underlying band-limited extension is "
    "not guaranteed (the finite system still has a unique solution)"
)


@dataclass
class RecoveryProblem:
    """Inputs of one recovery: observed series, mask, band limit, ridge weight.

    `rho=None` selects the default: 0 while 1 - ||A|| is at least
    `operators.CONDITION_WARN_THRESHOLD`, and that threshold otherwise.
    Missing entries of the series are ignored.
    """

    series: Series
    mask: ObservationMask
    omega: BandLimit
    rho: float | None = None


@dataclass(frozen=True, eq=False)
class RecoverySolution:
    """Recovered values keyed by missing index, plus solve evidence.

    `warnings` are those of the geometry: the half-line one, the one of a
    raised default rho, then the operator record's.
    """

    values: dict
    operator_diagnostics: OperatorDiagnostics
    solve_report: SolveReport
    warnings: tuple[str, ...] = ()

    def vector(self) -> np.ndarray:
        return self.solve_report.y.copy()

    def diagnostics(self) -> dict:
        """The operator record's fields, then the solve report's, in field order; the CLI's `diagnostics`.

        The margin, the warnings (listed apart) and the solution vector are left out.
        """
        report = self.solve_report
        return {**self.operator_diagnostics.reported(),
                **{f.name: getattr(report, f.name) for f in fields(report) if f.name != "y"}}


def prepare(
    mask: ObservationMask, omega: BandLimit, rho: float | None = None
) -> Callable[[Series], RecoverySolution]:
    """Check a geometry and build its operator, factorization and margin, once.

    Returns `solve(series)`, the recovery of one series on the mask's
    window: each call costs one right-hand side and one solve, so any
    number of series share what depends on the mask, the band limit and rho
    alone, warnings included.  `rho=None` keeps rho = 0 while the margin
    1 - ||A|| is at least CONDITION_WARN_THRESHOLD, and solves at that
    threshold, with a warning that says so, below; a bad rho is refused
    before anything is built.  A 2D window that is a single row or column
    carries no resolvable structure along the degenerate axis, so it is
    solved on the 1D pipeline of the other axis; the tensor kernel would
    silently rescale everything by the degenerate axis' omega/pi.
    """
    window, missing = mask.window, mask.missing
    check_dims(mask, omega)
    check_rho(0.0 if rho is None else rho)
    collapse = window.ndim == 2 and window.size > 1 and 1 in window.shape
    if collapse:  # the canonical orders of the 2D and the collapsed mask agree
        keep = 1 - window.shape.index(1)
        sub_window = IndexWindow(window.lo[keep], window.hi[keep])
        mask = make_mask(sub_window, mask.offsets[:, keep] + sub_window.lo)
        omega = BandLimit(omega.axes[keep])
    op = assemble_operator(mask, omega)
    raised, diag = (), diagnostics(op, 0.0 if rho is None else rho)
    if rho is None:
        rho = 0.0 if diag.margin >= CONDITION_WARN_THRESHOLD else CONDITION_WARN_THRESHOLD
        if rho:
            raised = (f"rho raised from 0 to {rho:g}: at rho = 0, 1 - ||A|| = {diag.margin:.1e} is below "
                      f"{CONDITION_WARN_THRESHOLD:.1e}",)
            diag = diagnostics(op, rho)
    warnings = (() if observed_halfline_exists(mask) else (HALFLINE_WARNING,)) + raised + diag.warnings

    def solve(series: Series) -> RecoverySolution:
        if series.window != window:
            raise GeometryError("series and mask are defined on different windows")
        if collapse:
            series = Series(window=mask.window, values=series.values.reshape(-1))
        report = solve_direct(op, rho, assemble_rhs(series, mask, omega))
        return RecoverySolution(
            values=dict(zip(missing, report.y.tolist())),
            operator_diagnostics=diag,
            solve_report=report,
            warnings=warnings,
        )

    return solve


def recover(problem: RecoveryProblem) -> RecoverySolution:
    """Recover the missing trace on a 1D or 2D window."""
    return prepare(problem.mask, problem.omega, problem.rho)(problem.series)
