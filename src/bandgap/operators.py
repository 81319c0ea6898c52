"""Assembly and spectral diagnostics of the gap operator.

For a missing set M and cutoff omega, the gap operator is the symmetric
|M| x |M| matrix A[i, j] = h(t_i - t_j) built from the low-pass kernel (a
product of per-axis kernels in 2D), and the right-hand side a(x) collects
the kernel-weighted sums of the observed samples.  A is positive
semidefinite with spectral norm < 1 for finite M, which is what makes the
recovery equation uniquely solvable.

A is read per axis from a lag table h[|t_i - t_j|], one kernel evaluation
per distinct lag.  a(x) is the masked series low-pass filtered by
:func:`kernel.lowpass_filter` (axis by axis in 2D) and read off on M: for
a window of N samples that is O(N log N) time and O(N) memory, whatever
the size of M.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParameterError, SolverError
from .kernel import BandLimit, kernel_profile, lowpass_filter
from .masks import Index, ObservationMask, apply_mask
from .series import Series


@dataclass(frozen=True, eq=False)
class GapOperator:
    """Gap matrix over M x M, optional right-hand side, and the index order binding them."""

    matrix: np.ndarray
    order: tuple[Index, ...]
    omega: BandLimit
    rhs: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class OperatorDiagnostics:
    spectral_norm: float
    min_eig_I_minus_A: float
    symmetry_defect: float
    size: int


def _check_dims(mask: ObservationMask, omega: BandLimit) -> None:
    if omega.ndim != mask.window.ndim:
        raise ParameterError(
            f"band limit is {omega.ndim}D but the mask window is {mask.window.ndim}D"
        )


def _coord_array(indices) -> np.ndarray:
    """Missing indices as an (m, ndim) integer array."""
    arr = np.asarray([t if isinstance(t, tuple) else (t,) for t in indices], dtype=np.int64)
    return arr


def assemble_operator(mask: ObservationMask, omega: BandLimit) -> GapOperator:
    """Build the symmetric gap matrix for a mask (no right-hand side yet).

    Entries are looked up per axis in a table of h over the lags
    0..max|t_i - t_j|, so the matrix is exactly symmetric and equal entry
    for entry to evaluating h on every pair; for a contiguous 1D missing
    set it is Toeplitz.
    """
    _check_dims(mask, omega)
    if mask.n_missing == 0:
        raise GeometryError("missing set is empty; nothing to recover")
    coords = _coord_array(mask.missing)
    matrix = np.ones((len(coords), len(coords)))
    for axis, w in enumerate(omega.axes):
        lags = np.abs(coords[:, axis, None] - coords[None, :, axis])
        matrix = matrix * kernel_profile(w, np.arange(lags.max() + 1))[lags]
    return GapOperator(matrix=matrix, order=tuple(mask.missing), omega=omega)


def assemble_rhs(series: Series, mask: ObservationMask, omega: BandLimit) -> np.ndarray:
    """Kernel-weighted sums of the observed samples, one entry per missing index.

    The sum runs over in-window observed indices only; out-of-window samples
    are zero by truncation, and in-window missing entries are zeroed by the
    mask map before summation, so whatever the series holds there is ignored.
    The masked window is low-pass filtered along each axis in turn and read
    off at the missing set's rows (then columns): O(N log N) for N window
    samples.
    """
    _check_dims(mask, omega)
    if series.window != mask.window:
        raise GeometryError("series and mask are defined on different windows")
    filtered = apply_mask(series, mask).values
    offsets = _coord_array(mask.missing) - np.asarray(mask.window.lo)
    picks = []
    for axis, w in enumerate(omega.axes):
        kept, pick = np.unique(offsets[:, axis], return_inverse=True)
        filtered = lowpass_filter(w, filtered, kept, axis=axis)
        picks.append(pick)
    return filtered[tuple(picks)]


def with_rhs(op: GapOperator, rhs: np.ndarray) -> GapOperator:
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (op.size,):
        raise GeometryError(f"rhs length {rhs.shape} does not match operator size {op.size}")
    return dataclasses.replace(op, rhs=rhs)


def truncate_operator(op: GapOperator, mask: ObservationMask, n: int) -> GapOperator:
    """Restrict the operator to missing indices with |t| <= n (Chebyshev norm in 2D).

    Rows and columns for indices outside the truncation range are zeroed,
    keeping the index order shared with the untruncated operator.  The
    spectral norm cannot increase.  A right-hand side, if attached, is kept
    unchanged: truncation acts on the operator only.
    """
    if n < 0:
        raise ParameterError("truncation bound must be nonnegative")
    if op.order != tuple(mask.missing):
        raise GeometryError("operator order does not match the mask's missing set")
    coords = _coord_array(op.order)
    keep = np.max(np.abs(coords), axis=1) <= n
    if np.all(keep):
        return op
    matrix = op.matrix * keep[:, None] * keep[None, :]
    return dataclasses.replace(op, matrix=matrix)


def _power_iteration_norm(matrix: np.ndarray, tol: float = 1e-12, max_iter: int = 10_000) -> float:
    """Spectral-norm fallback for symmetric PSD matrices."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(matrix.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v_next = w / norm
        lam_next = float(v_next @ matrix @ v_next)
        if abs(lam_next - lam) <= tol:
            return lam_next
        lam, v = lam_next, v_next
    raise SolverError("power iteration did not converge")


def eigenvalues(op: GapOperator) -> np.ndarray:
    """Ascending eigenvalues of the (symmetric) gap matrix."""
    return np.linalg.eigvalsh(op.matrix)


def diagnostics(op: GapOperator) -> OperatorDiagnostics:
    """Spectral norm, smallest eigenvalue of I - A, and the exact symmetry defect."""
    defect = float(np.max(np.abs(op.matrix - op.matrix.T))) if op.size else 0.0
    try:
        evs = eigenvalues(op)
        spectral_norm = float(np.max(np.abs(evs)))
    except np.linalg.LinAlgError:
        spectral_norm = _power_iteration_norm(op.matrix)
    return OperatorDiagnostics(
        spectral_norm=spectral_norm,
        min_eig_I_minus_A=1.0 - spectral_norm,
        symmetry_defect=defect,
        size=op.size,
    )


def operator_to_csv(op: GapOperator, path) -> None:
    """Export the matrix row-major; the header comment records the index order."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# gap operator, order={list(op.order)!r}, omega={op.omega.axes!r}\n")
        for row in op.matrix:
            f.write(",".join(repr(float(v)) for v in row) + "\n")
