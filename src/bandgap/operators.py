"""Assembly and spectral diagnostics of the gap operator.

For a missing set M and cutoff omega, the gap operator is the symmetric
|M| x |M| matrix A[i, j] = h(t_i - t_j) built from the low-pass kernel (a
product of per-axis kernels in 2D), and the right-hand side a(x) collects
the kernel-weighted sums of the observed samples.  A is positive
semidefinite with spectral norm < 1 for finite M, which is what makes the
recovery equation uniquely solvable.

A is read per axis from a lag table h[|t_i - t_j|], one kernel evaluation
per distinct lag, and filled one block of rows at a time, so assembly
needs little memory beyond A itself.  a(x) is the masked series low-pass
filtered by :func:`kernel.lowpass_filter` (axis by axis in 2D) and read
off on M: for a window of N samples that is O(N log N) time and O(N)
memory, whatever the size of M.

A is read-only once assembled, so what depends on it alone (its spectrum,
and the Cholesky factors the solvers take) is computed once per matrix
and reused by every caller.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, ParameterError
from .kernel import BandLimit, kernel_profile, lowpass_filter
from .masks import Index, ObservationMask, apply_mask
from .series import Series


# Largest missing set assembled: A then takes 4096^2 doubles = 128 MiB.
MAX_MISSING = 4096

# Entries of A filled per block of rows; the block's lag and kernel-value
# temporaries then take 512 KiB each, whatever the size of A.
BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True, eq=False)
class GapOperator:
    """Gap matrix over M x M, optional right-hand side, and the index order binding them.

    The matrix is made read-only at construction.  Values computed from it
    alone are memoised by :meth:`derived` and shared with every copy that
    keeps the same matrix array, such as the ones :func:`with_rhs` makes.
    """

    matrix: np.ndarray
    order: tuple[Index, ...]
    omega: BandLimit
    rhs: np.ndarray | None = None
    _derived: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.matrix.flags.writeable = False

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def derived(self, key, compute):
        """`compute()`, evaluated on the first request for `key` and remembered for this matrix."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

    @property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues, from one `np.linalg.eigvalsh` on first use (read-only)."""

        def compute():
            evs = np.linalg.eigvalsh(self.matrix)
            evs.flags.writeable = False
            return evs

        return self.derived("spectrum", compute)


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
    set it is Toeplitz.  A missing set larger than MAX_MISSING is a
    GeometryError, raised before the matrix is allocated.
    """
    _check_dims(mask, omega)
    if mask.n_missing == 0:
        raise GeometryError("missing set is empty; nothing to recover")
    if mask.n_missing > MAX_MISSING:
        raise GeometryError(
            f"missing set has {mask.n_missing} samples; at most {MAX_MISSING} can be "
            f"recovered (the gap matrix is dense)"
        )
    coords = _coord_array(mask.missing)
    m = len(coords)
    tables = [kernel_profile(w, np.arange(np.ptp(coords[:, axis]) + 1))
              for axis, w in enumerate(omega.axes)]
    matrix = np.ones((m, m))
    step = max(1, BLOCK_ENTRIES // m)
    for start in range(0, m, step):
        rows = slice(start, start + step)
        for table, t in zip(tables, coords.T):
            matrix[rows] *= table[np.abs(t[rows, None] - t[None, :])]
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
    """The operator with `rhs` attached; it shares the matrix and what was derived from it."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (op.size,):
        raise GeometryError(f"rhs length {rhs.shape} does not match operator size {op.size}")
    return dataclasses.replace(op, rhs=rhs)


def eigenvalues(op: GapOperator) -> np.ndarray:
    """Ascending eigenvalues of the (symmetric) gap matrix; the operator's cached spectrum."""
    return op.spectrum


def diagnostics(op: GapOperator) -> OperatorDiagnostics:
    """Spectral norm, smallest eigenvalue of I - A, and the exact symmetry defect.

    Computed once per matrix from its cached spectrum.
    """
    return op.derived("diagnostics", lambda: _diagnostics(op))


def _symmetry_defect(matrix: np.ndarray) -> float:
    """max |A - A^T|, one pair of 128 x 128 tiles at a time over the upper triangle.

    Reading the whole transpose strides through memory; at |M| = 1,024 the
    tiles take about a quarter of the time.
    """
    m, tile = matrix.shape[0], 128
    return float(np.max([
        np.max(np.abs(matrix[i:i + tile, j:j + tile] - matrix[j:j + tile, i:i + tile].T))
        for i in range(0, m, tile)
        for j in range(i, m, tile)
    ]))


def _diagnostics(op: GapOperator) -> OperatorDiagnostics:
    defect = _symmetry_defect(op.matrix) if op.size else 0.0
    spectral_norm = float(np.max(np.abs(op.spectrum)))
    return OperatorDiagnostics(
        spectral_norm=spectral_norm,
        min_eig_I_minus_A=1.0 - spectral_norm,
        symmetry_defect=defect,
        size=op.size,
    )
