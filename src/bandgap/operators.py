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
memory, whatever the size of M, unless a dense product over the few
offsets read is cheaper.

A depends on the missing set and the band alone and a(x) on each series,
so a `GapOperator` holds A only, and the solvers take a(x) as an argument.
A is square, finite, exactly symmetric and read-only, and any other
matrix is a SolverError when the operator is made.  The operator holds one
blocked Cholesky factor of S = (1+rho)I - A, at the rho last asked for
(`factor`), and one margin 1 - ||A|| = lambda_min(I - A), read from its
rho = 0 factor by a short Lanczos run (Parlett, *The Symmetric Eigenvalue
Problem*).  A shift moves every eigenvalue alike, so at any rho the margin
1 + rho - ||A|| = lambda_min(S) is rho plus that one: each rho's record
(`diagnostics`) is worked out from it, with every warning it calls for.
The full spectrum, one `eigvalsh`, is only computed where it is the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import GeometryError, ParameterError, SolverError
from .kernel import BandLimit, kernel_profile, lowpass_filter
from .masks import MAX_MISSING, MAX_WINDOW_SIZE, ObservationMask, apply_mask
from .series import Series

# Entries of A filled per block of rows; the block's lag and kernel-value
# temporaries then take 512 KiB each, whatever the size of A.
BLOCK_ENTRIES = 1 << 16

# Order of the diagonal blocks of the Cholesky factor.
FACTOR_BLOCK = 64

# A margin 1 + rho - ||A|| below this (and above 0) is warned of as ill-conditioning.
CONDITION_WARN_THRESHOLD = 1e-8

# Lanczos stops once the residual r of its top Ritz pair is below this
# fraction of the Ritz value theta_1, which puts theta_1, and so the margin
# 1/theta_1, within this relative distance of an eigenvalue.  On the
# clustered spectrum of a 4 x 6 gap at (0.125, 0.9375) pi, 1e-10 misses
# ||A|| by 3e-11.  The gap bound r^2 / (theta_1 - theta_2) is no safe
# earlier stop: it takes the next Ritz value for the next eigenvalue, and in
# a cluster the run has not yet split, the next eigenvalue is nearer.
LANCZOS_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class GapOperator:
    """Gap matrix over M x M, in the mask's canonical order; a(x) is an argument of the solvers.

    The matrix is checked and made read-only at construction; `_margin`
    holds its one margin once it is read, `_held` one rho and its factor.
    """

    matrix: np.ndarray
    _margin: list = field(default_factory=list, repr=False)
    _held: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        """Refuse a matrix that is not square, holds a NaN or an infinity, or is not symmetric.

        One pass compares 128 x 128 tiles (i, j) and (j, i)^T, j >= i, as
        reading the whole transpose strides through memory.  A[p, q] - A[q, p]
        is 0 only where both entries are finite and equal, so one test per
        tile finds either fault; the non-finite one is named if both occur.
        """
        a, tile = self.matrix, 128
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise SolverError(f"gap matrix is not square: shape {a.shape}")
        with np.errstate(all="ignore"):  # inf - inf is a NaN, and so a fault, by design
            for i in range(0, a.shape[0], tile):
                for j in range(i, a.shape[0], tile):
                    if np.any(a[i:i + tile, j:j + tile] - a[j:j + tile, i:i + tile].T):
                        if not np.all(np.isfinite(a)):
                            raise SolverError("non-finite entries in the gap matrix")
                        raise SolverError("gap matrix is not symmetric")
        a.flags.writeable = False

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """S = L L^T, with the inverses of L's diagonal blocks of order FACTOR_BLOCK.

    `lower` holds L on and below the diagonal; what lies above is not read.
    A solve is a forward and a back substitution block by block, each block
    one product with a stored inverse (Golub & Van Loan, *Matrix
    Computations*), so one factor serves any number of right-hand sides.
    Both substitutions read L by block rows, which lie contiguous in memory:
    the back substitution subtracts each solved block's share from the
    blocks above it as soon as it is known.
    """

    lower: np.ndarray
    inverses: tuple[np.ndarray, ...]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """S^-1 b."""
        lower, k = self.lower, FACTOR_BLOCK
        y = np.array(b, dtype=np.float64)
        for i, inv in enumerate(self.inverses):
            lo, hi = i * k, (i + 1) * k
            y[lo:hi] = inv @ (y[lo:hi] - lower[lo:hi, :lo] @ y[:lo])
        for i in reversed(range(len(self.inverses))):
            lo, hi = i * k, (i + 1) * k
            y[lo:hi] = self.inverses[i].T @ y[lo:hi]
            y[:lo] -= y[lo:hi] @ lower[lo:hi, :lo]
        return y


@dataclass(frozen=True)
class OperatorDiagnostics:
    """Spectral facts of one operator at one rho; `margin` = 1 + rho - ||A|| is 0 or above |M| eps (1+rho).

    `spectral_norm` is at most 1 and the same at every rho: where 1 - ||A||
    is below working precision it is 1.0.  `warnings` holds every verdict.
    """

    margin: float
    spectral_norm: float
    min_eig_I_minus_A: float
    size: int
    warnings: tuple[str, ...] = ()

    def reported(self) -> dict:
        """Every field but the margin and the warnings (listed apart), in field order, as printed."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("margin", "warnings")}


def check_dims(mask: ObservationMask, omega: BandLimit) -> None:
    """A band limit whose dimensionality differs from the mask window's is a ParameterError."""
    if omega.ndim != mask.window.ndim:
        raise ParameterError(
            f"band limit dimensionality ({omega.ndim}D) does not match the {mask.window.ndim}D window"
        )


def assemble_operator(mask: ObservationMask, omega: BandLimit) -> GapOperator:
    """Build the symmetric gap matrix for a mask.

    Entries are looked up per axis in a table of h over the lags
    0..max|t_i - t_j|, so the matrix is exactly symmetric and equal entry
    for entry to evaluating h on every pair; for a contiguous 1D missing
    set it is Toeplitz.  A missing set larger than MAX_MISSING, or one whose
    span along an axis needs a table longer than MAX_WINDOW_SIZE, is a
    GeometryError, raised before anything is allocated.
    """
    check_dims(mask, omega)
    if mask.n_missing == 0:
        raise GeometryError("missing set is empty; nothing to recover")
    if mask.n_missing > MAX_MISSING:
        raise GeometryError(
            f"missing set has {mask.n_missing} samples; at most {MAX_MISSING} can be "
            f"recovered (the gap matrix is dense)"
        )
    coords = mask.offsets
    m = len(coords)
    spans = np.ptp(coords, axis=0)
    if spans.max() >= MAX_WINDOW_SIZE:
        raise GeometryError(
            f"missing indices span {spans.max()} along one axis; the lag table of the gap "
            f"matrix is capped at {MAX_WINDOW_SIZE} entries per axis"
        )
    tables = [kernel_profile(w, np.arange(span + 1)) for w, span in zip(omega.axes, spans)]
    matrix = np.empty((m, m))
    step = max(1, BLOCK_ENTRIES // m)
    for start in range(0, m, step):
        block = matrix[start:start + step]
        for axis, (table, t) in enumerate(zip(tables, coords.T)):
            # The rows of a block repeat coordinates along an axis (the cells
            # of a 2D missing block share their row and column coordinates):
            # each distinct one is looked up once and its row copied.
            # mode="clip" only spares `take` a buffer; `rows` is in range.
            keys, rows = np.unique(t[start:start + step], return_inverse=True)
            lags = table[np.abs(keys[:, None] - t[None, :])]
            if axis == 0:
                np.take(lags, rows, axis=0, out=block, mode="clip")
            else:
                block *= np.take(lags, rows, axis=0, mode="clip")
    return GapOperator(matrix=matrix)


def assemble_rhs(series: Series, mask: ObservationMask, omega: BandLimit) -> np.ndarray:
    """Kernel-weighted sums of the observed samples, one entry per missing index.

    The sum runs over in-window observed indices only; out-of-window samples
    are zero by truncation, and in-window missing entries are zeroed by the
    mask map before summation, so whatever the series holds there is ignored.
    The masked window is low-pass filtered along each axis in turn and read
    off at the missing set's rows (then columns): O(N log N) for N window
    samples.
    """
    check_dims(mask, omega)
    filtered = apply_mask(series, mask).values
    picks = []
    for axis, w in enumerate(omega.axes):
        kept, pick = np.unique(mask.offsets[:, axis], return_inverse=True)
        filtered = lowpass_filter(w, filtered, kept, axis=axis)
        picks.append(pick)
    return filtered[tuple(picks)]


def eigenvalues(op: GapOperator) -> np.ndarray:
    """Ascending eigenvalues of the (symmetric) gap matrix: one `eigvalsh`, not kept."""
    return np.linalg.eigvalsh(op.matrix)


def check_rho(rho: float) -> None:
    """A rho that is not a finite nonnegative number is a ParameterError."""
    if not (math.isfinite(rho) and rho >= 0):
        raise ParameterError(f"rho must be a finite nonnegative number, not {rho}")


def diagnostics(op: GapOperator, rho: float = 0.0) -> OperatorDiagnostics:
    """The margin 1 + rho - ||A||, ||A|| and the smallest eigenvalue of I - A.

    The one gate between an operator and what uses its margin: a rho that
    is not a finite nonnegative number is a ParameterError.  1 - ||A|| =
    lambda_min(I - A) is read once per operator from its rho = 0 factor; a
    failed factor, or a value of at most |M| eps, is below working
    precision and read as 0.  ||A|| does not depend on rho: `spectral_norm`
    is 1 minus that value, so 1.0 where it is 0, and `min_eig_I_minus_A`
    then 0.0, with a warning that says so and whether rho keeps the system
    solvable.  Only the margin depends on rho: it is rho plus that value,
    and 0 where that is at most |M| eps (1+rho).  A margin above 0 and
    below CONDITION_WARN_THRESHOLD adds an ill-conditioning warning.  No
    factor at rho is made: one that fails there is refused by the solve.
    """
    check_rho(rho)
    if not op._margin:  # only `_held` keeps the rho = 0 factor, so the next rho's releases it
        op._margin.append(_diagnostics(_lanczos_margin(factor(op, 0.0)), 0.0, op.size).margin)
    return _diagnostics(op._margin[0], rho, op.size)


def factor(op: GapOperator, rho: float) -> CholeskyFactor | None:
    """The factor of (1+rho)I - A, or None; the operator holds one, released before another rho's is made."""
    if rho not in op._held:
        op._held.clear()
        system = np.negative(op.matrix)
        system.flat[::op.size + 1] += 1.0 + rho
        op._held[rho] = _blocked_cholesky(system)
    return op._held[rho]


def _blocked_cholesky(system: np.ndarray) -> CholeskyFactor | None:
    """Left-looking blocked Cholesky, overwriting `system`; panels are matrix products."""
    n, k = system.shape[0], FACTOR_BLOCK
    inverses = []
    for lo in range(0, n, k):
        hi = lo + k
        left = system[lo:hi, :lo]
        try:
            block = np.linalg.cholesky(system[lo:hi, lo:hi] - left @ left.T)
        except np.linalg.LinAlgError:
            return None
        inverses.append(np.linalg.inv(block))
        system[lo:hi, lo:hi] = block
        system[hi:, lo:hi] = (system[hi:, lo:hi] - system[hi:, :lo] @ left.T) @ inverses[-1].T
    return CholeskyFactor(lower=system, inverses=tuple(inverses))


def _lanczos_margin(factor: CholeskyFactor | None) -> float:
    """lambda_min of the factored matrix S, as 1/theta_max of a Lanczos run on S^-1; 0 without a factor.

    The basis is reorthogonalised in full, twice per step, from a start
    vector with a fixed seed, so the result is deterministic.  The basis and
    the tridiagonal T are kept in arrays that double when full, and each
    step passes T's leading k x k block to `eigh`.  The run stops once the
    top Ritz pair's residual beta_k |s_k| is at most LANCZOS_TOL times its
    Ritz value theta_max, or after m steps, when T is all of S^-1.
    """
    if factor is None:
        return 0.0
    m = len(factor.lower)
    start = np.random.default_rng(0).standard_normal(m)
    basis = np.empty((min(m, 32), m))
    tri = np.zeros((len(basis), len(basis)))
    basis[0] = start / np.linalg.norm(start)
    for k in range(m):
        w = factor.solve(basis[k])
        tri[k, k] = basis[k] @ w
        done = basis[:k + 1]
        for _ in range(2):
            w -= (done @ w) @ done
        beta = float(np.linalg.norm(w))
        theta, vectors = np.linalg.eigh(tri[:k + 1, :k + 1])
        if beta * abs(vectors[-1, -1]) <= LANCZOS_TOL * theta[-1] or k + 1 == m:
            return float(1.0 / theta[-1])
        if k + 1 == len(basis):
            grown = min(2 * len(basis), m)
            basis = np.concatenate([basis, np.empty((grown - len(basis), m))])
            tri = np.pad(tri, (0, grown - len(tri)))
        basis[k + 1] = w / beta
        tri[k, k + 1] = tri[k + 1, k] = beta


def _diagnostics(margin0: float, rho: float, size: int) -> OperatorDiagnostics:
    """The `diagnostics` record at rho of 1 - ||A|| = `margin0`, |M| = `size`."""
    floor = size * np.finfo(np.float64).eps
    if margin0 <= floor:
        margin0 = 0.0
    # lambda_min((1+rho)I - A) = rho + lambda_min(I - A)
    margin, spectral_norm, warnings = margin0 + rho, 1.0 - margin0, ()
    if margin <= floor * (1.0 + rho):
        margin = 0.0
    if margin0 == 0.0:
        solvable = (f"rho = {rho:g} keeps the system solvable" if margin
                    else f"at rho = {rho:g} the system is singular to working precision")
        warnings = (f"1 - ||A|| is below working precision (|M| eps = {floor:.1e}), "
                    f"so spectral_norm is reported as 1.0; {solvable}",)
    if 0.0 < margin < CONDITION_WARN_THRESHOLD:
        warnings += (f"ill-conditioned system: 1 + rho - ||A|| = {margin:.3e} below threshold "
                     f"{CONDITION_WARN_THRESHOLD:.1e}",)
    return OperatorDiagnostics(
        margin=margin,
        spectral_norm=spectral_norm,
        min_eig_I_minus_A=max(0.0, 1.0 - spectral_norm),
        size=size,
        warnings=warnings,
    )
