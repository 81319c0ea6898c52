"""Independent reference for the recovery equation ((1+rho) I - A) y = a(x).

Everything here is built from numpy and scipy alone; nothing is imported
from `bandgap`.  The gap matrix comes from `numpy.sinc` over index lags
(separably per axis in 2D), the right-hand side from `fftconvolve` of the
masked samples with the kernel (1D) or from kernel rows restricted to the
rows and columns that hold missing samples (2D), and the solve from
`numpy.linalg.solve`.  The checks compare a program result against these
quantities with tolerances scaled by the spectral margin 1 + rho - ||A||.

Memory stays small on purpose: a `System` keeps only O(|M|) vectors, builds
the |M| x |M| matrix in row blocks, and holds a full copy only while it
computes the norm or a solve; no other array is larger than the grid or
the kernel over its lags.  A check therefore stays below the memory peak
of the program operation it checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import fftconvolve

# Relative tolerance for a backward-stable solve of a system of up to a few
# thousand unknowns: n * eps * (small constant) with room to spare.
REL_TOL = 1e-10


def kernel(omega: float, lags) -> np.ndarray:
    """h(t) = omega * sinc(omega * t) / pi, with numpy's normalized sinc."""
    return (omega / math.pi) * np.sinc(omega * np.asarray(lags, dtype=np.float64) / math.pi)


def gap_matrix(rows, cols, omegas) -> np.ndarray:
    """A[i, j] = prod over axes of h_axis(r_i - c_j), for (m, ndim) index arrays."""
    matrix = np.ones((len(rows), len(cols)))
    for axis, w in enumerate(omegas):
        matrix *= kernel(w, rows[:, axis, None] - cols[None, :, axis])
    return matrix


def rhs_1d(values, lo: int, missing, omega: float) -> np.ndarray:
    """a(s) = sum over observed t of h(s - t) x(t), by one FFT convolution.

    `values` holds the window lo..lo+N-1; entries at `missing` are zeroed
    here before the convolution.
    """
    masked = np.array(values, dtype=np.float64)
    n = len(masked)
    offsets = np.asarray(missing, dtype=np.int64) - lo
    masked[offsets] = 0.0
    full = fftconvolve(masked, kernel(omega, np.arange(-(n - 1), n)))
    return full[offsets + n - 1]


def rhs_2d(values, lo: tuple[int, int], missing, omegas) -> np.ndarray:
    """a(s) = sum over observed t of h1(s1 - t1) h2(s2 - t2) x(t), in chunks.

    Kernel rows are built only for the distinct rows and columns that hold
    missing samples, so the work is two small matrix products.
    """
    masked = np.array(values, dtype=np.float64)
    coords = np.asarray(missing, dtype=np.int64)
    r_off = coords[:, 0] - lo[0]
    c_off = coords[:, 1] - lo[1]
    masked[r_off, c_off] = 0.0
    rows, r_pos = np.unique(r_off, return_inverse=True)
    cols, c_pos = np.unique(c_off, return_inverse=True)
    u = kernel(omegas[0], rows[:, None] - np.arange(masked.shape[0])[None, :])
    v = kernel(omegas[1], cols[:, None] - np.arange(masked.shape[1])[None, :])
    return ((u @ masked) @ v.T)[r_pos, c_pos]


@dataclass
class System:
    """Reference a(x), spectral norm and solves for one recovery problem.

    `coords` is the (m, ndim) array of missing indices in the order of the
    unknowns.  `truth` is the exact band-limited signal on the missing set
    when the input is synthetic and band-limited below the recovery band.
    The gap matrix is built in blocks of CHUNK rows, so that a product with
    it needs O(CHUNK * m) memory and a full copy exists only inside `norm`
    and `solve`.
    """

    CHUNK = 128

    coords: np.ndarray
    omegas: tuple[float, ...]
    rhs: np.ndarray
    truth: np.ndarray | None = None
    norm: float = field(init=False)
    _solutions: dict = field(default_factory=dict, init=False, repr=False)
    _passed: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.int64).reshape(len(self.rhs), -1)
        self.norm = float(np.max(np.abs(np.linalg.eigvalsh(self.matrix()))))

    def _blocks(self):
        for i in range(0, len(self.coords), self.CHUNK):
            yield i, gap_matrix(self.coords[i:i + self.CHUNK], self.coords, self.omegas)

    def matrix(self) -> np.ndarray:
        out = np.empty((len(self.coords), len(self.coords)))
        for i, block in self._blocks():
            out[i:i + len(block)] = block
        return out

    def matvec(self, v) -> np.ndarray:
        out = np.empty(len(self.coords))
        for i, block in self._blocks():
            out[i:i + len(block)] = block @ v
        return out

    def margin(self, rho: float) -> float:
        return 1.0 + rho - self.norm

    def solve(self, rho: float) -> np.ndarray:
        if rho not in self._solutions:
            system = self.matrix()
            system *= -1.0
            system[np.diag_indices_from(system)] += 1.0 + rho
            self._solutions[rho] = np.linalg.solve(system, self.rhs)
        return self._solutions[rho]


def system_1d(values, lo: int, missing, omega: float, truth=None) -> System:
    return System(missing, (omega,), rhs_1d(values, lo, missing, omega), truth)


def system_2d(values, lo, missing, omegas, truth=None) -> System:
    return System(missing, tuple(omegas), rhs_2d(values, lo, missing, omegas), truth)


def check_solution(system: System, y, rho: float) -> list[str]:
    """Residual, agreement with the reference solve, and closeness to the truth.

    Returns failure messages; an empty list means the solution passed.  The
    truth check rests on the identity (I - A) x_M = a_window + tail for a
    signal band-limited below the recovery band, which bounds the distance
    of the solution from the truth by ||tail + rho x_M|| / margin.  A result
    bit-for-bit equal to one that passed before passes without the work.
    """
    y = np.asarray(y, dtype=np.float64)
    if any(rho == r and np.array_equal(y, v) for r, v in system._passed):
        return []
    errors = _check(system, y, rho)
    if not errors:
        system._passed.append((rho, y.copy()))
    return errors


def _check(system: System, y: np.ndarray, rho: float) -> list[str]:
    if y.shape != system.rhs.shape:
        return [f"solution has shape {y.shape}, expected {system.rhs.shape}"]
    if not np.all(np.isfinite(y)):
        return ["solution has non-finite entries"]
    if not (math.isfinite(rho) and rho >= 0.0):
        return [f"rho {rho!r} is not a finite nonnegative number"]
    margin = system.margin(rho)
    if margin <= 0.0:
        return [f"reference margin 1 + rho - ||A|| = {margin:.3e} leaves the system singular"]
    errors = []
    a = system.rhs
    scale = np.linalg.norm(a) + (1.0 + rho + system.norm) * np.linalg.norm(y)
    residual = np.linalg.norm((1.0 + rho) * y - system.matvec(y) - a)
    if residual > REL_TOL * scale:
        errors.append(f"residual {residual:.3e} exceeds {REL_TOL:.0e} x {scale:.3e}")
    y_ref = system.solve(rho)
    cond = (1.0 + rho) / margin
    diff = np.linalg.norm(y - y_ref)
    if diff > REL_TOL * cond * np.linalg.norm(y_ref):
        errors.append(f"|y - y_ref| = {diff:.3e} exceeds {REL_TOL:.0e} x cond {cond:.3e} x |y_ref|")
    if system.truth is not None:
        x = system.truth
        allowed = np.linalg.norm(x - system.matvec(x) - a + rho * x) / margin
        err = np.linalg.norm(y - x)
        if err > 1.01 * allowed + REL_TOL * cond * np.linalg.norm(x):
            errors.append(f"|y - truth| = {err:.3e} exceeds the margin bound {allowed:.3e}")
    return errors


def _reject_constant(name):
    raise ValueError(f"non-RFC JSON constant {name}")


def parse_rfc_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity (not valid RFC 8259)."""
    return json.loads(text, parse_constant=_reject_constant)
