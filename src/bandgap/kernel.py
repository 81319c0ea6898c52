"""Ideal low-pass convolution kernel and the band-limit parameter.

The kernel h(t) = omega * sinc(omega * t) / pi (with sinc(x) = sin(x)/x)
is the impulse response of the ideal low-pass filter with cutoff omega in
(0, pi); convolving with it realizes the orthogonal projection of a
square-summable sequence onto the band-limited subspace.  The 2D variant
is the separable product kernel for an axis-aligned rectangular band,
which is this toolkit's extension of the 1D theory to grids.

Every kernel-weighted sum over a window goes through one primitive,
:func:`lowpass_filter`, along one axis of length n: a zero-padded FFT
convolution, in O(n log n) time and O(n) memory per line, or, when there
are at least as many lines as offsets to read, one product with the
kernel weights of those offsets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Entries of the largest dense lag matrix `lowpass_filter` gathers (512 KiB).
DIRECT_PAIRS = 1 << 16

# The longest axis whose taps spectrum outlives its filter call.  At most
# four are kept, of at most 2 MiB each; a spectrum for an axis of 2^22
# samples would take 64 MiB.
TAPS_CACHE_AXIS = 1 << 17


@dataclass(frozen=True)
class BandLimit:
    """Cutoff frequency in radians per sample; a pair of cutoffs for 2D."""

    omega: float | tuple[float, float]

    def __post_init__(self):
        axes = self.axes
        if len(axes) not in (1, 2):
            raise ParameterError("band limit must be a scalar or a pair")
        for w in axes:
            if not (0.0 < w < math.pi) or not math.isfinite(w):
                raise ParameterError(f"band limit must lie strictly inside (0, pi), got {w!r}")

    @property
    def axes(self) -> tuple[float, ...]:
        if isinstance(self.omega, tuple):
            return tuple(float(w) for w in self.omega)
        return (float(self.omega),)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @classmethod
    def from_pi_fraction(cls, frac: float | tuple[float, float]) -> "BandLimit":
        """Build a band limit from a fraction of pi (0.25 means 0.25*pi)."""
        if isinstance(frac, tuple):
            return cls(tuple(float(f) * math.pi for f in frac))
        return cls(float(frac) * math.pi)


def kernel_profile(omega: float, lags: np.ndarray) -> np.ndarray:
    """Vectorized h over an array of integer lags (np.sinc is sin(pi x)/(pi x))."""
    lags = np.asarray(lags, dtype=np.float64)
    return (omega / np.pi) * np.sinc(omega * lags / np.pi)


def fft_length(n: int) -> int:
    """The least 2^a * 3^b * 5^c >= n, a length numpy's FFT handles fast."""
    best = 1 << max(n - 1, 0).bit_length()
    pow3 = 1
    while pow3 < best:
        odd = pow3
        while odd < best:  # odd = 3^b * 5^c; try the least 2^a * odd >= n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 5
        pow3 *= 3
    return best


def lowpass_filter(omega: float, values: np.ndarray, offsets, axis: int = 0) -> np.ndarray:
    """Convolve `values` with h along `axis` and read the result off at `offsets`.

    out[k] = sum_j h(offsets[k] - j) * values[j] over j = 0..n-1 along the
    axis, so every lag in -(n-1)..(n-1) is used exactly as the dense sum
    would.  The even kernel is laid out circularly in a zero-padded buffer
    of length L = fft_length(2n - 1), so the circular convolution computed by
    rfft/irfft has no wrap-around: O(n log n) time and O(n) memory per
    axis line, against O(|offsets| * n) for the dense lag matrix.

    The dense lag matrix is used instead when there are at least as many
    lines along the other axes as offsets and it has at most DIRECT_PAIRS
    entries: it is gathered once and serves every line in one matrix
    product, where the FFT pays for each line (the first axis of a 2D grid
    with a few hundred missing cells).
    """
    values = np.asarray(values, dtype=np.float64)
    offsets = np.asarray(offsets)
    n = values.shape[axis]
    with np.errstate(over="ignore", invalid="ignore"):  # callers check for non-finite sums
        if len(offsets) <= values.size // n and len(offsets) * n <= DIRECT_PAIRS:
            weights = kernel_profile(omega, np.arange(n))[np.abs(offsets[:, None] - np.arange(n))]
            return np.moveaxis(np.tensordot(weights, values, axes=(1, axis)), 0, axis)
        size = fft_length(2 * n - 1)
        shape = [1] * values.ndim
        shape[axis] = size // 2 + 1
        spectrum = np.fft.rfft(values, n=size, axis=axis) * _taps_spectrum(omega, n).reshape(shape)
        full = np.fft.irfft(spectrum, n=size, axis=axis)
    return np.take(full, offsets, axis=axis)


def _taps_spectrum(omega: float, n: int) -> np.ndarray:
    """rfft of h over the lags -(n-1)..(n-1), laid out circularly in fft_length(2n - 1) (read-only).

    It depends on omega and the axis length alone, so the calls of one
    geometry, or of many series on one window, share it: the four most
    recently used are kept for axes of up to TAPS_CACHE_AXIS samples.
    """
    return (_kept_taps if n <= TAPS_CACHE_AXIS else _taps)(omega, n)


def _taps(omega: float, n: int) -> np.ndarray:
    size = fft_length(2 * n - 1)
    taps = np.zeros(size)
    h = kernel_profile(omega, np.arange(n))
    taps[:n] = h
    taps[size - n + 1:] = h[:0:-1]
    spectrum = np.fft.rfft(taps)
    spectrum.flags.writeable = False
    return spectrum


_kept_taps = functools.lru_cache(maxsize=4)(_taps)
