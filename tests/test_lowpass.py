"""The FFT low-pass primitive against dense kernel sums kept only here.

`assemble_rhs` and `assemble_operator` both reduce to kernel-weighted sums
over a window.  The references below write
those sums out as dense lag matrices, the O(|M| N) form the package no
longer uses, and the properties compare the two on random windows,
cutoffs and masks: length-1 windows, gaps on the window edges, and fully
missing rows and columns included.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandgap import kernel
from bandgap import (
    BandLimit,
    IndexWindow,
    Series,
    assemble_operator,
    assemble_rhs,
    make_mask,
)
from bandgap.kernel import fft_length, kernel_profile, lowpass_filter

FRACTIONS = st.floats(min_value=0.01, max_value=0.99)


def h(omega: float, lags) -> np.ndarray:
    """omega*sinc(omega*t)/pi written out with sin, independent of kernel_profile."""
    lags = np.asarray(lags, dtype=np.float64)
    safe = np.where(lags == 0, 1.0, lags)
    return np.where(lags == 0, omega / math.pi, np.sin(omega * safe) / (math.pi * safe))


def dense_rhs(series: Series, mask, omegas) -> np.ndarray:
    """sum over observed window indices s of prod_axis h(t_axis - s_axis) * x(s), per t in M."""
    values = np.array(series.values, dtype=np.float64)
    lo = mask.window.lo if isinstance(mask.window.lo, tuple) else (mask.window.lo,)
    grids = [np.arange(a, a + n) for a, n in zip(lo, values.shape)]
    for t in mask.missing:
        values[tuple(np.subtract(t, lo))] = 0.0
    out = []
    for t in mask.missing:
        t_axes = t if isinstance(t, tuple) else (t,)
        weights = h(omegas[0], t_axes[0] - grids[0])
        if len(grids) == 2:
            weights = np.outer(weights, h(omegas[1], t_axes[1] - grids[1]))
        out.append(float(np.sum(weights * values)))
    return np.array(out)


def dense_operator(mask, omegas) -> np.ndarray:
    """The gap matrix as the seed assembled it: kernel_profile on every pair's lag."""
    coords = np.array([t if isinstance(t, tuple) else (t,) for t in mask.missing])
    matrix = np.ones((len(coords), len(coords)))
    for axis, w in enumerate(omegas):
        matrix = matrix * kernel_profile(w, np.abs(coords[:, axis, None] - coords[None, :, axis]))
    return matrix


def tolerance(values: np.ndarray) -> float:
    return 1e-14 * max(1.0, float(np.sum(np.abs(values))))


@st.composite
def problems_1d(draw):
    lo = draw(st.integers(-40, 40))
    n = draw(st.integers(1, 150))
    offsets = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 30)))
    if draw(st.booleans()):
        offsets |= {0, n - 1}
    window = IndexWindow(lo, lo + n - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = Series(window=window, values=rng.standard_normal(n) * draw(st.sampled_from([1e-3, 1.0, 1e3])))
    mask = make_mask(window, [lo + k for k in offsets])
    return series, mask, (draw(FRACTIONS) * math.pi,)


@st.composite
def problems_2d(draw):
    lo = (draw(st.integers(-10, 10)), draw(st.integers(-10, 10)))
    shape = (draw(st.integers(1, 20)), draw(st.integers(1, 20)))
    cells = {(r, c) for r in range(shape[0]) for c in range(shape[1])}
    missing = draw(st.sets(st.sampled_from(sorted(cells)), min_size=1, max_size=12))
    for r in draw(st.sets(st.integers(0, shape[0] - 1), max_size=2)):
        missing |= {(r, c) for c in range(shape[1])}
    for c in draw(st.sets(st.integers(0, shape[1] - 1), max_size=2)):
        missing |= {(r, c) for r in range(shape[0])}
    window = IndexWindow(lo, (lo[0] + shape[0] - 1, lo[1] + shape[1] - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = Series(window=window, values=rng.standard_normal(shape))
    mask = make_mask(window, [(lo[0] + r, lo[1] + c) for r, c in missing])
    return series, mask, (draw(FRACTIONS) * math.pi, draw(FRACTIONS) * math.pi)


@settings(max_examples=150, deadline=None)
@given(problems_1d())
def test_rhs_1d_equals_dense_sum(problem):
    series, mask, omegas = problem
    got = assemble_rhs(series, mask, BandLimit(omegas[0]))
    assert np.max(np.abs(got - dense_rhs(series, mask, omegas))) <= tolerance(series.values)


@settings(max_examples=100, deadline=None)
@given(problems_2d())
def test_rhs_2d_equals_dense_sum(problem):
    series, mask, omegas = problem
    got = assemble_rhs(series, mask, BandLimit(omegas))
    assert np.max(np.abs(got - dense_rhs(series, mask, omegas))) <= tolerance(series.values)


@settings(max_examples=60, deadline=None)
@given(st.one_of(problems_1d(), problems_2d()))
def test_lag_table_operator_is_bit_identical(problem):
    _, mask, omegas = problem
    band = BandLimit(omegas if len(omegas) == 2 else omegas[0])
    assert np.array_equal(assemble_operator(mask, band).matrix, dense_operator(mask, omegas))


def test_operator_assembly_peak_stays_near_the_matrix():
    """|M| = 1,024 in 1D and in 2D (16 blocks of 8 x 8): the temporaries of
    assembly, filled a block of rows at a time, stay within half of A."""
    rng = np.random.default_rng(11)
    line = IndexWindow(0, 9_999)
    grid = IndexWindow((0, 0), (255, 255))
    blocks = [(16 + 60 * i + r, 16 + 60 * j + c)
              for i in range(4) for j in range(4) for r in range(8) for c in range(8)]
    cases = [(make_mask(line, rng.choice(10_000, size=1_024, replace=False)), (0.3,)),
             (make_mask(grid, blocks), (0.3, 0.6))]
    for mask, omegas in cases:
        band = BandLimit(omegas if len(omegas) == 2 else omegas[0])
        tracemalloc.start()
        try:
            op = assemble_operator(mask, band)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.size == 1_024
        assert peak <= 1.5 * op.matrix.nbytes
        assert np.array_equal(op.matrix, dense_operator(mask, omegas))


def _is_5_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_fft_length_is_the_least_5_smooth_number_at_or_above_n():
    smooth = [m for m in range(1, 5121) if _is_5_smooth(m)]  # 5120 = 2^10 * 5
    assert [fft_length(n) for n in range(1, 5001)] == [next(m for m in smooth if m >= n) for n in range(1, 5001)]
    assert fft_length(2 * 40_001 - 1) == 81_000 and fft_length(2 * 384 - 1) == 768


def test_filter_along_second_axis_matches_first():
    rng = np.random.default_rng(4)
    grid = rng.standard_normal((7, 33))
    offsets = [0, 5, 32]
    along_cols = lowpass_filter(0.6, grid, offsets, axis=1)
    along_rows = lowpass_filter(0.6, grid.T, offsets, axis=0).T
    assert np.max(np.abs(along_cols - along_rows)) <= 1e-15
    assert lowpass_filter(0.6, np.array([2.0]), [0]).tolist() == [2.0 * 0.6 / math.pi]


def test_repeat_filter_reuses_the_taps_spectrum(monkeypatch):
    """The taps depend on (omega, n) alone: a repeat call evaluates no kernel values."""
    lags = []

    def counting(omega, values):
        lags.append(np.size(values))
        return kernel_profile(omega, values)

    monkeypatch.setattr(kernel, "kernel_profile", counting)
    kernel._kept_taps.cache_clear()
    values = np.random.default_rng(5).standard_normal((60, 3))
    offsets = [2, 17, 29, 40]  # more offsets than lines: the FFT path
    first = lowpass_filter(0.7, values, offsets)
    assert lags == [60]
    again = lowpass_filter(0.7, values, offsets)
    assert lags == [60]
    assert np.array_equal(first, again)
    with pytest.raises(ValueError):
        kernel._taps_spectrum(0.7, 60)[0] = 0.0


def test_filter_sums_directly_when_lines_outnumber_offsets(monkeypatch):
    """At least as many lines as offsets: one product with the dense lag matrix, equal to the FFT path."""
    grid = np.random.default_rng(6).standard_normal((70, 50))
    offsets = [0, 3, 4, 31, 69]
    kernel._kept_taps.cache_clear()
    direct = lowpass_filter(0.45, grid, offsets, axis=0)
    assert kernel._kept_taps.cache_info().misses == 0
    want = np.array([[np.sum(h(0.45, k - np.arange(70)) * grid[:, c]) for c in range(50)] for k in offsets])
    assert np.max(np.abs(direct - want)) <= tolerance(grid)
    monkeypatch.setattr(kernel, "DIRECT_PAIRS", 0)
    assert np.max(np.abs(lowpass_filter(0.45, grid, offsets, axis=0) - direct)) <= tolerance(grid)
    assert kernel._kept_taps.cache_info().misses == 1


def test_kept_taps_spectra_stay_within_their_budget():
    """At most four taps spectra outlive their calls, 2 MiB each at most; the bench and ladder axes are kept."""
    offsets = [0, 1, 2]  # more offsets than lines: the FFT path

    def kept_after(n):
        kernel._kept_taps.cache_clear()
        values = np.zeros(n)
        tracemalloc.start()
        try:
            for omega in (0.3, 0.5, 0.7, 0.9, 1.1):
                lowpass_filter(omega, values, offsets)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    assert kept_after(kernel.TAPS_CACHE_AXIS) <= 4 * (kernel.TAPS_CACHE_AXIS + 1) * 16 + 2**16
    assert kept_after(kernel.TAPS_CACHE_AXIS + 1) < 2**16  # one sample longer, none is kept (not 8 MiB)
    kernel._kept_taps.cache_clear()
    for n in (256, 384, 40_001, 100_001):
        lowpass_filter(0.3, np.zeros(n), offsets)
    for n in (256, 384, 40_001, 100_001):
        lowpass_filter(0.3, np.ones(n), offsets)
    assert kernel._kept_taps.cache_info()[:2] == (4, 4)  # hits, misses


def test_rhs_at_window_1e5_gaps_2e3_stays_small():
    """N = 100,001, |M| = 2,000: the dense lag matrix alone would be 1.6 GB."""
    n = 100_001
    window = IndexWindow(0, n - 1)
    rng = np.random.default_rng(5)
    series = Series(window=window, values=rng.standard_normal(n))
    mask = make_mask(window, rng.choice(n, size=2_000, replace=False))
    omega = 0.25 * math.pi
    tracemalloc.start()
    try:
        rhs = assemble_rhs(series, mask, BandLimit(omega))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    masked = series.values.copy()
    masked[list(mask.missing)] = 0.0
    ts = np.arange(n)
    for k in (0, 999, 1999):
        expected = float(h(omega, mask.missing[k] - ts) @ masked)
        assert abs(rhs[k] - expected) <= tolerance(series.values)

