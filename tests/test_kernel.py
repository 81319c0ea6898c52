"""Kernel values, symmetry, bounds, and the projection-reproduction property."""

import math

import numpy as np
import pytest

from bandgap import BandLimit, IndexWindow, ParameterError, assemble_operator, make_mask
from bandgap.kernel import kernel_profile


def h(frac, t):
    """h(t) = omega*sin(omega*t)/(omega*t*pi) straight from the definition, omega = frac*pi."""
    w = frac * math.pi
    return w / math.pi if t == 0 else math.sin(w * t) / (math.pi * t)


def test_peak_value_is_omega_over_pi():
    assert kernel_profile(0.25 * math.pi, 0) == pytest.approx(0.25, abs=1e-16)


def test_value_at_lag_two():
    # 0.25 * sinc(pi/2) computed straight from the definition
    expected = 0.25 * math.sin(math.pi / 2) / (math.pi / 2)
    assert kernel_profile(0.25 * math.pi, 2) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.1591549, abs=1e-7)


def test_half_band_zero_at_even_lags():
    assert kernel_profile(0.5 * math.pi, [2, 4]) == pytest.approx([0.0, 0.0], abs=1e-16)


@pytest.mark.parametrize("frac", [0.1, 0.25, 0.5, 0.9])
def test_evenness_and_bound(frac):
    lags = np.arange(0, 50)
    prof = kernel_profile(frac * math.pi, lags)
    assert np.array_equal(prof, kernel_profile(frac * math.pi, -lags))
    assert np.all(np.abs(prof) <= frac + 1e-15)


@pytest.mark.parametrize("bad", [0.0, -0.1, math.pi, 3.5, float("nan")])
def test_omega_domain_errors(bad):
    with pytest.raises(ParameterError):
        BandLimit(bad)
    with pytest.raises(ParameterError):
        BandLimit((0.25, bad))


def test_2d_values():
    # The 2D kernel is the product of the per-axis kernels, read here from
    # the gap matrix of the indices (0, 0), (1, 1) and (2, 0).
    mask = make_mask(IndexWindow((0, 0), (2, 2)), [(0, 0), (1, 1), (2, 0)])

    def matrix(fracs):
        return assemble_operator(mask, BandLimit.from_pi_fraction(fracs)).matrix

    assert matrix((0.25, 0.25))[0, 0] == pytest.approx(0.0625, abs=1e-16)
    assert matrix((0.5, 0.5))[0, 2] == pytest.approx(0.0, abs=1e-16)
    assert matrix((0.25, 0.5))[0, 1] == pytest.approx(h(0.25, 1) * h(0.5, 1), abs=1e-15)


def test_2d_central_symmetry():
    mask = make_mask(IndexWindow((-5, -5), (5, 5)), [(1, 2), (-3, 5), (4, -4), (0, 0)])
    matrix = assemble_operator(mask, BandLimit.from_pi_fraction((0.3, 0.7))).matrix
    assert np.array_equal(matrix, matrix.T)


def test_profile_matches_scalar():
    lags = np.arange(-30, 31)
    prof = kernel_profile(0.37 * math.pi, lags)
    for t, v in zip(lags, prof):
        assert v == pytest.approx(h(0.37, int(t)), abs=1e-15)


def test_convolution_reproduces_bandlimited_signal():
    # x built from shifted kernels is its own low-pass projection; the
    # windowed convolution must reproduce it up to the O(1/W) tail.
    frac = 0.25
    bl = BandLimit.from_pi_fraction(frac)
    w = bl.axes[0]
    centers = [-7, 0, 11]
    amps = [1.0, -0.5, 0.25]
    half = 2000
    ts = np.arange(-half, half + 1)

    def signal(t):
        return sum(a * kernel_profile(w, np.asarray(t) - c) for a, c in zip(amps, centers))

    x = signal(ts)
    for t in [-5, 0, 3, 20]:
        conv = float(kernel_profile(w, t - ts) @ x)
        assert conv == pytest.approx(float(signal(np.array([t]))[0]), rel=1e-2)


def test_a_band_limit_of_three_cutoffs_is_refused():
    with pytest.raises(ParameterError, match="^band limit must be a scalar or a pair$"):
        BandLimit((0.5, 0.5, 0.5))
