"""Dummy-interpolation forecasting: geometry, trends, and sensitivity."""

import tracemalloc

import numpy as np
import pytest

from bandgap import (
    BandLimit,
    GeometryError,
    IndexWindow,
    ParameterError,
    Series,
    SolverError,
    dummy_sensitivity,
    forecast,
)
from bandgap.kernel import kernel_profile
from bandgap.masks import MAX_WINDOW_SIZE

OMEGA = BandLimit.from_pi_fraction(0.25)
SYNTH = 0.2 * np.pi


def truth_series(ts):
    centers = [-20, -5, 3, 15]
    amps = [1.0, 0.8, -0.6, 0.4]
    out = np.zeros(len(ts))
    for c, a in zip(centers, amps):
        out += a * kernel_profile(SYNTH, np.asarray(ts) - c)
    return out


@pytest.fixture(scope="module")
def default_geometry():
    q = n = 60
    ts = np.arange(-q, n + 1)
    full = truth_series(ts)
    past = Series(window=IndexWindow(-q, 0), values=full[: q + 1])
    return q, n, past, full


def test_zero_past_zero_dummy():
    past = Series.zeros(IndexWindow(-60, 0))
    result = forecast(past, 3, 12, OMEGA)
    assert not np.any(result.values)
    assert not np.any(result.full_gap)


def test_values_are_prefix_of_full_gap(default_geometry):
    _, _, past, _ = default_geometry
    result = forecast(past, 3, 12, OMEGA)
    assert result.full_gap.shape == (12,)
    assert np.array_equal(result.values, result.full_gap[:3])


def test_horizon_must_be_below_gap(default_geometry):
    _, _, past, _ = default_geometry
    with pytest.raises(ParameterError):
        forecast(past, 12, 12, OMEGA)
    with pytest.raises(ParameterError):
        forecast(past, 13, 12, OMEGA)


def test_past_window_must_end_at_zero():
    past = Series.zeros(IndexWindow(-60, 1))
    with pytest.raises(GeometryError):
        forecast(past, 3, 12, OMEGA)


def test_dummy_window_checked(default_geometry):
    _, n, past, full = default_geometry
    bad = Series(window=IndexWindow(14, n), values=full[-(n - 13) :])
    with pytest.raises(GeometryError, match="dummy must start at gap"):
        forecast(past, 3, 12, OMEGA, dummy=bad)


@pytest.mark.parametrize("fraction", [0.25, 0.4])
@pytest.mark.parametrize("n", [13, 60, 500])
def test_zero_dummy_is_an_explicit_zero_dummy_of_any_length(default_geometry, fraction, n):
    """Samples outside the window count as observed zeros, so zeros on {13..n} change nothing."""
    _, _, past, _ = default_geometry
    omega = BandLimit.from_pi_fraction(fraction)
    zero = forecast(past, 3, 12, omega)
    explicit = forecast(past, 3, 12, omega, dummy=Series.zeros(IndexWindow(13, n)))
    assert zero.solution.warnings == explicit.solution.warnings
    # the two windows sum the same products in different orders: |M| eps rounding, amplified by 1 / margin
    tolerance = 12 * np.finfo(float).eps * explicit.solution.solve_report.norm_bound
    assert np.max(np.abs(zero.full_gap - explicit.full_gap)) <= tolerance * np.max(np.abs(explicit.full_gap))


def test_tracks_true_continuation(default_geometry):
    q, n, past, full = default_geometry
    m = 12
    dummy = Series(window=IndexWindow(m + 1, n), values=full[q + 1 + m :])
    result = forecast(past, 3, m, OMEGA, dummy=dummy)
    truth = full[q + 1 : q + 4]
    rel = np.max(np.abs(result.values - truth)) / np.max(np.abs(truth))
    assert rel <= 5e-2


def test_linearity_in_past_and_dummy(default_geometry):
    q, n, past, full = default_geometry
    m = 12
    dummy = Series(window=IndexWindow(m + 1, n), values=full[q + 1 + m :])
    base = forecast(past, 3, m, OMEGA, dummy=dummy)
    scaled = forecast(Series(window=past.window, values=2.0 * past.values), 3, m, OMEGA,
                      dummy=Series(window=dummy.window, values=2.0 * dummy.values))
    assert np.max(np.abs(scaled.full_gap - 2.0 * base.full_gap)) <= 1e-10


def test_near_forecasts_less_dummy_sensitive_than_far(default_geometry):
    q, n, past, full = default_geometry
    m = 12
    dummy_true = Series(window=IndexWindow(m + 1, n), values=full[q + 1 + m :])
    with_true = forecast(past, 3, m, OMEGA, dummy=dummy_true)
    with_zero = forecast(past, 3, m, OMEGA)
    diff = np.abs(with_true.full_gap - with_zero.full_gap)
    near = np.linalg.norm(diff[:3])
    far = np.linalg.norm(diff[9:12])
    assert near < far


class TestDummySensitivity:
    def test_identical_dummies_give_zero(self, default_geometry):
        q, n, past, full = default_geometry
        future = Series(window=IndexWindow(1, n), values=full[q + 1 :])
        report = dummy_sensitivity(past, 3, [future, future], [4, 8], OMEGA)
        assert report.distances == (0.0, 0.0)
        assert report.non_increasing

    def test_zero_vs_true_distance_fades_with_gap(self, default_geometry):
        q, n, past, full = default_geometry
        zero = Series.zeros(IndexWindow(1, n))
        future = Series(window=IndexWindow(1, n), values=full[q + 1 :])
        report = dummy_sensitivity(past, 3, [zero, future], [4, 8, 12, 16], OMEGA)
        assert report.gaps == (4, 8, 12, 16)
        assert all(d > 0 for d in report.distances)
        assert report.non_increasing
        assert report.violations == ()

    def test_distance_scales_linearly_with_dummy(self, default_geometry):
        q, n, past, full = default_geometry
        zero = Series.zeros(IndexWindow(1, n))
        future = Series(window=IndexWindow(1, n), values=full[q + 1 :])
        double = Series(window=IndexWindow(1, n), values=2.0 * full[q + 1 :])
        r1 = dummy_sensitivity(past, 3, [zero, future], [8], OMEGA)
        r2 = dummy_sensitivity(past, 3, [zero, double], [8], OMEGA)
        assert r2.distances[0] == pytest.approx(2.0 * r1.distances[0], rel=1e-10)

    def test_validation(self, default_geometry):
        q, n, past, full = default_geometry
        future = Series(window=IndexWindow(1, n), values=full[q + 1 :])
        with pytest.raises(ParameterError):
            dummy_sensitivity(past, 3, [future], [4, 8], OMEGA)
        with pytest.raises(ParameterError):
            dummy_sensitivity(past, 3, [future, future], [8, 4], OMEGA)
        with pytest.raises(ParameterError, match="at least one gap length"):
            dummy_sensitivity(past, 3, [future, future], [], OMEGA)
        misaligned = Series.zeros(IndexWindow(0, n))
        with pytest.raises(GeometryError):
            dummy_sensitivity(past, 3, [misaligned, misaligned], [4, 8], OMEGA)
        with pytest.raises(GeometryError):
            dummy_sensitivity(past, 3, [future, Series.zeros(IndexWindow(1, n + 1))], [4], OMEGA)
        with pytest.raises(GeometryError, match=f"largest gap {n} leaves no dummy range"):
            dummy_sensitivity(past, 3, [future, future], [4, n], OMEGA)
        with pytest.raises(ParameterError, match=r"gap length \(-1\) must exceed"):
            dummy_sensitivity(past, 3, [future, future], [-1, 4], OMEGA)

    def test_default_rho_solves_a_gap_singular_at_rho_zero(self):
        rng = np.random.default_rng(6)
        past = Series(window=IndexWindow(-60, 0), values=rng.standard_normal(61))
        dummies = [Series(window=IndexWindow(1, 60), values=rng.standard_normal(60)) for _ in range(4)]
        omega = BandLimit.from_pi_fraction(0.4)
        with pytest.raises(SolverError, match="singular to working precision"):
            dummy_sensitivity(past, 3, dummies, [4, 8, 12, 20, 32], omega, rho=0.0)
        report = dummy_sensitivity(past, 3, dummies, [4, 8, 12, 20, 32], omega)
        assert len(report.distances) == 5 and np.all(np.isfinite(report.distances))
        raised = forecast(past, 3, 32, omega).solution
        assert raised.solve_report.rho == 1e-8
        assert any(w.startswith("rho raised from 0 to 1e-08") for w in raised.warnings)


HALF = MAX_WINDOW_SIZE // 2  # a past on {-HALF..0} and a future on {1..HALF} exceed the cap by one
PAST = Series(window=IndexWindow(-HALF, 0), values=np.broadcast_to(0.0, HALF + 1))
FUTURE = Series(window=IndexWindow(1, HALF), values=np.broadcast_to(1.0, HALF))


@pytest.mark.parametrize("call", [
    lambda: dummy_sensitivity(PAST, 3, [FUTURE, FUTURE], [4, 12], OMEGA),
    lambda: forecast(PAST, 3, 12, OMEGA, dummy=Series(window=IndexWindow(13, HALF), values=FUTURE.values[12:])),
    lambda: forecast(PAST, 3, HALF, OMEGA),
], ids=["dummy_sensitivity", "forecast-dummy", "forecast-zero-dummy"])
def test_window_cap_is_checked_before_allocation(call):
    # The zero dummy's window ends at the gap: {-HALF..HALF} is one sample over the cap.
    # The inputs are broadcast views, so the window is refused before anything of its size exists.
    tracemalloc.start()
    try:
        with pytest.raises(GeometryError, match=rf"window of shape \({MAX_WINDOW_SIZE + 1},\) exceeds"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_2d_past_is_refused():
    past = Series(window=IndexWindow((-3, 0), (0, 0)), values=np.ones((4, 1)))
    with pytest.raises(GeometryError, match="^forecasting is a 1D operation$"):
        forecast(past, 1, 2, BandLimit(0.5))


def test_a_2d_dummy_is_refused():
    past = Series.zeros(IndexWindow(-60, 0))
    dummy = Series(window=IndexWindow((13, 0), (60, 0)), values=np.ones((48, 1)))
    with pytest.raises(GeometryError, match="^forecasting is a 1D operation$"):
        forecast(past, 3, 12, OMEGA, dummy=dummy)
