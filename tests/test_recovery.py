"""End-to-end recovery: closed-form consistency, ground-truth fixed points, 2D."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bandgap import (
    BandLimit,
    BandgapError,
    GeometryError,
    IndexWindow,
    RecoveryProblem,
    ParameterError,
    Series,
    assemble_operator,
    diagnostics,
    make_mask,
    recover,
)
from bandgap.kernel import kernel_profile
from bandgap.operators import CONDITION_WARN_THRESHOLD
from bandgap.recovery import HALFLINE_WARNING
from oracles import recover_single_value


def closed_form_independent(series, s, frac):
    """Single-gap formula evaluated with plain math loops (test-side oracle)."""
    omega = frac * math.pi
    total = 0.0
    for t in range(series.window.lo, series.window.hi + 1):
        if t == s:
            continue
        arg = omega * (s - t)
        total += series.values[t - series.window.lo] * (1.0 if arg == 0 else math.sin(arg) / arg)
    return omega / (math.pi - omega) * total


def mixture_series(window, centers, amps, frac):
    ts = np.arange(window.lo, window.hi + 1)
    vals = np.zeros(len(ts))
    for c, a in zip(centers, amps):
        vals += a * kernel_profile(frac * math.pi, ts - c)
    return Series(window=window, values=vals)


def mixture_truth(indices, centers, amps, frac):
    out = np.zeros(len(indices))
    for c, a in zip(centers, amps):
        out += a * kernel_profile(frac * math.pi, np.asarray(indices) - c)
    return out


class TestSingleValue:
    def test_zero_series(self):
        s = Series.zeros(IndexWindow(-10, 10))
        assert recover_single_value(s, 0, BandLimit.from_pi_fraction(0.25)) == 0.0

    def test_coefficient_at_quarter_band(self):
        # omega/(pi-omega) = 1/3 when omega = pi/4: one observed unit sample
        # at distance d contributes sinc(omega*d)/3.
        w = IndexWindow(-5, 5)
        s = Series(window=w, values=np.eye(11)[7])  # unit sample at t = 2
        got = recover_single_value(s, 0, BandLimit.from_pi_fraction(0.25))
        arg = 0.25 * math.pi * 2
        assert got == pytest.approx(math.sin(arg) / arg / 3.0, rel=1e-14)

    def test_against_independent_evaluation(self):
        rng = np.random.default_rng(77)
        w = IndexWindow(-30, 30)
        s = Series(window=w, values=rng.standard_normal(61))
        for frac in [0.1, 0.25, 0.5, 0.9]:
            got = recover_single_value(s, 3, BandLimit.from_pi_fraction(frac))
            assert got == pytest.approx(closed_form_independent(s, 3, frac), abs=1e-12)

    def test_bandlimited_input_reproduced(self):
        # Recovering a sample of the kernel itself returns h(0) = omega/pi
        # up to the window tail.
        frac = 0.25
        w = IndexWindow(-2000, 2000)
        ts = np.arange(-2000, 2001)
        s = Series(window=w, values=kernel_profile(frac * math.pi, ts))
        got = recover_single_value(s, 0, BandLimit.from_pi_fraction(frac))
        assert got == pytest.approx(0.25, abs=1e-3)

    def test_outside_window(self):
        s = Series.zeros(IndexWindow(-5, 5))
        with pytest.raises(GeometryError):
            recover_single_value(s, 6, BandLimit.from_pi_fraction(0.25))


class TestRecover:
    def test_zero_input_gives_exact_zeros(self):
        w = IndexWindow(-20, 20)
        mask = make_mask(w, [0, 1, 2])
        sol = recover(RecoveryProblem(series=Series.zeros(w), mask=mask,
                                      omega=BandLimit.from_pi_fraction(0.25)))
        assert list(sol.values.values()) == [0.0, 0.0, 0.0]
        assert sol.solve_report.residual == 0.0

    @pytest.mark.parametrize("frac", [0.1, 0.25, 0.5, 0.9])
    def test_singleton_equals_closed_form(self, frac):
        rng = np.random.default_rng(int(frac * 100))
        w = IndexWindow(-60, 60)
        mask = make_mask(w, [0])
        for _ in range(10):
            s = Series(window=w, values=rng.standard_normal(121))
            sol = recover(RecoveryProblem(series=s, mask=mask, omega=BandLimit.from_pi_fraction(frac), rho=0.0))
            cf = recover_single_value(s, 0, BandLimit.from_pi_fraction(frac))
            assert abs(sol.values[0] - cf) <= 1e-12

    def test_bandlimited_fixed_point_converges_with_window(self):
        centers, amps = [-3, 0, 4], [1.0, -0.7, 0.5]
        truth = mixture_truth([1, 2, 3, 4, 5], centers, amps, 0.2)
        errors = []
        for half in (250, 500, 1000):
            w = IndexWindow(-half, half)
            s = mixture_series(w, centers, amps, 0.2)
            mask = make_mask(w, range(1, 6))
            sol = recover(RecoveryProblem(series=s, mask=mask, omega=BandLimit.from_pi_fraction(0.25), rho=0.0))
            errors.append(np.max(np.abs(sol.vector() - truth)) / np.max(np.abs(truth)))
        assert errors[1] <= 1e-3
        assert errors[0] > errors[1] > errors[2]

    @settings(max_examples=100, deadline=None)
    @given(missing=st.sets(st.integers(-30, 30), min_size=1, max_size=12), frac=st.floats(0.05, 0.95),
           rho=st.sampled_from([None, 0.0, 0.1]), scale=st.floats(-10.0, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_linearity_and_scaling(self, missing, frac, rho, scale, seed):
        w = IndexWindow(-30, 30)
        mask = make_mask(w, missing)
        bl = BandLimit.from_pi_fraction(frac)
        assume(diagnostics(assemble_operator(mask, bl)).margin >= 0.05)  # rho > 0 only adds to it
        xa, xb = np.random.default_rng(seed).standard_normal((2, 61))
        ya, yb, ysum, yscaled = (
            recover(RecoveryProblem(series=Series(window=w, values=x), mask=mask, omega=bl, rho=rho)).vector()
            for x in (xa, xb, xa + xb, scale * xa))
        assert np.max(np.abs(ysum - (ya + yb))) <= 1e-10
        assert np.max(np.abs(yscaled - scale * ya)) <= 1e-10

    def test_halfline_warning(self):
        w = IndexWindow(-10, 10)
        s = Series(window=w, values=np.ones(21))
        both_edges = make_mask(w, [-10, 10])
        sol = recover(RecoveryProblem(series=s, mask=both_edges, omega=BandLimit.from_pi_fraction(0.25)))
        assert HALFLINE_WARNING in sol.warnings
        interior = make_mask(w, [0, 1])
        sol2 = recover(RecoveryProblem(series=s, mask=interior, omega=BandLimit.from_pi_fraction(0.25)))
        assert HALFLINE_WARNING not in sol2.warnings

    def test_default_rho_policy(self):
        """rho stays 0 while 1 - ||A|| is at least the threshold, and is raised to it, with a warning, below."""
        w = IndexWindow(-200, 200)
        s = Series(window=w, values=np.random.default_rng(0).standard_normal(401))

        def solved(missing, frac):
            mask, omega = make_mask(w, missing), BandLimit.from_pi_fraction(frac)
            return diagnostics(assemble_operator(mask, omega)).margin, recover(
                RecoveryProblem(series=s, mask=mask, omega=omega))

        margin, kept = solved(range(1, 26), 0.25)
        assert 3e-8 < margin < 5e-8
        assert kept.solve_report.rho == 0.0
        assert not any("rho raised" in warning for warning in kept.warnings)
        for missing, margins in ((range(1, 21), (1e-14, 3e-14)), (range(1, 26), (0.0, 0.0))):
            margin, raised = solved(missing, 0.5)  # 1.8e-14, and a factor that fails (margin 0)
            assert margins[0] <= margin <= margins[1]
            assert raised.solve_report.rho == CONDITION_WARN_THRESHOLD
            assert sum(warning.startswith("rho raised from 0 to 1e-08: ") for warning in raised.warnings) == 1
            assert not any("ill-conditioned" in warning for warning in raised.warnings)

    def test_empty_missing_rejected(self):
        w = IndexWindow(-5, 5)
        s = Series.zeros(w)
        with pytest.raises(GeometryError):
            recover(RecoveryProblem(series=s, mask=make_mask(w, []), omega=BandLimit.from_pi_fraction(0.25)))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), frac=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
    def test_values_keyed_by_mask_order(self, data, frac, seed):
        w = IndexWindow(-10, 10)
        listed = data.draw(st.lists(st.integers(-10, 10), min_size=1, max_size=12, unique=True))
        shuffled = data.draw(st.permutations(listed))
        s = Series(window=w, values=np.random.default_rng(seed).standard_normal(21))
        want, got = (outcome(RecoveryProblem(series=s, mask=make_mask(w, order),
                                             omega=BandLimit.from_pi_fraction(frac)))
                     for order in (listed, shuffled))
        if isinstance(want, tuple):
            assert got == want
            return
        assert list(want.values.keys()) == sorted(listed)
        assert list(got.values.items()) == list(want.values.items())
        vector = got.vector()  # the solve's vector, copied, in the same order as the values
        assert np.array_equal(vector, got.solve_report.y) and vector is not got.solve_report.y
        assert vector.tolist() == list(got.values.values())


class TestRecover2D:
    def test_zero_field(self):
        w = IndexWindow((-5, -5), (5, 5))
        mask = make_mask(w, [(0, 0), (0, 1)])
        sol = recover(RecoveryProblem(series=Series.zeros(w), mask=mask,
                                      omega=BandLimit.from_pi_fraction((0.25, 0.25))))
        assert all(v == 0.0 for v in sol.values.values())

    def test_single_row_collapses_to_1d(self):
        rng = np.random.default_rng(8)
        vals = rng.standard_normal(401)
        w2 = IndexWindow((-200, 0), (200, 0))
        s2 = Series(window=w2, values=vals.reshape(401, 1))
        mask2 = make_mask(w2, [(0, 0)])
        sol2 = recover(RecoveryProblem(series=s2, mask=mask2,
                                       omega=BandLimit.from_pi_fraction((0.25, 0.4)), rho=0.0))
        s1 = Series(window=IndexWindow(-200, 200), values=vals)
        expected = recover_single_value(s1, 0, BandLimit.from_pi_fraction(0.25))
        assert sol2.values[(0, 0)] == pytest.approx(expected, abs=1e-10)

    def test_single_column_collapses_to_1d(self):
        rng = np.random.default_rng(9)
        vals = rng.standard_normal(101)
        w2 = IndexWindow((3, -50), (3, 50))
        s2 = Series(window=w2, values=vals.reshape(1, 101))
        mask2 = make_mask(w2, [(3, 7)])
        sol2 = recover(RecoveryProblem(series=s2, mask=mask2,
                                       omega=BandLimit.from_pi_fraction((0.7, 0.25)), rho=0.0))
        s1 = Series(window=IndexWindow(-50, 50), values=vals)
        expected = recover_single_value(s1, 7, BandLimit.from_pi_fraction(0.25))
        assert sol2.values[(3, 7)] == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("lo, hi, gap", [((3, -20), (3, 20), (3, 2)), ((-20, 3), (20, 3), (2, 3))],
                             ids=["one-row", "one-column"])
    def test_one_line_grid_needs_two_bands(self, lo, hi, gap):
        w = IndexWindow(lo, hi)
        problem = RecoveryProblem(series=Series.zeros(w), mask=make_mask(w, [gap]),
                                  omega=BandLimit.from_pi_fraction(0.5))
        with pytest.raises(ParameterError, match="dimensionality"):
            recover(problem)

    def test_separable_field_block_recovery(self):
        frac1, frac2 = 0.2, 0.2
        half = 200
        rows = np.arange(-half, half + 1)
        h1 = kernel_profile(frac1 * math.pi, rows)
        h2 = kernel_profile(frac2 * math.pi, rows)
        field = np.outer(h1, h2)
        w = IndexWindow((-half, -half), (half, half))
        s = Series(window=w, values=field)
        block = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
        mask = make_mask(w, block)
        sol = recover(RecoveryProblem(series=s, mask=mask,
                                      omega=BandLimit.from_pi_fraction((0.25, 0.25)), rho=0.0))
        truth = {(i, j): h1[half + i] * h2[half + j] for i, j in block}
        worst = max(abs(sol.values[t] - truth[t]) for t in block) / max(abs(v) for v in truth.values())
        assert worst <= 1e-2

    def test_dimension_mismatches_rejected(self):
        w2 = IndexWindow((-5, -5), (5, 5))
        s2 = Series.zeros(w2)
        mask2 = make_mask(w2, [(0, 0)])
        with pytest.raises(Exception):
            recover(RecoveryProblem(series=s2, mask=mask2, omega=BandLimit.from_pi_fraction(0.25)))
        s1 = Series.zeros(IndexWindow(-5, 5))
        with pytest.raises(ParameterError):
            recover(RecoveryProblem(series=s1, mask=make_mask(IndexWindow(-5, 5), [0]),
                                    omega=BandLimit.from_pi_fraction((0.25, 0.25))))


@st.composite
def one_line_problems(draw):
    """A 1D problem and the same samples on a single-row or single-column 2D window."""
    n = draw(st.integers(2, 60))
    lo, other = draw(st.integers(-30, 30)), draw(st.integers(-30, 30))
    offsets = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 15)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(n)
    frac, frac_other = draw(st.floats(0.01, 0.99)), draw(st.floats(0.01, 0.99))
    rho = draw(st.sampled_from([None, 0.0, 1e-3]))
    window = IndexWindow(lo, lo + n - 1)
    line = RecoveryProblem(series=Series(window=window, values=values),
                           mask=make_mask(window, [lo + k for k in offsets]),
                           omega=BandLimit.from_pi_fraction(frac), rho=rho)
    if draw(st.booleans()):  # single row: the first axis is degenerate
        grid = IndexWindow((other, lo), (other, lo + n - 1))
        missing = [(other, lo + k) for k in offsets]
        fracs, shape = (frac_other, frac), (1, n)
    else:
        grid = IndexWindow((lo, other), (lo + n - 1, other))
        missing = [(lo + k, other) for k in offsets]
        fracs, shape = (frac, frac_other), (n, 1)
    flat = RecoveryProblem(series=Series(window=grid, values=values.reshape(shape)),
                           mask=make_mask(grid, missing),
                           omega=BandLimit.from_pi_fraction(fracs), rho=rho)
    return line, flat


def outcome(problem):
    try:
        return recover(problem)
    except BandgapError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(one_line_problems())
def test_single_row_or_column_recovery_equals_1d(problems):
    line, flat = problems
    want, got = outcome(line), outcome(flat)
    if isinstance(want, tuple):
        assert got == want
        return
    assert list(got.values) == list(flat.mask.missing)
    assert np.max(np.abs(got.vector() - want.vector())) <= 1e-12
    assert got.warnings == want.warnings


def test_single_value_recovery_refuses_a_2d_series():
    series = Series(window=IndexWindow((0, 0), (4, 4)), values=np.ones((5, 5)))
    with pytest.raises(GeometryError, match="^single-value recovery is a 1D operation$"):
        recover_single_value(series, 2, BandLimit(0.5))
