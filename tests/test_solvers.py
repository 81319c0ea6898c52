"""Direct vs iterative solves, perturbation bounds, and solution-map properties."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bandgap import (
    BandLimit,
    GapOperator,
    GeometryError,
    IndexWindow,
    ParameterError,
    Series,
    SolverError,
    assemble_operator,
    assemble_rhs,
    diagnostics,
    error_bound,
    make_mask,
    solve_direct,
)
from bandgap.operators import CONDITION_WARN_THRESHOLD
from oracles import NonConvergenceError, SolverConfig, solve_neumann


def gap_operator(missing, frac, window=(-30, 30)):
    return assemble_operator(make_mask(IndexWindow(*window), missing), BandLimit.from_pi_fraction(frac))


def inv3_adjugate(k: np.ndarray) -> np.ndarray:
    """Independent 3x3 inverse via the adjugate formula."""
    det = (
        k[0, 0] * (k[1, 1] * k[2, 2] - k[1, 2] * k[2, 1])
        - k[0, 1] * (k[1, 0] * k[2, 2] - k[1, 2] * k[2, 0])
        + k[0, 2] * (k[1, 0] * k[2, 1] - k[1, 1] * k[2, 0])
    )
    cof = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(k, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * (minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0])
    return cof.T / det


class TestDirect:
    def test_singleton_closed_form(self):
        # 1x1 algebra: y = a / (1 - omega/pi) = pi*a/(pi - omega)
        a = 0.37
        report = solve_direct(gap_operator([4], 0.25), 0.0, [a])
        assert report.y[0] == pytest.approx(math.pi * a / (math.pi - 0.25 * math.pi), rel=1e-14)

    @pytest.mark.parametrize("rho", [0.0, 0.1, 2.0])
    def test_zero_rhs(self, rho):
        report = solve_direct(gap_operator([0, 1, 2], 0.4), rho, np.zeros(3))
        assert not np.any(report.y)
        assert report.residual == 0.0

    def test_three_gap_against_adjugate_inverse(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal(3)
        op = gap_operator([0, 1, 2], 0.5)
        report = solve_direct(op, 0.0, a)
        expected = inv3_adjugate(np.eye(3) - op.matrix) @ a
        assert np.max(np.abs(report.y - expected)) <= 1e-13

    def test_residual_contract(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.standard_normal(12)
            report = solve_direct(gap_operator(list(range(1, 13)), 0.25), 0.0, a)
            assert report.residual <= 1e-8 * max(1.0, float(np.linalg.norm(a)))

    def test_norm_estimate(self):
        rng = np.random.default_rng(8)
        for rho in [0.0, 0.05, 1.0]:
            a = rng.standard_normal(8)
            report = solve_direct(gap_operator(list(range(0, 8)), 0.6), rho, a)
            assert np.linalg.norm(report.y) <= report.norm_bound * np.linalg.norm(a) * (1 + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(missing=st.sets(st.integers(-30, 30), min_size=1, max_size=12), frac=st.floats(0.05, 0.95),
           rho=st.sampled_from([0.0, 0.01, 0.5]), scale=st.floats(-10.0, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_linearity(self, missing, frac, rho, scale, seed):
        op = gap_operator(sorted(missing), frac)
        assume(diagnostics(op, rho).margin >= 0.05)
        rng = np.random.default_rng(seed)
        a1, a2 = rng.standard_normal(op.size), rng.standard_normal(op.size)
        y1 = solve_direct(op, rho, a1).y
        y2 = solve_direct(op, rho, a2).y
        y12 = solve_direct(op, rho, a1 + a2).y
        yc = solve_direct(op, rho, scale * a1).y
        assert np.max(np.abs(y12 - (y1 + y2))) <= 1e-10
        assert np.max(np.abs(yc - scale * y1)) <= 1e-10

    def test_monotone_damping_in_rho(self):
        rng = np.random.default_rng(77)
        a = rng.standard_normal(10)
        op = gap_operator(list(range(1, 11)), 0.25)
        norms = [np.linalg.norm(solve_direct(op, rho, a).y) for rho in [0.0, 0.01, 0.1, 1.0, 10.0]]
        assert all(x >= y - 1e-12 for x, y in zip(norms, norms[1:]))

    def test_conditioning_warning(self):
        # a contiguous gap of 20 at half band: 0 < 1 - ||A|| < 1e-8
        op = gap_operator(list(range(1, 21)), 0.5)
        report = solve_direct(op, 0.0, np.ones(20))
        assert any("ill-conditioned" in w for w in diagnostics(op, 0.0).warnings)
        assert np.isfinite(report.y).all()

    def test_nonfinite_rejected(self):
        with pytest.raises(SolverError):
            solve_direct(gap_operator([0], 0.25), 0.0, [np.nan])

    @pytest.mark.parametrize("length", [2, 4])
    def test_rhs_of_another_length_is_geometry_error(self, length):
        op = gap_operator([0, 1, 2], 0.25)
        for solve in (solve_direct, solve_neumann):
            with pytest.raises(GeometryError, match=rf"\({length},\) does not match operator size 3"):
                solve(op, 0.0, np.ones(length))

    def test_nonfinite_matrix_rejected(self):
        matrix = 0.1 * np.eye(3)
        matrix[0, 2] = np.nan
        with pytest.raises(SolverError, match="non-finite"):
            GapOperator(matrix=matrix)

    def test_nonfinite_residual_rejected(self):
        # finite system and solution, but the residual's norm overflows: no certificate
        with pytest.raises(SolverError, match="residual is not finite"):
            solve_direct(gap_operator([0, 1, 2], 0.25), 0.0, [1e200, -1e200, 1e200])

    def test_negative_rho_rejected(self):
        with pytest.raises(ParameterError):
            solve_direct(gap_operator([0], 0.25), -0.5, [1.0])


class TestNeumann:
    def test_zero_rhs_converges_immediately(self):
        report = solve_neumann(gap_operator([0, 1], 0.25), 0.0, np.zeros(2))
        assert report.iterations == 0
        assert not np.any(report.y)

    def test_scalar_geometric_series(self):
        a = 1.3
        report = solve_neumann(gap_operator([2], 0.25), 0.0, [a], config=SolverConfig(tol=1e-14))
        assert report.y[0] == pytest.approx(math.pi * a / (math.pi - 0.25 * math.pi), rel=1e-12)
        assert report.iterations > 0

    @pytest.mark.parametrize("rho", [0.0, 0.01])
    def test_matches_direct_on_default_geometry(self, rho):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(12)
        op = gap_operator(list(range(1, 13)), 0.25, window=(-60, 60))
        config = SolverConfig(tol=1e-12, max_iter=200_000)
        direct = solve_direct(op, rho, a)
        iterative = solve_neumann(op, rho, a, config)
        assert np.max(np.abs(direct.y - iterative.y)) <= 1e-10
        assert iterative.iterations < config.max_iter

    def test_non_convergence_carries_iterate(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(12)
        op = gap_operator(list(range(1, 13)), 0.25)
        with pytest.raises(NonConvergenceError) as err:
            solve_neumann(op, 0.0, a, config=SolverConfig(tol=1e-12, max_iter=5))
        assert err.value.iterations == 5
        assert err.value.iterate.shape == (12,)
        assert err.value.residual > 0


@settings(max_examples=80, deadline=None)
@given(missing=st.sets(st.integers(-40, 40), min_size=1, max_size=20),
       frac=st.floats(0.01, 0.99), rho=st.sampled_from([0.0, 0.01, 0.5]),
       seed=st.integers(0, 2**32 - 1))
def test_neumann_equals_direct_on_random_masks(missing, frac, rho, seed):
    a = np.random.default_rng(seed).standard_normal(len(missing))
    op = gap_operator(sorted(missing), frac, window=(-40, 40))
    assume(1.0 + rho - diagnostics(op).spectral_norm >= 0.05)
    iterative = solve_neumann(op, rho, a, SolverConfig(tol=1e-12))
    assert np.max(np.abs(iterative.y - solve_direct(op, rho, a).y)) <= 1e-10


class TestErrorBound:
    def test_zero_perturbation(self):
        op = gap_operator([0], 0.25)
        assert error_bound(op, rho=0.0, eta_norm=0.0) == 0.0

    def test_singleton_value(self):
        op = gap_operator([0], 0.25)
        assert error_bound(op, rho=0.0, eta_norm=1.0) == pytest.approx(4.0 / 3.0, rel=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(missing=st.sets(st.integers(-40, 40), min_size=1, max_size=12), frac=st.floats(0.05, 0.95),
           rho=st.sampled_from([0.0, 0.1]), sigma=st.floats(1e-3, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_monte_carlo_soundness(self, missing, frac, rho, sigma, seed):
        # below the ill-conditioning threshold, rounding in y could rival the bound itself
        w = IndexWindow(-40, 40)
        bl = BandLimit.from_pi_fraction(frac)
        mask = make_mask(w, missing)
        op = assemble_operator(mask, bl)
        assume(diagnostics(op, rho).margin >= CONDITION_WARN_THRESHOLD)
        rng = np.random.default_rng(seed)
        x = Series(window=w, values=rng.standard_normal(81))
        eta = rng.standard_normal(81) * sigma
        eta[np.subtract(mask.missing, w.lo)] = 0.0
        x_noisy = Series(window=w, values=x.values + eta)
        y = solve_direct(op, rho, assemble_rhs(x, mask, bl)).y
        y_eta = solve_direct(op, rho, assemble_rhs(x_noisy, mask, bl)).y
        bound = error_bound(op, rho, float(np.linalg.norm(eta)))
        assert np.linalg.norm(y - y_eta) < bound

    def test_bad_inputs(self):
        op = gap_operator([0], 0.25)
        with pytest.raises(ParameterError):
            error_bound(op, rho=0.0, eta_norm=-1.0)
        with pytest.raises(ParameterError):
            error_bound(op, rho=-1.0, eta_norm=1.0)

    def test_unavailable_when_norm_reaches_one(self):
        # assembled operators always have ||A|| < 1; a hand-built unit-norm
        # matrix exercises the guard
        op = GapOperator(matrix=np.eye(2))
        with pytest.raises(SolverError):
            error_bound(op, rho=0.0, eta_norm=1.0)
        with pytest.raises(SolverError):
            solve_neumann(op, 0.0, np.ones(2))
        assert error_bound(op, rho=0.5, eta_norm=1.0) == pytest.approx(2.0)


class TestSolverConfig:
    def test_validation(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["tol", "max_iter"]
        with pytest.raises(ParameterError):
            SolverConfig(tol=0.0)
        with pytest.raises(ParameterError):
            SolverConfig(max_iter=0)
