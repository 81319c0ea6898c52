"""One Lanczos margin per gap matrix, and one Cholesky factor per rho, reused by every caller.

`np.linalg.eigvalsh`, the blocked Cholesky factorization and the Lanczos
margin are wrapped in counters so each test can state how many
decompositions a call makes: the recovery path reads its margin from the
rho = 0 factor and runs no `eigvalsh`.
Every reused result is compared bit for bit with one computed afresh.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandgap import (
    BandLimit,
    GapOperator,
    GeometryError,
    IndexWindow,
    ParameterError,
    RecoveryProblem,
    Series,
    SolverError,
    assemble_operator,
    assemble_rhs,
    diagnostics,
    dummy_sensitivity,
    eigenvalues,
    forecast,
    make_mask,
    recover,
)
from bandgap import operators, recovery
from bandgap.cli import main
from bandgap.lab import ExperimentConfig, run_experiment
from bandgap.operators import CONDITION_WARN_THRESHOLD, MAX_MISSING
from bandgap.recovery import HALFLINE_WARNING, prepare
from bandgap.solvers import error_bound, solve_direct
from oracles import solve_neumann

OMEGA = BandLimit.from_pi_fraction(0.25)
EIGVALSH = np.linalg.eigvalsh
FACTOR = operators._blocked_cholesky
LANCZOS = operators._lanczos_margin


@pytest.fixture
def counts(monkeypatch):
    """Number of eigvalsh calls, Cholesky factorizations and Lanczos margins made since the test started."""
    calls = {"eigvalsh": 0, "factor": 0, "lanczos": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", EIGVALSH))
    monkeypatch.setattr(operators, "_blocked_cholesky", counting("factor", FACTOR))
    monkeypatch.setattr(operators, "_lanczos_margin", counting("lanczos", LANCZOS))
    return calls


def random_problem(seed, window=IndexWindow(-60, 60), missing=range(1, 13), rho=0.0):
    values = np.random.default_rng(seed).standard_normal(window.shape)
    return RecoveryProblem(series=Series(window=window, values=values),
                           mask=make_mask(window, missing), omega=OMEGA, rho=rho)


def fresh_solve(problem, omega=OMEGA):
    """The recovery equation solved from a newly assembled operator (test-side reference)."""
    op = assemble_operator(problem.mask, omega)
    return solve_direct(op, problem.rho, assemble_rhs(problem.series, problem.mask, omega)).y


class TestSpectrumCount:
    def test_one_per_recover_1d(self, counts):
        problem = random_problem(1)
        solution = recover(problem)
        assert counts == {"eigvalsh": 0, "factor": 1, "lanczos": 1}
        assert np.array_equal(solution.vector(), fresh_solve(problem))

    def test_one_per_recover_2d(self, counts):
        window = IndexWindow((0, 0), (11, 11))
        missing = [(r, c) for r in range(4, 7) for c in range(3, 8)]
        problem = RecoveryProblem(
            series=Series(window=window, values=np.random.default_rng(2).standard_normal((12, 12))),
            mask=make_mask(window, missing), omega=BandLimit.from_pi_fraction((0.25, 0.4)), rho=0.0)
        solution = recover(problem)
        assert counts == {"eigvalsh": 0, "factor": 1, "lanczos": 1}
        assert np.array_equal(solution.vector(), fresh_solve(problem, problem.omega))

    def test_one_per_recover_on_a_single_row(self, counts):
        window = IndexWindow((3, -20), (3, 20))
        problem = RecoveryProblem(
            series=Series(window=window, values=np.random.default_rng(3).standard_normal((1, 41))),
            mask=make_mask(window, [(3, 0), (3, 1), (3, 5)]),
            omega=BandLimit.from_pi_fraction((0.5, 0.25)), rho=0.0)
        recover(problem)
        assert counts == {"eigvalsh": 0, "factor": 1, "lanczos": 1}

    def test_one_per_prepare_across_series(self, counts):
        problems = [random_problem(seed) for seed in (13, 14, 15)]
        solve = prepare(problems[0].mask, OMEGA, 0.0)
        solutions = [solve(problem.series) for problem in problems]
        assert counts == {"eigvalsh": 0, "factor": 1, "lanczos": 1}
        for problem, solution in zip(problems, solutions):
            assert np.array_equal(solution.vector(), fresh_solve(problem))

    def test_series_on_another_window_is_geometry_error(self):
        solve = prepare(random_problem(16).mask, OMEGA, 0.0)
        other = random_problem(17, window=IndexWindow(-61, 60)).series
        with pytest.raises(GeometryError, match="different windows"):
            solve(other)

    def test_right_hand_sides_share_spectrum_and_factor(self, counts):
        problem = random_problem(4)
        op = assemble_operator(problem.mask, OMEGA)
        margin = diagnostics(op).margin
        assert counts == {"eigvalsh": 0, "factor": 1, "lanczos": 1}
        rhs = assemble_rhs(problem.series, problem.mask, OMEGA)
        first = solve_direct(op, 0.0, rhs)
        second = solve_direct(op, 0.0, 2.0 * rhs)
        bound = error_bound(op, 0.0, 1.0)
        assert counts == {"eigvalsh": 0, "factor": 1, "lanczos": 1}
        factor = operators.factor(op, 0.0)
        solve_neumann(op, 0.1, rhs)
        solve_neumann(op, 0.1, 2.0 * rhs)
        assert counts == {"eigvalsh": 0, "factor": 1, "lanczos": 1}  # a record at rho factors nothing
        solve_direct(op, 0.1, rhs)
        assert counts == {"eigvalsh": 0, "factor": 2, "lanczos": 1}  # one factor per rho
        assert list(op._held) == [0.1] and op._held[0.1] is not factor  # the rho = 0 factor is released
        assert op._margin == [margin]  # and the margin stays
        solve_direct(op, 0.1, rhs)
        assert counts == {"eigvalsh": 0, "factor": 2, "lanczos": 1}  # a repeated rho factors nothing
        assert bound == 1.0 / margin
        assert np.array_equal(first.y, fresh_solve(problem))
        assert np.array_equal(second.y, 2.0 * first.y)

    def test_one_margin_per_operator_across_rho(self, counts):
        """The margin at rho is rho plus the one read at rho = 0; the operator holds one factor at a time."""
        problem = random_problem(5)
        op = assemble_operator(problem.mask, OMEGA)
        rhs = assemble_rhs(problem.series, problem.mask, OMEGA)
        reports = [solve_direct(op, rho, rhs) for rho in (0.0, 1e-4, 0.1)]
        assert counts == {"eigvalsh": 0, "factor": 3, "lanczos": 1}
        assert list(op._held) == [0.1]
        margin = diagnostics(op).margin
        for rho, report in zip((0.0, 1e-4, 0.1), reports):
            assert report.norm_bound == 1.0 / diagnostics(op, rho).margin == 1.0 / (margin + rho)
        assert counts == {"eigvalsh": 0, "factor": 3, "lanczos": 1}

    def test_record_at_a_new_rho_is_worked_out_from_the_margin(self, counts):
        op = assemble_operator(random_problem(18).mask, OMEGA)
        margin = diagnostics(op).margin
        assert counts == {"eigvalsh": 0, "factor": 1, "lanczos": 1}
        diag = diagnostics(op, 0.1)
        bound = error_bound(op, 0.1, 1.0)
        assert counts == {"eigvalsh": 0, "factor": 1, "lanczos": 1}  # no factor and no Lanczos run at 0.1
        assert diag == operators._diagnostics(margin, 0.1, op.size)  # at rho = 0 the margin is 1 - ||A||
        assert bound == 1.0 / diag.margin

    def test_one_per_gap_in_dummy_sensitivity(self, counts):
        rng = np.random.default_rng(6)
        past = Series(window=IndexWindow(-60, 0), values=rng.standard_normal(61))
        dummies = [Series(window=IndexWindow(1, 60), values=rng.standard_normal(60))
                   for _ in range(4)]
        gaps = [4, 8, 12]
        report = dummy_sensitivity(past, 3, dummies, gaps, OMEGA)
        assert counts == {"eigvalsh": 0, "factor": len(gaps), "lanczos": len(gaps)}
        for m, distance in zip(gaps, report.distances):
            tail = IndexWindow(m + 1, 60)
            one_by_one = [forecast(past, 3, m, OMEGA, dummy=Series(window=tail, values=d.values[m:])).values
                          for d in dummies]
            expected = max(float(np.linalg.norm(a - b))
                           for i, a in enumerate(one_by_one) for b in one_by_one[i + 1:])
            assert distance == expected

    def test_one_per_lab_sweep_value(self, counts):
        config = ExperimentConfig(sweep="noise", values=(0.0, 0.1), seeds=(3, 4), omega=0.25 * np.pi,
                                  synth_band=0.2 * np.pi, missing="1..5", window=60, rho=0.0)
        report = run_experiment(config)
        assert counts == {"eigvalsh": 0, "factor": 2, "lanczos": 2}
        assert len(report["rows"]) == 4
        op = assemble_operator(make_mask(IndexWindow(-60, 60), range(1, 6)), OMEGA)
        for row in report["rows"]:
            assert row["perturbation_bound"] == error_bound(op, 0.0, row["eta_norm"])

    def test_one_per_cli_diagnose(self, counts, tmp_path):
        assert main(["diagnose", "--missing", "0..5", "--omega", "0.5",
                     "--output", str(tmp_path / "d.json")]) == 0
        assert counts == {"eigvalsh": 1, "factor": 1, "lanczos": 1}
        assert main(["diagnose", "--gap-sizes", "1..4", "--omega", "0.5",
                     "--output", str(tmp_path / "s.json")]) == 0
        assert counts == {"eigvalsh": 1, "factor": 1 + 4, "lanczos": 1 + 4}


FRACTIONS = st.floats(0.05, 0.95)
RHOS = st.sampled_from([0.0, 1e-4, 0.1])


@st.composite
def masks_1d(draw):
    window = IndexWindow(-100, 100)
    return make_mask(window, draw(st.sets(st.integers(-100, 100), min_size=1, max_size=80)))


@st.composite
def masks_2d(draw):
    """Scattered cells, or equal square blocks, whose spectra come in clusters."""
    side = draw(st.integers(1, 4))
    corners = st.tuples(st.integers(0, 39 - side), st.integers(0, 39 - side))
    missing = {(r + i, c + j) for r, c in draw(st.sets(corners, min_size=1, max_size=80 // side**2))
               for i in range(side) for j in range(side)}
    return make_mask(IndexWindow((0, 0), (39, 39)), missing)


class TestLanczosMargin:
    """The margin from the factor against the full spectrum, an independent oracle."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(masks_1d(), masks_2d()), FRACTIONS, FRACTIONS, RHOS)
    @example(make_mask(IndexWindow((0, 0), (39, 39)), [(r, c) for r in range(4) for c in range(6)]),
             0.125, 0.9375, 0.0)  # a tolerance of 1e-10 misses ||A|| here by 3e-11
    def test_norm_matches_eigvalsh_above_the_floor(self, mask, frac, frac2, rho):
        omega = BandLimit.from_pi_fraction(frac if mask.window.ndim == 1 else (frac, frac2))
        op = assemble_operator(mask, omega)
        top = float(EIGVALSH(op.matrix)[-1])
        diag = diagnostics(op, rho)
        assert diag.min_eig_I_minus_A >= 0.0
        if 1.0 + rho - top > op.size * np.finfo(np.float64).eps * (1.0 + rho):
            assert abs(diag.spectral_norm - top) <= 1e-13

    def test_norm_misses_a_tight_top_pair_at_positive_rho(self):
        """A draw of the property above (about 1 in 10^4 of its operators) whose top pair of A lies 1.27e-13 apart.

        Read at rho = 0.1, where the pair is a tight cluster of S^-1 near 10,
        ||A|| missed eigvalsh by 1.27e-13; read at rho = 0 it does not.
        """
        missing = [-98, -97, -93, -88, -86, -84, -81, -80, -79, -78, -75, -68, -67, -64, -61, -54, -53, -51, -50,
                   -49, -46, -44, -30, -23, -16, -12, -4, -3, 2, 4, 6, 8, 14, 17, 18, 23, 28, 36, 37, 38, 41, 49,
                   52, 53, 56, 57, 64, 66, 71, 74, 80, 82, 83, 84, 86, 95, 100]
        op = assemble_operator(make_mask(IndexWindow(-100, 100), missing), BandLimit.from_pi_fraction(0.767))
        top = float(EIGVALSH(op.matrix)[-1])
        assert 1.1 - top > op.size * np.finfo(np.float64).eps * 1.1  # above the floor
        assert abs(diagnostics(op, 0.1).spectral_norm - top) <= 1e-13

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.sets(st.integers(-100, 100), min_size=1, max_size=60),
                     st.integers(-100, 100).flatmap(lambda a: st.integers(a, min(a + 59, 100)).map(
                         lambda b: range(a, b + 1)))),
           st.floats(0.05, 0.95, exclude_min=True, exclude_max=True))
    def test_margin_is_the_bottom_of_the_complementary_band(self, missing, frac):
        """I - A_w = D A_(pi-w) D, so the margin at rho=0 is lambda_min(A_(pi-w)): by eigvalsh and, for a run, by dpss.

        A run of N indices makes A_(pi-w) the prolate matrix of half-bandwidth
        W = (pi-w)/2pi, whose eigenvalues are the concentration ratios of the
        N Slepian sequences of order NW (Slepian 1978); scipy computes them
        from the sequences, not from a matrix.  Its dpss fails for N = 2.
        """
        from scipy.signal.windows import dpss

        eps, omega = np.finfo(np.float64).eps, frac * np.pi
        mask = make_mask(IndexWindow(-100, 100), missing)
        op, complement = (assemble_operator(mask, BandLimit(w)) for w in (omega, np.pi - omega))
        signs = 1.0 - 2.0 * (np.array(mask.missing) % 2)
        flipped = signs[:, None] * complement.matrix * signs[None, :]
        assert np.max(np.abs(np.eye(op.size) - op.matrix - flipped)) <= 4 * eps
        margin, m = diagnostics(op).margin, op.size
        references = [float(EIGVALSH(complement.matrix)[0])]
        if m >= 3 and mask.offsets[-1, 0] - mask.offsets[0, 0] == m - 1:
            ratios = dpss(m, m * (np.pi - omega) / (2 * np.pi), m, return_ratios=True)[1]
            references += [float(ratios.min())] if ratios.min() > 1e-10 else []
        for reference in references:  # the floor m eps zeroes a margin, one near it on either side
            if margin or reference > 2 * m * eps:
                assert abs(margin - reference) <= max(m * eps, 1e-13 * margin)

    def test_norm_at_benchmark_scale(self, monkeypatch):
        """16 blocks of 8 x 8 in a 256^2 window (|M| = 1,024), whose top eigenvalues nearly coincide."""
        rng = np.random.default_rng(8)
        cells = rng.choice(14 * 14, size=16, replace=False)
        missing = [(16 * (1 + c // 14) + r0 + i, 16 * (1 + c % 14) + c0 + j)
                   for c, r0, c0 in zip(cells, rng.integers(0, 9, 16), rng.integers(0, 9, 16))
                   for i in range(8) for j in range(8)]
        op = assemble_operator(make_mask(IndexWindow((0, 0), (255, 255)), missing),
                               BandLimit.from_pi_fraction((0.25, 0.4)))
        solves = []
        solve = operators.CholeskyFactor.solve
        monkeypatch.setattr(operators.CholeskyFactor, "solve",
                            lambda factor, b: solves.append(1) or solve(factor, b))
        diag = diagnostics(op, 1e-4)
        assert op.size == 1024
        assert abs(diag.spectral_norm - float(EIGVALSH(op.matrix)[-1])) <= 1e-13
        assert len(solves) <= 36  # one per Lanczos step; the residual stop takes 36 here


class TestStoredMargin:
    """Every bound reads the margin that `diagnostics` stored, and the gate refuses what has none."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(masks_1d(), masks_2d()), FRACTIONS, FRACTIONS, RHOS, st.floats(0.0, 10.0))
    def test_bounds_are_the_stored_margin(self, mask, frac, frac2, rho, eta):
        omega = BandLimit.from_pi_fraction(frac if mask.window.ndim == 1 else (frac, frac2))
        op, rhs = assemble_operator(mask, omega), np.ones(mask.n_missing)
        diag = diagnostics(op, rho)
        floor = op.size * np.finfo(np.float64).eps * (1.0 + rho)
        below = op._margin[0] == 0.0
        if below:  # 1 - ||A|| below working precision: ||A|| is reported as 1
            assert (diag.spectral_norm, diag.min_eig_I_minus_A) == (1.0, 0.0)
        else:
            assert diag.spectral_norm == 1.0 - op._margin[0]
        # the record holds every verdict on the margin: precision first, then ill-conditioning
        ill = 0.0 < diag.margin < CONDITION_WARN_THRESHOLD
        assert [("below working precision" in w, "ill-conditioned" in w) for w in diag.warnings] == (
            [(True, False)] * below + [(False, True)] * ill)
        if diag.margin == 0.0:
            for bound in (lambda: solve_direct(op, rho, rhs), lambda: error_bound(op, rho, eta)):
                with pytest.raises(SolverError, match="singular"):
                    bound()
        else:
            assert diag.margin > floor
            report = solve_direct(op, rho, rhs)
            assert report.norm_bound == 1.0 / diag.margin
            solution = prepare(mask, omega, rho)(Series.zeros(mask.window))
            assert solution.warnings in (diag.warnings, (HALFLINE_WARNING,) + diag.warnings)
            assert error_bound(op, rho, eta) == eta / diag.margin

    @pytest.mark.parametrize("mask, omega", [
        (make_mask(IndexWindow(-20, 20), range(1, 3)), OMEGA),
        (make_mask(IndexWindow((0, 0), (9, 9)), [(4, 4), (4, 5), (5, 4)]), BandLimit.from_pi_fraction((0.25, 0.4))),
    ])
    def test_rho_moves_the_margin_only(self, mask, omega):
        """||A|| does not depend on rho: only the margin 1 + rho - ||A|| moves, however large rho is."""
        op = assemble_operator(mask, omega)
        at_zero = diagnostics(op)
        assert at_zero.margin > CONDITION_WARN_THRESHOLD and at_zero.warnings == ()
        for rho in (0.1, 1e6, 1e16):
            diag = diagnostics(op, rho)
            assert (diag.spectral_norm, diag.min_eig_I_minus_A) == (at_zero.spectral_norm,
                                                                   at_zero.min_eig_I_minus_A)
            assert diag.warnings == ()
            assert diag.margin == at_zero.margin + rho

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_rho_or_perturbation_that_is_not_finite_and_nonnegative_is_refused(self, value, monkeypatch):
        op = assemble_operator(random_problem(1).mask, OMEGA)
        assembled = []
        monkeypatch.setattr(recovery, "assemble_operator", lambda *args: assembled.append(args))
        for call in (lambda: diagnostics(op, value), lambda: error_bound(op, value, 1.0),
                     lambda: error_bound(op, 0.0, value), lambda: recover(random_problem(1, rho=value))):
            with pytest.raises(ParameterError, match="finite nonnegative"):
                call()
        assert not op._margin and not op._held  # a refused call leaves no margin and no factor
        assert not assembled  # recover refuses the rho before it assembles anything

    def test_factor_that_fails_at_positive_rho_is_refused_by_the_solve(self, monkeypatch):
        calls = []

        def failing_second(system):
            calls.append(None)
            return None if len(calls) == 2 else FACTOR(system)

        monkeypatch.setattr(operators, "_blocked_cholesky", failing_second)
        problem = random_problem(19)
        op = assemble_operator(problem.mask, OMEGA)
        assert diagnostics(op, 0.1).margin > 0.0
        with pytest.raises(SolverError, match="singular"):
            solve_direct(op, 0.1, assemble_rhs(problem.series, problem.mask, OMEGA))
        assert len(calls) == 2

    def test_non_finite_entry_above_the_diagonal_is_refused(self):
        # the factor reads only the lower triangle, so without the check the margin is 0.9
        matrix = 0.1 * np.eye(3)
        matrix[0, 2] = np.nan
        with pytest.raises(SolverError, match="non-finite"):
            GapOperator(matrix=matrix)


class TestCachedResults:
    def test_spectrum_is_bit_identical(self):
        op = assemble_operator(make_mask(IndexWindow(-30, 30), [-7, 0, 1, 2, 9, 20]), OMEGA)
        assert np.array_equal(eigenvalues(op), EIGVALSH(op.matrix))

    def test_matrix_is_read_only(self):
        op = assemble_operator(make_mask(IndexWindow(-5, 5), [0, 1]), OMEGA)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 0.5

    def test_prepare_matches_recover(self):
        problems = [random_problem(seed) for seed in (7, 8, 9)]
        solve = prepare(problems[0].mask, OMEGA, 0.0)
        for problem in problems:
            together, alone = solve(problem.series), recover(problem)
            assert together.values == alone.values
            assert together.solve_report.residual == alone.solve_report.residual
            assert together.operator_diagnostics == alone.operator_diagnostics


@st.composite
def masks_at_the_tile_edge(draw):
    """1D or 2D masks of scattered samples whose |M| lies on either side of the 128-entry tile."""
    size = draw(st.sampled_from([1, 127, 128, 129, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return make_mask(IndexWindow(-400, 400), rng.choice(np.arange(-400, 401), size, replace=False))
    cells = rng.choice(40 * 40, size, replace=False)
    return make_mask(IndexWindow((0, 0), (39, 39)), np.stack([cells // 40, cells % 40], axis=1))


def symmetric_matrix(size=300):
    matrix = np.random.default_rng(size).standard_normal((size, size))
    return matrix + matrix.T


class TestGapMatrixContract:
    """A gap operator is made only from a square, finite matrix that equals its transpose exactly."""

    @settings(max_examples=40, deadline=None)
    @given(masks_at_the_tile_edge(), FRACTIONS, FRACTIONS)
    def test_every_assembled_matrix_is_accepted_and_symmetric(self, mask, frac, frac2):
        omega = BandLimit.from_pi_fraction(frac if mask.window.ndim == 1 else (frac, frac2))
        op = assemble_operator(mask, omega)
        assert op.size == mask.n_missing
        assert np.array_equal(op.matrix, op.matrix.T)

    @pytest.mark.parametrize("entry", [(3, 200), (200, 3), (290, 270)],
                             ids=["above", "below", "last-partial-tile"])
    def test_one_ulp_off_the_transpose_is_refused(self, entry):
        matrix = symmetric_matrix()
        matrix[entry] = np.nextafter(matrix[entry], np.inf)
        with pytest.raises(SolverError, match="gap matrix is not symmetric"):
            GapOperator(matrix=matrix)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entries", [[(3, 200)], [(200, 3)], [(3, 200), (200, 3)], [(290, 290)]],
                             ids=["above", "below", "both-sides", "diagonal"])
    def test_non_finite_entry_is_refused(self, value, entries):
        matrix = symmetric_matrix()
        for entry in entries:
            matrix[entry] = value
        with pytest.raises(SolverError, match="non-finite entries in the gap matrix"):
            GapOperator(matrix=matrix)

    def test_non_finite_is_named_before_asymmetry(self):
        matrix = symmetric_matrix()
        matrix[3, 200] = np.nextafter(matrix[3, 200], np.inf)
        matrix[290, 270] = np.nan
        with pytest.raises(SolverError, match="non-finite"):
            GapOperator(matrix=matrix)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (3,), ()], ids=["wide", "tall", "vector", "scalar"])
    def test_non_square_array_is_refused(self, shape):
        with pytest.raises(SolverError, match="not square"):
            GapOperator(matrix=np.zeros(shape))


class TestZeroObservations:
    def test_singular_system_is_an_error_as_with_data(self):
        window = IndexWindow(-200, 200)
        zero = RecoveryProblem(series=Series.zeros(window), mask=make_mask(window, range(1, 26)),
                               omega=BandLimit.from_pi_fraction(0.5), rho=0.0)
        with pytest.raises(SolverError, match="singular"):
            recover(zero)
        values = np.zeros(window.size)
        values[0] = 1.0
        with pytest.raises(SolverError, match="singular"):
            recover(RecoveryProblem(series=Series(window=window, values=values),
                                    mask=zero.mask, omega=zero.omega, rho=0.0))
        default = recover(RecoveryProblem(series=zero.series, mask=zero.mask, omega=zero.omega))
        assert any("below working precision" in w for w in default.warnings)

    def test_ill_conditioning_warns_as_with_data(self):
        window = IndexWindow(-200, 200)
        mask = make_mask(window, range(1, 15))
        omega = BandLimit.from_pi_fraction(0.5)
        zero = recover(RecoveryProblem(series=Series.zeros(window), mask=mask, omega=omega, rho=0.0))
        assert list(zero.values.values()) == [0.0] * 14
        assert zero.solve_report.residual == 0.0
        assert any("ill-conditioned" in w for w in zero.warnings)
        assert zero.solve_report.norm_bound > 0

    def test_cli_exits_with_solver_error(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("t,value\n" + "".join(f"{t},0\n" for t in range(-200, 201)
                                              if not 1 <= t <= 25))
        argv = ["recover", "--input", str(path), "--missing", "1..25", "--omega", "0.5"]
        assert main([*argv, "--rho", "0"]) == 4
        assert main([*argv, "--output", str(tmp_path / "zero.json")]) == 0
        warnings = json.loads((tmp_path / "zero.json").read_text())["warnings"]
        assert any("below working precision" in w for w in warnings)


class TestMissingSetCap:
    def test_library_call_is_geometry_error_before_allocation(self):
        window = IndexWindow(0, 2 * MAX_MISSING)
        problem = RecoveryProblem(series=Series.zeros(window),
                                  mask=make_mask(window, range(1, MAX_MISSING + 2)), omega=OMEGA)
        tracemalloc.start()
        try:
            with pytest.raises(GeometryError, match=str(MAX_MISSING)):
                recover(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # the gap matrix alone would take 128 MiB

    def test_cli_file_with_far_apart_rows_is_geometry_error(self, tmp_path):
        path = tmp_path / "far.csv"
        path.write_text("t,value\n0,1.0\n10000,2.0\n")
        tracemalloc.start()
        try:
            code = main(["recover", "--input", str(path), "--missing", "5", "--omega", "0.25"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 16 * 2**20  # 9,999 missing samples: a dense A would take 763 MiB
