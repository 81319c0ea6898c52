"""Gap-operator assembly against hand-built matrices and independent eigen-oracles."""

import math

import numpy as np
import pytest

from bandgap import (
    BandLimit,
    GeometryError,
    IndexWindow,
    Series,
    assemble_operator,
    assemble_rhs,
    diagnostics,
    eigenvalues,
    make_mask,
)
from bandgap.kernel import kernel_profile


def sinc(x: float) -> float:
    return 1.0 if x == 0 else math.sin(x) / x


def example_matrix(omega: float) -> np.ndarray:
    """The contiguous three-gap matrix written out entry by entry."""
    s1, s2 = sinc(omega), sinc(2 * omega)
    return omega / math.pi * np.array([[1, s1, s2], [s1, 1, s1], [s2, s1, 1]])


class TestAssembleOperator:
    def test_singleton(self):
        op = assemble_operator(make_mask(IndexWindow(-60, 60), [0]), BandLimit.from_pi_fraction(0.25))
        assert op.matrix.shape == (1, 1)
        assert op.matrix[0, 0] == pytest.approx(0.25, abs=0)

    @pytest.mark.parametrize("frac", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_contiguous_three_gap(self, frac):
        omega = frac * math.pi
        op = assemble_operator(make_mask(IndexWindow(-5, 5), [0, 1, 2]), BandLimit(omega))
        assert np.max(np.abs(op.matrix - example_matrix(omega))) <= 1e-15

    def test_half_band_three_gap(self):
        op = assemble_operator(make_mask(IndexWindow(-5, 5), [0, 1, 2]), BandLimit.from_pi_fraction(0.5))
        expected = 0.5 * np.array([[1, 2 / math.pi, 0], [2 / math.pi, 1, 2 / math.pi], [0, 2 / math.pi, 1]])
        assert np.max(np.abs(op.matrix - expected)) <= 1e-15

    def test_exact_symmetry_and_toeplitz(self):
        rng = np.random.default_rng(42)
        m = np.sort(rng.choice(np.arange(-50, 51), size=12, replace=False))
        op = assemble_operator(make_mask(IndexWindow(-50, 50), m), BandLimit.from_pi_fraction(0.3))
        assert np.array_equal(op.matrix, op.matrix.T)
        # 2D, coordinates repeated along both axes, several blocks of rows:
        # entry for entry the product of h over each axis's lag
        cells = rng.choice(30 * 30, size=300, replace=False)
        mask_2d = make_mask(IndexWindow((0, 0), (29, 29)), [divmod(c, 30) for c in cells])
        op_2d = assemble_operator(mask_2d, BandLimit.from_pi_fraction((0.3, 0.7)))
        lags = np.abs(mask_2d.offsets[:, None, :] - mask_2d.offsets[None, :, :])
        direct = kernel_profile(0.3 * math.pi, lags[..., 0]) * kernel_profile(0.7 * math.pi, lags[..., 1])
        assert np.array_equal(op_2d.matrix, direct)
        assert np.array_equal(op_2d.matrix, op_2d.matrix.T)
        # contiguous gap: entries depend on i - j only, and match direct evaluation
        op2 = assemble_operator(make_mask(IndexWindow(-10, 10), range(-2, 4)), BandLimit.from_pi_fraction(0.3))
        w = 0.3 * math.pi
        for i in range(6):
            for j in range(6):
                direct = w / math.pi * sinc(w * (i - j))
                assert op2.matrix[i, j] == pytest.approx(direct, abs=1e-16)
                assert op2.matrix[i, j] == op2.matrix[abs(i - j), 0]

    def test_empty_gap_rejected(self):
        with pytest.raises(GeometryError):
            assemble_operator(make_mask(IndexWindow(0, 5), []), BandLimit.from_pi_fraction(0.25))

    def test_2d_diagonal(self):
        mask = make_mask(IndexWindow((-3, -3), (3, 3)), [(0, 0), (1, 2)])
        op = assemble_operator(mask, BandLimit.from_pi_fraction((0.25, 0.5)))
        assert op.matrix[0, 0] == pytest.approx(0.125, abs=1e-16)
        h1 = 0.25 * sinc(0.25 * math.pi * 1)
        h2 = 0.5 * sinc(0.5 * math.pi * 2)
        assert op.matrix[0, 1] == pytest.approx(h1 * h2, abs=1e-16)


class TestAssembleRhs:
    def test_zero_series(self):
        w = IndexWindow(-10, 10)
        mask = make_mask(w, [0, 3])
        rhs = assemble_rhs(Series.zeros(w), mask, BandLimit.from_pi_fraction(0.25))
        assert not np.any(rhs)

    def test_unit_impulse(self):
        w = IndexWindow(-10, 10)
        mask = make_mask(w, [0])
        s = Series(window=w, values=np.eye(21)[13])  # unit sample at t = 3
        rhs = assemble_rhs(s, mask, BandLimit.from_pi_fraction(0.25))
        expected = 0.25 * sinc(0.75 * math.pi)
        assert rhs[0] == pytest.approx(expected, abs=1e-15)
        assert rhs[0] == pytest.approx(0.0750263, abs=1e-6)

    def test_kernel_input_matches_identity(self):
        # Feeding the kernel itself (gap at 0) drives the rhs to
        # (pi - omega)/pi * h(0); brute-force summation over +-2000.
        w = IndexWindow(-2000, 2000)
        omega = 0.25 * math.pi
        ts = np.arange(-2000, 2001)
        s = Series(window=w, values=kernel_profile(omega, ts))
        mask = make_mask(w, [0])
        rhs = assemble_rhs(s, mask, BandLimit(omega))
        assert rhs[0] == pytest.approx((math.pi - omega) / math.pi * 0.25, abs=1e-3)
        assert rhs[0] == pytest.approx(0.1875, abs=1e-3)

    def test_missing_entries_ignored(self):
        w = IndexWindow(-5, 5)
        mask = make_mask(w, [1])
        base = Series(window=w, values=np.eye(11)[5])  # unit sample at t = 0
        poisoned = Series(window=w, values=base.values + 99.0 * np.eye(11)[6])  # 99 at t = 1
        bl = BandLimit.from_pi_fraction(0.25)
        assert np.array_equal(assemble_rhs(base, mask, bl), assemble_rhs(poisoned, mask, bl))

    def test_linear_in_series(self):
        w = IndexWindow(-20, 20)
        mask = make_mask(w, [0, 5])
        rng = np.random.default_rng(1)
        a = Series(window=w, values=rng.standard_normal(41))
        b = Series(window=w, values=rng.standard_normal(41))
        bl = BandLimit.from_pi_fraction(0.4)
        lhs = assemble_rhs(Series(window=w, values=2 * a.values + b.values), mask, bl)
        rhs = 2 * assemble_rhs(a, mask, bl) + assemble_rhs(b, mask, bl)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_rhs_norm_bounded_by_input_norm(self):
        rng = np.random.default_rng(9)
        w = IndexWindow(-40, 40)
        bl = BandLimit.from_pi_fraction(0.6)
        for _ in range(20):
            gaps = rng.choice(np.arange(-40, 41), size=6, replace=False)
            mask = make_mask(w, gaps)
            s = Series(window=w, values=rng.standard_normal(81))
            observed = [t for t in range(-40, 41) if t not in set(mask.missing)]
            x_norm = math.sqrt(sum(s.values[t + 40] ** 2 for t in observed))
            rhs = assemble_rhs(s, mask, bl)
            assert np.linalg.norm(rhs) <= x_norm + 1e-12

    def test_window_mismatch(self):
        s = Series.zeros(IndexWindow(-5, 5))
        mask = make_mask(IndexWindow(-6, 6), [0])
        with pytest.raises(GeometryError):
            assemble_rhs(s, mask, BandLimit.from_pi_fraction(0.25))


class TestDiagnostics:
    def test_singleton(self):
        op = assemble_operator(make_mask(IndexWindow(-1, 1), [0]), BandLimit.from_pi_fraction(0.25))
        diag = diagnostics(op)
        assert diag.spectral_norm == pytest.approx(0.25, abs=1e-15)
        assert diag.min_eig_I_minus_A == pytest.approx(0.75, abs=1e-15)
        assert np.array_equal(op.matrix, op.matrix.T)
        assert diag.size == 1

    def test_three_gap_against_char_poly(self):
        # Independent oracle: roots of the characteristic polynomial of the
        # 3x3 matrix, coefficients expanded by hand.
        omega = 0.5 * math.pi
        a = example_matrix(omega)
        trace = a[0, 0] + a[1, 1] + a[2, 2]
        minors = (
            a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
            + a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
        )
        det = (
            a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
        )
        roots = sorted(np.roots([1.0, -trace, minors, -det]).real)
        op = assemble_operator(make_mask(IndexWindow(-5, 5), [0, 1, 2]), BandLimit(omega))
        evs = sorted(eigenvalues(op))
        for got, want in zip(evs, roots):
            assert got == pytest.approx(want, abs=1e-12)
        assert diagnostics(op).spectral_norm == pytest.approx(roots[-1], abs=1e-12)

    def test_eigen_sweep_positive_and_decreasing(self):
        bl = BandLimit.from_pi_fraction(0.25)
        mins = []
        for m in range(1, 21):
            mask = make_mask(IndexWindow(1, m), range(1, m + 1))
            mins.append(diagnostics(assemble_operator(mask, bl)).min_eig_I_minus_A)
        assert all(v > 0 for v in mins)
        assert all(a > b for a, b in zip(mins, mins[1:]))

    def test_psd_and_contraction_on_random_masks(self):
        rng = np.random.default_rng(100)
        for k in range(20):
            m = rng.choice(np.arange(-200, 201), size=rng.integers(1, 41), replace=False)
            frac = float(rng.uniform(0.05, 0.95))
            op = assemble_operator(make_mask(IndexWindow(-200, 200), m), BandLimit.from_pi_fraction(frac))
            evs = eigenvalues(op)
            assert evs[0] >= -1e-10
            assert evs[-1] < 1.0
            assert np.array_equal(op.matrix, op.matrix.T)
