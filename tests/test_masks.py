"""Window/mask geometry, the mask map, the half-line predicate, and spec parsing."""

import numpy as np
import pytest

from bandgap import (
    GeometryError,
    IndexWindow,
    ParameterError,
    Series,
    apply_mask,
    make_mask,
    observed_halfline_exists,
    parse_missing_spec,
)


class TestWindow:
    def test_counts(self):
        w = IndexWindow(-60, 60)
        assert w.size == 121
        assert w.shape == (121,)
        assert w.ndim == 1

    def test_2d_counts(self):
        w = IndexWindow((-5, -5), (5, 5))
        assert w.size == 121
        assert w.shape == (11, 11)
        assert w.ndim == 2

    def test_empty_window_rejected(self):
        with pytest.raises(GeometryError):
            IndexWindow(3, 2)
        with pytest.raises(GeometryError):
            IndexWindow((0, 0), (1, -1))

    def test_mixed_dim_rejected(self):
        with pytest.raises(GeometryError):
            IndexWindow(0, (1, 1))

    def test_indices_lexicographic(self):
        w = IndexWindow((0, 0), (1, 1))
        assert w.indices() == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestMakeMask:
    def test_singleton_counts(self):
        mask = make_mask(IndexWindow(-60, 60), [0])
        assert mask.n_missing == 1
        assert mask.n_observed == 120

    def test_forecast_geometry(self):
        # window [-60, 60] with gaps {1..12}: the shape used for forecasting
        mask = make_mask(IndexWindow(-60, 60), range(1, 13))
        assert mask.n_missing == 12
        assert mask.n_observed == 109
        assert mask.missing == tuple(range(1, 13))

    def test_2d_block(self):
        block = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
        mask = make_mask(IndexWindow((-5, -5), (5, 5)), block)
        assert mask.n_missing == 9

    def test_out_of_window(self):
        with pytest.raises(GeometryError):
            make_mask(IndexWindow(-5, 5), [6])

    def test_duplicate(self):
        with pytest.raises(GeometryError):
            make_mask(IndexWindow(-5, 5), [1, 1])

    def test_canonical_order(self):
        mask = make_mask(IndexWindow(-5, 5), [4, -2, 0])
        assert mask.missing == (-2, 0, 4)
        mask2 = make_mask(IndexWindow((-2, -2), (2, 2)), [(1, 0), (0, 1), (0, 0)])
        assert mask2.missing == ((0, 0), (0, 1), (1, 0))


class TestApplyMask:
    def test_zeroes_missing(self):
        w = IndexWindow(-2, 2)
        s = Series(window=w, values=np.ones(5))
        masked = apply_mask(s, make_mask(w, [0]))
        assert masked.values.tolist() == [1, 1, 0, 1, 1]

    def test_identity_when_no_gaps(self):
        w = IndexWindow(0, 4)
        s = Series(window=w, values=np.arange(5.0))
        masked = apply_mask(s, make_mask(w, []))
        assert np.array_equal(masked.values, s.values)

    def test_annihilates_when_all_missing(self):
        w = IndexWindow(0, 3)
        s = Series(window=w, values=np.arange(1.0, 5.0))
        masked = apply_mask(s, make_mask(w, range(0, 4)))
        assert not np.any(masked.values)

    def test_idempotent(self):
        w = IndexWindow(-3, 3)
        rng = np.random.default_rng(5)
        s = Series(window=w, values=rng.standard_normal(7))
        mask = make_mask(w, [-1, 2])
        once = apply_mask(s, mask)
        twice = apply_mask(once, mask)
        assert np.array_equal(once.values, twice.values)

    def test_partition(self):
        w = IndexWindow(-4, 4)
        mask = make_mask(w, [-3, 0, 2])
        gaps = set(mask.missing)
        obs = {t for t in w.indices() if t not in gaps}
        assert gaps | obs == set(w.indices())
        assert gaps & obs == set()
        assert mask.n_observed == len(obs) == 6

    def test_window_mismatch(self):
        s = Series(window=IndexWindow(0, 4), values=np.zeros(5))
        with pytest.raises(GeometryError):
            apply_mask(s, make_mask(IndexWindow(0, 5), [1]))


class TestHalflinePredicate:
    def test_interior_gap(self):
        assert observed_halfline_exists(make_mask(IndexWindow(-10, 10), [0, 1]))

    def test_gap_touching_one_edge(self):
        assert observed_halfline_exists(make_mask(IndexWindow(-10, 10), [8, 9, 10]))

    def test_gaps_touching_both_edges(self):
        assert not observed_halfline_exists(make_mask(IndexWindow(-10, 10), [-10, 10]))

    def test_2d_interior_block(self):
        mask = make_mask(IndexWindow((-3, -3), (3, 3)), [(0, 0)])
        assert observed_halfline_exists(mask)

    def test_2d_every_face_touched(self):
        w = IndexWindow((-1, -1), (1, 1))
        corners = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        assert not observed_halfline_exists(make_mask(w, corners))


class TestMissingSpec:
    def test_singleton(self):
        assert parse_missing_spec("0") == [0]

    def test_range(self):
        assert parse_missing_spec("1..12") == list(range(1, 13))

    def test_mixed_with_parens(self):
        assert parse_missing_spec("(-3..-1),(5)") == [-3, -2, -1, 5]

    def test_2d_block(self):
        assert parse_missing_spec("0..1 x 0..1") == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_2d_block_negative(self):
        got = parse_missing_spec("-1..0 x 2..2")
        assert got == [(-1, 2), (0, 2)]

    def test_garbage_rejected(self):
        for bad in ["a..b", "3..1", "1..", "((1)", "1x2x3 x 4"]:
            with pytest.raises(ParameterError):
                parse_missing_spec(bad)

    def test_mixed_dims_rejected(self):
        with pytest.raises(ParameterError):
            parse_missing_spec("1, 0..1 x 0..1")
