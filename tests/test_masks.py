"""Window/mask geometry, the mask map, the half-line predicate, and spec parsing."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandgap import (
    BandgapError,
    GeometryError,
    IndexWindow,
    ParameterError,
    Series,
    apply_mask,
    make_mask,
    observed_halfline_exists,
    parse_missing_spec,
)
from bandgap.masks import MAX_MISSING, MAX_WINDOW_SIZE, _parse_1d_token


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

    def test_size_cap(self):
        assert IndexWindow(1, MAX_WINDOW_SIZE).checked_size() == MAX_WINDOW_SIZE
        for window in [IndexWindow(0, MAX_WINDOW_SIZE), IndexWindow((0, 0), (2047, 2048))]:
            assert window.size > MAX_WINDOW_SIZE  # a window is made, and measured, at any size
            with pytest.raises(GeometryError, match="exceeds"):
                window.checked_size()


class TestMakeMask:
    def test_singleton_counts(self):
        mask = make_mask(IndexWindow(-60, 60), [0])
        assert mask.n_missing == 1

    def test_forecast_geometry(self):
        # window [-60, 60] with gaps {1..12}: the shape used for forecasting
        mask = make_mask(IndexWindow(-60, 60), range(1, 13))
        assert mask.n_missing == 12
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


def reference_make_mask(window, missing):
    """The per-index make_mask the array version replaced, and the offsets it implies."""
    items = [tuple(int(v) for v in t) if isinstance(t, tuple) else int(t) for t in missing]
    for t in items:
        if (len(t) if isinstance(t, tuple) else 1) != window.ndim:
            raise GeometryError(f"index {t!r} has wrong dimensionality for a {window.ndim}D window")
        if not all(a <= v <= b for v, a, b in zip(np.atleast_1d(t), window._lo_axes(), window._hi_axes())):
            raise GeometryError(f"missing index {t!r} lies outside window [{window.lo}, {window.hi}]")
    ordered = tuple(sorted(items, key=lambda t: t if isinstance(t, tuple) else (t,)))
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise GeometryError(f"duplicate missing index {a!r}")
    offsets = [np.subtract(t, window.lo) for t in ordered]
    return ordered, np.array(offsets, dtype=np.int64).reshape(len(ordered), window.ndim)


def reference_halfline(mask):
    """The two-branch half-line predicate the any-ndim test replaced."""
    if mask.n_missing == 0:
        return True
    if mask.window.ndim == 1:
        gaps = set(mask.missing)
        return (mask.window.lo not in gaps) or (mask.window.hi not in gaps)
    coords = np.array(mask.missing, dtype=np.int64)
    for axis, (lo, hi) in enumerate(zip(mask.window.lo, mask.window.hi)):
        if not np.any(coords[:, axis] == lo) or not np.any(coords[:, axis] == hi):
            return True
    return False


@st.composite
def windows_and_indices(draw):
    """A 1D or 2D window and a list of indices around it: duplicates, strays, the empty list.

    One list in eight has the other dimensionality, and one in eight mixes
    both within the window.
    """
    ndim = draw(st.sampled_from([1, 2]))
    lo = [draw(st.integers(-20, 20)) for _ in range(ndim)]
    hi = [a + draw(st.integers(0, 7)) for a in lo]
    kind = draw(st.sampled_from(["right"] * 6 + ["wrong", "mixed"]))
    inside = kind == "mixed" or draw(st.booleans())  # draw every index from within the window
    axes = [st.integers(a - 2 * (not inside), b + 2 * (not inside)) for a, b in zip(lo, hi)]
    if ndim == 1:
        window = IndexWindow(lo[0], hi[0])
        right, wrong = axes[0], st.tuples(*axes, axes[0])
    else:
        window = IndexWindow(tuple(lo), tuple(hi))
        right, wrong = st.tuples(*axes), axes[0]
    index = {"right": right, "wrong": wrong, "mixed": st.one_of(right, wrong)}[kind]
    min_size = int(draw(st.integers(0, 7)) > 0)
    return window, draw(st.lists(index, min_size=min_size, max_size=20,
                                 unique=inside and draw(st.booleans())))


class TestArrayMask:
    @settings(max_examples=400, deadline=None)
    @given(windows_and_indices())
    def test_make_mask_matches_per_index_reference(self, case):
        window, missing = case
        try:
            expected = reference_make_mask(window, missing)
        except GeometryError as exc:
            with pytest.raises(GeometryError) as got:
                make_mask(window, missing)
            assert str(got.value) == str(exc)
            return
        mask = make_mask(window, missing)
        assert mask.missing == expected[0]
        assert mask.offsets.dtype == np.int64 and np.array_equal(mask.offsets, expected[1])
        assert not mask.offsets.flags.writeable
        assert observed_halfline_exists(mask) == reference_halfline(mask)
        again = make_mask(window, mask.missing[::-1])  # the same set: equal and hashed alike
        assert again == mask and hash(again) == hash(mask)

    def test_array_input_and_truncation(self):
        w = IndexWindow((0, 0), (3, 3))
        assert make_mask(w, np.array([[2, 1], [0, 3]])).missing == ((0, 3), (2, 1))
        assert make_mask(IndexWindow(0, 3), [1.5, 3.0, 2]).missing == (1, 2, 3)
        assert make_mask(IndexWindow(0, 3), [(2,), (1,)]).missing == (1, 2)

    def test_mixed_or_oversize_indices_are_geometry_errors(self):
        with pytest.raises(GeometryError, match=r"^index \(2, 3\) has wrong dimensionality for a 1D"):
            make_mask(IndexWindow(0, 3), [1, (2, 3)])
        w = IndexWindow((0, 0), (3, 3))
        with pytest.raises(GeometryError) as got:
            make_mask(w, [(0, 1), 3])
        with pytest.raises(GeometryError, match=r"^index 3 has wrong dimensionality for a 2D") as expected:
            reference_make_mask(w, [(0, 1), 3])
        assert str(got.value) == str(expected.value)
        with pytest.raises(GeometryError):
            make_mask(IndexWindow(0, 3), [10**20])
        with pytest.raises(GeometryError):
            make_mask(IndexWindow((0, 0), (3, 3)), [(1, 2, 3)])


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
        obs = {t for t in range(-4, 5) if t not in gaps}
        assert gaps | obs == set(range(-4, 5))
        assert gaps & obs == set()
        assert len(obs) == 6

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

    def test_cap_before_expansion(self):
        assert len(parse_missing_spec(f"1..{MAX_MISSING}")) == MAX_MISSING
        assert len(parse_missing_spec("0..63 x 0..63")) == MAX_MISSING
        for spec in [f"0..{MAX_MISSING}", f"1..{MAX_MISSING}, -1", "0..64 x 0..63",
                     f"1..10, 0..{10**30}", "0..99999999 x 0..99999999"]:
            with pytest.raises(GeometryError, match=str(MAX_MISSING)):
                parse_missing_spec(spec)


def _reference_split(text):
    """The former splitter: commas split only outside parentheses, which must balance."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParameterError(f"unbalanced parentheses in missing spec {text!r}")
        elif ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        cur.append(ch)
    if depth != 0:
        raise ParameterError(f"unbalanced parentheses in missing spec {text!r}")
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _reference_parse(text):
    """The former parse_missing_spec, built on the depth-tracking splitter."""
    out, dims = [], set()
    for token in _reference_split(text):
        inner = token[1:-1].strip() if token.startswith("(") and token.endswith(")") else token
        parts = re.split(r"\bx\b", inner, maxsplit=1)
        axes = [_parse_1d_token(p) for p in parts] if len(parts) == 2 else [_parse_1d_token(token)]
        dims.add(len(axes))
        if len(out) + math.prod(r.stop - r.start for r in axes) > MAX_MISSING:
            raise GeometryError("too many")
        out.extend(itertools.product(*axes) if len(axes) == 2 else axes[0])
    if len(dims) > 1:
        raise ParameterError("mixed")
    return out


def _outcome(parse, text):
    try:
        return parse(text)
    except BandgapError:
        return "rejected"


@settings(max_examples=1500, deadline=None)
@given(st.text(alphabet="0123456789-.,()x ", max_size=24))
@example("(-3..-1),(5)")
@example(" 1 , ,2..3,")
@example("0..1 x 0..1, (2 x 3)")
@example("(1,2)")
@example("((1)")
def test_plain_comma_split_accepts_what_the_depth_tracking_split_did(text):
    """A comma inside parentheses never parsed, so splitting on every comma changes no outcome."""
    assert _outcome(parse_missing_spec, text) == _outcome(_reference_parse, text)

