"""Index geometry: finite windows, missing/observed sets, and masking.

A recovery problem lives on a finite computation window of integer indices
(an interval in 1D, a rectangle in 2D).  In-window indices are partitioned
into the missing set and the observed set; everything outside the window is
treated as observed-with-value-zero, which is how the infinite problem is
truncated to a computable one.  The missing set is kept in a fixed
lexicographic order, and that order defines the row/column indexing of the
gap operator everywhere downstream.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParameterError

Index = int | tuple[int, int]


def _index_ndim(t) -> int:
    if isinstance(t, tuple):
        return len(t)
    return 1


def _as_index(t) -> Index:
    """Coerce to a plain int or a pair of plain ints."""
    if isinstance(t, (tuple, list, np.ndarray)):
        parts = tuple(int(v) for v in t)
        if len(parts) == 1:
            return parts[0]
        if len(parts) == 2:
            return parts
        raise GeometryError(f"indices must be integers or pairs, got {t!r}")
    return int(t)


@dataclass(frozen=True)
class IndexWindow:
    """Inclusive index range [lo, hi], componentwise for 2D."""

    lo: Index
    hi: Index

    def __post_init__(self):
        lo, hi = _as_index(self.lo), _as_index(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if _index_ndim(lo) != _index_ndim(hi):
            raise GeometryError("window bounds must have the same dimensionality")
        for a, b in zip(self._lo_axes(), self._hi_axes()):
            if a > b:
                raise GeometryError(f"window bound {a} exceeds {b}; window must be nonempty")

    def _lo_axes(self) -> tuple[int, ...]:
        return self.lo if isinstance(self.lo, tuple) else (self.lo,)

    def _hi_axes(self) -> tuple[int, ...]:
        return self.hi if isinstance(self.hi, tuple) else (self.hi,)

    @property
    def ndim(self) -> int:
        return _index_ndim(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b - a + 1 for a, b in zip(self._lo_axes(), self._hi_axes()))

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def contains(self, t: Index) -> bool:
        t_axes = t if isinstance(t, tuple) else (t,)
        if len(t_axes) != self.ndim:
            return False
        return all(a <= v <= b for v, a, b in zip(t_axes, self._lo_axes(), self._hi_axes()))

    def indices(self) -> list[Index]:
        """All window indices in lexicographic (row-major) order."""
        if self.ndim == 1:
            return list(range(self.lo, self.hi + 1))
        (l1, l2), (h1, h2) = self.lo, self.hi
        return [(i, j) for i in range(l1, h1 + 1) for j in range(l2, h2 + 1)]

    def offset_of(self, t: Index) -> tuple[int, ...]:
        """Array offset of an in-window index."""
        t_axes = t if isinstance(t, tuple) else (t,)
        return tuple(v - a for v, a in zip(t_axes, self._lo_axes()))


@dataclass(frozen=True)
class ObservationMask:
    """A window together with its missing set, in canonical order.

    Built via :func:`make_mask`; the `missing` tuple is sorted
    lexicographically and that order is the contract for operator rows.
    """

    window: IndexWindow
    missing: tuple[Index, ...]

    @property
    def n_missing(self) -> int:
        return len(self.missing)

    @property
    def n_observed(self) -> int:
        return self.window.size - len(self.missing)


def make_mask(window: IndexWindow, missing) -> ObservationMask:
    """Validate a missing-index collection against a window and canonicalize it.

    Raises GeometryError for out-of-window indices, duplicates, or indices
    whose dimensionality differs from the window's.
    """
    items = [_as_index(t) for t in missing]
    for t in items:
        if _index_ndim(t) != window.ndim:
            raise GeometryError(f"index {t!r} has wrong dimensionality for a {window.ndim}D window")
        if not window.contains(t):
            raise GeometryError(f"missing index {t!r} lies outside window [{window.lo}, {window.hi}]")
    ordered = tuple(sorted(items, key=lambda t: t if isinstance(t, tuple) else (t,)))
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise GeometryError(f"duplicate missing index {a!r}")
    return ObservationMask(window=window, missing=ordered)


def missing_offsets(mask: ObservationMask) -> np.ndarray:
    """Array offsets of the missing set in canonical order, an (m, ndim) integer array."""
    coords = np.asarray(mask.missing, dtype=np.int64).reshape(mask.n_missing, mask.window.ndim)
    return coords - np.asarray(mask.window.lo, dtype=np.int64)


def apply_mask(series, mask: ObservationMask):
    """Zero out the missing entries of a series, leaving observed ones unchanged."""
    if series.window != mask.window:
        raise GeometryError("series and mask are defined on different windows")
    values = np.array(series.values, dtype=np.float64, copy=True)
    values[tuple(missing_offsets(mask).T)] = 0.0
    return dataclasses.replace(series, values=values)


def observed_halfline_exists(mask: ObservationMask) -> bool:
    """Whether the conceptual observed set contains a half-line (half-space in 2D).

    Out-of-window indices on a given side count as observed exactly when the
    window's extreme slice on that side carries no missing index; a free side
    then contributes the half-line {t <= s} (or {t >= s}).  Uniqueness of the
    band-limited extension is only guaranteed under this geometry, so the
    recovery front end warns when no side is free.
    """
    if mask.n_missing == 0:
        return True
    if mask.window.ndim == 1:
        gaps = set(mask.missing)
        return (mask.window.lo not in gaps) or (mask.window.hi not in gaps)
    (l1, l2), (h1, h2) = mask.window.lo, mask.window.hi
    coords = np.array(mask.missing, dtype=np.int64)
    for axis, (lo, hi) in enumerate([(l1, h1), (l2, h2)]):
        if not np.any(coords[:, axis] == lo):
            return True
        if not np.any(coords[:, axis] == hi):
            return True
    return False


_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")
_SINGLE_RE = re.compile(r"^-?\d+$")


def _split_spec(text: str) -> list[str]:
    """Split on commas that are not inside parentheses."""
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


def _parse_1d_token(token: str) -> list[int]:
    token = token.strip()
    if token.startswith("(") and token.endswith(")"):
        token = token[1:-1].strip()
    if _SINGLE_RE.match(token):
        return [int(token)]
    m = _RANGE_RE.match(token)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        if a > b:
            raise ParameterError(f"descending range {token!r} in missing spec")
        return list(range(a, b + 1))
    raise ParameterError(f"cannot parse missing-spec token {token!r}")


def parse_missing_spec(text: str) -> list[Index]:
    """Parse the CLI missing-set syntax.

    1D: comma-separated singletons and inclusive ranges ("0", "1..12",
    "(-3..-1),(5)").  2D: blocks "r0..r1 x c0..c1" (also comma-separated);
    a block expands row-major.
    """
    out: list[Index] = []
    for token in _split_spec(text):
        inner = token[1:-1].strip() if token.startswith("(") and token.endswith(")") else token
        if re.search(r"\bx\b", inner):
            rows_part, cols_part = (p.strip() for p in re.split(r"\bx\b", inner, maxsplit=1))
            rows = _parse_1d_token(rows_part)
            cols = _parse_1d_token(cols_part)
            out.extend((r, c) for r in rows for c in cols)
        else:
            out.extend(_parse_1d_token(token))
    dims = {_index_ndim(t) for t in out}
    if len(dims) > 1:
        raise ParameterError(f"missing spec {text!r} mixes 1D and 2D indices")
    return out
