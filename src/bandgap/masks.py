"""Index geometry: finite windows, missing/observed sets, and masking.

A recovery problem lives on a finite computation window of integer indices
(an interval in 1D, a rectangle in 2D).  In-window indices are partitioned
into the missing set and the observed set; everything outside the window is
treated as observed-with-value-zero, which is how the infinite problem is
truncated to a computable one.  The missing set is kept in a fixed
lexicographic order, and that order defines the row/column indexing of the
gap operator everywhere downstream; `make_mask` keeps it on the mask both
as indices and as the array offsets it sorted.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, ParameterError

Index = int | tuple[int, int]

# Largest window (in samples) an array is allocated over: 16x a 512 x 512
# grid and over 40x a 10^5-sample series.  See IndexWindow.checked_size.
MAX_WINDOW_SIZE = 1 << 22

# Largest missing set recovered: its gap matrix takes 4096^2 doubles = 128 MiB.
MAX_MISSING = 4096


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
        if len(self._lo_axes()) != len(self._hi_axes()):
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
        return len(self._lo_axes())

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b - a + 1 for a, b in zip(self._lo_axes(), self._hi_axes()))

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def checked_size(self) -> int:
        """The size, taken before an array of it is allocated: above MAX_WINDOW_SIZE, a GeometryError."""
        if self.size > MAX_WINDOW_SIZE:
            raise GeometryError(f"window of shape {self.shape} exceeds {MAX_WINDOW_SIZE} samples")
        return self.size


@dataclass(frozen=True)
class ObservationMask:
    """A window together with its missing set, in canonical order.

    Built via :func:`make_mask`; the `missing` tuple is sorted
    lexicographically and that order is the contract for operator rows.
    `offsets` is the read-only (m, ndim) int64 array of the same indices less
    the window's low corner, set by `make_mask`; it takes no part in `==` or hash.
    """

    window: IndexWindow
    missing: tuple[Index, ...]
    offsets: np.ndarray = field(compare=False, repr=False)

    @property
    def n_missing(self) -> int:
        return len(self.missing)


def as_indices(coords: np.ndarray) -> tuple[Index, ...]:
    """Rows of an (m, ndim) index array as plain ints (1D) or pairs of ints (2D)."""
    rows = coords.tolist()
    return tuple(r for (r,) in rows) if coords.shape[1] == 1 else tuple(map(tuple, rows))


def make_mask(window: IndexWindow, missing) -> ObservationMask:
    """Validate a missing-index collection against a window and canonicalize it.

    Raises GeometryError for indices whose dimensionality differs from the
    window's, out-of-window indices (naming the first in input order) and
    duplicates (naming the smallest).  Non-integral indices are truncated.
    """
    items = list(missing)
    try:
        coords = np.asarray(items, dtype=np.int64).reshape(len(items), window.ndim)
    except OverflowError as exc:
        raise GeometryError(f"a missing index lies outside window [{window.lo}, {window.hi}]") from exc
    except ValueError as exc:  # not one index per row: name the first of another dimensionality
        t = next((t for t in map(_as_index, items) if np.size(t) != window.ndim), items[0])
        raise GeometryError(f"index {t!r} has wrong dimensionality for a {window.ndim}D window") from exc
    lo, hi = np.asarray(window.lo), np.asarray(window.hi)
    outside = np.flatnonzero(np.any((coords < lo) | (coords > hi), axis=1))
    if outside.size:
        (t,) = as_indices(coords[outside[:1]])
        raise GeometryError(f"missing index {t!r} lies outside window [{window.lo}, {window.hi}]")
    coords = coords[np.lexsort(coords.T[::-1])]
    ordered = as_indices(coords)
    repeats = np.flatnonzero(np.all(coords[1:] == coords[:-1], axis=1))
    if repeats.size:
        raise GeometryError(f"duplicate missing index {ordered[repeats[0]]!r}")
    offsets = coords - lo
    offsets.flags.writeable = False
    return ObservationMask(window=window, missing=ordered, offsets=offsets)


def apply_mask(series, mask: ObservationMask):
    """Zero out the missing entries of a series, leaving observed ones unchanged."""
    if series.window != mask.window:
        raise GeometryError("series and mask are defined on different windows")
    values = np.array(series.values, dtype=np.float64, copy=True)
    values[tuple(mask.offsets.T)] = 0.0
    return dataclasses.replace(series, values=values)


def observed_halfline_exists(mask: ObservationMask) -> bool:
    """Whether the conceptual observed set contains a half-line (half-space in 2D).

    Out-of-window indices on a given side count as observed exactly when the
    window's extreme slice on that side carries no missing index; a free side
    then contributes the half-line {t <= s} (or {t >= s}).  Uniqueness of the
    band-limited extension is only guaranteed under this geometry, so the
    recovery front end warns when no side is free.  An empty mask leaves
    every side free.
    """
    touched = [(mask.offsets == side).any(axis=0) for side in (0, np.subtract(mask.window.shape, 1))]
    return not np.all(touched)


_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")
_SINGLE_RE = re.compile(r"^-?\d+$")


def _parse_1d_token(token: str) -> range:
    token = token.strip()
    if token.startswith("(") and token.endswith(")"):
        token = token[1:-1].strip()
    if _SINGLE_RE.match(token):
        return range(int(token), int(token) + 1)
    m = _RANGE_RE.match(token)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        if a > b:
            raise ParameterError(f"descending range {token!r}")
        return range(a, b + 1)
    raise ParameterError(f"cannot parse token {token!r}")


def spec_ranges(text: str) -> Iterator[list[range]]:
    """The comma-separated tokens of an index spec as per-axis ranges, unexpanded; a parse error names no spec."""
    for token in (part.strip() for part in text.split(",")):
        if not token:
            continue
        inner = token[1:-1].strip() if token.startswith("(") and token.endswith(")") else token
        parts = re.split(r"\bx\b", inner, maxsplit=1)
        yield [_parse_1d_token(p) for p in parts] if len(parts) == 2 else [_parse_1d_token(token)]


def parse_missing_spec(text: str) -> list[Index]:
    """Parse the CLI missing-set syntax.

    1D: comma-separated singletons and inclusive ranges ("0", "1..12",
    "(-3..-1),(5)").  2D: blocks "r0..r1 x c0..c1" (also comma-separated);
    a block expands row-major.  A spec of more than MAX_MISSING indices is
    a GeometryError, raised before it is expanded.
    """
    out: list[Index] = []
    dims = set()
    try:
        for axes in spec_ranges(text):  # lazily, so the cap is checked before a later token is parsed
            dims.add(len(axes))
            if len(out) + math.prod(r.stop - r.start for r in axes) > MAX_MISSING:
                raise GeometryError(f"missing spec lists more than the {MAX_MISSING} samples "
                                    "that can be recovered (the gap matrix is dense)")
            out.extend(itertools.product(*axes) if len(axes) == 2 else axes[0])
    except ParameterError as exc:
        raise ParameterError(f"{exc} in missing spec") from None
    if len(dims) > 1:
        raise ParameterError(f"missing spec {text!r} mixes 1D and 2D indices")
    return out
