"""Short-horizon forecasting as interpolation against a dummy long-horizon forecast.

Extrapolating a band-limited approximation of past data is numerically
fragile, because the smallest eigenvalue of I - A shrinks rapidly as the
prediction range grows.  Instead, pick a gap length m larger than the
horizon actually wanted, place an arbitrary square-summable "dummy"
sequence beyond the gap, and recover the gap {1..m} as an interior
interpolation between the observed past {-q..0} and the dummy {m+1..N}.
Only the first few recovered values are accepted as the forecast; their
dependence on the dummy weakens as m grows, which `dummy_sensitivity`
measures empirically.  Samples outside the recovery window are observed zeros,
so the zero dummy is no samples: its window ends at the gap.  Only the dummy
changes the observed series, so the geometry of one gap length (mask, band
limit, rho) goes through `recovery.prepare` once, and each dummy costs one
right-hand side and one solve; the default rho is `prepare`'s, per gap
length.  `forecast` returns the accepted values, the whole recovered gap
and the solution record.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import GeometryError, ParameterError
from .kernel import BandLimit
from .masks import IndexWindow, make_mask
from .recovery import RecoverySolution, prepare
from .series import Series


@dataclass(frozen=True, eq=False)
class ForecastResult:
    """Accepted forecast on {1..horizon}; full_gap holds all of {1..gap}."""

    values: np.ndarray
    full_gap: np.ndarray
    solution: RecoverySolution


def _check_gap(past: Series, horizon: int, gap: int, omega: BandLimit) -> None:
    """The checks of a forecast that do not read the dummy."""
    if horizon < 1:
        raise ParameterError("forecast horizon must be at least 1")
    if gap <= horizon:
        raise ParameterError(f"gap length ({gap}) must exceed the accepted horizon ({horizon})")
    if past.ndim != 1 or omega.ndim != 1:
        raise GeometryError("forecasting is a 1D operation")
    if past.window.hi != 0 or past.window.lo > -1:
        raise GeometryError(
            f"past series must live on {{-q..0}} with q >= 1, got [{past.window.lo}, {past.window.hi}]"
        )


def forecast(past: Series, horizon: int, gap: int, omega: BandLimit, dummy: Series | None = None,
             rho: float | None = None) -> ForecastResult:
    """Run the dummy-interpolation forecast; accepts the first `horizon` values.

    past: observed samples on {-q..0} (q at least 1).
    horizon: number of accepted forecast values (m~ in the algorithm).
    gap: length m of the recovered range {1..m}; must exceed the horizon.
    dummy: samples on {gap+1..n}, whose last index ends the recovery window;
        None means the zero dummy (the canonical default), which adds no
        information: the window then ends at the gap.
    rho: ridge weight; None is `recovery.prepare`'s default, as in `recover`.
    """
    _check_gap(past, horizon, gap, omega)
    if dummy is not None and dummy.ndim != 1:
        raise GeometryError("forecasting is a 1D operation")
    if dummy is not None and dummy.window.lo != gap + 1:
        raise GeometryError(f"dummy must start at gap+1 = {gap + 1}, got {dummy.window.lo}")
    values = np.zeros(0) if dummy is None else dummy.values  # the zero dummy: no samples
    return _forecasts(past, horizon, gap, omega, rho, [values])[0]


def _forecasts(past: Series, horizon: int, gap: int, omega: BandLimit, rho: float | None,
               dummies: list[np.ndarray]) -> list[ForecastResult]:
    """The forecast with each dummy in turn, given as its values on {gap+1..n}.

    The dummies share one length, so every forecast recovers the same gap on
    the same window: one `prepare` serves them all.
    """
    window = IndexWindow(past.window.lo, gap + len(dummies[0]))
    window.checked_size()  # the window cap, checked before the operator or a series is built
    solve = prepare(make_mask(window, range(1, gap + 1)), omega, rho)
    results = []
    for dummy in dummies:
        solution = solve(Series(window=window, values=np.concatenate([past.values, np.zeros(gap), dummy])))
        full_gap = solution.vector()
        results.append(ForecastResult(values=full_gap[:horizon], full_gap=full_gap, solution=solution))
    return results


@dataclass(frozen=True)
class SensitivityReport:
    """Max pairwise forecast distance per gap length, and whether it decays."""

    gaps: tuple[int, ...]
    distances: tuple[float, ...]
    non_increasing: bool
    violations: tuple[int, ...]  # positions where a step increased


def dummy_sensitivity(
    past: Series,
    horizon: int,
    dummies: list[Series],
    gaps: list[int],
    omega: BandLimit,
    rho: float | None = None,
) -> SensitivityReport:
    """Measure how much the accepted forecast depends on the dummy choice.

    Each dummy is given on the full future window {1..n} and is restricted
    to {m+1..n} for each gap length m, so a dummy keeps its values at fixed
    times while the gap grows.  For each gap the report records the maximum
    pairwise distance between the accepted forecasts across dummies.  The
    dummies of one gap length share one operator and one factorization.  The
    theory predicts the sequence fades as the gap grows, so a single
    increasing step is flagged, not an error.  The default rho is
    `recovery.prepare`'s, per gap length.
    """
    if len(dummies) < 2:
        raise ParameterError("at least two dummies are required")
    if not gaps:
        raise ParameterError("at least one gap length is required")
    if list(gaps) != sorted(set(int(g) for g in gaps)):
        raise ParameterError("gap lengths must be strictly increasing")
    if len({d.window for d in dummies}) != 1:
        raise GeometryError("all dummies must share one window")
    dummy_window = dummies[0].window
    if dummy_window.ndim != 1 or dummy_window.lo != 1:
        raise GeometryError("dummies must be defined on {1..n}")
    n = dummy_window.hi
    if gaps[-1] >= n:
        raise GeometryError(f"largest gap {gaps[-1]} leaves no dummy range before n = {n}")

    # The gaps increase, so a first gap longer than the horizon makes every gap so.
    _check_gap(past, horizon, int(gaps[0]), omega)

    distances = []
    for m in map(int, gaps):
        results = _forecasts(past, horizon, m, omega, rho, [dummy.values[m:] for dummy in dummies])
        distances.append(max(float(np.linalg.norm(a.values - b.values)) for a, b in combinations(results, 2)))

    violations = tuple(
        k for k in range(1, len(distances)) if distances[k] > distances[k - 1]
    )
    return SensitivityReport(
        gaps=tuple(int(g) for g in gaps),
        distances=tuple(distances),
        non_increasing=not violations,
        violations=violations,
    )
