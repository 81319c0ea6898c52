"""Test-signal synthesis, noise injection, and seeded experiments.

Test signals are sinc mixtures: finite combinations of shifted low-pass
kernels, band-limited by construction, so ground truth at any index is a
closed form.

`run_experiment` sweeps window size, noise level, ridge weight, or gap
size over seeded Monte-Carlo trials and aggregates error metrics.  It
calls `prepare` once per sweep value, so the trials of one value, clean
and noisy series alike, share one operator, one factorization and one
margin; each trial's series is generated and solved in turn.  A row's
`wall_ms` is its value's wall time divided by the number of trials, and
each value's aggregate carries the warnings of its solutions.
Identical seeds give identical rows (the wall-clock fields are the only
nondeterministic part of a report).
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BandgapError, GeometryError, ParameterError
from .kernel import BandLimit, kernel_profile
from .masks import IndexWindow, ObservationMask, make_mask, parse_missing_spec
from .recovery import prepare
from .series import Series

RNG_ALGORITHM = "numpy.random.Generator(PCG64)"


# ---------------------------------------------------------------------------
# signal synthesis
# ---------------------------------------------------------------------------

def gen_bandlimited(band: BandLimit, window: IndexWindow, centers: Sequence[int],
                    amplitudes: Sequence[float]) -> Series:
    """The sinc mixture sum of amplitudes times kernels shifted to centers, on `window`.

    `band` is the synthesis cutoff; keep it at or below the recovery cutoff
    when exact-recovery checks are intended.
    """
    if band.ndim != 1 or window.ndim != 1:
        raise ParameterError("signal synthesis is 1D")
    if len(centers) == 0 or len(centers) != len(amplitudes):
        raise ParameterError("a sinc mixture needs matching nonempty centers/amplitudes")
    (w,) = band.axes
    ts = window.lo + np.arange(window.checked_size())
    values = np.zeros(len(ts), dtype=np.float64)
    for c, a in zip(centers, amplitudes):
        values += float(a) * kernel_profile(w, ts - int(c))
    return Series(window=window, values=values)


@dataclass(frozen=True, eq=False)
class NoisySeries:
    """A perturbed series plus the exact norm of the injected perturbation."""

    series: Series
    eta_norm: float


def add_noise(series: Series, sigma: float, seed: int | None, mask: ObservationMask | None = None) -> NoisySeries:
    """Add seeded N(0, sigma^2) perturbations to the observed entries.

    With a mask, only observed entries are perturbed and eta_norm counts
    exactly those; without one, every window entry is treated as observed.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ParameterError(f"sigma must be a finite nonnegative number, not {sigma}")
    if mask is not None and mask.window != series.window:
        raise GeometryError("mask and series windows differ")
    if sigma == 0:
        return NoisySeries(series=series, eta_norm=0.0)
    rng = np.random.default_rng(seed)
    eta = sigma * rng.standard_normal(series.window.shape)
    if mask is not None:
        eta[tuple(mask.offsets.T)] = 0.0
    noisy = Series(window=series.window, values=series.values + eta)
    return NoisySeries(series=noisy, eta_norm=float(np.linalg.norm(eta)))


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------

SWEEPS = ("window", "noise", "rho", "gap")


def _integer(value, field: str) -> int:
    """`value` as an int; a number with a fractional part is refused, not truncated (30.0 is 30)."""
    try:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError("fractional")
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{field}: {value!r} is not a whole number") from exc


def _real(value, field: str) -> float:
    """`value` as a float; one that does not convert is refused with the field's name."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{field}: {value!r} is not a number") from exc


def _nonnegative(numbers, field: str) -> None:
    """Refuse, naming `field`, the first of `numbers` that is not a finite nonnegative number."""
    for x in numbers:
        if not (math.isfinite(x) and x >= 0):
            raise ParameterError(f"{field}: {x!r} is not a finite nonnegative number")


def _items(value, field: str) -> list:
    """`value` if it is a JSON array (a list); any other value is refused with the field's name."""
    if not isinstance(value, list):
        raise ParameterError(f"{field}: {value!r} is not a list")
    return value


@dataclass
class ExperimentConfig:
    """One sweep over a single parameter, repeated over seeded trials.

    sweep: "window" (half-width), "noise" (sigma), "rho", or "gap" (|M|).
    values: strictly increasing sweep values, converted on construction to
        int (window, gap) or float (noise, rho).  Sigma, rho and noise or
        rho values must be finite and nonnegative.
    seeds: one seed per trial (a plain `seed` and `trials` in JSON give
        the range seed, seed+1, ..., which is never expanded in memory).
        Seeds, `window` and window or gap values are whole numbers: a
        fraction is refused, not truncated, and 30.0 is 30.
        omega and synth_band are radians inside (0, pi) here; the JSON
        form uses fractions of pi.
    """

    sweep: str
    values: tuple
    seeds: Sequence[int]
    omega: float
    synth_band: float
    missing: str = "1..5"
    window: int = 250
    rho: float | None = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.sweep not in SWEEPS:
            raise ParameterError(f"sweep: {self.sweep!r} is not one of {SWEEPS}")
        integral = self.sweep in ("window", "gap")
        field = f"{self.sweep} sweep values"
        self.values = tuple(_integer(v, field) if integral else _real(v, field) for v in self.values)
        if len(self.values) == 0:
            raise ParameterError(f"{field}: the list is empty")
        if list(self.values) != sorted(set(self.values)):
            raise ParameterError(f"{field}: {list(self.values)} is not strictly increasing")
        if self.sweep == "gap" and self.values[0] < 1:
            raise ParameterError(f"{field}: gap sizes must be at least 1, not {self.values[0]}")
        if self.sweep in ("noise", "rho"):
            _nonnegative(self.values, field)
        # a range (JSON `seed` and `trials`) is checked at its ends, so it is never expanded
        if isinstance(self.seeds, range):
            try:
                trials = len(self.seeds)
            except OverflowError:
                raise ParameterError(f"trials: {self.seeds.stop - self.seeds.start} is too many") from None
            if trials < 1:
                raise ParameterError("trials: at least one trial is required")
            name, lowest = "seed", min(self.seeds[0], self.seeds[-1])
        else:
            self.seeds = tuple(_integer(s, "seeds") for s in self.seeds)
            if len(self.seeds) < 1:
                raise ParameterError("seeds: at least one trial seed is required")
            name, lowest = "seeds", min(self.seeds)
        if lowest < 0:  # numpy refuses a negative seed
            raise ParameterError(f"{name}: trial seeds must be nonnegative, not {lowest}")
        self.window = _integer(self.window, "window")
        _nonnegative((self.sigma,), "sigma")
        if self.rho is not None:
            _nonnegative((self.rho,), "rho")
        for name in ("omega", "synth_band"):
            try:
                BandLimit(getattr(self, name))
            except ParameterError as exc:
                raise ParameterError(f"{name}: {exc}") from None

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        """Build from the CLI JSON form (omega/synth_band as fractions of pi).

        A refused config's message begins with the field's name (`values`
        read as "<sweep> sweep values"), or says it is not a JSON object.
        """
        if not isinstance(doc, dict):
            raise ParameterError("experiment config must be a JSON object")
        try:
            sweep, values = doc["sweep"], _items(doc["values"], "values")
            if "seeds" in doc:
                seeds = _items(doc["seeds"], "seeds")
            else:
                base = _integer(doc.get("seed", 0), "seed")
                seeds = range(base, base + _integer(doc.get("trials", 1), "trials"))
            rho = doc.get("rho", 0.0)
            return cls(
                sweep=sweep,
                values=values,
                seeds=seeds,
                omega=_real(doc["omega"], "omega") * np.pi,
                synth_band=_real(doc["synth_band"], "synth_band") * np.pi,
                missing=str(doc.get("missing", "1..5")),
                window=doc.get("window", 250),
                rho=None if rho is None else _real(rho, "rho"),
                sigma=_real(doc.get("sigma", 0.0), "sigma"),
            )
        except KeyError as exc:
            raise ParameterError(f"{exc.args[0]}: a required field is missing") from exc

    def seed_fields(self) -> dict:
        """The seeds as the JSON form gives them: `seed` and `trials` for a range, else the list."""
        if isinstance(self.seeds, range) and self.seeds.step == 1:
            return {"seed": self.seeds.start, "trials": len(self.seeds)}
        return {"seeds": list(self.seeds), "trials": len(self.seeds)}

    def echo(self) -> dict:
        doc = asdict(self)
        del doc["seeds"]
        doc.update(self.seed_fields())
        doc["values"] = list(self.values)
        doc["omega_pi_fraction"] = self.omega / np.pi
        doc["synth_band_pi_fraction"] = self.synth_band / np.pi
        return doc


def _trial_signal(band: BandLimit, window: IndexWindow, seed: int) -> Series:
    """Seeded mixture with centers near the origin so truth is window-independent."""
    rng = np.random.default_rng(seed)
    n_pulses = int(rng.integers(2, 5))
    centers = tuple(int(c) for c in rng.integers(-20, 21, size=n_pulses))
    amplitudes = tuple(float(a) for a in rng.uniform(-1.0, 1.0, size=n_pulses))
    return gen_bandlimited(band, window, centers, amplitudes)


def _value_rows(config: ExperimentConfig, value, missing: list, synth_band: BandLimit,
                omega: BandLimit) -> tuple[list[dict], list[str]]:
    """One row per seed, every trial of a sweep value solved after one `prepare`, and the geometry's warnings."""
    half_width = value if config.sweep == "window" else config.window
    window = IndexWindow(-half_width, half_width)
    mask = make_mask(window, range(1, value + 1) if config.sweep == "gap" else missing)
    rho = value if config.sweep == "rho" else config.rho
    sigma = value if config.sweep == "noise" else config.sigma
    solve = prepare(mask, omega, rho)
    rows = []
    for seed in config.seeds:
        series = _trial_signal(synth_band, window, seed)
        truth = series.values[tuple(mask.offsets.T)]
        clean = solve(series)
        y_clean = clean.vector()
        report, diag = clean.solve_report, clean.operator_diagnostics
        row = {
            "sweep": config.sweep,
            "value": value,
            "seed": seed,
            "sigma": sigma,
            "status": "ok",
            "rho": report.rho,
            "spectral_norm": diag.spectral_norm,
            "min_eig_I_minus_A": diag.min_eig_I_minus_A,
            "sol_norm": float(np.linalg.norm(y_clean)),
            "eta_norm": 0.0,
            "perturbation": 0.0,
            "perturbation_bound": 0.0,
            "bound_violation": 0,
        }
        y_final = y_clean
        if sigma > 0:
            noisy = add_noise(series, sigma, seed + 1_000_003, mask=mask)
            y_final = solve(noisy.series).vector()
            # error_bound's eta / margin, from the clean solve's diagnostics.
            bound = noisy.eta_norm / diag.margin
            deviation = float(np.linalg.norm(y_final - y_clean))
            row.update(eta_norm=noisy.eta_norm, perturbation=deviation, perturbation_bound=bound,
                       bound_violation=int(deviation > bound * (1.0 + 1e-9)))
        err = np.abs(y_final - truth)
        row["max_abs_error"] = float(np.max(err))
        row["rms_error"] = float(np.sqrt(np.mean(err**2)))
        rows.append(row)
    return rows, list(clean.warnings)


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the sweep, one operator and one factorization per sweep value.

    A value whose recovery raises a BandgapError is recorded as one failure
    row, which names its seeds as `seed_fields` does, and skipped; when
    every value fails, the first value's exception propagates.  A row's
    `wall_ms` is its value's wall time divided by the number of trials.
    """
    t0 = time.perf_counter()
    missing = parse_missing_spec(config.missing)
    synth_band, omega = BandLimit(config.synth_band), BandLimit(config.omega)
    rows, failures, aggregates, first_error = [], [], [], None
    for value in config.values:
        t_value = time.perf_counter()
        try:
            group, warnings = _value_rows(config, value, missing, synth_band, omega)
        except BandgapError as exc:
            first_error = first_error or exc
            failures.append({"sweep": config.sweep, "value": value, **config.seed_fields(), "status": "failed",
                             "error": f"{type(exc).__name__}: {exc}"})
            continue
        wall_ms = (time.perf_counter() - t_value) * 1e3 / len(config.seeds)
        for row in group:
            row["wall_ms"] = wall_ms
        rows.extend(group)
        aggregates.append({
            "value": value,
            "trials": len(group),
            "mean_max_abs_error": float(np.mean([r["max_abs_error"] for r in group])),
            "max_max_abs_error": float(np.max([r["max_abs_error"] for r in group])),
            "mean_rms_error": float(np.mean([r["rms_error"] for r in group])),
            "bound_violation_count": int(np.sum([r["bound_violation"] for r in group])),
            "min_eig_I_minus_A": float(np.min([r["min_eig_I_minus_A"] for r in group])),
            "mean_sol_norm": float(np.mean([r["sol_norm"] for r in group])),
            "warnings": warnings,
        })
    if not rows:
        raise first_error

    return {
        "config": config.echo(),
        "generator": RNG_ALGORITHM,
        "rows": rows,
        "failures": failures,
        "aggregates": aggregates,
        "wall_seconds": time.perf_counter() - t0,
    }


# The columns of `bandgap simulate --format csv`, one line per row.
ROW_FIELDS = [
    "sweep", "value", "seed", "sigma", "status", "rho", "spectral_norm",
    "min_eig_I_minus_A", "sol_norm", "eta_norm", "perturbation",
    "perturbation_bound", "bound_violation", "max_abs_error", "rms_error", "wall_ms",
]
