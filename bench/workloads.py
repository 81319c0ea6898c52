"""The benchmark workloads: inputs made from a seed, operations, checks.

Four *op sets* make the inputs of one kind of operation from `--seed` (one
input set is fixed instead, see `CliRecover1D`) and expose one *round*: a
fixed list of operations.  `run(k)` performs operation k of the round
through the program and returns an `Outcome`; `check(k, outcome)` compares
a successful outcome with the independent reference in `reference.py` or
with properties the method must have, and returns failure messages.  Sizes
(window length, |M|, grid sizes, gap lengths) never depend on the seed, so
the per-layer counts of a traced run repeat exactly; the seed moves
positions, amplitudes and noise.

A workload (`WORKLOADS`) is a `Mix` of op sets whose rounds run one after
the other; the closed loop in `run.py` repeats that round whole.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from itertools import combinations

import numpy as np

import reference as ref

# Band of the synthetic signals, below every recovery band used, so that the
# windowed truth satisfies the reference identity used in the truth check.
SYNTH_1D = 0.2 * math.pi


@dataclass
class Outcome:
    ok: bool
    payload: object


def mixture_1d(ts, centers, amplitudes, band: float = SYNTH_1D) -> np.ndarray:
    out = np.zeros(len(ts))
    for c, a in zip(centers, amplitudes):
        out += a * ref.kernel(band, np.asarray(ts) - c)
    return out


def _write_series(path: str, ts, values, skip=()) -> None:
    skip = set(skip)
    lines = ["t,value"]
    lines.extend(f"{t},{v!r}" for t, v in zip(ts.tolist(), values.tolist()) if t not in skip)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _cli(bg, argv) -> Outcome:
    """Run the CLI in-process; stderr (the JSON error on failure) is the payload."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = bg.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return Outcome(code == 0, {"exit": code, "stderr": err.getvalue()})


def _read_output(path: str):
    """Parse and remove an output file, so a stale file is never checked twice."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    os.remove(path)
    return ref.parse_rfc_json(text)


class CliRecover1D:
    """`bandgap recover` on 40,001-row CSV files with scattered absent rows.

    Seven seeded files per round, each with 200 absent rows and a 16-sample
    `--missing` range near the signal, so |M| = 216, at omega = 0.25 pi with
    the default rho and solver.  The eighth operation of the round is fixed:
    a complete file with `--missing "1..25" --omega 0.5`, for which the
    default rho is 0 and the computed 1 - ||A|| is -2.2e-16, so the program
    exits 4 ("system is singular") today.  It is counted as failed, once per
    round, whatever the seed.
    """

    HALF = 20_000
    FILES = 7
    ABSENT = 200
    RANGE = 16
    FIXED_SEED = 1604_08692

    def __init__(self, bg, seed: int, workdir: str):
        self.bg = bg
        self.out = os.path.join(workdir, "recover.json")
        ts = np.arange(-self.HALF, self.HALF + 1)
        rng = np.random.default_rng(seed)
        self.cases = []
        for k in range(self.FILES):
            centers = rng.integers(-self.HALF // 10, self.HALF // 10 + 1, size=6)
            x = mixture_1d(ts, centers, rng.uniform(-1.0, 1.0, size=6))
            start = int(centers[0] + rng.integers(-8, 9))
            span = set(range(start, start + self.RANGE))
            pool = np.setdiff1d(np.arange(-self.HALF + 100, self.HALF - 99), list(span))
            absent = rng.choice(pool, size=self.ABSENT, replace=False)
            path = os.path.join(workdir, f"series{k}.csv")
            _write_series(path, ts, x, skip=absent)
            self.cases.append(self._case(path, f"{start}..{start + self.RANGE - 1}", "0.25",
                                         x, sorted(span | set(absent.tolist()))))
        fixed = np.random.default_rng(self.FIXED_SEED)
        x = mixture_1d(ts, fixed.integers(-50, 51, size=6), fixed.uniform(-1.0, 1.0, size=6))
        path = os.path.join(workdir, "complete.csv")
        _write_series(path, ts, x)
        self.cases.append(self._case(path, "1..25", "0.5", x, list(range(1, 26))))

    def _case(self, path, spec, omega, x, missing):
        w = float(omega) * math.pi
        offsets = np.asarray(missing) + self.HALF
        system = ref.system_1d(x, -self.HALF, missing, w, truth=x[offsets])
        # "--missing=SPEC" keeps a range that starts with "-" from reading as an option.
        argv = ["recover", "--input", path, f"--missing={spec}", "--omega", omega, "--output", self.out]
        return argv, missing, system

    @property
    def round_size(self) -> int:
        return len(self.cases)

    def run(self, k: int) -> Outcome:
        return _cli(self.bg, self.cases[k][0])

    def check(self, k: int, outcome: Outcome) -> list[str]:
        _, missing, system = self.cases[k]
        doc = _read_output(self.out)
        ts = [row["t"] for row in doc["values"]]
        if ts != missing:
            return [f"output covers {len(ts)} indices, expected the {len(missing)} missing ones"]
        y = [row["value"] for row in doc["values"]]
        return ref.check_solution(system, y, doc["diagnostics"]["rho"])


class Recover2DBlocks:
    """Library `recover` on 256^2, 320^2 and 384^2 grids with 16 8x8 blocks missing.

    Each grid is a sum of six separable sinc products band-limited to
    (0.2 pi, 0.35 pi), below the recovery band omega = (0.25 pi, 0.4 pi).
    Blocks sit in distinct interior 16x16 cells, so |M| = 1,024 always.
    """

    SIZES = (256, 320, 384)
    BLOCKS = 16
    BLOCK = 8
    SYNTH = (0.2 * math.pi, 0.35 * math.pi)
    OMEGA = (0.25 * math.pi, 0.4 * math.pi)

    def __init__(self, bg, seed: int, workdir: str):
        self.bg = bg
        rng = np.random.default_rng(seed)
        self.cases = []
        for n in self.SIZES:
            grid = np.arange(n)
            x = np.zeros((n, n))
            for _ in range(6):
                r, c = rng.integers(n // 4, 3 * n // 4, size=2)
                u = ref.kernel(self.SYNTH[0], grid - r)
                v = ref.kernel(self.SYNTH[1], grid - c)
                x += rng.uniform(-1.0, 1.0) * np.outer(u, v)
            cells = n // 16
            interior = [(i, j) for i in range(1, cells - 1) for j in range(1, cells - 1)]
            chosen = rng.choice(len(interior), size=self.BLOCKS, replace=False)
            missing = []
            for idx in chosen:
                i, j = interior[idx]
                r0, c0 = 16 * i + int(rng.integers(0, 9)), 16 * j + int(rng.integers(0, 9))
                missing.extend((r, c) for r in range(r0, r0 + self.BLOCK) for c in range(c0, c0 + self.BLOCK))
            missing.sort()
            coords = np.asarray(missing)
            truth = x[coords[:, 0], coords[:, 1]]
            system = ref.system_2d(x, (0, 0), missing, self.OMEGA, truth=truth)
            self.cases.append((n, x, missing, system))

    @property
    def round_size(self) -> int:
        return len(self.cases)

    def run(self, k: int) -> Outcome:
        bg = self.bg
        n, x, missing, _ = self.cases[k]
        window = bg.masks.IndexWindow((0, 0), (n - 1, n - 1))
        problem = bg.recovery.RecoveryProblem(
            series=bg.series.Series(window=window, values=x),
            mask=bg.masks.make_mask(window, missing),
            omega=bg.kernel.BandLimit(self.OMEGA),
        )
        try:
            solution = bg.recovery.recover(problem)
        except bg.errors.BandgapError as exc:
            return Outcome(False, str(exc))
        return Outcome(True, solution)

    def check(self, k: int, outcome: Outcome) -> list[str]:
        _, _, missing, system = self.cases[k]
        values = outcome.payload.values
        if sorted(values) != missing:
            return ["solution keys differ from the missing set"]
        y = [values[t] for t in missing]
        return ref.check_solution(system, y, outcome.payload.solve_report.rho)


class ForecastSensitivity:
    """Library `dummy_sensitivity`: 4 dummies x 6 gap lengths = 24 forecasts.

    Past on -400..0 and future window 1..400 come from one sinc mixture; the
    dummies are the true continuation, zero, and the continuation plus
    seeded white noise of two sizes.  Horizon 3, omega = 0.25 pi, rho = 0.
    One seeded input set makes a round.
    """

    PAST = 400
    FUTURE = 400
    GAPS = (8, 12, 16, 20, 26, 32)
    HORIZON = 3
    SETS = 1
    OMEGA = 0.25 * math.pi

    def __init__(self, bg, seed: int, workdir: str):
        self.bg = bg
        rng = np.random.default_rng(seed)
        ts = np.arange(-self.PAST, self.FUTURE + 1)
        # A depends on the gap length only, so one spectral norm per gap serves every set.
        self.norms = {m: ref.System(np.arange(1, m + 1), (self.OMEGA,), np.zeros(m)).norm
                      for m in self.GAPS}
        self.cases = []
        for _ in range(self.SETS):
            x = mixture_1d(ts, rng.integers(-150, 151, size=5), rng.uniform(-1.0, 1.0, size=5))
            past, future = x[: self.PAST + 1], x[self.PAST + 1:]
            scale = float(np.sqrt(np.mean(future**2)))
            dummies = [future, np.zeros(self.FUTURE),
                       future + 0.01 * scale * rng.standard_normal(self.FUTURE),
                       future + 0.1 * scale * rng.standard_normal(self.FUTURE)]
            self.cases.append((past, dummies, self._reference(past, dummies)))
        window = bg.masks.IndexWindow
        self.inputs = [
            (bg.series.Series(window=window(-self.PAST, 0), values=past),
             [bg.series.Series(window=window(1, self.FUTURE), values=d) for d in dummies])
            for past, dummies, _ in self.cases
        ]

    def _reference(self, past, dummies) -> list[tuple[float, float]]:
        """Per gap: the reference max pairwise forecast distance and its tolerance."""
        out = []
        for m in self.GAPS:
            forecasts, worst_norm = [], 0.0
            for d in dummies:
                values = np.concatenate([past, np.zeros(m), d[m:]])
                y = ref.system_1d(values, -self.PAST, np.arange(1, m + 1), self.OMEGA).solve(0.0)
                forecasts.append(y[: self.HORIZON])
                worst_norm = max(worst_norm, float(np.linalg.norm(y)))
            distance = max(float(np.linalg.norm(a - b)) for a, b in combinations(forecasts, 2))
            cond = 1.0 / (1.0 - self.norms[m])
            out.append((distance, 2.0 * ref.REL_TOL * cond * worst_norm))
        return out

    @property
    def round_size(self) -> int:
        return len(self.cases)

    def run(self, k: int) -> Outcome:
        bg = self.bg
        past, dummies = self.inputs[k]
        try:
            report = bg.forecast.dummy_sensitivity(
                past, self.HORIZON, dummies, list(self.GAPS), bg.kernel.BandLimit(self.OMEGA))
        except bg.errors.BandgapError as exc:
            return Outcome(False, str(exc))
        return Outcome(True, report)

    def check(self, k: int, outcome: Outcome) -> list[str]:
        report = outcome.payload
        if tuple(report.gaps) != self.GAPS:
            return [f"report gaps {report.gaps} differ from {self.GAPS}"]
        errors = []
        for m, d, (d_ref, tol) in zip(self.GAPS, report.distances, self.cases[k][2]):
            if not abs(d - d_ref) <= tol:
                errors.append(f"gap {m}: distance {d!r} vs reference {d_ref!r} (tolerance {tol:.2e})")
        increases = tuple(i for i in range(1, len(report.distances))
                          if report.distances[i] > report.distances[i - 1])
        if tuple(report.violations) != increases or report.non_increasing != (not increases):
            errors.append("violations and non_increasing disagree with the reported distances")
        return errors


class SimulateNoise:
    """`bandgap simulate` on noise-sweep configs shaped like the bundled noise_bound.json.

    Window half-width 250, five contiguous gaps at a seeded offset, sigma in
    {0, 0.01, 0.1}, 20 trials, omega = 0.25 pi, synthesis band 0.2 pi,
    rho = 0.  One config makes a round.  Its trial seeds are fixed: the
    program draws 2 to 4 pulses per trial signal from the trial seed, so a
    seeded trial seed would move the kernel counts of a traced run.
    """

    SIGMAS = (0.0, 0.01, 0.1)
    TRIALS = 20
    WINDOW = 250
    GAP = 5
    OMEGA = 0.25 * math.pi
    CONFIGS = 1
    TRIAL_SEEDS = (7,)

    def __init__(self, bg, seed: int, workdir: str):
        self.bg = bg
        self.out = os.path.join(workdir, "report.json")
        rng = np.random.default_rng(seed)
        self.norm = ref.System(np.arange(self.GAP), (self.OMEGA,), np.zeros(self.GAP)).norm
        self.cases = []
        for k in range(self.CONFIGS):
            start = int(rng.integers(-40, 41))
            doc = {
                "sweep": "noise", "values": list(self.SIGMAS), "trials": self.TRIALS,
                "seed": self.TRIAL_SEEDS[k], "omega": 0.25, "synth_band": 0.2,
                "missing": f"{start}..{start + self.GAP - 1}", "window": self.WINDOW, "rho": 0.0,
            }
            path = os.path.join(workdir, f"noise{k}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            self.cases.append((["simulate", "--config", path, "--output", self.out], doc))

    @property
    def round_size(self) -> int:
        return len(self.cases)

    def run(self, k: int) -> Outcome:
        return _cli(self.bg, self.cases[k][0])

    def check(self, k: int, outcome: Outcome) -> list[str]:
        doc = self.cases[k][1]
        report = _read_output(self.out)
        seeds = list(range(doc["seed"], doc["seed"] + self.TRIALS))
        expected = sorted((s, seed) for s in self.SIGMAS for seed in seeds)
        rows = report["rows"]
        if report["failures"] or sorted((r["value"], r["seed"]) for r in rows) != expected:
            return ["report rows do not cover every (sigma, seed) pair exactly once"]
        n_observed = 2 * self.WINDOW + 1 - self.GAP
        errors = []
        for r in rows:
            where = f"sigma={r['value']} seed={r['seed']}"
            if r["rho"] != 0.0 or abs(r["spectral_norm"] - self.norm) > 1e-12:
                errors.append(f"{where}: rho {r['rho']!r} or ||A|| {r['spectral_norm']!r} is wrong")
                continue
            bound = r["eta_norm"] / (1.0 - self.norm)
            if r["value"] == 0.0:
                ok = r["eta_norm"] == 0.0 and r["perturbation"] == 0.0
            else:
                expected_eta = r["value"] * math.sqrt(n_observed)
                ok = (0.5 * expected_eta <= r["eta_norm"] <= 1.5 * expected_eta
                      and abs(r["perturbation_bound"] - bound) <= 1e-9 * bound
                      and 0.0 < r["perturbation"] <= bound * (1.0 + 1e-9))
            if not ok or r["bound_violation"] != 0:
                errors.append(f"{where}: perturbation {r['perturbation']!r} against bound {bound!r}")
        if any(a["bound_violation_count"] != 0 or a["trials"] != self.TRIALS for a in report["aggregates"]):
            errors.append("aggregates report bound violations or missing trials")
        return errors


class Mix:
    """A workload whose round is the rounds of its PARTS, one after another."""

    name = ""
    PARTS: tuple = ()

    def __init__(self, bg, seed: int, workdir: str):
        parts = [cls(bg, seed, workdir) for cls in self.PARTS]
        self.ops = [(part, k) for part in parts for k in range(part.round_size)]

    @property
    def round_size(self) -> int:
        return len(self.ops)

    def run(self, k: int) -> Outcome:
        part, j = self.ops[k]
        return part.run(j)

    def check(self, k: int, outcome: Outcome) -> list[str]:
        part, j = self.ops[k]
        return part.check(j, outcome)


# The Python-bound forecast and simulate operations swing with the host's
# speed far more than the recover operations do (see README.md), so each
# rides along once per round of a steadier workload instead of forming a
# workload of its own: its layers are traced, and it stays a minority of
# the round, so the median latency remains that of the recover operations.
class CliRecoverSimulate(Mix):
    name = "cli_recover_simulate"
    PARTS = (CliRecover1D, SimulateNoise)


class Library2DForecast(Mix):
    name = "library_2d_forecast"
    PARTS = (Recover2DBlocks, ForecastSensitivity)


WORKLOADS = {w.name: w for w in (CliRecoverSimulate, Library2DForecast)}
