"""Tests of the benchmark itself: references, checks, tracer and BENCHMARK.json.

    python3 -m pytest bench -q

The references are compared with brute-force loops in plain `math` on small
cases and with the single-gap closed form; each workload's check must pass a
real program result and catch the same result corrupted on purpose.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import run
import workloads
from tracer import PER_LAYER, TRACED, Tracer


def h(w, t):
    return w / math.pi if t == 0 else math.sin(w * t) / (math.pi * t)


@pytest.fixture(scope="module")
def bg():
    return run.import_program()


def test_gap_matrix_matches_loops_1d_and_2d():
    rng = np.random.default_rng(0)
    pts = rng.integers(-30, 30, size=(7, 2))
    w1, w2 = 0.3 * math.pi, 0.7 * math.pi
    want = [[h(w1, a[0] - b[0]) * h(w2, a[1] - b[1]) for b in pts] for a in pts]
    np.testing.assert_allclose(ref.gap_matrix(pts, pts, (w1, w2)), want, rtol=0, atol=1e-15)
    system = ref.System(pts, (w1, w2), np.zeros(len(pts)))
    system.CHUNK = 3  # several row blocks
    np.testing.assert_allclose(system.matrix(), want, rtol=0, atol=1e-15)
    v = rng.standard_normal(len(pts))
    np.testing.assert_allclose(system.matvec(v), np.asarray(want) @ v, rtol=0, atol=1e-14)
    col = pts[:, :1]
    got1 = ref.System(col[:, 0], (w1,), np.zeros(len(pts))).matrix()
    np.testing.assert_allclose(got1, [[h(w1, a - b) for b in col[:, 0]] for a in col[:, 0]], atol=1e-15)


def test_rhs_1d_matches_loop():
    rng = np.random.default_rng(1)
    lo, x = -40, rng.standard_normal(81)
    missing = [-40, -3, 0, 1, 2, 17, 40]
    w = 0.25 * math.pi
    want = [sum(h(w, s - t) * x[t - lo] for t in range(lo, lo + 81) if t not in missing) for s in missing]
    np.testing.assert_allclose(ref.rhs_1d(x, lo, missing, w), want, rtol=0, atol=1e-13)


def test_rhs_2d_matches_loop():
    rng = np.random.default_rng(2)
    lo, x = (-4, 3), rng.standard_normal((9, 11))
    missing = [(-4, 3), (0, 5), (0, 6), (1, 5), (4, 13)]
    w = (0.4 * math.pi, 0.6 * math.pi)
    want = []
    for s in missing:
        total = 0.0
        for i in range(9):
            for j in range(11):
                t = (lo[0] + i, lo[1] + j)
                if t not in missing:
                    total += h(w[0], s[0] - t[0]) * h(w[1], s[1] - t[1]) * x[i, j]
        want.append(total)
    np.testing.assert_allclose(ref.rhs_2d(x, lo, missing, w), want, rtol=0, atol=1e-13)


def test_single_gap_closed_form():
    """x_hat(s) = omega/(pi - omega) * sum_{m != s} x(m) sin(omega (s-m)) / (omega (s-m))."""
    rng = np.random.default_rng(3)
    lo, x, s = -60, rng.standard_normal(121), 5
    for frac in (0.1, 0.25, 0.5, 0.9):
        w = frac * math.pi
        closed = w / (math.pi - w) * sum(
            x[t - lo] * math.sin(w * (s - t)) / (w * (s - t)) for t in range(lo, lo + 121) if t != s)
        y = ref.system_1d(x, lo, [s], w).solve(0.0)
        assert abs(y[0] - closed) <= 1e-12


def test_check_solution_accepts_reference_and_rejects_corruption():
    ts = np.arange(-300, 301)
    x = workloads.mixture_1d(ts, [-5, 12], [0.7, -0.4])
    missing = [-2, -1, 0, 1, 2, 50]
    system = ref.system_1d(x, -300, missing, 0.25 * math.pi, truth=x[np.asarray(missing) + 300])
    y = system.solve(1e-4)
    assert ref.check_solution(system, y, 1e-4) == []
    bad = y.copy()
    bad[2] *= 1 + 1e-6
    assert ref.check_solution(system, bad, 1e-4)
    assert ref.check_solution(system, y, 1e-3)  # right vector, wrong rho
    assert ref.check_solution(system, y[:-1], 1e-4)
    with pytest.raises(ValueError):
        ref.parse_rfc_json('{"residual": Infinity}')


# Small versions of the workloads: same code paths, inputs that build quickly.
class SmallCli(workloads.CliRecover1D):
    HALF, FILES, ABSENT, RANGE = 400, 2, 10, 4


class Small2D(workloads.Recover2DBlocks):
    SIZES, BLOCKS = (64,), 4


class SmallSimulate(workloads.SimulateNoise):
    TRIALS = 3


class SmallMix(workloads.Mix):
    PARTS = (SmallCli, SmallSimulate)


def _rewrite_json(path, edit):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    edit(doc)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def test_cli_recover_check_catches_corruption(bg, tmp_path):
    wl = SmallCli(bg, 7, str(tmp_path))
    assert wl.round_size == 3
    assert wl.check(0, wl.run(0)) == []
    outcome = wl.run(1)
    _rewrite_json(wl.out, lambda d: d["values"][3].update(value=d["values"][3]["value"] + 1e-4))
    assert wl.check(1, outcome)
    failing = wl.run(2)  # the fixed default-rho case
    assert not failing.ok and failing.payload["exit"] == 4


def test_cli_recover_check_rejects_non_rfc_json(bg, tmp_path):
    wl = SmallCli(bg, 7, str(tmp_path))
    outcome = wl.run(0)
    _rewrite_json(wl.out, lambda d: d["diagnostics"].update(residual=float("inf")))
    with pytest.raises(ValueError):
        wl.check(0, outcome)


def test_recover_2d_check_catches_corruption(bg, tmp_path):
    wl = Small2D(bg, 3, str(tmp_path))
    outcome = wl.run(0)
    assert outcome.ok and wl.check(0, outcome) == []
    t = next(iter(outcome.payload.values))
    outcome.payload.values[t] += 1e-6
    assert wl.check(0, outcome)


def test_forecast_check_catches_corruption(bg, tmp_path):
    wl = workloads.ForecastSensitivity(bg, 4, str(tmp_path))
    outcome = wl.run(0)
    assert outcome.ok and wl.check(0, outcome) == []
    report = outcome.payload
    bent = dataclasses.replace(report, distances=(report.distances[0] * (1 + 1e-6),) + report.distances[1:])
    assert wl.check(0, workloads.Outcome(True, bent))


def test_simulate_check_catches_corruption(bg, tmp_path):
    wl = SmallSimulate(bg, 5, str(tmp_path))
    assert wl.check(0, wl.run(0)) == []
    outcome = wl.run(0)

    def halve_bound(doc):
        row = next(r for r in doc["rows"] if r["value"] > 0)
        row["perturbation_bound"] *= 0.5

    _rewrite_json(wl.out, halve_bound)
    assert wl.check(0, outcome)


def test_mix_runs_its_parts_in_order(bg, tmp_path):
    wl = SmallMix(bg, 8, str(tmp_path))
    assert wl.round_size == 3 + 1
    ok = []
    for k in range(wl.round_size):  # each output is checked before the next run replaces it
        outcome = wl.run(k)
        ok.append(outcome.ok)
        assert not outcome.ok or wl.check(k, outcome) == []
    assert ok == [True, True, False, True]


def test_tracer_spans_counts_and_restore(bg):
    from bandgap import BandLimit, IndexWindow, RecoveryProblem, Series

    window = IndexWindow(-50, 50)
    problem = RecoveryProblem(series=Series(window=window, values=np.ones(101)),
                              mask=bg.masks.make_mask(window, [0, 1]), omega=BandLimit(1.0))
    original = bg.operators.diagnostics
    tracer = Tracer()
    tracer.install()
    try:
        assert bg.solvers.diagnostics is not original and bg.recovery.diagnostics is not original
        tracer.op = 0
        bg.recovery.recover(problem)
    finally:
        tracer.uninstall()
    assert bg.solvers.diagnostics is original and bg.operators.diagnostics is original
    names = [s[2] for s in tracer.spans]
    assert names.count("recovery.recover") == 1 and names.count("operators.diagnostics") == 2
    by_id = {s[0]: s for s in tracer.spans}
    nested = [s for s in tracer.spans if s[2] == "operators.diagnostics" and s[1] is not None
              and by_id[s[1]][2] == "solvers.solve_direct"]
    assert len(nested) == 1
    assert tracer.evals == 2 * 2 + 2 * 101  # operator 2x2 lags, rhs 2 x window
    assert all(own <= s[5] - s[4] + 1e-12 for s, own in zip(tracer.spans, tracer.self_times()))
    metrics = tracer.layer_metrics(1, 0.0)
    assert metrics["recovery.recover.calls"] == 1 and metrics["operators.assemble_rhs.peak_mb"] > 0


def test_benchmark_json_matches_code():
    doc = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert {m["name"] for m in doc["end_to_end"]} == {"latency_p50_ms", "ops_per_s", "peak_rss_mb", "setup_s"}
    assert all(name.split(".")[0] in run.PROGRAM_MODULES for name in TRACED)
