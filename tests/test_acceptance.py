"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the recorded diagnostics.  Tests execute in definition order;
the final test checks the whole module's wall-clock budget.
"""

import math
import time

import numpy as np

from bandgap import (
    BandLimit,
    IndexWindow,
    RecoveryProblem,
    Series,
    assemble_operator,
    assemble_rhs,
    diagnostics,
    error_bound,
    eigenvalues,
    forecast,
    make_mask,
    recover,
    solve_direct,
)
from bandgap.kernel import kernel_profile
from oracles import SolverConfig, oracle_recover, solve_neumann

_T0 = time.perf_counter()


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def closed_form(series: Series, s: int, omega: float) -> float:
    """Single-gap formula evaluated with plain math (independent of the package)."""
    total = 0.0
    for t in range(series.window.lo, series.window.hi + 1):
        if t == s:
            continue
        arg = omega * (s - t)
        total += series.values[t - series.window.lo] * (1.0 if arg == 0 else math.sin(arg) / arg)
    return omega / (math.pi - omega) * total


def mixture(ts, centers, amps, band):
    out = np.zeros(len(ts))
    for c, a in zip(centers, amps):
        out += a * kernel_profile(band, np.asarray(ts) - c)
    return out


def test_criterion_1_closed_form_equivalence():
    rng = np.random.default_rng(101)
    w = IndexWindow(-60, 60)
    mask = make_mask(w, [0])
    fracs = [0.1, 0.25, 0.5, 0.9]
    start = time.perf_counter()
    worst = 0.0
    for k in range(100):
        series = Series(window=w, values=rng.standard_normal(121))
        frac = fracs[k % 4]
        sol = recover(RecoveryProblem(series=series, mask=mask,
                                      omega=BandLimit.from_pi_fraction(frac), rho=0.0))
        expected = closed_form(series, 0, frac * math.pi)
        worst = max(worst, abs(sol.values[0] - expected))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-12 and elapsed < 1.0,
            f"max |recover - closed form| = {worst:.2e} (budget 1e-12), {elapsed:.2f}s (budget 1s)")


def test_criterion_2_three_gap_instance():
    worst_entry, min_margin = 0.0, np.inf
    for frac in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
        omega = frac * math.pi
        s1 = math.sin(omega) / omega
        s2 = math.sin(2 * omega) / (2 * omega)
        expected = omega / math.pi * np.array([[1, s1, s2], [s1, 1, s1], [s2, s1, 1]])
        op = assemble_operator(make_mask(IndexWindow(-5, 5), [0, 1, 2]), BandLimit(omega))
        worst_entry = max(worst_entry, float(np.max(np.abs(op.matrix - expected))))
        min_margin = min(min_margin, diagnostics(op).min_eig_I_minus_A)
    _report(2, worst_entry <= 1e-15 and min_margin > 0,
            f"max entry defect = {worst_entry:.2e} (budget 1e-15), "
            f"min lambda_min(I-A) = {min_margin:.3e} > 0")


def test_criterion_3_spectral_facts():
    rng = np.random.default_rng(1234)
    fracs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    lowest, highest, symmetric = np.inf, -np.inf, True
    for k in range(50):
        m = int(rng.integers(1, 41))
        gaps = rng.choice(np.arange(-200, 201), size=m, replace=False)
        op = assemble_operator(make_mask(IndexWindow(-200, 200), gaps),
                               BandLimit.from_pi_fraction(fracs[k % len(fracs)]))
        evs = eigenvalues(op)
        lowest = min(lowest, float(evs[0]))
        highest = max(highest, float(evs[-1]))
        symmetric = symmetric and np.array_equal(op.matrix, op.matrix.T)
    ok = lowest >= -1e-10 and highest <= 1 - 1e-12 and symmetric
    _report(3, ok, f"eigs in [{lowest:.2e}, 1 - {1 - highest:.2e}] "
                   f"(budget [-1e-10, 1-1e-12]), A equals its transpose exactly: {symmetric}")


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(404)
    w = IndexWindow(-64, 64)
    rhos = [0.0, 0.1, 1.0]
    worst = {rho: 0.0 for rho in rhos}
    for k in range(20):
        rho = rhos[k % 3]
        m = int(rng.integers(1, 7))
        gaps = np.sort(rng.choice(np.arange(-64, 65), size=m, replace=False))
        mask = make_mask(w, gaps)
        series = Series(window=w, values=rng.standard_normal(129))
        problem = RecoveryProblem(series=series, mask=mask,
                                  omega=BandLimit.from_pi_fraction(0.25), rho=rho)
        y = recover(problem).vector()
        y_oracle = oracle_recover(problem, grid=50_000).vector()
        rel = float(np.max(np.abs(y - y_oracle)) / max(np.max(np.abs(y)), 1e-30))
        worst[rho] = max(worst[rho], rel)
    ok = worst[0.0] <= 1e-4 and worst[0.1] <= 1e-6 and worst[1.0] <= 1e-6

    # Record how the regularized solution actually relates to the plain one:
    # the claimed pure rescaling y_rho = y_0/(1+rho) does not hold, while the
    # shifted operator equation (verified above against the oracle) does.
    mask = make_mask(w, range(1, 6))
    series = Series(window=w, values=np.asarray(np.random.default_rng(5).standard_normal(129)))
    bl = BandLimit.from_pi_fraction(0.25)
    y0 = recover(RecoveryProblem(series=series, mask=mask, omega=bl, rho=0.0)).vector()
    rho = 0.1
    y_rho = recover(RecoveryProblem(series=series, mask=mask, omega=bl, rho=rho)).vector()
    scaling_dev = float(np.linalg.norm(y_rho - y0 / (1 + rho)) / np.linalg.norm(y_rho))
    print(f"[acceptance] criterion  4 note: ||y_rho - y_0/(1+rho)||/||y_rho|| = {scaling_dev:.3f} "
          f"at rho={rho} (pure-rescaling relation does not hold; the oracle matches the "
          f"shifted equation's solution instead)")
    _report(4, ok, f"recover vs oracle rel diff: rho=0: {worst[0.0]:.2e} (budget 1e-4), "
                   f"rho=0.1: {worst[0.1]:.2e}, rho=1.0: {worst[1.0]:.2e} (budget 1e-6)")


def test_criterion_5_solver_cross_check():
    rng = np.random.default_rng(505)
    w = IndexWindow(-60, 60)
    mask = make_mask(w, range(1, 13))
    bl = BandLimit.from_pi_fraction(0.25)
    series = Series(window=w, values=rng.standard_normal(121))
    op, a = assemble_operator(mask, bl), assemble_rhs(series, mask, bl)
    worst, iters = 0.0, {}
    for rho in [0.0, 0.01]:
        direct = solve_direct(op, rho, a)
        iterative = solve_neumann(op, rho, a, SolverConfig(tol=1e-12, max_iter=200_000))
        worst = max(worst, float(np.max(np.abs(direct.y - iterative.y))))
        iters[rho] = iterative.iterations
    _report(5, worst <= 1e-10,
            f"|neumann - direct| = {worst:.2e} (budget 1e-10), "
            f"iterations: rho=0: {iters[0.0]}, rho=0.01: {iters[0.01]}")


def test_criterion_6_bandlimited_recovery():
    centers, amps = [-3, 0, 4], [1.0, -0.7, 0.5]
    band = 0.2 * math.pi
    gaps = list(range(1, 6))
    truth = mixture(gaps, centers, amps, band)
    errors = []
    for half in (250, 500, 1000):
        w = IndexWindow(-half, half)
        series = Series(window=w, values=mixture(np.arange(-half, half + 1), centers, amps, band))
        sol = recover(RecoveryProblem(series=series, mask=make_mask(w, gaps),
                                      omega=BandLimit.from_pi_fraction(0.25), rho=0.0))
        errors.append(float(np.max(np.abs(sol.vector() - truth)) / np.max(np.abs(truth))))
    ok = errors[1] <= 1e-3 and errors[0] > errors[1] > errors[2]
    _report(6, ok, "rel errors at windows 250/500/1000 = "
                   + "/".join(f"{e:.2e}" for e in errors)
                   + " (budget 1e-3 at 500, strictly decreasing)")


def test_criterion_7_noise_bound_soundness():
    rng = np.random.default_rng(707)
    w = IndexWindow(-100, 100)
    mask = make_mask(w, range(1, 6))
    bl = BandLimit.from_pi_fraction(0.25)
    op = assemble_operator(mask, bl)
    violations, trials = 0, 0
    margin_worst = np.inf
    for sigma in (0.01, 0.1):
        for _ in range(100):
            series = Series(window=w, values=rng.standard_normal(201))
            eta = sigma * rng.standard_normal(201)
            for t in mask.missing:
                eta[t - w.lo] = 0.0
            noisy = Series(window=w, values=series.values + eta)
            y = solve_direct(op, 0.0, assemble_rhs(series, mask, bl)).y
            y_eta = solve_direct(op, 0.0, assemble_rhs(noisy, mask, bl)).y
            bound = error_bound(op, 0.0, float(np.linalg.norm(eta)))
            deviation = float(np.linalg.norm(y - y_eta))
            margin_worst = min(margin_worst, bound - deviation)
            violations += int(deviation > bound)
            trials += 1
    _report(7, violations == 0 and trials == 200,
            f"{trials} trials, {violations} bound violations (budget 0), "
            f"smallest slack = {margin_worst:.3e}")


def test_criterion_8_eigenvalue_trend():
    bl = BandLimit.from_pi_fraction(0.25)
    mins = []
    for m in range(1, 21):
        op = assemble_operator(make_mask(IndexWindow(1, m), range(1, m + 1)), bl)
        mins.append(diagnostics(op).min_eig_I_minus_A)
    ok = all(v > 0 for v in mins) and all(a > b for a, b in zip(mins, mins[1:])) \
        and abs(mins[0] - 0.75) <= 1e-12
    _report(8, ok, f"lambda_min(I-A) positive and strictly decreasing over m=1..20; "
                   f"m=1 value = {mins[0]:.15f} (=0.75 to 1e-12), m=20 value = {mins[-1]:.3e}")


def test_criterion_9_forecast_insensitivity():
    q = n = 60
    band = 0.2 * math.pi
    bl = BandLimit.from_pi_fraction(0.25)
    centers, amps = [-20, -5, 3, 15], [1.0, 0.8, -0.6, 0.4]
    full = mixture(np.arange(-q, n + 1), centers, amps, band)
    past = Series(window=IndexWindow(-q, 0), values=full[: q + 1])

    def paired_distance(m: int) -> np.ndarray:
        dummy = Series(window=IndexWindow(m + 1, n), values=full[q + 1 + m :])
        with_true = forecast(past, 3, m, bl, dummy=dummy)
        with_zero = forecast(past, 3, m, bl)
        return np.abs(with_true.full_gap - with_zero.full_gap)

    diff12 = paired_distance(12)
    near = float(np.linalg.norm(diff12[:3]))
    far = float(np.linalg.norm(diff12[9:12]))

    near_by_gap = [float(np.linalg.norm(paired_distance(m)[:3])) for m in (4, 8, 12, 16)]
    increases = sum(1 for a, b in zip(near_by_gap, near_by_gap[1:]) if b > a)
    if increases == 1:
        print("[acceptance] criterion  9 warning: one increasing step in the "
              f"insensitivity trend {near_by_gap}")
    ok = near < far and increases <= 1
    _report(9, ok, f"dist{{1..3}} = {near:.3e} < dist{{10..12}} = {far:.3e}; "
                   f"trend over m=4/8/12/16 = " + "/".join(f"{d:.2e}" for d in near_by_gap)
                   + f" ({increases} increase(s), budget <= 1)")


def test_criterion_10_total_runtime():
    elapsed = time.perf_counter() - _T0
    _report(10, elapsed < 60.0, f"acceptance suite wall clock = {elapsed:.1f}s (budget 60s)")
