"""Signal synthesis, noise, the brute-force oracle, and the experiment harness."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import bandgap.lab as lab
from bandgap import (
    BandLimit,
    ExperimentConfig,
    GeometryError,
    IndexWindow,
    ParameterError,
    RecoveryProblem,
    Series,
    add_noise,
    gen_bandlimited,
    make_mask,
    recover,
    run_experiment,
)
from bandgap.kernel import _kept_taps, kernel_profile
from bandgap.masks import MAX_WINDOW_SIZE
from bandgap.cli import main
import oracles
from oracles import OracleConditioningError, oracle_grid_sensitivity, oracle_recover, recover_single_value

OMEGA = BandLimit.from_pi_fraction(0.25)


class TestGenBandlimited:
    def test_single_pulse_is_kernel(self):
        w = IndexWindow(-50, 50)
        s = gen_bandlimited(OMEGA, w, centers=(0,), amplitudes=(1.0,))
        ts = np.arange(-50, 51)
        assert np.max(np.abs(s.values - kernel_profile(0.25 * math.pi, ts))) == 0.0

    def test_mixture_is_projection_fixed_point(self):
        half = 2000
        w = IndexWindow(-half, half)
        s = gen_bandlimited(OMEGA, w, centers=(-11, 2, 9), amplitudes=(0.5, 1.0, -0.25))
        ts = np.arange(-half, half + 1)
        for t in (-4, 0, 7):
            conv = float(kernel_profile(0.25 * math.pi, t - ts) @ s.values)
            assert conv == pytest.approx(s.values[t + half], rel=1e-2)

    def test_spec_validation(self):
        w = IndexWindow(-10, 10)
        with pytest.raises(ParameterError, match="^a sinc mixture needs matching nonempty centers/amplitudes$"):
            gen_bandlimited(OMEGA, w, centers=(0,), amplitudes=())


class TestAddNoise:
    def test_sigma_zero_is_identity(self):
        w = IndexWindow(-5, 5)
        s = Series(window=w, values=np.arange(11.0))
        noisy = add_noise(s, 0.0, seed=1)
        assert noisy.eta_norm == 0.0
        assert np.array_equal(noisy.series.values, s.values)

    def test_deterministic_and_norm_exact(self):
        w = IndexWindow(-10, 10)
        s = Series.zeros(w)
        n1 = add_noise(s, 0.1, seed=42)
        n2 = add_noise(s, 0.1, seed=42)
        assert np.array_equal(n1.series.values, n2.series.values)
        assert n1.eta_norm == pytest.approx(np.linalg.norm(n1.series.values), abs=0)

    def test_mask_limits_perturbation_to_observed(self):
        w = IndexWindow(-10, 10)
        mask = make_mask(w, [0, 1])
        s = Series.zeros(w)
        noisy = add_noise(s, 0.5, seed=7, mask=mask)
        assert noisy.series.values[10] == 0.0
        assert noisy.series.values[11] == 0.0
        assert noisy.eta_norm > 0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ParameterError):
            add_noise(Series.zeros(IndexWindow(0, 1)), -0.1, seed=0)


class TestOracle:
    def test_zero_input(self):
        w = IndexWindow(-32, 32)
        mask = make_mask(w, [0])
        problem = RecoveryProblem(series=Series.zeros(w), mask=mask, omega=OMEGA, rho=0.0)
        sol = oracle_recover(problem, grid=2000)
        assert sol.values[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -1.0])
    def test_rho_is_resolved_as_by_the_pipeline(self, rho):
        w = IndexWindow(-32, 32)
        problem = RecoveryProblem(series=Series.zeros(w), mask=make_mask(w, [0]), omega=OMEGA, rho=rho)
        with pytest.raises(ParameterError, match="finite nonnegative"):
            oracle_recover(problem, grid=2000)

    def test_singleton_matches_closed_form(self):
        rng = np.random.default_rng(6)
        w = IndexWindow(-64, 64)
        s = Series(window=w, values=rng.standard_normal(129))
        mask = make_mask(w, [0])
        problem = RecoveryProblem(series=s, mask=mask, omega=OMEGA, rho=0.0)
        sol = oracle_recover(problem, grid=50_000)
        cf = recover_single_value(s, 0, OMEGA)
        assert sol.values[0] == pytest.approx(cf, abs=1e-4)

    @pytest.mark.parametrize("rho", [0.1, 1.0])
    def test_matches_recover_at_positive_rho(self, rho):
        rng = np.random.default_rng(17)
        w = IndexWindow(-64, 64)
        s = Series(window=w, values=rng.standard_normal(129))
        mask = make_mask(w, range(1, 6))
        problem = RecoveryProblem(series=s, mask=mask, omega=OMEGA, rho=rho)
        direct = recover(problem).vector()
        brute = oracle_recover(problem, grid=50_000).vector()
        rel = np.max(np.abs(direct - brute)) / np.max(np.abs(direct))
        assert rel <= 1e-6

    def test_grid_self_consistency(self):
        rng = np.random.default_rng(29)
        w = IndexWindow(-64, 64)
        s = Series(window=w, values=rng.standard_normal(129))
        mask = make_mask(w, [1, 2, 3])
        problem = RecoveryProblem(series=s, mask=mask, omega=OMEGA, rho=0.0)
        assert oracle_grid_sensitivity(problem, grid=50_000) <= 1e-8

    def test_structural_independence(self, monkeypatch):
        # The oracle must not touch the operator/solver code paths at all.
        import bandgap.operators as operators
        import bandgap.solvers as solvers

        def boom(*args, **kwargs):
            raise AssertionError("oracle called into operator/solver machinery")

        monkeypatch.setattr(operators, "assemble_operator", boom)
        monkeypatch.setattr(operators, "assemble_rhs", boom)
        monkeypatch.setattr(solvers, "solve_direct", boom)
        monkeypatch.setattr(oracles, "solve_neumann", boom)
        rng = np.random.default_rng(31)
        w = IndexWindow(-32, 32)
        s = Series(window=w, values=rng.standard_normal(65))
        problem = RecoveryProblem(series=s, mask=make_mask(w, [0, 1]), omega=OMEGA, rho=0.1)
        sol = oracle_recover(problem, grid=2000)
        assert np.isfinite(sol.vector()).all()

    def test_window_and_grid_guards(self):
        w = IndexWindow(-65, 65)
        s = Series.zeros(w)
        problem = RecoveryProblem(series=s, mask=make_mask(w, [0]), omega=OMEGA, rho=0.0)
        with pytest.raises(GeometryError):
            oracle_recover(problem, grid=50_000)
        w2 = IndexWindow(-30, 30)
        problem2 = RecoveryProblem(series=Series.zeros(w2), mask=make_mask(w2, [0]), omega=OMEGA, rho=0.0)
        with pytest.raises(ParameterError):
            oracle_recover(problem2, grid=100)

    def test_2d_rejected(self):
        w = IndexWindow((-5, -5), (5, 5))
        problem = RecoveryProblem(series=Series.zeros(w), mask=make_mask(w, [(0, 0)]),
                                  omega=BandLimit.from_pi_fraction((0.25, 0.25)), rho=0.0)
        with pytest.raises(GeometryError):
            oracle_recover(problem, grid=2000)

    def test_conditioning_guard_fires_on_huge_contiguous_gap(self):
        rng = np.random.default_rng(44)
        w = IndexWindow(-32, 32)
        s = Series(window=w, values=rng.standard_normal(65))
        mask = make_mask(w, range(-20, 20))  # 40 consecutive gaps
        bad = RecoveryProblem(series=s, mask=mask, omega=OMEGA, rho=0.0)
        with pytest.raises(OracleConditioningError):
            oracle_recover(bad, grid=2000)
        # a small ridge restores solvability on the same instance
        ok = RecoveryProblem(series=s, mask=mask, omega=OMEGA, rho=0.1)
        assert np.isfinite(oracle_recover(ok, grid=2000).vector()).all()


class TestExperiments:
    def test_config_validation(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(sweep="bogus", values=(1,), seeds=(0,), omega=0.25 * np.pi,
                             synth_band=0.2 * np.pi)
        with pytest.raises(ParameterError):
            ExperimentConfig(sweep="window", values=(500, 250), seeds=(0,), omega=0.25 * np.pi,
                             synth_band=0.2 * np.pi)
        with pytest.raises(ParameterError):
            ExperimentConfig(sweep="window", values=(250,), seeds=(), omega=0.25 * np.pi,
                             synth_band=0.2 * np.pi)
        for seeds in [(3, -1), range(-1, 10**9), range(2, -2, -1)]:
            with pytest.raises(ParameterError, match="seeds must be nonnegative"):
                ExperimentConfig(sweep="window", values=(250,), seeds=seeds, omega=0.25 * np.pi,
                                 synth_band=0.2 * np.pi)
        for fields in [{"values": (250.5,)}, {"seeds": (1.5,)}, {"window": 50.7}]:
            with pytest.raises(ParameterError, match="is not a whole number"):
                ExperimentConfig(**{"sweep": "window", "values": (250,), "seeds": (0,), "omega": 0.25 * np.pi,
                                    "synth_band": 0.2 * np.pi, **fields})

    def test_from_json_expands_seed(self):
        config = ExperimentConfig.from_json_dict({
            "sweep": "noise", "values": [0.0, 0.1], "seed": 5, "trials": 3,
            "omega": 0.25, "synth_band": 0.2,
        })
        assert config.seeds == range(5, 8)
        assert config.omega == pytest.approx(0.25 * np.pi)

    def test_from_json_keeps_a_huge_trial_count_lazy(self):
        doc = {"sweep": "noise", "values": [0.0], "seed": 5, "trials": 10**9,
               "omega": 0.25, "synth_band": 0.2}
        tracemalloc.start()
        try:
            config = ExperimentConfig.from_json_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(config.seeds) == 10**9 and config.seeds[-1] == 5 + 10**9 - 1
        assert peak < 2**20  # a tuple of the seeds would take about 38 GB

    def test_a_failing_value_with_a_huge_trial_count_stays_small(self):
        config = ExperimentConfig.from_json_dict({"sweep": "window", "values": [MAX_WINDOW_SIZE], "seed": 5,
                                                  "trials": 10**9, "omega": 0.25, "synth_band": 0.2})
        tracemalloc.start()
        try:
            echo = config.echo()
            with pytest.raises(GeometryError, match=str(MAX_WINDOW_SIZE)):
                run_experiment(config)  # the window fails before any trial runs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (echo["seed"], echo["trials"]) == (5, 10**9) and "seeds" not in echo
        assert peak < 4 * 2**20  # a failure row or a listed seed per trial would take tens of GB

    def test_a_failing_value_names_its_seed_range(self):
        config = ExperimentConfig.from_json_dict({"sweep": "gap", "values": [5, 300], "seed": 4, "trials": 2,
                                                  "omega": 0.25, "synth_band": 0.2, "window": 100})
        report = run_experiment(config)
        (failed,) = report["failures"]
        assert {k: failed[k] for k in ("value", "seed", "trials", "status")} == {
            "value": 300, "seed": 4, "trials": 2, "status": "failed"}
        assert [r["seed"] for r in report["rows"]] == [4, 5]

    @pytest.mark.parametrize("trials", [0, -3])
    def test_from_json_without_trials_is_parameter_error(self, trials):
        with pytest.raises(ParameterError, match="at least one trial"):
            ExperimentConfig.from_json_dict({"sweep": "noise", "values": [0.0], "trials": trials,
                                             "omega": 0.25, "synth_band": 0.2})

    def test_window_sweep_error_decreases(self):
        config = ExperimentConfig(
            sweep="window", values=(250, 500, 1000), seeds=(20,),
            omega=0.25 * np.pi, synth_band=0.2 * np.pi, missing="1..5", rho=0.0,
        )
        report = run_experiment(config)
        errs = [row["max_max_abs_error"] for row in report["aggregates"]]
        assert errs[0] > errs[1] > errs[2]

    def test_noise_sweep_no_bound_violations(self):
        config = ExperimentConfig(
            sweep="noise", values=(0.0, 0.01, 0.1), seeds=tuple(range(7, 17)),
            omega=0.25 * np.pi, synth_band=0.2 * np.pi, missing="1..5", window=250, rho=0.0,
        )
        report = run_experiment(config)
        assert sum(agg["bound_violation_count"] for agg in report["aggregates"]) == 0
        # error grows with sigma but stays within the linear-in-eta budget
        sigmas = [row["value"] for row in report["aggregates"]]
        assert sigmas == [0.0, 0.01, 0.1]

    def test_gap_sweep_min_eig_trend(self):
        config = ExperimentConfig(
            sweep="gap", values=tuple(range(1, 21)), seeds=(3,),
            omega=0.25 * np.pi, synth_band=0.2 * np.pi, window=100, rho=0.0,
        )
        report = run_experiment(config)
        mins = [agg["min_eig_I_minus_A"] for agg in report["aggregates"]]
        assert all(v > 0 for v in mins)
        assert all(a > b for a, b in zip(mins, mins[1:]))

    def test_gap_sweep_default_rho_solves_a_gap_singular_at_rho_zero(self):
        report = run_experiment(ExperimentConfig.from_json_dict(
            {"sweep": "gap", "values": [5, 40], "omega": 0.5, "synth_band": 0.2}))
        assert [(row["value"], row["status"], row["rho"]) for row in report["rows"]] == [
            (5, "ok", 0.0), (40, "ok", 1e-8)]
        assert report["failures"] == []

    def test_determinism(self):
        config = ExperimentConfig(
            sweep="rho", values=(0.0, 0.1, 1.0), seeds=(11, 12),
            omega=0.25 * np.pi, synth_band=0.2 * np.pi, missing="1..3", window=120,
        )
        r1, r2 = run_experiment(config), run_experiment(config)
        strip = lambda rows: [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]
        assert strip(r1["rows"]) == strip(r2["rows"])
        assert r1["aggregates"] == r2["aggregates"]

    def test_aggregate_carries_the_warnings_of_its_value(self):
        # 1 - ||A|| of the gap 1..25 at half band is below working precision; rho keeps it solvable
        report = run_experiment(ExperimentConfig.from_json_dict(
            {"sweep": "rho", "values": [0.0001], "omega": 0.5, "synth_band": 0.2, "missing": "1..25",
             "window": 200}))
        (aggregate,) = report["aggregates"]
        assert any("below working precision" in w for w in aggregate["warnings"])
        assert report["rows"][0]["spectral_norm"] == 1.0 and "warnings" not in report["rows"][0]
        clear = run_experiment(ExperimentConfig.from_json_dict(
            {"sweep": "rho", "values": [0.0001], "omega": 0.25, "synth_band": 0.2, "missing": "1..5"}))
        assert clear["aggregates"][0]["warnings"] == []

    def test_rho_sweep_damps_solution_norm(self):
        config = ExperimentConfig(
            sweep="rho", values=(0.0, 0.1, 1.0, 10.0), seeds=(2,),
            omega=0.25 * np.pi, synth_band=0.2 * np.pi, missing="1..4", window=150,
        )
        report = run_experiment(config)
        norms = [agg["mean_sol_norm"] for agg in report["aggregates"]]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_report_writers(self, tmp_path, capsys):
        config = ExperimentConfig(
            sweep="noise", values=(0.0, 0.05), seeds=(1,),
            omega=0.25 * np.pi, synth_band=0.2 * np.pi, missing="1..2", window=100,
        )
        report = run_experiment(config)
        cfg, jpath = tmp_path / "config.json", tmp_path / "report.json"
        cfg.write_text(json.dumps({"sweep": "noise", "values": [0.0, 0.05], "seeds": [1], "omega": 0.25,
                                   "synth_band": 0.2, "missing": "1..2", "window": 100}))
        assert main(["simulate", "--config", str(cfg), "--output", str(jpath)]) == 0
        loaded = json.loads(jpath.read_text())
        assert loaded["config"]["sweep"] == "noise"
        assert loaded["generator"] == lab.RNG_ALGORITHM
        assert len(loaded["rows"]) == len(report["rows"])
        cpath = tmp_path / "report.csv"
        assert main(["simulate", "--config", str(cfg), "--format", "csv", "--output", str(cpath)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg), "--format", "csv"]) == 0
        for text in (cpath.read_text(), capsys.readouterr().out):
            lines = text.strip().splitlines()
            assert lines[0] == f"# version={loaded['version']}"
            assert json.loads(lines[1].removeprefix("# config=")) == loaded["config"]
            assert lines[2].split(",") == lab.ROW_FIELDS
            assert len(lines) == 3 + len(report["rows"])
            assert [line.split(",")[:3] for line in lines[3:]] == [["noise", "0.0", "1"], ["noise", "0.05", "1"]]

    def test_config_values_are_converted_and_checked(self):
        base = dict(seeds=(0,), omega=0.25 * np.pi, synth_band=0.2 * np.pi)
        assert ExperimentConfig(sweep="window", values=("250", 500.0), **base).values == (250, 500)
        assert ExperimentConfig(sweep="noise", values=(0, "0.1"), **base).values == (0.0, 0.1)
        for sweep, values, extra in (("window", ("a",), {}), ("noise", (None,), {}),
                                     ("noise", (-0.1, 0.1), {}), ("rho", (-1.0,), {}),
                                     ("gap", (0, 5), {}), ("window", (250,), {"sigma": -0.1}),
                                     ("window", (250,), {"rho": -1e-4}),
                                     ("rho", (math.nan,), {}), ("rho", (0.0, math.inf), {}),
                                     ("noise", (math.nan,), {}), ("noise", (0.1, math.inf), {}),
                                     ("window", (math.inf,), {}), ("window", (250,), {"sigma": math.nan}),
                                     ("window", (250,), {"sigma": math.inf}),
                                     ("window", (250,), {"rho": math.nan}),
                                     ("window", (250,), {"rho": math.inf})):
            with pytest.raises(ParameterError):
                ExperimentConfig(sweep=sweep, values=values, **base, **extra)


SWEEP_CONFIGS = [
    dict(sweep="noise", values=(0.0, 0.01, 0.1), missing="1..5", window=80, rho=0.0),
    dict(sweep="gap", values=(1, 4, 9), window=60, rho=0.0),
    dict(sweep="rho", values=(0.0, 0.1, 1.0), missing="1..3", window=70, sigma=0.05),
    dict(sweep="window", values=(50, 100, 200), missing="1..5", rho=None),
]


@pytest.mark.parametrize("sweep", SWEEP_CONFIGS, ids=lambda c: c["sweep"])
def test_rows_do_not_depend_on_the_other_seeds(sweep):
    """A seed's row is the same whether its value's other trials share its operator or not."""
    seeds = (5, 6, 7)
    base = dict(omega=0.25 * np.pi, synth_band=0.2 * np.pi, **sweep)
    together = run_experiment(ExperimentConfig(seeds=seeds, **base))["rows"]
    alone = [row for s in seeds for row in run_experiment(ExperimentConfig(seeds=(s,), **base))["rows"]]
    strip = lambda row: {k: v for k, v in row.items() if k != "wall_ms"}
    key = lambda row: (row["value"], row["seed"])
    assert [key(r) for r in together] == [(v, s) for v in sweep["values"] for s in seeds]
    assert sorted(map(strip, together), key=key) == sorted(map(strip, alone), key=key)
    if sweep["sweep"] == "noise":
        assert all(r["perturbation"] > 0 for r in together if r["value"] > 0)


def test_trials_are_generated_one_at_a_time():
    """The peak of a noisy sweep does not grow with its number of trials."""
    def peak(trials):
        config = ExperimentConfig(sweep="noise", values=(0.1,), seeds=tuple(range(trials)),
                                  omega=0.25 * np.pi, synth_band=0.2 * np.pi, window=250_000)
        _kept_taps.cache_clear()  # both runs compute the filter taps they use
        tracemalloc.start()
        try:
            run_experiment(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10) <= 1.05 * peak(2)


class TestRefusals:
    def test_a_2d_signal_spec_is_refused(self):
        with pytest.raises(ParameterError, match="^signal synthesis is 1D$"):
            gen_bandlimited(BandLimit((0.5, 0.5)), IndexWindow((0, 0), (4, 4)), centers=(0,), amplitudes=(1.0,))

    def test_noise_with_a_mask_on_another_window_is_refused(self):
        series = Series(window=IndexWindow(-5, 5), values=np.zeros(11))
        with pytest.raises(GeometryError, match="^mask and series windows differ$"):
            add_noise(series, 0.1, 0, mask=make_mask(IndexWindow(-5, 6), [0]))

    def test_the_oracle_refuses_an_empty_mask(self):
        window = IndexWindow(-5, 5)
        problem = RecoveryProblem(series=Series(window=window, values=np.zeros(11)),
                                  mask=make_mask(window, []), omega=BandLimit(0.5))
        with pytest.raises(GeometryError, match="^missing set is empty; nothing to recover$"):
            oracle_recover(problem)

    def test_the_oracle_refuses_mismatched_windows(self):
        problem = RecoveryProblem(series=Series(window=IndexWindow(-5, 5), values=np.zeros(11)),
                                  mask=make_mask(IndexWindow(-5, 6), [0]), omega=BandLimit(0.5))
        with pytest.raises(GeometryError, match="^series and mask are defined on different windows$"):
            oracle_recover(problem)

    def test_simulate_refuses_an_empty_value_list(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"sweep": "gap", "values": [], "omega": 0.25, "synth_band": 0.2}))
        assert main(["simulate", "--config", str(path)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"category": "parameter", "message": "gap sweep values: the list is empty"}
