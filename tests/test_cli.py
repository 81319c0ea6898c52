"""Command-line surface: exit codes, output schemas, and path equivalences."""

import argparse
import dataclasses
import inspect
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bandgap import (BandLimit, ExperimentConfig, IndexWindow, RecoveryProblem, Series, SolverError,
                     dummy_sensitivity, forecast)
from bandgap.cli import _emit, build_parser, main
from bandgap.masks import MAX_MISSING, MAX_WINDOW_SIZE, make_mask
from bandgap.operators import CONDITION_WARN_THRESHOLD, assemble_operator
from bandgap.recovery import prepare
from oracles import recover_single_value, write_series_csv


@pytest.fixture
def series_121(tmp_path):
    rng = np.random.default_rng(2)
    w = IndexWindow(-60, 60)
    s = Series(window=w, values=rng.standard_normal(121))
    path = tmp_path / "series.csv"
    write_series_csv(s, path)
    return s, str(path)


def run(argv):
    return main(argv)


def run_traced(argv, capsys):
    """Exit code, JSON error and peak traced allocation of one CLI call."""
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, json.loads(capsys.readouterr().err)["error"], peak


def run_refused(argv, capsys):
    """Exit code, the one JSON line on stderr, and peak traced allocation; no warning may fire."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    lines = capsys.readouterr().err.splitlines()
    assert caught == [] and len(lines) == 1
    return code, json.loads(lines[0])["error"], peak


@pytest.mark.parametrize("rho", ["nan", "inf"])
@pytest.mark.parametrize("command", ["recover", "forecast"])
def test_nonfinite_rho_is_parameter_error(series_121, tmp_path, capsys, command, rho):
    if command == "recover":
        argv = ["recover", "--input", series_121[1], "--missing", "1..12", "--omega", "0.25"]
    else:
        past = tmp_path / "past.csv"
        write_series_csv(Series.zeros(IndexWindow(-60, 0)), past)
        argv = ["forecast", "--input", str(past)]
    code, error, peak = run_refused(argv + ["--rho", rho], capsys)
    assert code == 2 and error["category"] == "parameter"
    assert "finite nonnegative" in error["message"]
    assert peak < 16 * 2**20


def test_every_solving_entry_point_defaults_rho_to_prepare_s():
    assert [inspect.signature(f).parameters["rho"].default for f in (forecast, dummy_sensitivity, prepare)] == [
        None, None, None]
    assert [next(f.default for f in dataclasses.fields(c) if f.name == "rho")
            for c in (RecoveryProblem, ExperimentConfig)] == [None, None]
    config = ExperimentConfig.from_json_dict({"sweep": "gap", "values": [5], "omega": 0.5, "synth_band": 0.2})
    assert config.rho is None
    parser = build_parser()
    assert parser.parse_args(["recover", "--input", "x.csv", "--missing", "1", "--omega", "0.25"]).rho is None
    assert parser.parse_args(["forecast", "--input", "x.csv"]).rho is None


class TestRecoverCommand:
    def test_singleton_matches_closed_form(self, series_121, tmp_path):
        s, path = series_121
        out = tmp_path / "out.json"
        code = run(["recover", "--input", path, "--missing", "0", "--omega", "0.25",
                    "--rho", "0", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["version"]
        assert doc["config"]["omega"] == 0.25
        got = doc["values"][0]["value"]
        expected = recover_single_value(s, 0, BandLimit.from_pi_fraction(0.25))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_contiguous_twelve_gap_geometry(self, series_121, tmp_path):
        _, path = series_121
        out = tmp_path / "out.json"
        code = run(["recover", "--input", path, "--missing", "1..12", "--omega", "0.25",
                    "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert [row["t"] for row in doc["values"]] == list(range(1, 13))
        assert doc["diagnostics"]["size"] == 12
        assert 0 < doc["diagnostics"]["spectral_norm"] < 1

    def test_gaps_in_file_are_recovered(self, tmp_path):
        # absent rows count as missing even without a --missing entry
        w = IndexWindow(-20, 20)
        rng = np.random.default_rng(10)
        s = Series(window=w, values=rng.standard_normal(41))
        path = tmp_path / "gappy.csv"
        lines = ["t,value"]
        for t in range(-20, 21):
            if t != 5:
                lines.append(f"{t},{float(s.values[t + 20])!r}")
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.json"
        code = run(["recover", "--input", str(path), "--missing", "0", "--omega", "0.25",
                    "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert sorted(row["t"] for row in doc["values"]) == [0, 5]

    def test_empty_missing_is_geometry_error(self, series_121, tmp_path):
        _, path = series_121
        assert run(["recover", "--input", path, "--missing", "", "--omega", "0.25"]) == 3

    def test_malformed_csv_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,value\n0,one\n")
        assert run(["recover", "--input", str(bad), "--missing", "0", "--omega", "0.25"]) == 2

    def test_missing_file_is_parse_error(self, tmp_path):
        assert run(["recover", "--input", str(tmp_path / "nope.csv"),
                    "--missing", "0", "--omega", "0.25"]) == 2

    def test_nonfinite_sample_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("t,value\n-3,1\n-2,2\n-1,nan\n2,1\n3,1\n4,1\n")
        assert run(["recover", "--input", str(bad), "--missing", "0..1", "--omega", "0.25"]) == 2
        assert "nan.csv:4" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_far_apart_rows_are_geometry_error(self, tmp_path):
        far = tmp_path / "far.csv"
        far.write_text("t,value\n0,1.0\n1000000000,2.0\n")
        assert run(["recover", "--input", str(far), "--missing", "1", "--omega", "0.25"]) == 3

    def test_huge_samples_fail_without_infinity(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("t,value\n-3,1e308\n-2,-1e308\n-1,1e308\n2,-1e308\n3,1e308\n4,-1e308\n")
        out = tmp_path / "out.json"
        code = run(["recover", "--input", str(big), "--missing", "0..1", "--omega", "0.25",
                    "--output", str(out)])
        captured = capsys.readouterr()
        assert code != 0
        assert "Infinity" not in captured.out + captured.err
        assert not out.exists() or "Infinity" not in out.read_text()

    def test_nonfinite_output_is_solver_error(self):
        args = argparse.Namespace(format="json", output=None)
        with pytest.raises(SolverError, match="non-finite"):
            _emit({"version": "0", "config": {}, "residual": math.inf}, args, [], [])

    def test_oversize_missing_spec_is_refused_before_expansion(self, series_121, capsys):
        _, path = series_121
        code, error, peak = run_traced(["recover", "--input", path, "--missing", "1..300000000",
                                        "--omega", "0.25"], capsys)
        assert code == 3 and error["category"] == "geometry"
        assert str(MAX_MISSING) in error["message"]
        assert peak < 16 * 2**20

    def test_absent_rows_merge_with_listed_missing(self, tmp_path):
        w = IndexWindow(0, 40)
        s = Series(window=w, values=np.random.default_rng(6).standard_normal(41))
        path = tmp_path / "gappy.csv"
        absent = {5, 6, 7, 20}
        path.write_text("t,value\n" + "".join(
            f"{t},{float(s.values[t])!r}\n" for t in range(41) if t not in absent))
        out = tmp_path / "out.json"
        assert run(["recover", "--input", str(path), "--missing", "6..9", "--omega", "0.25",
                    "--output", str(out)]) == 0
        assert [row["t"] for row in json.loads(out.read_text())["values"]] == [5, 6, 7, 8, 9, 20]

    def test_negative_range_as_separate_value(self, series_121, tmp_path):
        _, path = series_121
        out = tmp_path / "out.json"
        assert run(["recover", "--input", path, "--missing", "-5..10", "--omega", "0.25",
                    "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [row["t"] for row in doc["values"]] == list(range(-5, 11))
        assert doc["config"]["missing"] == "-5..10"

    def test_bad_omega_is_parameter_error(self, series_121):
        _, path = series_121
        assert run(["recover", "--input", path, "--missing", "0", "--omega", "1.5"]) == 2

    def test_csv_output(self, series_121, tmp_path):
        _, path = series_121
        out = tmp_path / "out.csv"
        code = run(["recover", "--input", path, "--missing", "0..2", "--omega", "0.25",
                    "--output", str(out), "--format", "csv"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# version=")
        assert lines[1].startswith("# config=")
        assert lines[2] == "t,value"
        assert len(lines) == 6

    def test_2d_recover(self, tmp_path):
        rng = np.random.default_rng(12)
        w = IndexWindow((-6, -6), (6, 6))
        s = Series(window=w, values=rng.standard_normal((13, 13)))
        path = tmp_path / "grid.csv"
        write_series_csv(s, path)
        out = tmp_path / "out.json"
        code = run(["recover", "--input", str(path), "--missing", "0..1 x 0..1",
                    "--omega", "0.25", "--omega2", "0.4", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert {(row["t1"], row["t2"]) for row in doc["values"]} == {(0, 0), (0, 1), (1, 0), (1, 1)}

    @pytest.mark.parametrize("lo, hi, missing", [((3, -20), (3, 20), "3 x 2"), ((-20, 3), (20, 3), "2 x 3")],
                             ids=["one-row", "one-column"])
    def test_one_band_on_a_one_line_grid_is_parameter_error(self, tmp_path, capsys, lo, hi, missing):
        w = IndexWindow(lo, hi)
        path = tmp_path / "line.csv"
        write_series_csv(Series(window=w, values=np.random.default_rng(3).standard_normal(w.shape)), path)
        code, error, peak = run_traced(["recover", "--input", str(path), "--missing", missing,
                                        "--omega", "0.5"], capsys)
        assert code == 2 and error["category"] == "parameter"
        assert "dimensionality" in error["message"]
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("flag", [["--solver", "neumann"], ["--tol", "1e-13"], ["--max-iter", "10"]])
    def test_solver_flags_are_rejected(self, series_121, flag, capsys):
        _, path = series_121
        assert run(["recover", "--input", path, "--missing", "0..3", "--omega", "0.25", *flag]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["category"] == "parameter" and flag[0] in error["message"]

    @pytest.mark.parametrize("argv, phrase", [
        (["--missing", "0..3", "--omega", "0.25"], "required: --input"),
        (["--input", "s.csv", "--missing", "0..3", "--omega", "abc"], "invalid float value"),
    ])
    def test_argument_errors_are_json(self, argv, phrase, capsys):
        assert run(["recover", *argv]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["category"] == "parameter" and phrase in error["message"]

    @pytest.mark.parametrize("argv", [["--version"], ["recover", "--help"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


class TestForecastCommand:
    def test_zero_past_zero_dummy(self, tmp_path):
        past = Series.zeros(IndexWindow(-60, 0))
        path = tmp_path / "past.csv"
        write_series_csv(past, path)
        out = tmp_path / "fc.json"
        code = run(["forecast", "--input", str(path), "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert [row["value"] for row in doc["values"]] == [0.0, 0.0, 0.0]
        assert len(doc["full_gap"]) == 12

    def test_default_experiment_deterministic(self, tmp_path):
        rng = np.random.default_rng(55)
        past = Series(window=IndexWindow(-60, 0), values=rng.standard_normal(61))
        path = tmp_path / "past.csv"
        write_series_csv(past, path)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(["forecast", "--input", str(path), "--output", str(out)]) == 0
            outs.append(json.loads(out.read_text()))
        assert outs[0]["values"] == outs[1]["values"]
        assert outs[0]["config"]["omega"] == 0.25
        assert outs[0]["config"]["n"] == 12  # the default gap: the zero dummy ends the window there

    def test_diagnostics_are_those_of_recover(self, series_121, tmp_path):
        past = Series(window=IndexWindow(-60, 0), values=np.random.default_rng(57).standard_normal(61))
        write_series_csv(past, tmp_path / "past.csv")
        _, path = series_121
        assert run(["forecast", "--input", str(tmp_path / "past.csv"), "--output", str(tmp_path / "f.json")]) == 0
        assert run(["recover", "--input", path, "--missing", "1..12", "--omega", "0.25",
                    "--output", str(tmp_path / "r.json")]) == 0
        keys = [list(json.loads((tmp_path / name).read_text())["diagnostics"]) for name in ("f.json", "r.json")]
        assert keys[0] == keys[1] == ["spectral_norm", "min_eig_I_minus_A", "size", "residual",
                                      "norm_bound", "rho"]

    def test_plot_data_covers_all_series(self, tmp_path):
        rng = np.random.default_rng(56)
        past = Series(window=IndexWindow(-30, 0), values=rng.standard_normal(31))
        path = tmp_path / "past.csv"
        write_series_csv(past, path)
        out = tmp_path / "fc.json"
        assert run(["forecast", "--input", str(path), "--gap", "8",
                    "--horizon", "2", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["n"] == 8  # the zero dummy ends the recovery window at the gap
        tags = {row["series"] for row in doc["plot_data"]}
        assert tags == {"past", "forecast"}  # the zero dummy has no samples to plot
        accepted = [row for row in doc["plot_data"]
                    if row["series"] == "forecast" and row["accepted"] == 1]
        assert [row["t"] for row in accepted] == [1, 2]

    def test_default_rho_solves_a_gap_singular_at_rho_zero(self, tmp_path, capsys):
        path = tmp_path / "past.csv"
        write_series_csv(Series(window=IndexWindow(-60, 0), values=0.01 * np.arange(-60, 1)), path)
        argv = ["forecast", "--input", str(path), "--gap", "40", "--omega", "0.5"]
        out = tmp_path / "fc.json"
        assert run([*argv, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["rho"] == 1e-8
        assert any(w.startswith("rho raised from 0 to 1e-08") for w in doc["warnings"])
        assert run([*argv, "--rho", "0", "--output", str(tmp_path / "zero.json")]) == 4
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "solver"

    def test_oversize_window_is_geometry_error(self, tmp_path, capsys):
        path = tmp_path / "past.csv"
        write_series_csv(Series.zeros(IndexWindow(-60, 0)), path)
        code, error, peak = run_traced(["forecast", "--input", str(path), "--gap", "2000000000"],
                                       capsys)
        assert code == 3 and error["category"] == "geometry"
        assert str(MAX_WINDOW_SIZE) in error["message"]
        assert peak < 16 * 2**20

    def test_horizon_not_below_gap_is_parameter_error(self, tmp_path):
        past = Series.zeros(IndexWindow(-60, 0))
        path = tmp_path / "past.csv"
        write_series_csv(past, path)
        assert run(["forecast", "--input", str(path), "--horizon", "12", "--gap", "12"]) == 2

    @pytest.mark.parametrize("argv, code, phrase", [
        (["--input", "{gappy}"], 3, "past series has gaps at [-7]"),
        (["--input", "{past}", "--dummy", "{gappy_dummy}"], 3, "dummy series has gaps"),
        (["--input", "{past}", "--horizon", "0"], 2, "forecast horizon must be at least 1"),
    ], ids=["past-absent-row", "dummy-absent-row", "horizon-0"])
    def test_refused_input(self, tmp_path, capsys, argv, code, phrase):
        paths = {name: tmp_path / f"{name}.csv" for name in ("past", "gappy", "gappy_dummy")}
        write_series_csv(Series.zeros(IndexWindow(-60, 0)), paths["past"])
        past_rows = paths["past"].read_text().splitlines()
        paths["gappy"].write_text("\n".join(row for row in past_rows if not row.startswith("-7,")) + "\n")
        write_series_csv(Series.zeros(IndexWindow(13, 60)), paths["gappy_dummy"],
                         mask=make_mask(IndexWindow(13, 60), [20]))
        got, error, _ = run_refused(["forecast", *(a.format(**paths) for a in argv)], capsys)
        assert got == code and phrase in error["message"]

    def test_dummy_file(self, tmp_path):
        rng = np.random.default_rng(57)
        past = Series(window=IndexWindow(-60, 0), values=rng.standard_normal(61))
        dummy = Series(window=IndexWindow(13, 60), values=rng.standard_normal(48))
        ppath, dpath = tmp_path / "past.csv", tmp_path / "dummy.csv"
        write_series_csv(past, ppath)
        write_series_csv(dummy, dpath)
        out = tmp_path / "fc.json"
        code = run(["forecast", "--input", str(ppath), "--dummy", str(dpath),
                    "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        dummy_rows = [r for r in doc["plot_data"] if r["series"] == "dummy"]
        assert [r["t"] for r in dummy_rows] == list(range(13, 61))

    def test_dummy_file_sets_the_window_end(self, tmp_path, capsys):
        rng = np.random.default_rng(58)
        past = Series(window=IndexWindow(-60, 0), values=rng.standard_normal(61))
        dummy = Series(window=IndexWindow(13, 100), values=rng.standard_normal(88))
        ppath, dpath = tmp_path / "past.csv", tmp_path / "dummy.csv"
        write_series_csv(past, ppath)
        write_series_csv(dummy, dpath)
        out = tmp_path / "fc.json"
        argv = ["forecast", "--input", str(ppath), "--dummy", str(dpath)]
        assert run([*argv, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["n"] == 100
        assert [r["t"] for r in doc["plot_data"] if r["series"] == "dummy"] == list(range(13, 101))
        for refused in (argv, argv[:3]):  # there is no truncation bound to give, with or without a dummy
            assert run([*refused, "--n", "100"]) == 2
            error = json.loads(capsys.readouterr().err)["error"]
            assert error["category"] == "parameter" and "unrecognized arguments: --n" in error["message"]


class TestDiagnoseCommand:
    def test_singleton_norm(self, tmp_path):
        out = tmp_path / "d.json"
        assert run(["diagnose", "--missing", "0", "--omega", "0.25", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["diagnostics"]["spectral_norm"] == pytest.approx(0.25, abs=1e-15)
        assert doc["diagnostics"]["min_eig_I_minus_A"] == pytest.approx(0.75, abs=1e-15)

    def test_three_gap_spectrum_matches_tridiagonal_formula(self, tmp_path):
        # eigenvalues of (omega/pi)*[[1,c,0],[c,1,c],[0,c,1]] with c = sinc(pi/2)
        # are (omega/pi)*(1 + c*sqrt(2)), omega/pi, (omega/pi)*(1 - c*sqrt(2))
        out = tmp_path / "d.json"
        assert run(["diagnose", "--missing", "0..2", "--omega", "0.5", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        c = 2 / math.pi
        got = doc["diagnostics"]["spectrum"]
        assert got[-1] == pytest.approx(0.5 * (1 + c * math.sqrt(2)), rel=1e-12)
        assert got[1] == pytest.approx(0.5, rel=1e-12)
        assert got[0] == pytest.approx(0.5 * (1 - c * math.sqrt(2)), rel=1e-12)

    def test_gap_size_sweep_reports_no_negative_margin(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(["diagnose", "--omega", "0.9", "--gap-sizes", "1..128", "--output", str(out)]) == 0
        rows = json.loads(out.read_text())["sweep"]
        assert [row["gap_size"] for row in rows] == list(range(1, 129))
        assert all(row["min_eig_I_minus_A"] >= 0.0 for row in rows)
        assert rows[-1]["min_eig_I_minus_A"] == 0.0  # below working precision

    def test_gap_size_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["diagnose", "--omega", "0.25", "--gap-sizes", "1..20",
                    "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[2].split(",")
        assert header == ["gap_size", "spectral_norm", "min_eig_I_minus_A"]
        rows = [line.split(",") for line in lines[3:]]
        mins = [float(r[2]) for r in rows]
        assert len(mins) == 20
        assert mins[0] == pytest.approx(0.75, abs=1e-12)
        assert all(a > b for a, b in zip(mins, mins[1:]))

    @pytest.mark.parametrize("spec", ["1..5000", "4097", "3, 1..300000000"])
    def test_oversize_gap_size_names_the_option(self, spec, capsys):
        code, error, peak = run_traced(["diagnose", "--omega", "0.5", "--gap-sizes", spec], capsys)
        assert code == 3 and error["category"] == "geometry"
        assert "--gap-sizes" in error["message"] and str(MAX_MISSING) in error["message"]
        assert peak < 16 * 2**20

    def test_negative_missing_and_window(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        assert run(["diagnose", "--missing", "-2..0", "--omega", "0.5", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["diagnostics"]["size"] == 3
        # the window option is gone: A depends on index differences only
        assert run(["diagnose", "--missing", "-2..0", "--window", "-3..3", "--omega", "0.5"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["category"] == "parameter" and "--window" in error["message"]

    def test_far_apart_gaps_are_not_window_capped(self, tmp_path):
        # the bounding box exceeds the window cap, but diagnose allocates nothing of its size
        assert 2101 * 2101 > MAX_WINDOW_SIZE
        out = tmp_path / "d.json"
        assert run(["diagnose", "--missing", "0..0 x 0..0, 2100..2100 x 2100..2100",
                    "--omega", "0.5", "--omega2", "0.5", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["diagnostics"]["spectrum"] == pytest.approx([0.25, 0.25])

    def test_far_apart_missing_is_geometry_error(self, capsys):
        code, error, peak = run_refused(["diagnose", "--missing", "0, 400000000", "--omega", "0.5"],
                                        capsys)
        assert code == 3 and error["category"] == "geometry"
        assert "400000000" in error["message"] and str(MAX_WINDOW_SIZE) in error["message"]
        assert peak < 16 * 2**20  # the lag table alone would take 2.98 GiB

    def test_empty_missing_without_sweep(self):
        assert run(["diagnose", "--omega", "0.25"]) == 3

    @pytest.mark.parametrize("missing", [["--missing", "1..3"], ["--missing="], ["--missing", ""]])
    def test_missing_with_sweep_is_parameter_error(self, missing, capsys):
        # an explicit "" is given too, though it equals the empty spec
        for argv in (missing + ["--gap-sizes", "1..3"], ["--gap-sizes", "1..3"] + missing):
            assert run(["diagnose", *argv, "--omega", "0.5"]) == 2
            (line,) = capsys.readouterr().err.splitlines()
            error = json.loads(line)["error"]
            assert error["category"] == "parameter" and "not allowed with" in error["message"]

    def test_sweep_flags_the_gap_sizes_below_working_precision(self, tmp_path):
        # sizes 18..20 are ill-conditioned, and their records say so, but they are not flagged
        out = tmp_path / "sweep.json"
        assert run(["diagnose", "--gap-sizes", "18..22", "--omega", "0.5", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [row["spectral_norm"] for row in doc["sweep"]][3:] == [1.0, 1.0]
        assert all(row["spectral_norm"] <= 1.0 for row in doc["sweep"])
        assert all(row["spectral_norm"] < 1.0 and row["min_eig_I_minus_A"] > 0.0 for row in doc["sweep"][:3])
        assert doc["warnings"] == ["gap sizes 21..22: 1 - ||A|| is below working precision (|M| eps), "
                                   "so spectral_norm is reported as 1.0; at rho = 0 the system is "
                                   "singular to working precision"]

    def test_mask_above_working_precision_warns_of_ill_conditioning(self, tmp_path):
        # 1 - ||A|| = 1.77e-14 lies above |M| eps = 4.4e-15 and below the 1e-8 threshold
        out = tmp_path / "d.json"
        assert run(["diagnose", "--missing", "1..20", "--omega", "0.5", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert 0.0 < doc["diagnostics"]["min_eig_I_minus_A"] < CONDITION_WARN_THRESHOLD
        (warning,) = doc["warnings"]
        assert warning.startswith("mask 1..20: ill-conditioned system: 1 + rho - ||A|| = ")
        assert warning.endswith(" below threshold 1.0e-08")

    def test_spectrum_is_clamped_into_the_unit_interval(self, tmp_path):
        out = tmp_path / "d.json"
        assert run(["diagnose", "--missing", "1..128", "--omega", "0.9", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        spectrum = doc["diagnostics"]["spectrum"]
        assert all(0.0 <= v <= 1.0 for v in spectrum) and spectrum == sorted(spectrum)
        assert doc["diagnostics"]["spectral_norm"] == 1.0
        below, clamped = doc["warnings"]
        assert below.startswith("mask 1..128: 1 - ||A|| is below working precision")
        op = assemble_operator(make_mask(IndexWindow(1, 128), range(1, 129)), BandLimit.from_pi_fraction(0.9))
        evs = np.linalg.eigvalsh(op.matrix)
        assert clamped == (f"mask 1..128: {np.count_nonzero((evs < 0) | (evs > 1))} eigenvalues lie "
                           "outside [0, 1] by rounding and are printed clamped into it")

    def test_no_warnings_key_when_nothing_is_flagged(self, tmp_path):
        for i, argv in enumerate([["--missing", "1..8"], ["--gap-sizes", "1..20"]]):
            out = tmp_path / f"d{i}.json"
            assert run(["diagnose", *argv, "--omega", "0.25", "--output", str(out)]) == 0
            assert "warnings" not in json.loads(out.read_text())

    def test_gap_size_zero_is_parameter_error(self, capsys):
        for sizes, message in ((["--gap-sizes", "0"], "--gap-sizes must be positive integers"),
                               (["--gap-sizes="], "--gap-sizes lists no gap sizes"),  # not "no --missing"
                               (["--gap-sizes", " , "], "--gap-sizes lists no gap sizes"),  # not an empty sweep
                               (["--gap-sizes", "a"], "cannot parse token 'a' in --gap-sizes"),
                               (["--gap-sizes", "3..1"], "descending range '3..1' in --gap-sizes")):
            code, error, _ = run_refused(["diagnose", "--omega", "0.5", *sizes], capsys)
            assert code == 2 and error["message"] == message


class TestNormBelowWorkingPrecision:
    """Where 1 - ||A|| is below |M| eps but rho keeps the margin, ||A|| is reported as 1.0 with a warning."""

    @pytest.fixture
    def ramp_401(self, tmp_path):
        path = tmp_path / "ramp.csv"
        path.write_text("t,value\n" + "".join(f"{t},{0.01 * t}\n" for t in range(-200, 201)))
        return str(path)

    def test_gap_at_half_band_with_a_ridge(self, ramp_401, tmp_path):
        out = tmp_path / "r.json"
        assert run(["recover", "--input", ramp_401, "--missing=1..25", "--omega", "0.5", "--rho", "1e-4",
                    "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        diag = doc["diagnostics"]
        assert diag["spectral_norm"] == 1.0 and diag["min_eig_I_minus_A"] == 0.0
        assert diag["norm_bound"] == pytest.approx(1e4, rel=1e-8)  # the margin is rho
        assert doc["warnings"] == [
            "1 - ||A|| is below working precision (|M| eps = 5.6e-15), so spectral_norm is "
            "reported as 1.0; rho = 0.0001 keeps the system solvable"]

    def test_a_clear_margin_is_reported_as_before(self, ramp_401, tmp_path):
        out = tmp_path / "r.json"
        assert run(["recover", "--input", ramp_401, "--missing=1..25", "--omega", "0.25", "--rho", "1e-4",
                    "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["warnings"] == []
        assert 0.0 < doc["diagnostics"]["spectral_norm"] < 1.0
        assert doc["diagnostics"]["min_eig_I_minus_A"] == 1.0 - doc["diagnostics"]["spectral_norm"]


class TestSimulateCommand:
    def test_bundled_truncation_sweep(self, tmp_path):
        out = tmp_path / "trunc.json"
        assert run(["simulate", "--config", "truncation_sweep.json", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        errs = [agg["max_max_abs_error"] for agg in doc["aggregates"]]
        assert errs[0] > errs[1] > errs[2]
        assert doc["config_file"]["sweep"] == "window"

    def test_bundled_noise_bound(self, tmp_path):
        out = tmp_path / "noise.json"
        assert run(["simulate", "--config", "noise_bound.json", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert sum(agg["bound_violation_count"] for agg in doc["aggregates"]) == 0

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["simulate", "--config", str(bad)]) == 2
        missing_field = tmp_path / "missing.json"
        missing_field.write_text(json.dumps({"sweep": "noise"}))
        assert run(["simulate", "--config", str(missing_field)]) == 2

    def test_oversize_window_is_geometry_error(self, tmp_path, capsys):
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({"sweep": "window", "values": [MAX_WINDOW_SIZE], "trials": 2,
                                      "omega": 0.25, "synth_band": 0.2}))
        code, error, peak = run_traced(["simulate", "--config", str(config)], capsys)
        assert code == 3 and error["category"] == "geometry"
        assert str(MAX_WINDOW_SIZE) in error["message"]
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("fields", [{"missing": "bogus"}, {"values": ["a"]}, {"values": [-0.1]},
                                        {"sigma": -0.1}], ids=["missing", "value", "sigma-value", "sigma"])
    def test_bad_config_is_parameter_error(self, tmp_path, capsys, fields):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"sweep": "noise", "values": [0.1], "trials": 2, "omega": 0.25,
                                      "synth_band": 0.2, "window": 50, **fields}))
        code, error, peak = run_traced(["simulate", "--config", str(config)], capsys)
        assert code == 2 and error["category"] == "parameter"
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("fields", [{"rho": math.nan}, {"sigma": math.nan}, {"window": math.inf},
                                        {"values": [0.1, math.inf]},
                                        {"sweep": "rho", "values": [math.nan]},
                                        {"sweep": "rho", "values": [0.0, math.inf]}],
                             ids=["rho", "sigma", "window", "sigma-value", "rho-nan", "rho-inf"])
    def test_nonfinite_config_is_parameter_error(self, tmp_path, capsys, fields):
        config = tmp_path / "nonfinite.json"
        config.write_text(json.dumps({"sweep": "noise", "values": [0.1], "trials": 2, "omega": 0.25,
                                      "synth_band": 0.2, "window": 50, **fields}))
        assert "NaN" in config.read_text() or "Infinity" in config.read_text()
        code, error, peak = run_refused(["simulate", "--config", str(config)], capsys)
        assert code == 2 and error["category"] == "parameter"
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("fields, message", [
        ({"values": [30.9, 40.2]}, "window sweep values: 30.9"),
        ({"sweep": "gap", "values": [2, 3.5]}, "gap sweep values: 3.5"),
        ({"seed": 1.7}, "seed: 1.7"),
        ({"seeds": [1, 1.5]}, "seeds: 1.5"),
        ({"trials": 2.9}, "trials: 2.9"),
        ({"sweep": "noise", "values": [0.0], "window": 50.7}, "window: 50.7"),
    ], ids=["window-values", "gap-values", "seed", "seeds", "trials", "window"])
    def test_fractional_count_is_parameter_error(self, tmp_path, capsys, fields, message):
        """A field that counts samples, trials or seeds refuses a fraction instead of truncating it."""
        config = tmp_path / "fractional.json"
        config.write_text(json.dumps({"sweep": "window", "values": [30, 40], "trials": 2, "omega": 0.25,
                                      "synth_band": 0.2, **fields}))
        code, error, _ = run_refused(["simulate", "--config", str(config)], capsys)
        assert code == 2 and error["category"] == "parameter"
        assert f"{message} is not a whole number" in error["message"]

    def test_whole_floats_count_as_integers(self, tmp_path):
        base = {"sweep": "window", "omega": 0.25, "synth_band": 0.2}
        reports = []
        for numbers in [{"values": [30, 40], "seed": 3, "trials": 2, "window": 50},
                        {"values": [30.0, 40.0], "seed": 3.0, "trials": 2.0, "window": 50.0}]:
            config, out = tmp_path / "config.json", tmp_path / "report.json"
            config.write_text(json.dumps({**base, **numbers}))
            assert run(["simulate", "--config", str(config), "--output", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        strip = lambda rows: [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]
        assert strip(reports[1]["rows"]) == strip(reports[0]["rows"])
        assert [(r["value"], r["seed"]) for r in reports[1]["rows"]] == [(30, 3), (30, 4), (40, 3), (40, 4)]
        assert all(type(r["value"]) is int and type(r["seed"]) is int for r in reports[1]["rows"])
        assert reports[1]["config"] == reports[0]["config"]

    def test_failing_value_is_recorded_once(self, tmp_path):
        config, out = tmp_path / "gap.json", tmp_path / "report.json"
        config.write_text(json.dumps({"sweep": "gap", "values": [5, 300], "seeds": [1, 2], "omega": 0.25,
                                      "synth_band": 0.2, "window": 100}))
        assert run(["simulate", "--config", str(config), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [(r["value"], r["seed"]) for r in report["rows"]] == [(5, 1), (5, 2)]
        (failed,) = report["failures"]
        assert (failed["value"], failed["seeds"], failed["trials"], failed["status"]) == (300, [1, 2], 2, "failed")
        assert failed["error"].startswith("GeometryError: ")
        assert [agg["value"] for agg in report["aggregates"]] == [5]

    def test_unknown_config_path(self, tmp_path):
        assert run(["simulate", "--config", str(tmp_path / "ghost.json")]) == 2


def test_recover_refuses_an_empty_input_file(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert run(["recover", "--input", str(path), "--missing", "1", "--omega", "0.25"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"category": "parameter", "message": f"series file {path} is empty"}
