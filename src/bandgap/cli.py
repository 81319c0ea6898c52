"""Command-line interface.

Four commands:

    bandgap recover  --input series.csv --missing "1..12" --omega 0.25
    bandgap forecast --input past.csv --horizon 3 --gap 12 --omega 0.25
    bandgap diagnose --missing "0..2" --omega 0.5
    bandgap simulate --config truncation_sweep.json

Omega is always given as a fraction of pi (0.25 means 0.25*pi).  Results go
to --output (default stdout) as JSON or CSV; every output embeds the
effective configuration and the toolkit version.  Exit codes: 0 success,
2 parse/parameter errors, 3 geometry errors, 4 solver errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import re
import sys
from importlib import resources

import numpy as np

from . import __version__
from .errors import GeometryError, ParameterError, SolverError
from .forecast import forecast
from .kernel import BandLimit
from .lab import ROW_FIELDS, ExperimentConfig, run_experiment
from .masks import MAX_MISSING, IndexWindow, make_mask, parse_missing_spec, spec_ranges
from .operators import assemble_operator, diagnostics, eigenvalues
from .recovery import RecoveryProblem, recover
from .series import read_series_csv

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GEOMETRY = 3
EXIT_SOLVER = 4


def _index_doc(t) -> dict:
    if isinstance(t, tuple):
        return {"t1": int(t[0]), "t2": int(t[1])}
    return {"t": int(t)}


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _json(doc, **kwargs) -> str:
    """RFC 8259 JSON: a NaN or infinity in the result is a solver error, not a token."""
    try:
        return json.dumps(doc, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise SolverError(f"result holds a non-finite number: {exc}") from exc


def _emit(doc: dict, args, csv_rows: list[dict], csv_fields: list[str]) -> None:
    if args.format == "json":
        _write_text(args.output, _json(doc, indent=2) + "\n")
        return
    buf = io.StringIO()
    buf.write(f"# version={doc['version']}\n")
    buf.write(f"# config={_json(doc['config'])}\n")
    writer = csv.DictWriter(buf, fieldnames=csv_fields, extrasaction="ignore")
    writer.writeheader()
    for row in csv_rows:
        writer.writerow(row)
    _write_text(args.output, buf.getvalue())


def _base_doc(command: str, config: dict) -> dict:
    return {"version": __version__, "command": command, "config": config}


# ---------------------------------------------------------------------------
# recover
# ---------------------------------------------------------------------------

def cmd_recover(args) -> int:
    missing = parse_missing_spec(args.missing)
    series, absent = read_series_csv(args.input)
    listed = set(missing)
    missing.extend(t for t in absent if t not in listed)
    mask = make_mask(series.window, missing)
    omega = BandLimit.from_pi_fraction(args.omega if args.omega2 is None else (args.omega, args.omega2))
    solution = recover(RecoveryProblem(series=series, mask=mask, omega=omega, rho=args.rho))
    config = {
        "input": args.input,
        "missing": args.missing,
        "omega": args.omega,
        "omega2": args.omega2,
        "rho": solution.solve_report.rho,
    }
    doc = _base_doc("recover", config)
    doc["values"] = [dict(_index_doc(t), value=v) for t, v in solution.values.items()]
    doc["diagnostics"] = solution.diagnostics()
    doc["warnings"] = list(solution.warnings)
    rows = doc["values"]
    fields = ["t1", "t2", "value"] if series.ndim == 2 else ["t", "value"]
    _emit(doc, args, rows, fields)
    return EXIT_OK


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------

def cmd_forecast(args) -> int:
    past, absent = read_series_csv(args.input)
    if absent:
        raise GeometryError(f"past series has gaps at {absent[:5]}; fill or trim them first")
    dummy = None
    if args.dummy != "zero":
        dummy, dummy_absent = read_series_csv(args.dummy)
        if dummy_absent:
            raise GeometryError("dummy series has gaps")
    result = forecast(past, args.horizon, args.gap, BandLimit.from_pi_fraction(args.omega), dummy, args.rho)
    dummy_values = np.zeros(0) if dummy is None else dummy.values  # the zero dummy has no samples
    config = {
        "input": args.input,
        "horizon": args.horizon,
        "gap": args.gap,
        "n": args.gap + len(dummy_values),  # the recovery window's last index
        "dummy": args.dummy,
        "omega": args.omega,
        "rho": result.solution.solve_report.rho,
    }
    doc = _base_doc("forecast", config)
    doc["values"] = [
        {"t": t, "value": float(v)} for t, v in enumerate(result.values, start=1)
    ]
    doc["full_gap"] = [
        {"t": t, "value": float(v)} for t, v in enumerate(result.full_gap, start=1)
    ]
    plot_rows = []
    for name, start, values in (("past", past.window.lo, past.values),
                                ("dummy", args.gap + 1, dummy_values),
                                ("forecast", 1, result.full_gap)):
        plot_rows.extend(
            {"t": t, "value": v, "series": name,
             "accepted": int(t <= args.horizon) if name == "forecast" else ""}
            for t, v in enumerate(values.tolist(), start=start)
        )
    doc["plot_data"] = plot_rows
    doc["diagnostics"] = result.solution.diagnostics()
    doc["warnings"] = list(result.solution.warnings)
    _emit(doc, args, plot_rows, ["t", "value", "series", "accepted"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def _spans(sizes: list[int]) -> str:
    """Sizes in the spec syntax, each run of consecutive ones as "a..b"."""
    runs = []
    for m in sizes:
        if runs and m == runs[-1][1] + 1:
            runs[-1][1] = m
        else:
            runs.append([m, m])
    return ",".join(str(a) if a == b else f"{a}..{b}" for a, b in runs)


def cmd_diagnose(args) -> int:
    omega = BandLimit.from_pi_fraction(args.omega if args.omega2 is None else (args.omega, args.omega2))
    spec = args.missing or ""
    config = {
        "missing": spec,
        "omega": args.omega,
        "omega2": args.omega2,
        "gap_sizes": args.gap_sizes,
    }
    doc = _base_doc("diagnose", config)
    if args.gap_sizes is not None:
        try:
            ranges = list(spec_ranges(args.gap_sizes))  # unexpanded, so the cap is checked first
        except ParameterError as exc:
            raise ParameterError(f"{exc} in --gap-sizes") from None
        if not ranges:
            raise ParameterError("--gap-sizes lists no gap sizes")
        if any(len(axes) != 1 or axes[0].start < 1 for axes in ranges):
            raise ParameterError("--gap-sizes must be positive integers")
        if any(axes[0][-1] > MAX_MISSING for axes in ranges):
            raise GeometryError(f"--gap-sizes lists a gap longer than the {MAX_MISSING} samples "
                                "that can be recovered")
        rows, flagged = [], []
        for m in itertools.chain.from_iterable(axes[0] for axes in ranges):
            mask = make_mask(IndexWindow(1, m), range(1, m + 1))
            diag = diagnostics(assemble_operator(mask, omega))
            rows.append({
                "gap_size": m,
                "spectral_norm": diag.spectral_norm,
                "min_eig_I_minus_A": diag.min_eig_I_minus_A,
            })
            if diag.min_eig_I_minus_A == 0.0:  # 1 - ||A|| below working precision
                flagged.append(m)
        doc["sweep"] = rows
        if flagged:
            doc["warnings"] = [f"gap sizes {_spans(flagged)}: 1 - ||A|| is below working precision "
                               "(|M| eps), so spectral_norm is reported as 1.0; at rho = 0 the "
                               "system is singular to working precision"]
        _emit(doc, args, rows, ["gap_size", "spectral_norm", "min_eig_I_minus_A"])
        return EXIT_OK
    missing = parse_missing_spec(spec)
    if not missing:
        raise GeometryError("empty missing set")
    coords = np.asarray(missing)
    mask = make_mask(IndexWindow(coords.min(axis=0), coords.max(axis=0)), missing)
    op = assemble_operator(mask, omega)
    diag = diagnostics(op)
    evs = eigenvalues(op)
    spectrum = np.clip(evs, 0.0, 1.0)  # A is PSD with ||A|| < 1: what lies outside is rounding
    doc["diagnostics"] = {**diag.reported(), "spectrum": spectrum.tolist()}
    warnings = list(diag.warnings)
    clamped = np.count_nonzero(spectrum != evs)
    if clamped:
        warnings.append(f"{clamped} eigenvalues lie outside [0, 1] by rounding and are printed "
                        "clamped into it")
    if warnings:
        doc["warnings"] = [f"mask {args.missing}: {w}" for w in warnings]
    rows = [{"eigenvalue": v} for v in doc["diagnostics"]["spectrum"]]
    _emit(doc, args, rows, ["eigenvalue"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _load_run_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        bundled = resources.files("bandgap").joinpath("configs", path)
        if bundled.is_file():
            return json.loads(bundled.read_text(encoding="utf-8"))
        raise
    except json.JSONDecodeError as exc:
        raise ParameterError(f"malformed config {path}: {exc}") from exc


def cmd_simulate(args) -> int:
    doc = _load_run_config(args.config)
    report = run_experiment(ExperimentConfig.from_json_dict(doc))
    report["version"] = __version__
    report["config_file"] = doc
    _emit(report, args, report["rows"], ROW_FIELDS)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as ParameterError (JSON, exit 2); subparsers share the class."""

    def error(self, message):
        raise ParameterError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="bandgap",
        description="Band-limited recovery of missing samples and short-horizon forecasting.",
    )
    parser.add_argument("--version", action="version", version=f"bandgap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recover", help="recover missing samples in a series file")
    p.add_argument("--input", required=True, help="series CSV (t,value or t1,t2,value)")
    p.add_argument("--missing", required=True, help='missing-set spec, e.g. "1..12" or "0..2 x 0..2"')
    p.add_argument("--omega", type=float, required=True, help="band limit as a fraction of pi")
    p.add_argument("--omega2", type=float, default=None, help="second-axis band limit (2D only)")
    p.add_argument("--rho", type=float, default=None, help="ridge weight (default: auto)")
    _add_common(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("forecast", help="short-horizon forecast from past samples")
    p.add_argument("--input", required=True, help="past series CSV on {-q..0}")
    p.add_argument("--horizon", type=int, default=3, help="accepted forecast length")
    p.add_argument("--gap", type=int, default=12, help="recovered gap length m > horizon")
    p.add_argument("--dummy", default="zero", help='"zero" or a CSV on {gap+1..n}')
    p.add_argument("--omega", type=float, default=0.25, help="band limit as a fraction of pi")
    p.add_argument("--rho", type=float, default=None, help="ridge weight (default: auto)")
    _add_common(p)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("diagnose", help="gap-operator spectrum for a mask")
    # One or the other.  argparse skips its conflict check for a value that is the
    # default object, which an explicit "" would be if the default were "".
    which = p.add_mutually_exclusive_group()
    which.add_argument("--missing", default=None, help="missing-set spec")
    which.add_argument("--gap-sizes", default=None,
                       help='sweep contiguous gaps, e.g. "1..20"; each size factors its own '
                            'operator, so time grows as the sum of m^3 over the sizes')
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--omega2", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("simulate", help="run a seeded experiment sweep from a config file")
    p.add_argument("--config", required=True, help="RunConfig JSON (path or bundled name)")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def _error(category: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": {"category": category, "message": str(exc)}}) + "\n")


# Options whose value is an index spec; a spec may start with "-" ("-5..10").
_SPEC_OPTIONS = ("--missing", "--gap-sizes")


def _attach_spec_values(argv: list[str]) -> list[str]:
    """Rewrite `--missing -5..10` as `--missing=-5..10`.

    argparse reads a separate value that starts with "-" as an option unless
    it is a plain negative number, and then reports a missing argument.
    """
    out = []
    for token in argv:
        if out and out[-1] in _SPEC_OPTIONS and re.match(r"-\d", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_spec_values(sys.argv[1:] if argv is None else list(argv)))
        return args.func(args)
    except ParameterError as exc:
        _error("parameter", exc)
        return EXIT_PARSE
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        _error("parse", exc)
        return EXIT_PARSE
    except GeometryError as exc:
        _error("geometry", exc)
        return EXIT_GEOMETRY
    except SolverError as exc:
        _error("solver", exc)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
