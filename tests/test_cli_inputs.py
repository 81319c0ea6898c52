"""Property: every CLI input ends in a documented exit code, within a memory bound.

`cli.main` runs in-process on drawn argv, series-file bytes and config JSON,
one test per subcommand, each with its own example budget.  Sizes come
from small ranges (windows of a few hundred samples, at most 225 rows, at
most 3 trials) so that one example takes milliseconds; the caps themselves
are tested in test_cli.py.  Hostile values (NaN, infinity, negative,
2**70, strings, null, lists, binary bytes) are drawn beside valid ones,
but most inputs are valid, so that most `recover` and `forecast` examples
reach the solver.  The property: the exit code is 0, 2, 3 or 4; a
non-zero exit writes exactly one `{"error": {...}}` JSON line on stderr
and no warning; the traced allocation peak stays under 64 MiB.
"""

import contextlib
import io
import json
import math
import tracemalloc
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandgap.cli import main
from bandgap.errors import ParameterError
from bandgap.lab import ExperimentConfig

PEAK_BOUND = 64 * 2**20
HUGE = 2**70

HOSTILE = st.sampled_from(["nan", "inf", "-inf", "-1", str(HUGE), "1.5", "abc", "", "0x10"])
JSON_HOSTILE = st.sampled_from([math.nan, math.inf, -1, HUGE, "abc", None, [1, 2], {"a": 1}])
CORRUPTIONS = st.sampled_from([0] * 8 + [1, 2])  # how many fields of a valid input turn hostile

SPANS = st.tuples(st.integers(-60, 60), st.integers(0, 12)).map(lambda p: f"{p[0]}..{p[0] + p[1]}")
SPECS_1D = st.lists(st.one_of(SPANS, st.integers(-60, 60).map(str)), min_size=1, max_size=3, unique=True).map(
    ", ".join)
SPECS_2D = st.tuples(st.integers(-6, 3), st.integers(0, 3), st.integers(-6, 3), st.integers(0, 3)).map(
    lambda p: f"{p[0]}..{p[0] + p[1]} x {p[2]}..{p[2] + p[3]}")
BAD_SPECS = st.sampled_from(["x", "1..", "3..1", f"0..{HUGE}", "0, 400000000", "1..5 x", "(1,2)", "-5..-10"])
GAP_SIZES = st.tuples(st.integers(1, 30), st.integers(0, 10)).map(lambda p: f"{p[0]}..{p[0] + p[1]}")
BAD_GAP_SIZES = st.sampled_from(["0", "-1", "1..5000", "1..3 x 1..3", "3, 1"])
FRACTIONS = st.floats(0.02, 0.98).map(lambda f: f"{f:.3g}")
BAD_FRACTIONS = st.sampled_from(["0", "1", "-0.5", "1e-310"])
RHOS = st.sampled_from(["0", "1e-4", "0.1"])

SAMPLES = st.one_of(st.floats(-10, 10).map(repr), st.sampled_from(["nan", "inf", "1e400", "", "abc", "0x1p3"]))
HEADERS = st.sampled_from(["t,value"] * 15 + ["\ufefft,value", "T, Value", "time,value", "t1,t2,value", "t,value,extra"])
GRID = range(-7, 8)  # each axis of a 2D series file; covers every index a 2D spec can name


def one_in(draw, k: int) -> bool:
    """True once in `k` draws.  Hypothesis favours the first of a strategy's values (the one it
    shrinks to), so that one is False; `st.one_of` would merge equal branches."""
    return draw(st.sampled_from([False] * (k - 1) + [True]))


@st.composite
def series_bytes(draw, lo=None, hi=None, ndim=1):
    """A series file: seven in eight are clean rows on one range (on GRID x GRID in 2D); the
    eighth may scatter its indices, take the other dimensionality, be bytes that are no CSV at
    all, or carry an odd header and faulty rows."""
    hostile = one_in(draw, 8)
    kind = draw(st.sampled_from(["range", "range", "scatter", "other", "binary"])) if hostile else "range"
    if kind == "binary":
        return draw(st.binary(max_size=200))
    if kind == "other":
        ndim = 3 - ndim
    if ndim == 2:
        header = "t1,t2,value"
        if kind == "range":
            keys = [f"{a},{b}" for a in GRID for b in GRID]
        else:
            keys = [f"{a},{b}" for a, b in draw(st.lists(
                st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=200))]
    else:
        header = draw(HEADERS) if hostile else "t,value"
        if kind == "scatter":
            index = draw(st.lists(st.integers(-100, 100), min_size=1, max_size=200))
        else:
            lo = draw(st.integers(-150, 50 if hi is None else hi)) if lo is None else lo
            hi = draw(st.integers(lo, lo + 150)) if hi is None else hi
            index = range(lo, hi + 1)
        keys = [str(t) for t in index]
    rows = [f"{key},{draw(st.floats(-10, 10))!r}" for key in keys]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if hostile else 0):
        k = draw(st.integers(0, len(rows) - 1))
        fault = draw(st.sampled_from(["drop", "repeat", "fraction", "sample", "comment", "blank"]))
        if fault == "drop":
            del rows[k]
        elif fault == "repeat":
            rows.insert(k, rows[k])
        elif fault == "fraction":
            rows[k] = f"{keys[min(k, len(keys) - 1)]}.5,1.0"
        elif fault == "sample":
            rows[k] = f"{rows[k].rsplit(',', 1)[0]},{draw(SAMPLES)}"
        elif fault == "comment":
            rows.insert(k, "# comment")
        else:
            rows.insert(k, "")
        if not rows:
            break
    return ("\n".join([header, *rows]) + "\n").encode("utf-8")


def flags(draw, valid: dict, hostile: dict, required=()) -> list[str]:
    """`--name=value` tokens: each optional flag is present half the time, a required one fifteen
    times in sixteen; a few of them take a hostile value."""
    present = [name for name in valid if (not one_in(draw, 16) if name in required else one_in(draw, 2))]
    bad = set(draw(st.permutations(present))[:draw(CORRUPTIONS)])
    return [f"{name}={draw(st.one_of(HOSTILE, hostile.get(name, HOSTILE)) if name in bad else valid[name])}"
            for name in present]


COMMON = {"--format": st.sampled_from(["json", "csv"])}
COMMON_HOSTILE = {"--format": st.just("xml")}


@st.composite
def recover_inputs(draw):
    ndim = draw(st.sampled_from([1, 1, 1, 2]))
    valid = {"--missing": SPECS_1D if ndim == 1 else SPECS_2D, "--omega": FRACTIONS, "--rho": RHOS, **COMMON}
    hostile = {"--missing": BAD_SPECS, "--omega": BAD_FRACTIONS, "--rho": st.just("1e300"), **COMMON_HOSTILE}
    if ndim == 2 or one_in(draw, 8):  # a 1D recover refuses --omega2
        valid["--omega2"] = FRACTIONS
    argv = ["recover", "--input", "{series}",
            *flags(draw, valid, hostile, ("--missing", "--omega", "--omega2"))]
    # seven files in eight cover every index a 1D spec can name; GRID covers every 2D spec
    covering = series_bytes(lo=draw(st.integers(-100, -72)), hi=draw(st.integers(72, 97)), ndim=ndim)
    return argv, {"series": draw(series_bytes(ndim=ndim) if one_in(draw, 8) else covering)}


@st.composite
def forecast_inputs(draw):
    gap = draw(st.integers(4, 30))
    valid = {"--gap": st.just(str(gap)), "--horizon": st.integers(1, 3).map(str), "--omega": FRACTIONS,
             "--rho": RHOS, **COMMON}
    hostile = {"--gap": st.sampled_from(["-2", "0", "3"]), "--horizon": st.sampled_from(["0", "30"]),
               "--omega": BAD_FRACTIONS, "--rho": st.just("1e300"), **COMMON_HOSTILE}
    if draw(st.booleans()):
        start = draw(st.integers(-5, 40)) if one_in(draw, 8) else gap + 1
        files = {"dummy": draw(series_bytes(lo=start, hi=draw(st.integers(start, start + 150))))}
        argv = ["forecast", "--input", "{series}", "--dummy", "{dummy}"]
    else:
        files, argv = {}, ["forecast", "--input", "{series}"]
    past = series_bytes(lo=draw(st.integers(-150, -1)), hi=0)
    files["series"] = draw(series_bytes() if one_in(draw, 8) else past)
    return argv + flags(draw, valid, hostile, ("--gap",)), files


@st.composite
def diagnose_inputs(draw):
    valid = {"--missing": st.one_of(SPECS_1D, SPECS_2D), "--omega": FRACTIONS, "--gap-sizes": GAP_SIZES,
             **COMMON}
    hostile = {"--missing": BAD_SPECS, "--omega": BAD_FRACTIONS, "--gap-sizes": BAD_GAP_SIZES, **COMMON_HOSTILE}
    if one_in(draw, 4):
        valid["--omega2"] = FRACTIONS
    return ["diagnose", *flags(draw, valid, hostile, ("--omega", "--missing"))], {}


@st.composite
def config_doc(draw):
    """A config with small valid fields, a few of them hostile, sometimes one deleted."""
    sweep = draw(st.sampled_from(["window", "noise", "rho", "gap"]))
    small = {"window": st.integers(1, 120), "gap": st.integers(1, 12)}.get(sweep, st.floats(0, 1))
    doc = {"sweep": sweep, "values": sorted(set(draw(st.lists(small, min_size=1, max_size=3)))),
           "omega": draw(st.floats(0.05, 0.95)), "synth_band": draw(st.floats(0.05, 0.95))}
    if draw(st.booleans()):
        doc["seeds"] = draw(st.lists(st.integers(0, 100), min_size=1, max_size=3, unique=True))
    else:
        doc.update(seed=draw(st.integers(0, 100)), trials=draw(st.integers(1, 3)))
    optional = {"missing": st.sampled_from(["1..5", "0", "-3..3", "1..5 x 1..2", "bogus"]),
                "window": st.integers(10, 120), "rho": st.floats(0, 0.1), "sigma": st.floats(0, 0.5)}
    doc.update({name: draw(valid) for name, valid in optional.items() if draw(st.booleans())})
    names = draw(st.permutations(sorted(doc)))
    for name in names[:draw(CORRUPTIONS)]:
        doc[name] = draw(JSON_HOSTILE)
    if one_in(draw, 8):
        del doc[names[-1]]
    return doc


@st.composite
def simulate_inputs(draw):
    kind = draw(st.sampled_from(["doc", "doc", "doc", "list", "text"]))
    if kind == "doc":
        text = json.dumps(draw(config_doc()))
    elif kind == "list":
        text = json.dumps([draw(config_doc())])
    else:
        text = draw(st.sampled_from(["{not json", "", "null", "3", '"noise"', "\ufeff{}"]))
    argv = ["simulate", "--config", "{config}", *flags(draw, COMMON, COMMON_HOSTILE)]
    return argv, {"config": text.encode("utf-8")}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-inputs")


def run_cli(argv, files, directory):
    """Exit code, stderr lines, warnings and traced peak of one in-process CLI call."""
    paths = {}
    for name, data in files.items():
        path = directory / name
        path.write_bytes(data)
        paths[name] = str(path)
    argv = [token.format(**paths) for token in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return code, stderr.getvalue().splitlines(), caught, peak


def check_exit(inputs, directory):
    """The exit code, and the error message of a non-zero exit."""
    code, lines, caught, peak = run_cli(*inputs, directory)
    assert code in (0, 2, 3, 4)
    assert peak < PEAK_BOUND
    if not code:
        return code, None
    assert len(lines) == 1 and not caught, (lines, [str(w.message) for w in caught])
    doc = json.loads(lines[0])
    assert list(doc) == ["error"] and set(doc["error"]) == {"category", "message"}
    return code, doc["error"]["message"]


@settings(max_examples=16, deadline=None)
@given(inputs=recover_inputs())
def test_recover_input_ends_in_a_documented_exit(inputs, workdir):
    check_exit(inputs, workdir)


@settings(max_examples=16, deadline=None)
@given(inputs=forecast_inputs())
def test_forecast_input_ends_in_a_documented_exit(inputs, workdir):
    check_exit(inputs, workdir)


@settings(max_examples=12, deadline=None)
@given(inputs=diagnose_inputs())
def test_diagnose_input_ends_in_a_documented_exit(inputs, workdir):
    check_exit(inputs, workdir)


def simulate_example(config):
    return example(inputs=(["simulate", "--config", "{config}"], {"config": json.dumps(config).encode()}))


NOISE_CONFIG = {"sweep": "noise", "values": [0.1], "seeds": [1], "omega": 0.25, "synth_band": 0.2}
CONFIG_FIELDS = ("sweep", "values", "seed", "seeds", "trials", "omega", "synth_band", "missing", "window", "rho",
                 "sigma", *(f"{sweep} sweep values" for sweep in ("window", "noise", "rho", "gap")))


@settings(max_examples=16, deadline=None)
@given(inputs=simulate_inputs())
@simulate_example({**NOISE_CONFIG, "seeds": [-1]})
@simulate_example([NOISE_CONFIG])
@simulate_example({**NOISE_CONFIG, "synth_band": [1, 2]})
@simulate_example({**NOISE_CONFIG, "values": 5})
@simulate_example({**NOISE_CONFIG, "seeds": 5})
@simulate_example({"sweep": "noise", "values": [0.1], "seed": 0, "trials": HUGE, "omega": 0.25, "synth_band": 0.2})
@simulate_example({**NOISE_CONFIG, "omega": HUGE})
def test_simulate_input_ends_in_a_documented_exit(inputs, workdir):
    """Beyond the documented exit: a config refused as it is read names its field, or says it is no object."""
    code, message = check_exit(inputs, workdir)
    argv, files = inputs
    try:
        ExperimentConfig.from_json_dict(json.loads(files["config"].decode("utf-8")))
    except json.JSONDecodeError:
        return
    except ParameterError as exc:
        assert code == 2
        head, colon, _ = str(exc).partition(": ")
        assert str(exc) == "experiment config must be a JSON object" or colon and head in CONFIG_FIELDS, str(exc)
        if set(argv[3:]) <= {"--format=json", "--format=csv"}:  # argparse has nothing to refuse first
            assert message == str(exc)
