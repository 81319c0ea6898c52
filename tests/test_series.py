"""Series container semantics and CSV round-tripping."""

import csv
import itertools
import subprocess
import sys
import urllib.request
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bandgap
from bandgap import GeometryError, IndexWindow, ParameterError, Series, apply_mask, make_mask
from bandgap import series as series_module
from bandgap.series import _read_rows, read_series_csv
from oracles import write_series_csv


def test_shape_validation():
    with pytest.raises(GeometryError):
        Series(window=IndexWindow(0, 4), values=np.zeros(4))
    with pytest.raises(GeometryError):
        Series(window=IndexWindow((0, 0), (2, 2)), values=np.zeros((3, 2)))


def test_csv_round_trip_1d(tmp_path):
    path = tmp_path / "series.csv"
    rng = np.random.default_rng(11)
    s = Series(window=IndexWindow(-5, 5), values=rng.standard_normal(11))
    write_series_csv(s, path)
    back, absent = read_series_csv(path)
    assert back.window == s.window
    assert absent == []
    assert np.array_equal(back.values, s.values)


def test_csv_round_trip_with_gaps(tmp_path):
    path = tmp_path / "series.csv"
    w = IndexWindow(0, 6)
    s = Series(window=w, values=np.arange(1.0, 8.0))
    mask = make_mask(w, [2, 3])
    write_series_csv(s, path, mask=mask)
    back, absent = read_series_csv(path)
    assert back.window == w
    assert absent == [2, 3]
    assert back.values[2] == 0.0
    assert back.values[6] == 7.0


def test_csv_round_trip_2d(tmp_path):
    path = tmp_path / "grid.csv"
    rng = np.random.default_rng(3)
    s = Series(window=IndexWindow((-2, 0), (1, 3)), values=rng.standard_normal((4, 4)))
    write_series_csv(s, path)
    back, absent = read_series_csv(path)
    assert back.window == s.window
    assert absent == []
    assert np.array_equal(back.values, s.values)


def test_csv_duplicate_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("t,value\n0,1.0\n0,2.0\n")
    with pytest.raises(ParameterError):
        read_series_csv(path)


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,val\n0,1.0\n")
    with pytest.raises(ParameterError):
        read_series_csv(path)


def test_csv_bad_value_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,value\n0,abc\n")
    with pytest.raises(ParameterError):
        read_series_csv(path)


@pytest.mark.parametrize("sample", ["nan", "inf", "-inf"])
def test_csv_nonfinite_sample_names_its_line(tmp_path, sample):
    path = tmp_path / "nan.csv"
    path.write_text(f"t,value\n0,1.0\n1,{sample}\n")
    with pytest.raises(ParameterError, match=r"nan\.csv:3: non-finite sample"):
        read_series_csv(path)


def test_csv_duplicate_names_the_repeating_line(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("t1,t2,value\n0,0,1.0\n0,1,1.0\n1,1,1.0\n0,1,2.0\n1,1,3.0\n")
    with pytest.raises(ParameterError, match=r"dup\.csv:5: duplicate index \(0, 1\)"):
        read_series_csv(path)


@pytest.mark.parametrize("far, message", [("1000000000", "exceeds"), (str(10**20), "64 bits")])
def test_csv_window_cap_rejects_far_apart_rows(tmp_path, far, message):
    # rows at 0 and 10^9 span a 10^9-sample window; it is refused before allocation
    path = tmp_path / "far.csv"
    path.write_text(f"t,value\n0,1.0\n{far},2.0\n")
    with pytest.raises(GeometryError, match=message):
        read_series_csv(path)


def test_csv_header_only_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t,value\n")
    with pytest.raises(ParameterError, match="no data rows"):
        read_series_csv(path)


def test_csv_absent_rows_2d_in_row_major_order(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("t1,t2,value\n-1,2,1.0\n0,4,2.0\n1,3,3.0\n")
    back, absent = read_series_csv(path)
    assert back.window == IndexWindow((-1, 2), (1, 4))
    assert absent == [(-1, 3), (-1, 4), (0, 2), (0, 3), (1, 2), (1, 4)]
    assert back.values[1, 2] == 2.0 and back.values[2, 0] == 0.0  # (0, 4) and (1, 2)


@pytest.mark.parametrize("row, message", [
    ("1,2.0,3", "expected 2 fields, got 3"),
    ("1,abc", "could not convert"),
    ("1,nan", "non-finite sample 'nan'"),
    ("0,2.0", "duplicate index 0"),
])
def test_csv_errors_name_the_physical_line(tmp_path, row, message):
    # comment and blank lines count: the bad row is line 6 of the file
    path = tmp_path / "bad.csv"
    path.write_text(f"# a comment\nt,value\n0,1.0\n\n# another\n{row}\n2,3.0\n")
    with pytest.raises(ParameterError, match=rf"bad\.csv:6: {message}"):
        read_series_csv(path)


def window_indices(window):
    """Every index of a window in row-major order: ints in 1D, pairs in 2D."""
    lo, hi = np.atleast_1d(window.lo).tolist(), np.atleast_1d(window.hi).tolist()
    axes = [range(a, b + 1) for a, b in zip(lo, hi)]
    return list(itertools.product(*axes)) if window.ndim == 2 else list(axes[0])


def reference_write(series, path, mask=None):
    """The per-index writer the array version replaced."""
    skip = set(mask.missing) if mask is not None else set()
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["t", "value"] if series.ndim == 1 else ["t1", "t2", "value"])
        for t, v in zip(window_indices(series.window), series.values.ravel().tolist()):
            if t not in skip:
                writer.writerow([*(t if isinstance(t, tuple) else (t,)), repr(v)])


@st.composite
def masked_series(draw):
    """A 1D or 2D series and a mask that leaves both window corners observed."""
    ndim = draw(st.sampled_from([1, 2]))
    lo = tuple(draw(st.integers(-50, 50)) for _ in range(ndim))
    shape = tuple(draw(st.integers(1, 12)) for _ in range(ndim))
    hi = tuple(a + n - 1 for a, n in zip(lo, shape))
    window = IndexWindow(lo, hi) if ndim == 2 else IndexWindow(lo[0], hi[0])
    values = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=window.size, max_size=window.size))).reshape(shape)
    corners = {window.lo, window.hi}
    inner = [t for t in window_indices(window) if t not in corners]
    missing = draw(st.lists(st.sampled_from(inner), unique=True)) if inner else []
    return Series(window=window, values=values), make_mask(window, missing)


@settings(max_examples=200, deadline=None)
@given(masked_series())
def test_csv_round_trip_is_the_identity(tmp_path_factory, case):
    series, mask = case
    path, reference = tmp_path_factory.mktemp("rt") / "s.csv", tmp_path_factory.mktemp("rt") / "r.csv"
    write_series_csv(series, path, mask=mask)
    reference_write(series, reference, mask=mask)
    assert path.read_bytes() == reference.read_bytes()
    back, absent = read_series_csv(path)
    assert back.window == series.window
    assert tuple(absent) == mask.missing
    assert np.array_equal(back.values, apply_mask(series, mask).values)


# Fields and lines that the row parser reads or rejects in its own way: the
# table path must either agree with it or hand the file over.
ODD_INDICES = [" 1", "+2", "-0", "007", "1_000", "1.0", "1e1", "0x1", "\u0661", " 3", "", " ", '"1"',
               str(2**63 - 1), str(-2**63), str(2**63), str(-2**63 - 1), str(10**20), str(2**40)]
ODD_SAMPLES = ["nan", "-inf", "1e999", "Infinity", " 1.5 ", "1_0.5", '"2.0"', "", "0x1p3", "1d5",
               "\u0661.5", " 2.0", "-0.0", "1e-400", ".5", "5.", "+1.5E+03", "2\x00", "2.0 # note", '2.0"']
ODD_LINES = ["", "   ", "\t", "# a comment", " # indented", "#1,2.0", '"1","2.0"', '"1,2.0"', "\ufeff1,2.0",
             "1", "1,2.0,3", "1,2,3,4.0", "\x0c", "\r"]
HEADERS = ["t,value", "t1,t2,value", "T, Value", '"t",value', "\ufefft,value", "time,val", "t,value,",
           "# a comment\nt,value", "\nt1,t2,value"]


@st.composite
def series_files(draw):
    """The bytes of a 1D or 2D series file: well formed, or with one to three odd fields or lines."""
    ndim = draw(st.sampled_from([1, 2]))
    keys = draw(st.lists(st.tuples(*[st.integers(-3, 3).map(str)] * ndim), unique=True, max_size=12))
    sample = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.floats(-1e3, 1e3).map(str))
    rows = [[*key, draw(sample)] for key in keys]
    header, extra = HEADERS[ndim - 1], []
    odd = draw(st.booleans())
    for _ in range(draw(st.integers(1, 3)) if odd else 0):
        edit = draw(st.sampled_from(["header", "index", "sample", "line"]))
        if edit == "header":
            header = draw(st.sampled_from(HEADERS))
        elif edit == "line" or not rows:
            extra.append(draw(st.sampled_from(ODD_LINES + [",".join(row) for row in rows[:1]])))
        else:
            row = draw(st.sampled_from(rows))
            if edit == "index":
                row[draw(st.integers(0, ndim - 1))] = draw(st.sampled_from(ODD_INDICES))
            else:
                row[ndim] = draw(st.one_of(st.sampled_from(ODD_SAMPLES), st.floats().map(repr)))
    lines = [header, *map(",".join, rows)]
    for line in extra:
        lines.insert(draw(st.integers(1, len(lines))), line)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8") + (draw(st.sampled_from([b"", b"", b"", b"\xff\n"])) if odd else b"")


def _outcome(read, path):
    try:
        series, absent = read(path)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)
    return series.window, series.values.tobytes(), absent


# Names numpy's file opener reads as they are or decompresses by suffix.
SUFFIXES = [".csv", ".gz", ".bz2", ".xz", ".lzma", ""]


@settings(max_examples=500, deadline=None)
@given(series_files(), st.sampled_from(SUFFIXES))
def test_reader_agrees_with_the_row_parser(tmp_path_factory, data, suffix):
    path = tmp_path_factory.getbasetemp() / f"differential{suffix}"
    path.write_bytes(data)
    assert _outcome(read_series_csv, path) == _outcome(_read_rows, path)


def test_plain_file_takes_the_table_path(tmp_path, monkeypatch):
    """numpy gets the file name: it streams a named file in chunks, but any other source line by line."""
    path = tmp_path / "plain.csv"
    path.write_bytes(b"t1,t2,value\r\n0,1,2.5\r\n\r\n1,0,-1e-3\n")
    sources = []
    loadtxt = np.loadtxt

    def recording(fname, *args, **kwargs):
        sources.append(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording)
    monkeypatch.setattr(series_module, "_read_rows", lambda path: pytest.fail("the row parser ran"))
    back, absent = read_series_csv(path)
    assert back.window == IndexWindow((0, 0), (1, 1)) and absent == [(0, 0), (1, 1)]
    assert back.values[0, 1] == 2.5 and back.values[1, 0] == -1e-3
    assert len(sources) == 1 and type(sources[0]) is str and Path(sources[0]) == path


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_compressed_suffix_is_read_as_plain_text(tmp_path, suffix):
    text = "t,value\n0,1.5\n2,-3.0\n"
    (tmp_path / "plain.csv").write_text(text)
    (tmp_path / f"plain.csv{suffix}").write_text(text)
    twin, absent = read_series_csv(tmp_path / "plain.csv")
    back, back_absent = read_series_csv(tmp_path / f"plain.csv{suffix}")
    assert back.window == twin.window and back_absent == absent == [1]
    assert back.values.tobytes() == twin.values.tobytes()


def test_a_url_like_file_name_is_read_as_a_local_file(tmp_path, monkeypatch):
    # "http://localhost/s.csv" names the local file "http:/localhost/s.csv"; numpy's opener
    # would download a name it takes for a URL
    (tmp_path / "http:" / "localhost").mkdir(parents=True)
    (tmp_path / "http:" / "localhost" / "s.csv").write_text("t,value\n0,1.5\n1,2.5\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(urllib.request, "urlopen", lambda *args, **kwargs: pytest.fail("a URL was opened"))
    monkeypatch.setattr(series_module, "_read_rows", lambda path: pytest.fail("the row parser ran"))
    back, absent = read_series_csv("http://localhost/s.csv")
    assert absent == [] and back.values.tolist() == [1.5, 2.5]


@pytest.mark.parametrize("text", ["t,value\n0,1.0\n2,3.0\n", "# a comment\nt,value\n0,1.0\n2,3.0\n"])
def test_a_pipe_is_read_once(text):
    src = str(Path(bandgap.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from bandgap.series import read_series_csv; "
            "print(read_series_csv('/dev/stdin')[1])")
    out = subprocess.run([sys.executable, "-c", code, src], input=text, capture_output=True, text=True, timeout=60)
    assert (out.stdout, out.stderr) == ("[1]\n", "")


def test_header_only_file_warns_nothing(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t,value\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="no data rows"):
            read_series_csv(path)


def test_writing_with_a_mask_on_another_window_is_refused(tmp_path):
    series = Series(window=IndexWindow(0, 4), values=np.zeros(5))
    with pytest.raises(GeometryError, match="^mask and series windows differ$"):
        write_series_csv(series, tmp_path / "s.csv", mask=make_mask(IndexWindow(0, 5), [1]))
    assert not (tmp_path / "s.csv").exists()
