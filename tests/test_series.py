"""Series container semantics and CSV round-tripping."""

import numpy as np
import pytest

from bandgap import GeometryError, IndexWindow, ParameterError, Series, make_mask
from bandgap.series import read_series_csv, write_series_csv


def test_shape_validation():
    with pytest.raises(GeometryError):
        Series(window=IndexWindow(0, 4), values=np.zeros(4))
    with pytest.raises(GeometryError):
        Series(window=IndexWindow((0, 0), (2, 2)), values=np.zeros((3, 2)))


def test_value_at():
    s = Series(window=IndexWindow(-2, 2), values=np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert s.value_at(-2) == 1.0
    assert s.value_at(2) == 5.0
    with pytest.raises(GeometryError):
        s.value_at(3)


def test_value_at_2d():
    vals = np.arange(9.0).reshape(3, 3)
    s = Series(window=IndexWindow((-1, -1), (1, 1)), values=vals)
    assert s.value_at((-1, -1)) == 0.0
    assert s.value_at((0, 1)) == 5.0
    assert s.value_at((1, 1)) == 8.0


def test_restricted():
    s = Series(window=IndexWindow(0, 9), values=np.arange(10.0))
    sub = s.restricted(IndexWindow(3, 5))
    assert sub.values.tolist() == [3.0, 4.0, 5.0]
    with pytest.raises(GeometryError):
        s.restricted(IndexWindow(5, 12))


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
    assert back.value_at(2) == 0.0
    assert back.value_at(6) == 7.0


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
    assert back.value_at((0, 4)) == 2.0 and back.value_at((1, 2)) == 0.0
