"""Atomic file writing and CSV rendering."""

import csv
import io
import os

import pytest
from hypothesis import given
import hypothesis.strategies as st

from rmsde.output import atomic_write_text, format_value, render_csv, write_summary


def test_format_value_floats_round_trip():
    for x in (0.1, 1 / 3, 2.0 ** -52, 1e308, -0.0):
        assert float(format_value(x)) == x


def test_format_value_bools_and_ints():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(17) == "17"
    assert format_value("name") == "name"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_value_exact(x):
    assert float(format_value(x)) == x


def test_render_csv_layout():
    text = render_csv("ab" * 32, ("name", "value"), [("row", 0.5)])
    lines = text.split("\n")
    assert lines[0] == "# config-hash: " + "ab" * 32
    assert lines[1] == "name,value"
    assert lines[2] == "row,0.5"
    assert lines[3] == ""


def test_render_csv_quotes_commas():
    text = render_csv("0" * 64, ("name",), [("autocorr[0.5,1]",)])
    body = text.split("\n", 1)[1]
    rows = list(csv.reader(io.StringIO(body)))
    assert rows == [["name"], ["autocorr[0.5,1]"]]
    assert '"autocorr[0.5,1]"' in text


def test_atomic_write_creates_directories(tmp_path):
    path = tmp_path / "deep" / "nest" / "out.txt"
    atomic_write_text(str(path), "hello\n")
    assert path.read_text() == "hello\n"


def test_atomic_write_overwrites(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "first")
    atomic_write_text(str(path), "second")
    assert path.read_text() == "second"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_cleans_up_on_failure(tmp_path, monkeypatch):
    def boom(src, dst):
        raise OSError("disk on fire")

    monkeypatch.setattr(os, "replace", boom)
    path = tmp_path / "out.txt"
    with pytest.raises(OSError, match="disk on fire"):
        atomic_write_text(str(path), "doomed")
    assert os.listdir(tmp_path) == []


def test_write_summary(tmp_path):
    path = tmp_path / "summary.txt"
    write_summary(str(path), [("experiment", "aging"), ("rows", 3),
                              ("ok", True)])
    assert path.read_text() == "experiment = aging\nrows = 3\nok = true\n"
