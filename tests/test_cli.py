import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randpred import (
    ClassifierSpec,
    DataSplit,
    FittedPipeline,
    Interval,
    asymptotic_constant,
    binary_irp_pvalue,
    fit_classification_pipeline,
    fit_regression_pipeline,
    prediction_set,
)
from randpred import cli
from randpred.cli import _jsonify, _predict_json, _predict_text, main, read_csv_dataset
from test_cli_pinned import COMMAND_PINNED

SRC = Path(__file__).resolve().parent.parent / "src"

REG_TRAIN = """x1,x2,y
0.0,0.0,0.30
1.0,0.0,1.80
0.0,1.0,-1.70
1.0,1.0,-0.20
0.5,0.5,0.05
-1.0,0.5,-2.20
0.5,-1.0,3.05
-0.5,-0.5,0.55
0.2,0.8,-1.00
0.8,0.2,1.10
0.4,0.1,0.70
0.1,0.4,-0.35
"""

REG_TEST = """x1,x2,y
0.25,0.25,0.175
-0.6,0.9,0.0
"""

CLS_TRAIN = """x1,x2,y
2.0,2.1,1
1.8,2.4,1
2.2,1.9,1
2.5,2.6,1
1.9,2.2,1
-2.0,-2.1,-1
-1.8,-2.4,-1
-2.2,-1.9,-1
-2.5,-2.6,-1
-1.9,-2.2,-1
2.1,2.3,1
-2.1,-2.3,-1
"""

CLS_TEST = """x1,x2,y
2.0,2.0,1
-2.0,-2.0,-1
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def reg_files(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text(REG_TRAIN)
    test.write_text(REG_TEST)
    return str(train), str(test)


@pytest.fixture
def cls_files(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text(CLS_TRAIN)
    test.write_text(CLS_TEST)
    return str(train), str(test)


class TestReadCsvDataset:
    def test_round_trip(self, reg_files):
        train, _ = reg_files
        header, rows = read_csv_dataset(train)
        assert header == ["x1", "x2", "y"]
        assert rows.dtype == np.float64 and rows.shape == (12, 3)
        assert rows[0].tolist() == [0.0, 0.0, 0.30]
        assert rows[6].tolist() == [0.5, -1.0, 3.05]
        assert rows[-1, -1] == -0.35

    @pytest.mark.parametrize(
        "text, reference",
        [
            ("x,y\n1.0,2.0\n3.0,4.0\n", False),
            ('x,y\n"1.0",2.0\n3.0,4.0\n', True),
            ("\ufeffx,y\n1.0,2.0\n3.0,4.0\n", False),
            ('\ufeffx,y\n"1.0",2.0\n3.0,4.0\n', True),
        ],
        ids=["numpy", "reference", "numpy-bom", "reference-bom"],
    )
    def test_opens_its_path_once(self, tmp_path, text, reference):
        # a UTF-8 byte-order mark is no part of the first column's name, in
        # either pass: the reference pass reads the file again from its mark
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        reference_rows = mock.patch.object(cli, "_reference_rows", wraps=cli._reference_rows)
        with reference_rows as spy, mock.patch("builtins.open", wraps=open) as opened:
            header, rows = read_csv_dataset(str(path))
        assert spy.called == reference
        assert opened.call_count == 1
        assert header == ["x", "y"] and rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize(
        "head, reread",
        [(b"x,y\n", False), (b"x,y\n" + b"1.0,2.0\n" * 2000, True),
         (b'x,y\n"1.0",2.0\n' + b"1.0,2.0\n" * 2000, True)],
        ids=["header", "numpy", "reference"],
    )
    def test_non_utf8_file_names_its_path(self, tmp_path, head, reread):
        # the byte 0xe9 (e acute in Latin-1) in the header's first read,
        # which decodes 8192 bytes, or past it, where the numpy pass meets
        # it and the reference pass reads the file again and raises, with or
        # without a quoted cell that sends the file there anyway
        path = tmp_path / "latin1.csv"
        path.write_bytes(head + b"caf\xe9,1.0\n")
        with mock.patch.object(cli, "_reference_rows", wraps=cli._reference_rows) as spy:
            with pytest.raises(ValueError) as info:
                read_csv_dataset(str(path))
        assert str(info.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xe9")
        assert spy.called == reread

    def test_malformed_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\noops,3.0\n")
        with pytest.raises(ValueError, match=r"row 3, column 'x'"):
            read_csv_dataset(str(path))

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="expected 2 fields, got 3"):
            read_csv_dataset(str(path))

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\ninf,2.0\n")
        with pytest.raises(ValueError, match="finite"):
            read_csv_dataset(str(path))

    def test_classification_label_domain(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,0.5\n")
        with pytest.raises(ValueError, match="labels must be -1 or 1"):
            read_csv_dataset(str(path), task="classification")

    def test_unknown_task_rejected(self, tmp_path):
        # a misspelt task would read a classification file as regression
        # and skip its label check
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1.0,3.5\n")
        for task in ("classifcation", "Regression", None):
            with pytest.raises(ValueError, match=f"^task must be .*, got {task!r}$"):
                read_csv_dataset(str(path), task)

    def test_blank_lines_keep_row_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n\n1.0,2.0\n\n\n3.0,oops\n")
        with pytest.raises(ValueError, match=r"row 6, column 'y': could not parse 'oops'"):
            read_csv_dataset(str(path))
        path.write_text("x,y\n\n1.0,2.0\n\n3.0,4.0\n")
        assert read_csv_dataset(str(path))[1].tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("cell", [" 1.5 ", "1_0", "-0", "+.5e1", "1e-320", "\t2\n"])
    def test_cells_parse_as_python_float(self, tmp_path, cell):
        path = tmp_path / "cells.csv"
        path.write_text(f'x,y\n"{cell}",1\n')
        value = read_csv_dataset(str(path))[1][0, 0]
        assert math.copysign(1.0, value) == math.copysign(1.0, float(cell))
        assert value == float(cell)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_nonfinite_names_row_and_column(self, tmp_path, cell, column):
        path = tmp_path / "bad.csv"
        row = ["0.5", "0.5"]
        row[column] = cell
        path.write_text("x,y\n1.0,2.0\n" + ",".join(row) + "\n4.0,oops\n")
        name = "xy"[column]
        with pytest.raises(
            ValueError, match=rf"row 3, column '{name}': value must be finite, got '{cell}'"
        ):
            read_csv_dataset(str(path))

    def test_fractional_label_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,1\n2.0,-1.0\n\n3.0,0.999\n")
        with pytest.raises(
            ValueError,
            match=r"row 5, column 'y': classification labels must be -1 or 1, got '0.999'",
        ):
            read_csv_dataset(str(path), task="classification")
        assert read_csv_dataset(str(path))[1][:, -1].tolist() == [1.0, -1.0, 0.999]

    def test_ragged_row_after_blank_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\n1.0,2.0,3.0\n\n4.0,5.0\n")
        with pytest.raises(ValueError, match=r"row 4: expected 3 fields, got 2"):
            read_csv_dataset(str(path))

    def test_first_fault_in_file_order_wins(self, tmp_path):
        # an infinite cell before a ragged row and an unparsable cell: the
        # infinite one is named, as a row-by-row reader would name it
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\ninf,1.0\n1.0\nbad,1.0\n")
        with pytest.raises(ValueError, match=r"row 3, column 'x': value must be finite"):
            read_csv_dataset(str(path))

    def test_empty_and_header_only(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_csv_dataset(str(empty))
        header_only = tmp_path / "header.csv"
        header_only.write_text("x,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv_dataset(str(header_only))

    def test_rows_numbered_by_starting_line(self, tmp_path):
        # the quoted cell "1\n" spans lines 2 and 3, so oops is on line 4
        path = tmp_path / "bad.csv"
        path.write_text('x,y\n"1\n",2\n3,oops\n')
        with pytest.raises(ValueError, match=r"row 4, column 'y': could not parse 'oops'"):
            read_csv_dataset(str(path))

    @pytest.mark.parametrize("cell", ["\x1c1", "1\x1d", "\x1e1", "1\x1f"])
    def test_information_separators_are_not_spaces(self, tmp_path, cell):
        # str.isspace holds for \x1c-\x1f, but float() does not strip them
        path = tmp_path / "bad.csv"
        path.write_text(f"x,y\n1,2\n{cell},3\n")
        with pytest.raises(ValueError, match=r"row 3, column 'x': could not parse"):
            read_csv_dataset(str(path))

    def test_matches_reference_reader(self, tmp_path):
        path = tmp_path / "data.csv"
        paths_taken = Counter()

        @settings(max_examples=200, deadline=None)
        @given(csv_file=csv_files())
        def check(csv_file):
            text, task = csv_file
            with open(path, "w", newline="") as handle:
                handle.write(text)
            expected = reference_read(str(path), task)
            with mock.patch.object(cli, "_reference_rows", wraps=cli._reference_rows) as spy:
                try:
                    header, rows = read_csv_dataset(str(path), task)
                except ValueError as exc:
                    assert str(exc) == expected
                else:
                    assert header == expected[0]
                    # bytes, so that -0.0 must be -0.0
                    assert rows.tobytes() == np.array(expected[1], dtype=np.float64).tobytes()
            paths_taken["reference" if spy.called else "numpy"] += 1

        check()
        assert paths_taken["numpy"] and paths_taken["reference"], paths_taken


def reference_read(path, task):
    """csv.reader and float, cell by cell, skipping blank rows: the header
    and the rows, or the message of the first fault."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = []
        start = reader.line_num + 1
        for row in reader:
            row_number, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(header):
                return f"{path}: row {row_number}: expected {len(header)} fields, got {len(row)}"
            values = []
            for column, cell in zip(header, row):
                where = f"{path}: row {row_number}, column {column!r}"
                try:
                    values.append(float(cell))
                except ValueError:
                    return f"{where}: could not parse {cell.strip()!r} as a number"
                if not math.isfinite(values[-1]):
                    return f"{where}: value must be finite, got {cell.strip()!r}"
            if task == "classification" and values[-1] not in (-1.0, 1.0):
                return (
                    f"{path}: row {row_number}, column {header[-1]!r}: "
                    f"classification labels must be -1 or 1, got {row[-1].strip()!r}"
                )
            rows.append(values)
    if not rows:
        return f"{path}: no data rows after the header"
    return header, rows


_NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}")
_ASCII_PADDING = st.text(" \t\x0b\x0c", max_size=2)
_PADDING = st.text(" \t\xa0\u3000\x1c\x1d\x1e\x1f", min_size=1, max_size=2)
_ODD_CELLS = st.one_of(
    st.tuples(_PADDING, _NUMBERS).map("".join),
    st.tuples(_NUMBERS, _PADDING).map("".join),
    st.sampled_from(["1_0", "2_500.5", "\u0661\u0662", "\uff13.5", "", "oops", "1 2", "0x10"]),
    st.sampled_from(["nan", "-inf", "Infinity", "1e999", "-0", "1e-320", "+.5e1"]),
    st.sampled_from(['"1.5"', '" 2 "', '"1\n"', '"1,5"', '"3"""', '"\r\n-1"']),
    st.sampled_from(["1", "-1", "1.0", "+1", " -1 ", "-1e0", "0.5", "0", "2"]),
)


@st.composite
def csv_files(draw):
    """A CSV file's text and the task it is read for.

    The rows are %.17g cells with ASCII padding, which numpy's reader
    reads.  Up to three changes then bring in other cell syntax that
    csv.reader and float accept or reject, a ragged row, or a width other
    than the header's, and up to two blank or whitespace-only lines go in
    between the rows.
    """
    task = draw(st.sampled_from(["regression", "classification"]))
    width = draw(st.integers(2, 4))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    names = draw(st.lists(st.sampled_from(["x", "y", "a b", "x,1", 'q"t']), min_size=width,
                          max_size=width))
    header = io.StringIO()
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    csv.writer(header, quoting=quoting, lineterminator=end).writerow(names)
    label = st.sampled_from(["1", "-1"]) if task == "classification" else _NUMBERS
    rows = [
        [draw(_NUMBERS) for _ in range(width - 1)] + [draw(label)]
        for _ in range(draw(st.integers(1, 5)))
    ]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        change = draw(st.sampled_from(["cell", "cell", "cell", "ragged", "width"]))
        if change == "cell" and row:
            # the label cell half the time
            index = draw(st.one_of(st.just(-1), st.integers(0, len(row) - 1)))
            row[index] = draw(_ODD_CELLS)
        elif change == "ragged":
            row.append("0") if draw(st.booleans()) or not row else row.pop()
        elif change == "width":
            for other in rows:
                other.append("0")
    lines = [",".join(draw(_ASCII_PADDING) + cell for cell in row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "", " ", "\t"])))
    text = header.getvalue() + end.join(lines) + (end if draw(st.booleans()) else "")
    return text, task


class TestTable:
    def test_text_rows(self, runner):
        result = runner.invoke(main, ["table"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].split() == ["k", "0", "1", "2", "3", "4", "5", "6", "7"]
        assert lines[1].split()[1:] == [
            "0.368", "0.840", "1.371", "1.942", "2.544", "3.168", "3.812", "4.472",
        ]
        assert lines[2].split()[1:] == ["1", "2", "3", "4", "5", "6", "7", "8"]
        assert lines[3].split()[1:] == [
            "0.368", "0.420", "0.457", "0.486", "0.509", "0.528", "0.545", "0.559",
        ]

    def test_json_payload(self, runner):
        result = runner.invoke(main, ["table", "--k-max", "1", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["schema_version"] == "1"
        assert payload["rows"][0]["a_k_rounded"] == 0.368
        assert payload["rows"][1]["icp_numerator"] == 2

    def test_k_max_zero(self, runner):
        result = runner.invoke(main, ["table", "--k-max", "0"])
        assert result.exit_code == 0
        assert result.output.splitlines()[1].split() == ["irp", "0.368"]

    def test_negative_k_max_is_usage_error(self, runner):
        result = runner.invoke(main, ["table", "--k-max", "-1"])
        assert result.exit_code == 2


class TestPvalue:
    def test_m1_k0(self, runner):
        result = runner.invoke(main, ["pvalue", "--m", "1", "--k", "0", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["engine_pvalue"] == 0.25
        assert payload["icp_pvalue"] == 0.5
        assert payload["icp_exact"] == "1/2"
        assert payload["mode"] == "finite"
        assert not payload["degenerate"]

    def test_degenerate_k_equals_m(self, runner):
        result = runner.invoke(main, ["pvalue", "--m", "3", "--k", "3", "--json"])
        payload = json.loads(result.output)
        assert payload["engine_pvalue"] == 1.0
        assert payload["degenerate"]

    def test_large_k_is_fast(self, runner):
        start = time.perf_counter()
        result = runner.invoke(main, ["pvalue", "--m", "1000000", "--k", "100000", "--json"])
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert 0.0 < payload["engine_pvalue"] < payload["icp_pvalue"]
        assert payload["icp_exact"] == "100001/1000001"
        assert elapsed < 1.0

    def test_past_the_engine_range_is_a_clean_error(self, runner):
        # at k = 5e39 the maximizer is within an ulp of where the continued
        # fraction needs ever more steps; its step cap ends the call
        start = time.perf_counter()
        result = runner.invoke(main, ["pvalue", "--m", str(10**40), "--k", str(5 * 10**39)])
        elapsed = time.perf_counter() - start
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error: ")
        assert result.output.count("\n") == 1
        assert f"m = {10**40}, k = {5 * 10**39}" in result.output
        assert "Traceback" not in result.output
        assert elapsed < 1.0

    def test_k_above_m_is_usage_error(self, runner):
        result = runner.invoke(main, ["pvalue", "--m", "3", "--k", "4"])
        assert result.exit_code == 2
        assert "must not exceed" in result.output

    @pytest.mark.parametrize("mode", ["--finite", "--asymptotic"])
    def test_m_past_the_float_range_is_usage_error(self, runner, mode):
        # the finite engine and a_k / m would both convert m to a float
        result = runner.invoke(main, ["pvalue", "--m", str(10**400), "--k", "0", mode])
        assert result.exit_code == 2, result.output
        assert "'--m'" in result.output
        assert "largest float" in result.output

    @pytest.mark.parametrize(
        "m, k, engine",
        [
            (10**155, 1, 8.39962094657e-156),
            (10**308, 1, 8.39962094657e-309),
            (10**308, 2, 1.3711016049e-308),
        ],
        ids=["1e155-1", "1e308-1", "1e308-2"],
    )
    def test_m_near_the_float_range(self, runner, m, k, engine):
        # 5 m^2 overflows a float from m ~ 6e153, m - k + m (1 - p) from ~9e307
        result = runner.invoke(main, ["pvalue", "--m", str(m), "--k", str(k), "--json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["engine_pvalue"] == engine

    def test_asymptotic_mode(self, runner):
        result = runner.invoke(
            main, ["pvalue", "--m", "1000000", "--k", "0", "--asymptotic", "--json"]
        )
        payload = json.loads(result.output)
        assert payload["mode"] == "asymptotic"
        assert payload["engine_pvalue"] == pytest.approx(math.exp(-1.0) / 1e6, rel=1e-9)
        assert payload["a_k"] == pytest.approx(math.exp(-1.0), rel=1e-10)
        assert payload["c_star"] == pytest.approx(1.0, abs=1e-10)

    def test_asymptotic_mode_at_large_k_is_fast(self, runner):
        # a_k above k = 64 comes from the engine, whose cost does not grow with k
        start = time.perf_counter()
        result = runner.invoke(
            main, ["pvalue", "--m", str(10**40), "--k", str(10**16), "--asymptotic", "--json"]
        )
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["a_k"] == pytest.approx(asymptotic_constant(10**16).a_k, rel=1e-11)
        assert payload["engine_pvalue"] == pytest.approx(
            binary_irp_pvalue(10**40, 10**16), rel=1e-11
        )
        assert elapsed < 1.0

    def test_asymptotic_past_the_engine_range_is_a_clean_error(self, runner):
        result = runner.invoke(
            main, ["pvalue", "--m", str(10**40), "--k", str(10**35), "--asymptotic"]
        )
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error: ")
        assert result.output.count("\n") == 1
        assert f"a_k at k = {10**35}" in result.output

    def test_asymptotic_k_past_the_float_range_is_usage_error(self, runner):
        # a_k is taken at m = k * 2**60, which must be a float
        result = runner.invoke(
            main, ["pvalue", "--m", str(10**300), "--k", str(10**295), "--asymptotic"]
        )
        assert result.exit_code == 2, result.output
        assert "'--k'" in result.output
        assert "2^60" in result.output

    @pytest.mark.parametrize("k", [800, 1200])
    def test_asymptotic_mode_past_the_float_range(self, runner, k):
        # the sum of the terms of a_k overflows a double from k = 762
        result = runner.invoke(
            main, ["pvalue", "--m", "1000000", "--k", str(k), "--asymptotic", "--json"]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["a_k"] == pytest.approx(asymptotic_constant(k).a_k, rel=1e-11)
        assert payload["engine_pvalue"] == pytest.approx(
            binary_irp_pvalue(1000000, k), rel=1e-4
        )

    def test_text_output_mentions_ratio(self, runner):
        result = runner.invoke(main, ["pvalue", "--m", "10", "--k", "2"])
        assert result.exit_code == 0
        assert "ratio" in result.output
        assert "3/11" in result.output


class TestPredict:
    def test_regression_methods_share_interval(self, runner, reg_files):
        train, test = reg_files
        outputs = {}
        for method in ("irp", "icp"):
            result = runner.invoke(
                main,
                ["predict", "--train", train, "--split-at", "8", "--test", test,
                 "--method", method, "--json"],
            )
            assert result.exit_code == 0, result.output
            outputs[method] = json.loads(result.output)
        irp, icp = outputs["irp"], outputs["icp"]
        assert irp["m"] == icp["m"] == 4
        for row_a, row_b in zip(irp["predictions"], icp["predictions"]):
            assert row_a["prediction_set"] == row_b["prediction_set"]
        assert irp["predictions"][0]["incertitude"] <= icp["predictions"][0]["incertitude"]

    def test_classification_labels_set(self, runner, cls_files):
        train, test = cls_files
        result = runner.invoke(
            main,
            ["predict", "--train", train, "--split-at", "8", "--test", test,
             "--task", "classification", "--json"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        members = payload["predictions"][0]["prediction_set"]["members"]
        assert set(members) <= {-1, 1}

    def test_text_output(self, runner, reg_files):
        train, test = reg_files
        result = runner.invoke(
            main, ["predict", "--train", train, "--split-at", "8", "--test", test]
        )
        assert result.exit_code == 0
        assert "row 1: set=[" in result.output
        assert "incertitude=" in result.output

    def test_malformed_train_is_usage_error(self, runner, tmp_path, reg_files):
        _, test = reg_files
        bad = tmp_path / "bad_train.csv"
        bad.write_text("x1,x2,y\n1.0,oops,3.0\n")
        result = runner.invoke(
            main, ["predict", "--train", str(bad), "--split-at", "1", "--test", test]
        )
        assert result.exit_code == 2
        assert "row 2" in result.output and "x2" in result.output

    @pytest.mark.parametrize(
        "option, row",
        [("--train", 1), ("--train", 3), ("--test", 2)],
    )
    def test_oversized_cell_is_usage_error(self, runner, tmp_path, reg_files, option, row):
        # a number csv.reader rejects for its length, although float and
        # numpy's reader would take it
        files = dict(zip(("--train", "--test"), reg_files))
        lines = Path(files[option]).read_text().splitlines()
        cell = "0" * csv.field_size_limit() + "1"
        lines[row - 1] = ",".join([cell] + lines[row - 1].split(",")[1:])
        files[option] = tmp_path / "oversized.csv"
        files[option].write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main,
            ["predict", "--train", str(files["--train"]), "--split-at", "8",
             "--test", str(files["--test"])],
        )
        assert result.exit_code == 2
        assert f"row {row}: field larger than field limit" in result.output

    @pytest.mark.parametrize(
        "row, center",
        [("1e308,-1e308,0", "inf"), ("-1e308,1e308,0", "-inf"), ("1.2e308,1e308,0", "nan")],
    )
    def test_non_finite_prediction_is_usage_error(self, runner, tmp_path, reg_files, row, center):
        # the center overflows to +-inf, or to inf - inf
        train, _ = reg_files
        test = tmp_path / "overflow.csv"
        test.write_text(f"x1,x2,y\n0.25,0.25,0\n{row}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # a numpy warning would print, not raise
            result = runner.invoke(
                main,
                ["predict", "--train", train, "--split-at", "8", "--test", str(test), "--json"],
            )
        assert result.exit_code == 2
        assert f"test row 2: point prediction {center} is not finite" in result.stderr
        assert "Warning" not in result.stderr

    def test_nan_score_is_usage_error(self, runner, tmp_path):
        # CLS_TRAIN with its features divided by ten fits weights above 2,
        # so the score of (1e308, -1e308) is inf - inf
        lines = CLS_TRAIN.splitlines()
        scaled = [
            ",".join([str(float(x) / 10) for x in line.split(",")[:2]] + [line.split(",")[2]])
            for line in lines[1:]
        ]
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text("\n".join([lines[0], *scaled]) + "\n")
        test.write_text("x1,x2,y\n0.2,0.2,1\n1e308,-1e308,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # a numpy warning would print, not raise
            result = runner.invoke(
                main,
                ["predict", "--train", str(train), "--split-at", "8", "--test", str(test),
                 "--task", "classification", "--json"],
            )
        assert result.exit_code == 2
        assert "invalid label set: test row 2: score nan is not a number" in result.stderr
        assert "Warning" not in result.stderr

    def test_overflowing_calibration_row_scores_silently(self, runner, tmp_path, reg_files):
        # a calibration row whose prediction overflows scores as a miss,
        # with no numpy warning on stderr
        train, test = reg_files
        lines = REG_TRAIN.splitlines()
        lines[11] = "1e308,-1e308,0.7"
        overflow = tmp_path / "overflow.csv"
        overflow.write_text("\n".join(lines) + "\n")
        ks = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the run
            for name, path in (("plain", train), ("overflow", str(overflow))):
                result = runner.invoke(
                    main, ["predict", "--train", path, "--split-at", "6", "--test", test, "--json"]
                )
                assert result.exit_code == 0, result.output
                assert result.stderr == ""
                ks[name] = json.loads(result.stdout)["k"]
        assert ks == {"plain": 0, "overflow": 1}

    def test_header_mismatch_is_usage_error(self, runner, tmp_path, reg_files):
        train, _ = reg_files
        other = tmp_path / "other.csv"
        other.write_text("a,b,y\n0.1,0.2,0.3\n")
        result = runner.invoke(
            main, ["predict", "--train", train, "--split-at", "8", "--test", str(other)]
        )
        assert result.exit_code == 2
        assert "do not match" in result.output

    def test_split_at_out_of_range(self, runner, reg_files):
        train, test = reg_files
        result = runner.invoke(
            main, ["predict", "--train", train, "--split-at", "12", "--test", test]
        )
        assert result.exit_code == 2

    def test_epsilon_domain(self, runner, reg_files):
        train, test = reg_files
        result = runner.invoke(
            main,
            ["predict", "--train", train, "--split-at", "8", "--test", test,
             "--epsilon", "1.0"],
        )
        assert result.exit_code == 2


def per_row_payload(task, method, epsilon, pipeline, X):
    """The `predict --json` payload built one HedgedPrediction per row."""

    def set_payload(s):
        if isinstance(s, Interval):
            return {
                "type": "interval",
                "lower": None if math.isinf(s.lower) else s.lower,
                "upper": None if math.isinf(s.upper) else s.upper,
            }
        return {"type": "labels", "members": sorted(int(v) for v in s)}

    predictions = []
    for row, x in enumerate(X, start=1):
        prediction = pipeline.predict(x, method)
        predictions.append(
            {
                "row": row,
                "prediction_set": set_payload(prediction.prediction_set),
                "incertitude": prediction.incertitude,
                "degenerate": prediction.degenerate,
                "vacuous": prediction.vacuous,
                "set_at_epsilon": set_payload(prediction_set(prediction, epsilon)),
            }
        )
    return {
        "schema_version": "1",
        "command": "predict",
        "task": task,
        "method": method,
        "epsilon": epsilon,
        "m": pipeline.m,
        "k": pipeline.k,
        "fallback": pipeline.fallback_reason,
        "predictions": predictions,
    }


def per_row_text(task, method, epsilon, pipeline, X):
    """The `predict` text output built one HedgedPrediction per row."""

    def set_text(s):
        if isinstance(s, Interval):
            return f"[{s.lower:.12g}, {s.upper:.12g}]"
        return "{" + ", ".join(f"{v:+d}" for v in sorted(s)) + "}"

    lines = [f"task={task} method={method} m={pipeline.m} k={pipeline.k} epsilon={epsilon}"]
    if pipeline.fallback_reason:
        lines.append(f"note: {pipeline.fallback_reason}")
    for row, x in enumerate(X, start=1):
        prediction = pipeline.predict(x, method)
        flags = [f for f in ("degenerate", "vacuous") if getattr(prediction, f)]
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        lines.append(
            f"row {row}: set={set_text(prediction.prediction_set)} "
            f"incertitude={prediction.incertitude:.12g} level-{epsilon} "
            f"set={set_text(prediction_set(prediction, epsilon))}{suffix}"
        )
    return "\n".join(lines)


# (center, half-width) of intervals that reach the points where the
# %.12g and repr layouts part: integer-valued roundings, -0, both sides of
# 1e-4, 999999999999.5 (which rounds up to 1e12), [1e12, 1e16), from 1e16
# up, and bounds that overflow to +-inf.
SWITCH_POINT_INTERVALS = [
    (3.0, 0.0),
    (2.9999999999999996, 0.0),
    (-0.0, 0.0),
    (0.0, 0.0),
    (9.99999999999999e-05, 0.0),
    (9.9999e-05, 0.0),
    (1e-4, 0.0),
    (1.00001e-4, 0.0),
    (1e-4, 2e-16),
    (999999999999.4, 0.0),
    (999999999999.5, 0.0),
    (-123456789012345.6, 0.0),
    (9999999999999998.0, 0.0),
    (1e16, 0.0),
    (-3e17, 0.0),
    (1.7e308, 1e307),
    (-1.7e308, 1e307),
]


class FixedCenter:
    """A point predictor that predicts center for every object."""

    def __init__(self, center):
        self.center = center

    def predict_batch(self, X):
        return np.full(len(X), self.center)


def switch_point_examples(test):
    """Run test on every SWITCH_POINT_INTERVALS interval, for both methods."""
    for interval in SWITCH_POINT_INTERVALS:
        for method in ("irp", "icp"):
            test = example(
                seed=0, task="regression", method=method, epsilon=0.5, fallback=False,
                n=3, m=2, d=1, scale=1.0, rows=2, interval=interval,
            )(test)
    return test


class TestPredictRenderer:
    """The batch renderer equals json.dumps of the per-row payload, and
    the per-row text, on random pipelines."""

    @switch_point_examples
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        task=st.sampled_from(["regression", "classification"]),
        method=st.sampled_from(["irp", "icp"]),
        epsilon=st.one_of(
            st.sampled_from([0.01, 0.05, 0.2, 0.5, 0.99]),
            st.floats(1e-9, 1 - 1e-9),
        ),
        fallback=st.booleans(),
        n=st.integers(3, 30),
        m=st.integers(1, 12),
        d=st.integers(1, 3),
        scale=st.sampled_from([1e-7, 1.0, 3e4, 1e13, 1e17]),
        rows=st.integers(1, 25),
        interval=st.one_of(st.none(), st.sampled_from(SWITCH_POINT_INTERVALS)),
    )
    def test_matches_per_row_rendering(
        self, seed, task, method, epsilon, fallback, n, m, d, scale, rows, interval
    ):
        rng = np.random.default_rng(seed)
        X = scale * rng.standard_normal((n + m + rows, d))
        if fallback and task == "regression":
            X[:, 0] = scale
        X, test_X = X[: n + m], X[n + m :]
        scores = X @ rng.standard_normal(d) + scale * rng.standard_normal(n + m)
        if task == "regression":
            pipeline = fit_regression_pipeline(DataSplit(X, scores, n))
            if interval is not None:
                # every test row gets the interval [center - h, center + h]
                center, h = interval
                pipeline = FittedPipeline(
                    pipeline.task, FixedCenter(center), h, pipeline.k, pipeline.m
                )
        else:
            y = np.where(scores > 0, 1.0, -1.0)
            if fallback:
                y[:n] = 1.0
            pipeline = fit_classification_pipeline(DataSplit(X, y, n), ClassifierSpec(epochs=20))
        args = (task, method, epsilon, pipeline, test_X)
        expected = json.dumps(_jsonify(per_row_payload(*args)), sort_keys=True, indent=2)
        # the renderers take the task from the pipeline
        assert _predict_json(*args[1:]) == expected
        assert _predict_text(*args[1:]) == per_row_text(*args)


@pytest.mark.parametrize("module", ["randpred", "randpred.cli"])
def test_import_does_not_load_scipy(module):
    # randpred does not depend on scipy, so nothing may load it.  The
    # package and its p-value engine load neither numpy nor the standard
    # library's dataclasses (with inspect) or fractions (with decimal);
    # the CLI loads numpy (with inspect) but not dataclasses, whose
    # classes build their methods through exec.  Only the modules the
    # import and the calls add count, so a site that preloads some cannot
    # fail this.
    calls, unloaded, after = "", ("scipy", "dataclasses"), ""
    if module == "randpred":
        calls = (
            "randpred.binary_irp_pvalue(10**6, 10**3); randpred.asymptotic_constant(5); "
            "randpred.exact_pvalue_k0(7); "
        )
        unloaded = ("numpy", "scipy", "dataclasses", "fractions", "decimal", "inspect")
        # the rank-based p-value loads fractions when called
        after = "; print(type(randpred.icp_pvalue([0.1, 0.9], 0.5)).__module__)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        f"import sys; before = set(sys.modules); import {module}; {calls}"
        f"print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in {unloaded!r}))"
        f"{after}"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    expected = ["[]", "fractions"] if module == "randpred" else ["[]"]
    assert result.stdout.split() == expected


# Modules the CLI loads only for the commands that use them, and
# dataclasses, which no command loads.
ON_DEMAND = (
    "randpred.audits",
    "randpred.reports",
    "randpred.validity",
    "fractions",
    "decimal",
    "dataclasses",
)


def cli_loads(tmp_path, argv):
    """The ON_DEMAND modules that import randpred.cli, and then the CLI
    call argv, add to sys.modules in a fresh interpreter: two sorted
    lists.  Modules loaded before the import do not count."""
    for name, text in (("train", REG_TRAIN), ("test", REG_TEST)):
        (tmp_path / f"{name}.csv").write_text(text)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "def loaded():\n"
        f"    return sorted(m for m in {ON_DEMAND!r} if m in sys.modules and m not in before)\n"
        "import randpred.cli\n"
        "stages = [loaded()]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    randpred.cli.main({argv!r}, standalone_mode=False)\n"
        "print(json.dumps(stages + [loaded()]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (
            ["predict", "--train", "{tmp}/train.csv", "--split-at", "8",
             "--test", "{tmp}/test.csv", "--json"],
            [],
        ),
        (["pvalue", "--m", "10", "--k", "2"], []),
        (["pvalue", "--m", "1000", "--k", "3", "--asymptotic"], []),
        (["table"], ["randpred.audits", "randpred.reports"]),
        (
            ["validate", "--mode", "exact", "--m", "4"],
            ["decimal", "fractions", "randpred.audits", "randpred.reports"],
        ),
        (
            ["validate", "--mode", "mc", "--m", "20", "--trials", "200", "--seed", "3"],
            ["randpred.reports", "randpred.validity"],
        ),
        (
            ["dominate", "--m", "3"],
            ["decimal", "fractions", "randpred.audits", "randpred.reports"],
        ),
    ],
    ids=["predict", "pvalue", "pvalue-asymptotic", "table", "validate-exact", "validate-mc",
         "dominate"],
)
def test_commands_load_only_what_they_use(tmp_path, argv, loaded):
    # import randpred.cli loads predict's path only: neither audit harness,
    # nor fractions with decimal; every other command loads its part when
    # it runs, the Monte Carlo harness never loads the exact audits, and
    # no command loads dataclasses
    assert cli_loads(tmp_path, argv) == [[], loaded]


def test_exact_audit_runs_without_scipy():
    # scipy blocked: the exact oracle and `validate --mode exact` still work,
    # with the pinned output
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "from randpred import urp_binary_event; "
        "assert urp_binary_event(5, lambda bits, t: t == 1 and sum(bits) == 0) > 0; "
        "from randpred.cli import main; "
        "main(['validate', '--mode', 'exact', '--m', '6', '--json'])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert (result.returncode, digest) == COMMAND_PINNED["validate-exact", "json"], result.stderr


class TestValidate:
    def test_exact_default_passes(self, runner):
        result = runner.invoke(main, ["validate", "--mode", "exact", "--m", "6"])
        assert result.exit_code == 0
        assert "overall: PASS" in result.output
        for name in ("binary-irp", "icp", "dominating"):
            assert name in result.output

    def test_exact_m_over_cap_is_usage_error(self, runner):
        result = runner.invoke(main, ["validate", "--mode", "exact", "--m", "25"])
        assert result.exit_code == 2
        assert "capped at 20" in result.output

    def test_exact_json(self, runner):
        result = runner.invoke(main, ["validate", "--mode", "exact", "--m", "5", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["passed"] is True
        assert {entry["name"] for entry in payload["pvariables"]} == {
            "binary-irp", "icp", "dominating",
        }

    def test_mc_small_run(self, runner):
        result = runner.invoke(
            main,
            ["validate", "--mode", "mc", "--trials", "200", "--seed", "5", "--json"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["mode"] == "mc"
        assert payload["trials"] == 200
        assert payload["m"] == 30
        assert payload["passed"] is True
        names = [cell["name"] for cell in payload["cells"]]
        assert names == ["coverage-irp", "coverage-icp", "interval-identity"]
        identity = payload["cells"][-1]
        assert identity["probability"] == 1.0


class TestSeedDomain:
    """A negative --seed is a usage error (exit 2) naming the option, not
    numpy's ValueError and not exit 1, which marks a failed audit."""

    def test_validate_mc(self, runner):
        result = runner.invoke(main, ["validate", "--mode", "mc", "--trials", "5", "--seed", "-1"])
        assert result.exit_code == 2
        assert "--seed" in result.output

    def test_predict_classification(self, runner, cls_files):
        train, test = cls_files
        result = runner.invoke(
            main,
            ["predict", "--task", "classification", "--train", train, "--split-at", "6",
             "--test", test, "--seed", "-1"],
        )
        assert result.exit_code == 2
        assert "--seed" in result.output

    def test_zero_is_accepted(self, runner):
        result = runner.invoke(main, ["validate", "--mode", "mc", "--trials", "5", "--seed", "0"])
        assert result.exit_code == 0, result.output


class TestDominate:
    def test_strict_with_witness(self, runner):
        result = runner.invoke(main, ["dominate", "--m", "4", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["verdict"] == "strict"
        witness = payload["witness"]
        assert witness["calibration_ones"] == 0
        assert witness["test_summary"] == 1
        assert witness["dominating_pvalue"] == 0.08192
        assert witness["icp_pvalue"] == 0.2

    def test_threshold_domain(self, runner):
        result = runner.invoke(main, ["dominate", "--m", "4", "--threshold", "1.5"])
        assert result.exit_code == 2

    def test_m_domain(self, runner):
        assert runner.invoke(main, ["dominate", "--m", "0"]).exit_code == 2
        assert runner.invoke(main, ["dominate", "--m", "21"]).exit_code == 2

    def test_text_output(self, runner):
        result = runner.invoke(main, ["dominate", "--m", "6"])
        assert result.exit_code == 0
        assert "verdict=strict" in result.output


# one valid invocation of every subcommand, without --json
COMMAND_ARGV = {
    "table": ["--k-max", "2"],
    "pvalue": ["--m", "10", "--k", "2"],
    "predict": ["--split-at", "8", "--epsilon", "0.5"],
    "validate": ["--m", "4"],
    "dominate": ["--m", "3"],
}


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_has_json_with_its_name(runner, reg_files, command):
    options = {name for param in main.commands[command].params for name in param.opts}
    assert "--json" in options
    argv = [command, *COMMAND_ARGV[command], "--json"]
    if command == "predict":
        argv += ["--train", reg_files[0], "--test", reg_files[1]]
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["schema_version"] == "1"
    assert payload["command"] == command


class TestJsonDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--json"],
            ["pvalue", "--m", "100", "--k", "3", "--json"],
            ["validate", "--mode", "mc", "--trials", "50", "--seed", "11", "--json"],
            ["dominate", "--m", "5", "--json"],
        ],
    )
    def test_repeat_invocations_are_byte_identical(self, runner, argv):
        first = runner.invoke(main, argv)
        second = runner.invoke(main, argv)
        assert first.exit_code == 0
        assert first.output == second.output

    def test_no_nonfinite_floats_in_json(self, runner, cls_files):
        # a confident classifier emits infinite scores internally; the JSON
        # payload must still parse under the strict (no NaN/Infinity) grammar
        train, test = cls_files
        result = runner.invoke(
            main,
            ["predict", "--train", train, "--split-at", "8", "--test", test,
             "--task", "classification", "--json"],
        )
        json.loads(result.output, parse_constant=lambda name: pytest.fail(name))


class TestConfigDefaults:
    def test_config_sets_defaults(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"pvalue": {"m": 1, "k": 0}}))
        result = runner.invoke(main, ["--config", str(config), "pvalue", "--json"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["m"] == 1 and payload["k"] == 0

    def test_explicit_flag_beats_config(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"pvalue": {"m": 1, "k": 0}}))
        result = runner.invoke(
            main, ["--config", str(config), "pvalue", "--m", "2", "--json"]
        )
        payload = json.loads(result.output)
        assert payload["m"] == 2 and payload["k"] == 0

    def test_invalid_json_config(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        result = runner.invoke(main, ["--config", str(config), "table"])
        assert result.exit_code == 2

    def test_non_object_config(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        result = runner.invoke(main, ["--config", str(config), "table"])
        assert result.exit_code == 2
