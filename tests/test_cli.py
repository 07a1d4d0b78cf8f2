import json
import math
import time

import pytest
from click.testing import CliRunner

from randpred.cli import main, read_csv_dataset

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
        ds = read_csv_dataset(train)
        assert ds.feature_names == ("x1", "x2")
        assert ds.label_name == "y"
        assert len(ds.examples) == 12
        assert ds.examples[0].features == (0.0, 0.0)

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

    def test_empty_and_header_only(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_csv_dataset(str(empty))
        header_only = tmp_path / "header.csv"
        header_only.write_text("x,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv_dataset(str(header_only))


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

    def test_k_above_m_is_usage_error(self, runner):
        result = runner.invoke(main, ["pvalue", "--m", "3", "--k", "4"])
        assert result.exit_code == 2
        assert "must not exceed" in result.output

    def test_asymptotic_mode(self, runner):
        result = runner.invoke(
            main, ["pvalue", "--m", "1000000", "--k", "0", "--asymptotic", "--json"]
        )
        payload = json.loads(result.output)
        assert payload["mode"] == "asymptotic"
        assert payload["engine_pvalue"] == pytest.approx(math.exp(-1.0) / 1e6, rel=1e-9)
        assert payload["a_k"] == pytest.approx(math.exp(-1.0), rel=1e-10)
        assert payload["c_star"] == pytest.approx(1.0, abs=1e-10)

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
