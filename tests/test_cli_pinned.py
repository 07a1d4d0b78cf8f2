"""`predict` output pinned byte for byte.

The sha256 digests below were recorded before the code they guard: the
first 22 from the per-row implementation (one HedgedPrediction and one
json.dumps dict per test row), the regression-format-switch-points pair
from the row-template renderer, whose bytes equal a per-row rendering of
that case.  So any change to the prediction path or the renderer that
moves a byte shows here.  The
fixtures cover both tasks and both methods, the mean-regressor and
single-class fallbacks, k = m splits, numbers that exercise the 12-digit
rounding and the points where its layout and repr's part, and an epsilon
below the incertitude (full level sets).

The other four commands are pinned the same way, stdout and exit code,
in text and --json: table (k up to 7 and up to 64), pvalue (finite,
degenerate k = m, asymptotic at k = 3, 64 and 65), validate (exact,
Monte Carlo passing and failing) and dominate.  The table to k = 64 and
the asymptotic pvalue at k = 64 and 65 were recorded while a_k up to
k = 64 still came from a bisection on the Poisson stationarity equation,
and above it from the engine.

The --help of the group and of each command is pinned too, at 80
columns, so that moving code between modules cannot change the CLI
surface.  Those digests were recorded under click 8.4.0; click lays help
out itself, so another click release may move a byte of it.
"""

import hashlib

import pytest
from click.testing import CliRunner

from randpred.cli import main

REG_TRAIN = """x1,x2,y
0.0,0.0,0.31
1.0,0.0,1.77
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

0.123456789,-0.987654321,1.5
1234567890123.5,-98765432109.75,0
1e-9,2e-9,0
-3.3333333333333335,7.777777777777778,1
"""

# One feature column held constant: the design is rank-deficient and the
# least-squares fit falls back to the mean label.
MEAN_TRAIN = """x1,y
1.0,0.5
1.0,0.7
1.0,0.6
1.0,0.55
1.0,0.65
1.0,0.62
"""

# Same proper part; every calibration label falls outside the band: k = m.
MEAN_ALL_MISS_TRAIN = """x1,y
1.0,0.5
1.0,0.7
1.0,0.6
1.0,5.0
1.0,-5.0
1.0,6.0
"""

MEAN_TEST = """x1,y
1.0,0
2.5,0
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
0.1,-0.1,1
0.05,0.02,-1
-3.5,1.0,1
"""

# Proper part all +1: the single-class fallback scores every row +inf.
ONE_CLASS_TRAIN = """x1,x2,y
1.0,1.0,1
2.0,1.5,1
1.5,2.0,1
-1.0,-1.0,-1
1.0,1.2,1
"""

# Proper part all +1, calibration all -1: every calibration bit is 1, k = m.
ONE_CLASS_ALL_MISS_TRAIN = """x1,x2,y
1.0,1.0,1
2.0,1.5,1
1.5,2.0,1
-1.0,-1.0,-1
-2.0,0.5,-1
"""

# Labels exactly on y = x1, so the fit is exact up to rounding and the
# half-width is tiny: each test row puts both bounds next to x1.  The rows
# reach the points where the %.12g and repr layouts part: integer-valued
# roundings, both sides of 1e-4, 999999999999.5 (which rounds up to
# 1e12), bounds in [1e12, 1e16) and bounds from 1e16 up.  The last
# calibration row misses and the others repeat proper rows: k = 1 of 4.
EXACT_TRAIN = """x1,x2,y
1,0,1
2,1,2
0,1,0
3,2,3
-1,1,-1
0.5,-2,0.5
1,0,1
2,1,2
3,2,3
0,1,5
"""

SWITCH_POINTS_TEST = """x1,x2,y
3,0,0
-3,7,0
0.0001,0,0
9.9999e-05,0,0
0.000100001,0,0
999999999999.25,0,0
999999999999.5,0,0
-999999999999.5,1,0
1234567890123.456,0,0
50000000000000,0,0
9.9999999e15,0,0
1e16,0,0
-3e17,1,0
0,0,0
123456.5,0,0
"""

FILES = {
    "reg_train": REG_TRAIN,
    "reg_test": REG_TEST,
    "mean_train": MEAN_TRAIN,
    "mean_all_miss_train": MEAN_ALL_MISS_TRAIN,
    "mean_test": MEAN_TEST,
    "cls_train": CLS_TRAIN,
    "cls_test": CLS_TEST,
    "one_class_train": ONE_CLASS_TRAIN,
    "one_class_all_miss_train": ONE_CLASS_ALL_MISS_TRAIN,
    "exact_train": EXACT_TRAIN,
    "switch_points_test": SWITCH_POINTS_TEST,
}

# name: (train, split-at, test, extra arguments)
CASES = {
    "regression-irp": ("reg_train", 8, "reg_test", ["--epsilon", "0.5"]),
    "regression-icp": ("reg_train", 8, "reg_test", ["--method", "icp", "--epsilon", "0.5"]),
    "regression-irp-full-sets": ("reg_train", 8, "reg_test", []),
    "regression-icp-full-sets": ("reg_train", 8, "reg_test", ["--method", "icp"]),
    "regression-mean-fallback": ("mean_train", 3, "mean_test", ["--epsilon", "0.3"]),
    "regression-k-equals-m": ("mean_all_miss_train", 3, "mean_test", ["--epsilon", "0.3"]),
    "regression-format-switch-points": (
        "exact_train", 6, "switch_points_test", ["--epsilon", "0.5"],
    ),
    "classification-irp": (
        "cls_train", 8, "cls_test", ["--task", "classification", "--epsilon", "0.5"],
    ),
    "classification-icp": (
        "cls_train", 8, "cls_test",
        ["--task", "classification", "--method", "icp", "--epsilon", "0.5"],
    ),
    "classification-full-sets": ("cls_train", 8, "cls_test", ["--task", "classification"]),
    "classification-single-class": (
        "one_class_train", 3, "cls_test", ["--task", "classification", "--epsilon", "0.6"],
    ),
    "classification-k-equals-m": (
        "one_class_all_miss_train", 3, "cls_test",
        ["--task", "classification", "--method", "icp", "--epsilon", "0.6"],
    ),
}

PINNED = {
    ("classification-full-sets", "json"): "e8fb1aa87d4821777aa93c10eb1d854973ba071b3960b9d65c4edc871c216dd6",
    ("classification-full-sets", "text"): "cde86f54e422f9da18577f28a0e801960f131804e92ee3d7c3f0274ae6feed2c",
    ("classification-icp", "json"): "e424595e8a35e0d7de933e18c52510e4127d61c202eabe03d511f9733b37caa6",
    ("classification-icp", "text"): "f6336fae802bcbf129e8559febcd8dd32285a820c983905c56d7249a943ec560",
    ("classification-irp", "json"): "a7f2e60a34af50035636c0086a20b02572a004a88738340fb1033626d7d18b50",
    ("classification-irp", "text"): "6eea620768a7ee9426d96d58d525e5c58c45ad81506a70bf3b0c4803a160478c",
    ("classification-k-equals-m", "json"): "c74238654ced56397fdaed587f016a66edfe319fef01e84444a0f437ee6b2fe0",
    ("classification-k-equals-m", "text"): "e4de8caac5d152e76cd5b1cedca97d1be5cdeb59aca380e9b3ab6c11fc049f19",
    ("classification-single-class", "json"): "dd8d2a2658f234441b913b1492aaae5f5452456e7285332d74cf334cd36aea4f",
    ("classification-single-class", "text"): "2cc199fc9d65a376b502d98713b25c338b6ab11326db0531e5b5dee4196a6246",
    ("regression-format-switch-points", "json"): "aba7b65ac88818dbb776fcef2b6e25a7fa451f87514469431ed1bd836705d482",
    ("regression-format-switch-points", "text"): "edce4ebc312b08e90906511aa0517a623ba0f26b6b04e617691c29b5ecadedbd",
    ("regression-icp", "json"): "6ead053337b80beb1074799cabaad156dc96a16290a12c9a4fc342a1d45e8672",
    ("regression-icp", "text"): "7b297ba1318c5a056c39cb8af083b11d70fd110bff472c00cd536966df3eac1e",
    ("regression-icp-full-sets", "json"): "f5597898497c603d0fdddbf93e314075e83f7a3a4aa2ee76c03ddfebed385382",
    ("regression-icp-full-sets", "text"): "922b47d4aa98aa4d5ffdbe91a156f37ab791f2eae603600c2e020c5536243788",
    ("regression-irp", "json"): "112617bde5821ef8be9251258e072da76bb6301cc7b6353212b8e0b06157eb89",
    ("regression-irp", "text"): "ea5b5d3fb64ae7b30425e72b39c19e9c98c802fdce5751fd172aefe0d9bcc889",
    ("regression-irp-full-sets", "json"): "7e715e05102627d866ce2c766ad865b21276dbba0f144fb2131b3e99f830bad6",
    ("regression-irp-full-sets", "text"): "1b1e53a5392b86e30e1c3b54467250e0adf1b848e32bc7d8bc4c8af7a7d5a7d9",
    ("regression-k-equals-m", "json"): "28b5d9b59669195a5245c2a074c6978f31341d720b6435af4bf597a1fe759b3d",
    ("regression-k-equals-m", "text"): "cc1617bd86e14f9b488d1e97ad78db5271a0d1b53ae0e9318798a1c417967a9c",
    ("regression-mean-fallback", "json"): "60dfefa55548dec073b27c6ad7daa72b9e4c9bd9a59c982b65ba44607f0a2467",
    ("regression-mean-fallback", "text"): "dbafb5555a11db83d3a3b24a5eed0ac840e5aae6503f570d160cdbf99fd8bc17",
}


def predict_output(tmp_path, case, as_json):
    for name, text in FILES.items():
        (tmp_path / f"{name}.csv").write_text(text)
    train, split_at, test, extra = CASES[case]
    args = [
        "predict",
        "--train", str(tmp_path / f"{train}.csv"),
        "--split-at", str(split_at),
        "--test", str(tmp_path / f"{test}.csv"),
        *extra,
    ] + (["--json"] if as_json else [])
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.output


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_predict_output_is_pinned(tmp_path, case, as_json):
    output = predict_output(tmp_path, case, as_json)
    digest = hashlib.sha256(output.encode()).hexdigest()
    assert digest == PINNED[case, "json" if as_json else "text"], output


# name: argv, each run as text and with --json appended
COMMAND_CASES = {
    "table": ["table"],
    "table-k64": ["table", "--k-max", "64"],
    "pvalue-finite": ["pvalue", "--m", "10", "--k", "2"],
    "pvalue-degenerate": ["pvalue", "--m", "5", "--k", "5"],
    "pvalue-asymptotic": ["pvalue", "--m", "1000", "--k", "3", "--asymptotic"],
    "pvalue-asymptotic-k64": ["pvalue", "--m", "100000", "--k", "64", "--asymptotic"],
    "pvalue-asymptotic-k65": ["pvalue", "--m", "100000", "--k", "65", "--asymptotic"],
    "validate-exact": ["validate", "--mode", "exact", "--m", "6"],
    "validate-mc": ["validate", "--mode", "mc", "--m", "20", "--trials", "200", "--seed", "3"],
    # one trial whose test label falls outside both sets: exit 1
    "validate-mc-fail": [
        "validate", "--mode", "mc", "--m", "3", "--trials", "1", "--seed", "1",
        "--epsilon", "0.5",
    ],
    "dominate": ["dominate", "--m", "4", "--threshold", "0.25"],
}

# (case, format): (exit code, sha256 of stdout)
COMMAND_PINNED = {
    ("dominate", "json"): (0, "ab986dcabc1dd6cbecfb8ed6dcb1971e14eab472d0eb9316fd83a6a6500a5139"),
    ("dominate", "text"): (0, "f3b584d0d885eda8e6398dc1d0e83832d1bbe242def40ae41581f8b71f2a336a"),
    ("pvalue-asymptotic", "json"): (0, "11b8f84d0980cc00fc93660624c3219acc47519a7a39dd95b11d76e2ebe0f217"),
    ("pvalue-asymptotic", "text"): (0, "6fbd38be25a3d0b60448dad83a161f319438097020a9819b5631b4df13159d59"),
    ("pvalue-asymptotic-k64", "json"): (0, "667e900cc2e1959b6fc16ed2dba14af54811e1737459dea17bcc9a472b8cc4f7"),
    ("pvalue-asymptotic-k64", "text"): (0, "d7c0c5178e0d399c8881fe57e5e06e8b588a275fb99e1fad26e0c27d6050f8fe"),
    ("pvalue-asymptotic-k65", "json"): (0, "28db07226a61be51025fc4f603080da626fbceaa70d55cd8391b260bb82dfdc2"),
    ("pvalue-asymptotic-k65", "text"): (0, "e8098a107473dcc6594b4ccbce75bf982077f2f6ecd65942aed716f5f4a6ceb7"),
    ("pvalue-degenerate", "json"): (0, "98af271fc3972941034abaa08f4d8fb46444cc92b685da82a29a49745f628e8a"),
    ("pvalue-degenerate", "text"): (0, "f638bac0ad0456f93b05a9e94e59a1c4e72dfcfa2e8a3ac847d9ea4b115f752d"),
    ("pvalue-finite", "json"): (0, "15b3a5943493468ff8ce36704e3bebdbf713219546d9d230b9063433f2b0520c"),
    ("pvalue-finite", "text"): (0, "872a3a71f33ab98756c1db9591f643e5affea5bda07df8f332c5f3b9861fffba"),
    ("table", "json"): (0, "ee0c78a55948f9524c136192276b8e52ba27a4f2f1b204f2f61ecab224239114"),
    ("table", "text"): (0, "b0b4214df3bf4e9b8ccbd2490d89db5cfd0bda20c52e6ae9a75a0bc01cb81026"),
    ("table-k64", "json"): (0, "a6645965c558b518b8e03771186ad17c2b015af6c9ceb9618bd778f7585f687f"),
    ("table-k64", "text"): (0, "6c5f5d6226e23c5ae01365bb49829cff2acdd2a75d7bc1f3727fa94ab51a4692"),
    ("validate-exact", "json"): (0, "86234b7d8fc481b11ff02b02a83e07dd5d71949d7f5540bb146710658f2cc500"),
    ("validate-exact", "text"): (0, "bb84f2264d804798d540383f96ba360b323daa5b352be10c01abe0f2dc8ce505"),
    ("validate-mc", "json"): (0, "0dca361e664c7090379eb6aec4b3c31b065a5384f7267182dbec480197bcf2bd"),
    ("validate-mc", "text"): (0, "e97b31eceb0ee93cb862bc0037de4fac694eb834f575459f43517d9e489f770e"),
    ("validate-mc-fail", "json"): (1, "5fa6df3866b3d4525a4d61d9e63392e97803263c7cc973ac49998af4b0a4dc2e"),
    ("validate-mc-fail", "text"): (1, "41c5a72126d2ae50e4c4cc941fa1cc91a95e8f37e3b76d948ed50b4b579f7656"),
}


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
@pytest.mark.parametrize("case", sorted(COMMAND_CASES))
def test_command_output_is_pinned(case, as_json):
    argv = COMMAND_CASES[case] + (["--json"] if as_json else [])
    result = CliRunner().invoke(main, argv)
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert (result.exit_code, digest) == COMMAND_PINNED[case, "json" if as_json else "text"], (
        result.output
    )


# name: argv before --help
HELP_CASES = {
    "randpred": [],
    "table": ["table"],
    "pvalue": ["pvalue"],
    "predict": ["predict"],
    "validate": ["validate"],
    "dominate": ["dominate"],
}

# name: sha256 of the help text
HELP_PINNED = {
    "randpred": "cc04a3c61944ec0ffe68bbf922debc6173a9af35ddcc3846a7cb11490f499895",
    "table": "45d5276c9166da96bf049db22607ac4e30f8e41fec0aae0c1efad6ac958981f9",
    "pvalue": "f91c973e344b36721905af811ae8db7b778bee7b969f9e72d336400590c5a535",
    "predict": "ee73a7b8e0b381cbd992a49dc829fe6c960e149c392d682fbf133c536a2dd5be",
    "validate": "3f6d1e329d3c552e52abcd1e7030d140ce8ac9e2b0c7b06bb4d641341cecf9d5",
    "dominate": "aa40107d4470e1290e9da9e8159c5335a078d2d77dfd41d86e1fd7968c1d542c",
}


@pytest.mark.parametrize("case", sorted(HELP_CASES))
def test_help_is_pinned(case):
    # a fixed width and program name, so neither the terminal nor the
    # runner's default name moves a byte
    argv = HELP_CASES[case] + ["--help"]
    result = CliRunner().invoke(main, argv, prog_name="randpred", terminal_width=80)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == HELP_PINNED[case], result.output
