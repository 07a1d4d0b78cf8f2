"""Tests of the benchmark itself: seeded inputs and the output checks.

    python -m pytest perfbench/tests -q
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402

SMALL_REGRESSION = inputs.RegressionSizes(train_rows=300, split_at=150, test_rows=40)
SMALL_CLASSIFICATION = inputs.ClassificationSizes(train_rows=400, split_at=200, test_rows=30)


def _files(dataset):
    return dataset.train_csv.read_bytes() + b"\0" + dataset.test_csv.read_bytes()


@pytest.mark.parametrize("make, sizes", [
    (inputs.regression_dataset, SMALL_REGRESSION),
    (inputs.classification_dataset, SMALL_CLASSIFICATION),
])
def test_datasets_are_byte_deterministic(tmp_path, make, sizes):
    first = _files(make(7, tmp_path / "a", sizes))
    assert first == _files(make(7, tmp_path / "b", sizes))
    assert first != _files(make(8, tmp_path / "c", sizes))


def test_stream_is_deterministic_distinct_and_in_range(tmp_path):
    pairs = inputs.pvalue_stream(7)
    inputs.write_pairs(tmp_path / "a", pairs)
    inputs.write_pairs(tmp_path / "b", inputs.pvalue_stream(7))
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert pairs != inputs.pvalue_stream(8)
    assert len(set(pairs)) == len(pairs) == inputs.STREAM_QUERIES
    assert all(10 <= m <= 1_000_100 and 0 <= k <= m for m, k in pairs)


@pytest.mark.parametrize("m", [2, 30, 1000, 10**6])
def test_reference_pvalue_matches_the_k1_closed_form(m):
    p = (m - 2 + math.sqrt(5.0 * m * m - 4.0 * m)) / (2.0 * (m * m - 1.0))
    closed = p * ((1 - p) ** m + m * p * (1 - p) ** (m - 1))
    assert checks.reference_pvalue(m, 1) == pytest.approx(closed, rel=1e-12)


def _cli(*args):
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "randpred.cli", *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def _corrupt(text, key, digit):
    """Change one digit, the digit-th after the first, of the first value of key."""
    found = re.search(rf'"{key}": -?\d\.(\d+)', text)
    at = found.start(1) + digit - 1
    return text[:at] + str((int(text[at]) + 5) % 10) + text[at + 1:]


def test_regression_check_counts_a_corrupted_digit(tmp_path):
    data = inputs.regression_dataset(3, tmp_path, SMALL_REGRESSION)
    text = _cli("predict", "--train", str(data.train_csv), "--split-at", str(data.split_at),
                "--test", str(data.test_csv), "--json")
    assert checks.check_regression(text, data, 0.05).failures == []
    for key, digit in [("lower", 9), ("upper", 1), ("incertitude", 4)]:
        broken = _corrupt(text, key, digit)
        assert broken != text
        assert checks.check_regression(broken, data, 0.05).failures, (key, digit)


def test_classification_check_counts_a_corrupted_digit(tmp_path):
    data = inputs.classification_dataset(3, tmp_path, SMALL_CLASSIFICATION)
    text = _cli("predict", "--task", "classification", "--train", str(data.train_csv),
                "--split-at", str(data.split_at), "--test", str(data.test_csv), "--json")
    reference = checks.classification_reference(data)
    assert checks.check_classification(text, data, 0.05, reference, seed=3).failures == []
    broken = _corrupt(text, "incertitude", 3)
    assert checks.check_classification(broken, data, 0.05, reference, seed=3).failures


def test_mc_check_counts_a_corrupted_digit():
    trials = 200
    text = _cli("validate", "--mode", "mc", "--trials", str(trials), "--seed", "5", "--json")
    reference = checks.mc_reference(5, trials, 0.05)
    assert checks.check_mc(text, 5, reference).failures == []
    found = re.search(r'"detail": "(\d)', text)
    at = found.start(1)
    broken = text[:at] + str((int(text[at]) + 5) % 10) + text[at + 1:]
    assert checks.check_mc(broken, 5, reference).failures


def test_mc_reference_reproduces_the_pinned_seed_counts():
    pinned = checks.PINNED_MC[0]
    assert checks.mc_reference(0, pinned["trials"], 0.05) == pinned


def test_speedometer_scales_a_unit_by_the_probes_around_it():
    import speed

    meter = speed.Speedometer("python")
    ref = meter.ref_ns
    ms = 1_000_000
    # A probe every ms that takes twice its reference time: half speed.
    meter.starts = [i * ms for i in range(20)]
    meter.walls = [2 * ref] * 20
    meter.waits = [0] * 20
    own, scaled = meter.scale((4 * ms + ms // 2, 0), (6 * ms + ms // 2, 0))
    assert own == 2 * ms - 2 * 2 * ref
    assert scaled == pytest.approx(own / 2)
    # Waiting for a CPU is taken out of the unit and of the probes.
    meter.waits[5] = ref
    own, scaled = meter.scale((4 * ms + ms // 2, 0), (6 * ms + ms // 2, 3 * ref))
    assert own == 2 * ms - 2 * 2 * ref - 2 * ref
    # A unit between two probes borrows the nearest MIN_SAMPLES of them.
    meter.walls[10:] = [ref] * 10
    own, scaled = meter.scale((15 * ms + 100, 7), (15 * ms + 200, 7))
    assert (own, scaled) == (100, pytest.approx(100))
