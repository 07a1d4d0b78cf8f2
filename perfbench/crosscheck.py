"""Measure the baselines quoted in ROADMAP.md once each, at their own sizes.

    python3 perfbench/crosscheck.py

Each figure is one fresh child process (the import is the median of
IMPORT_REPEATS), so this is a one-off comparison, not a benchmark run.
A figure outside the quoted range by more than a quarter is reported as
not reproduced.
"""

from __future__ import annotations

import shutil
import sys

import inputs
import run

IMPORT_REPEATS = 5
# (what, ROADMAP low, ROADMAP high) in seconds.
BASELINES = {
    "import": ("import randpred.cli", 0.7, 0.7),
    "predict": ("predict, 2k train / 100k test rows, end to end", 5.0, 5.0),
    "engine": ("cold binary_irp_pvalue(10**6, 10**4)", 0.86, 0.86),
    "mc": ("validate --mode mc, 10k trials", 9.0, 10.0),
}


def measure(work) -> dict:
    data = inputs.regression_dataset(0, work, inputs.RegressionSizes(test_rows=100_000))
    predict = run.Op([run.PYTHON, "-m", "randpred.cli", "predict", "--train", str(data.train_csv),
                      "--split-at", str(data.split_at), "--test", str(data.test_csv), "--json"],
                     work / "predict.out")
    engine = run.Op([run.PYTHON, "-c",
                     "import time, randpred; t = time.perf_counter(); "
                     "randpred.binary_irp_pvalue(10**6, 10**4); print(time.perf_counter() - t)"],
                    work / "engine.out")
    mc = run.Op([run.PYTHON, "-m", "randpred.cli", "validate", "--mode", "mc", "--trials",
                 "10000", "--seed", "0", "--json"], work / "mc.out")
    return {
        "import": run.median([run.import_time("randpred.cli", work / "setup.out")[0]
                              for _ in range(IMPORT_REPEATS)]),
        "predict": predict.wall_s,
        "engine": float(engine.out.read_text()),
        "mc": mc.wall_s,
    }


def main() -> int:
    work = run.WORK / "crosscheck"
    work.mkdir(parents=True, exist_ok=True)
    try:
        measured = measure(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"environment: {run.environment()}")
    for key, (what, low, high) in BASELINES.items():
        value = measured[key]
        verdict = "reproduced" if 0.75 * low <= value <= 1.25 * high else "NOT reproduced"
        quoted = f"{low:g} s" if low == high else f"{low:g}-{high:g} s"
        print(f"{what}: ROADMAP {quoted}, measured {value:.3f} s, {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
