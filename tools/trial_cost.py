"""Print the per-trial cost split of one staged Monte Carlo block.

The harness (randpred.validity.monte_carlo_coverage) counts its trials in
blocks and stages each block in parts.  With the default generator's two
features a block is one staged part: 202 trials at m = 30 calibration
rows.  This script times that part's steps apart, with the package's own
private functions, and prints each one's cost per trial:

- seeds and draws: the block's PCG64 seed words in one array pass, then
  one Generator.random call per trial into its row of one buffer;
- scaling and labels: the draws scaled to features and noise, and the
  labels, in one batch pass each;
- fits: the design array of the part, then the shared least-squares rule
  once per trial, written into the part's maps;
- predictions and misses: the affine predictions of every row in one
  batch pass, and the miss counts of both methods.

It also prints the whole block, monte_carlo_coverage over one block's
trials, for comparison with the sum.  Each figure is the best of
--repeat timeit runs, one BLAS thread.  numpy and the standard library
only; run from anywhere:

    python tools/trial_cost.py [--m 30] [--repeat 9]
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads its BLAS
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from randpred import BoundedNoiseLinearGenerator, monte_carlo_coverage  # noqa: E402
from randpred.predictors import _affine_batch, _design, _least_squares  # noqa: E402
from randpred.validity import (  # noqa: E402
    _BLOCK_ROWS,
    _TrialState,
    _block_misses,
    _trial_states,
)

SEED = 2026
EPSILON = 0.05


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=30, help="calibration rows a trial")
    parser.add_argument("--repeat", type=int, default=9, help="timeit runs; the best is kept")
    args = parser.parse_args(argv[1:])

    generator = BoundedNoiseLinearGenerator(calibration_size=args.m)
    proper, d = generator.proper_size, len(generator.coefficients)
    n = proper + args.m + 1
    # with the default two features, a block is staged in one part
    trials = max(1, _BLOCK_ROWS // n)
    draws = np.empty((trials, n * (d + 1)))
    state = {}

    def seeds_and_draws():
        states = _trial_states(SEED, 0, trials)
        for row in range(trials):
            np.random.Generator(np.random.PCG64(_TrialState(states[row]))).random(out=draws[row])

    def batch_labels():
        # _scale works in place, so each run scales a fresh copy of the draws
        features, noise = generator._scale(draws.copy())
        state["features"], state["labels"] = features, generator._labels(features, noise)

    def fits():
        features, labels = state["features"], state["labels"]
        maps = np.zeros((trials, d + 1))
        design = _design(features[:, :proper])
        for row in range(trials):
            solution, _ = _least_squares(design[row], labels[row, :proper])
            maps[row] = solution
        state["maps"] = maps

    def batch_predictions():
        maps, features = state["maps"], state["features"]
        predictions = _affine_batch(maps[:, np.newaxis, :-1], maps[:, -1:], features)
        _block_misses(predictions, state["labels"], proper, ("irp", "icp"), EPSILON)

    def block():
        monte_carlo_coverage(None, generator, EPSILON, trials, SEED)

    def best(step):
        step()  # the first run fills the state that later steps read
        return min(timeit.repeat(step, number=1, repeat=args.repeat)) / trials * 1e6

    steps = [
        ("seeds and draws", best(seeds_and_draws)),
        ("scaling and labels", best(batch_labels)),
        ("fits", best(fits)),
        ("predictions and misses", best(batch_predictions)),
    ]
    print(f"m = {args.m}: one block of {trials} trials, µs per trial, best of {args.repeat}")
    for name, cost in steps:
        print(f"{cost:8.2f}  {name}")
    print(f"{sum(cost for _, cost in steps):8.2f}  sum")
    print(f"{best(block):8.2f}  monte_carlo_coverage over the block")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
