"""
Hedged regression intervals
===========================

A regression pipeline splits training data into a proper part (fits a
least-squares predictor and a residual half-width) and a calibration
part (summarized into bits).  Both the worst-case and the rank-based
method then emit the *same* interval around the point prediction; they
disagree only on the incertitude attached to it.  This demo fits one
pipeline per method on draws from a bounded-noise linear model and
compares.
"""

import numpy as np

from randpred import (
    BoundedNoiseLinearGenerator,
    fit_regression_pipeline,
    prediction_set,
)

print(__doc__)

generator = BoundedNoiseLinearGenerator()  # y = 1.5 x1 - 2 x2 + 0.3 + U(-.25, .25)
rng = np.random.default_rng(20260814)
split, x, y = generator.sample(rng)
print(f"proper training size {split.proper_size}, calibration size {split.calibration_size}")
print(f"test point: features {tuple(round(v, 3) for v in x.tolist())}, label {y:.3f}")
print()

irp = fit_regression_pipeline(split).predict(x, "irp")
icp = fit_regression_pipeline(split).predict(x, "icp")

print("Method   interval                     incertitude")
for name, hedged in (("worst", irp), ("rank", icp)):
    interval = hedged.prediction_set
    print(f"{name:8s} [{interval.lower:+.4f}, {interval.upper:+.4f}]   "
          f"{hedged.incertitude:.6f}")
print()
assert irp.prediction_set == icp.prediction_set
print("Identical intervals, as promised; the worst-case incertitude is the")
print(f"smaller of the two whenever k < m (here k = {irp.k}, m = {irp.m}).")
print()

# at confidence level 1 - epsilon the hedged prediction collapses to a set
epsilon = 0.05
gamma_irp = prediction_set(irp, epsilon)
gamma_icp = prediction_set(icp, epsilon)
print(f"Level-{epsilon} prediction sets:")
print(f"  worst: [{gamma_irp.lower:+.4f}, {gamma_irp.upper:+.4f}]")
print(f"  rank:  [{gamma_icp.lower:+.4f}, {gamma_icp.upper:+.4f}]")
print(f"  test label covered: {gamma_irp.contains(y)}")
print()

# the smaller incertitude pays off at stricter levels: sweep epsilon and
# report which method still produces the informative (bounded) interval
print("epsilon   worst-case set    rank set")
for epsilon in (0.2, 0.1, 0.05, 0.02, 0.01):
    shapes = []
    for hedged in (irp, icp):
        gamma = prediction_set(hedged, epsilon)
        shapes.append("bounded " if np.isfinite(gamma.width) else "whole line")
    print(f"{epsilon:7.2f}   {shapes[0]:15s}   {shapes[1]}")
