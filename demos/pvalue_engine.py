"""
Worst-case p-values over binary summaries
=========================================

A fitted summary measure reduces each calibration example to one bit:
0 if the example conforms, 1 if not.  After observing k nonconforming
bits among m, the p-value assigned to a nonconforming test example is
the worst case, over every generating coin bias, of the probability of
seeing a configuration at least as extreme.  This script walks the
construction from small cases to the asymptotic regime.
"""

import math

import numpy as np

from randpred import (
    asymptotic_constant,
    binary_irp_pvalue,
    exact_pvalue_k0,
    maximize_objective,
    objective,
    optimal_p_k1,
)

print(__doc__)

# the simplest nondegenerate case: one calibration bit, zero ones
print("m = 1, k = 0")
print("  objective(p) = p(1-p): maximal at p = 1/2, value 1/4")
p_star, value = maximize_objective(1, 0)
print(f"  engine result: argmax {p_star:.12f}, p-value {value:.12f}")
print(f"  binary_irp_pvalue(1, 0) = {binary_irp_pvalue(1, 0)}")
print(f"  the rank-based p-value with m = 1 would be 1/2, twice as large")
print()

# the k = 0 family has a closed form; the engine must reproduce it
print("Closed form for k = 0: m^m / (m+1)^(m+1)")
for m in (1, 10, 100, 1000):
    engine = binary_irp_pvalue(m, 0)
    closed = exact_pvalue_k0(m)
    print(f"  m = {m:5d}: engine {engine:.12e}, closed form {closed:.12e}")
print(f"  upper bound e^-1/m holds everywhere, e.g. m=1000: "
      f"{exact_pvalue_k0(1000):.6e} <= {math.exp(-1.0) / 1000:.6e}")
print()

# k = 1 also admits a closed-form argmax (a quadratic root)
print("Closed-form argmax for k = 1")
for m in (10, 100, 1000):
    quadratic = optimal_p_k1(m)
    solved, _ = maximize_objective(m, 1)
    print(f"  m = {m:5d}: quadratic root {quadratic:.10f}, engine {solved:.10f}")
print()

# the objective is a low polynomial in p; show its shape at m = 20, k = 2
print("Objective profile at m = 20, k = 2 (worst case near p ~ (k+1)/m)")
grid = np.linspace(0.0, 0.6, 13)
for p in grid:
    bar = "#" * int(round(400 * objective(20, 2, float(p))))
    print(f"  p = {p:4.2f}  {bar}")
print()

# as m grows, m * p-value converges to a constant a_k that depends
# only on k; the constant comes from a one-dimensional root find
print("Convergence of m * p-value to the asymptotic numerator a_k")
for k in range(4):
    a_k = asymptotic_constant(k).a_k
    row = [f"{m * binary_irp_pvalue(m, k):8.5f}" for m in (10**2, 10**3, 10**4, 10**5)]
    print(f"  k = {k}:  m*p = {' '.join(row)}  ->  a_k = {a_k:.5f}")
print()
print("The rank-based alternative assigns (k+1)/(m+1), so its numerator is")
print("k+1; the worst-case numerator a_k is strictly smaller for every k.")
