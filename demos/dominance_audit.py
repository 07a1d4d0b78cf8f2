"""
Validity audits and the inadmissibility of the rank-based p-variable
====================================================================

A p-variable is valid when P(p <= eps) <= eps for every eps, uniformly
over IID data sources, here IID Bernoulli bits.  (The rank-based one is
valid under exchangeability alone; the engine's and the dominating one
need IID data.)  Validity can be checked *exactly* for
binary summaries: enumerate all 2^(m+1) bit configurations, weight them
by p^ones (1-p)^zeros, and take the supremum over the bias p.  The
audit below does this at every realized threshold.

The rank-based p-variable passes the audit but wastes slack: replacing
its value by m^m/(m+1)^(m+1) whenever the test summary strictly exceeds
every calibration summary stays valid and is strictly smaller there.
"""

from fractions import Fraction

from randpred import (
    audit_pvariable,
    binary_irp_pvariable,
    check_dominance,
    dominating_pvariable,
    icp_pvariable,
    urp_binary_event,
)

print(__doc__)

m = 4

print(f"Exact audit at m = {m}: exceedance probability vs threshold")
for name, pvariable in (
    ("worst-case", binary_irp_pvariable),
    ("rank-based", icp_pvariable),
    ("dominating", dominating_pvariable),
):
    report = audit_pvariable(pvariable, m)
    print(f"  {name}  ({'valid' if report.passed else 'INVALID'})")
    for cell in report.cells:
        slack = max(cell.epsilon - cell.probability, 0.0)
        print(f"    eps = {cell.epsilon:.6f}   P(p <= eps) = {cell.probability:.6f}"
              f"   slack = {slack:.6f}")
print()
print("The worst-case p-variable is tight (zero slack at every threshold);")
print("the rank-based one leaves slack at its smallest threshold.")
print()

# a broken p-variable fails the audit immediately
report = audit_pvariable(lambda seq: 0.5 * float(icp_pvariable(seq)), m)
print(f"Halving the rank-based p-values: audit says "
      f"{'valid' if report.passed else 'invalid'} (as it should)")
print()

# dominance check: exhaustive comparison over all summary configurations
result = check_dominance(dominating_pvariable, icp_pvariable, m)
witness = result.witness
print(f"check_dominance(dominating, rank-based, m={m}): verdict {result.verdict}")
print(f"  witness: {witness.calibration_ones} calibration ones, "
      f"test summary {witness.test_summary}")
print(f"  p-values there: {witness.p1_value} < {witness.p2_value}")
expected = Fraction(m**m, (m + 1) ** (m + 1))
print(f"  the smaller value is m^m/(m+1)^(m+1) = {expected} = {float(expected)}")
print()

# and that smaller value really is the worst-case probability of the event
probability = urp_binary_event(m, lambda bits, t: t == 1 and sum(bits) == 0)
print("Worst-case probability of 'test summary strictly above all calibration")
print(f"summaries' at m = {m}: {probability:.6f} -- the replacement value is")
print("exactly as large as validity allows, so no valid p-variable can beat")
print("it on that event, and none is admissible below it.")
