"""Partialling out a nonparametric direction to identify a parameter.

In a single-index design the link function of the index is unknown.
Whether the index coefficients survive depends on how much of their
derivative columns the closure of {E[h(V) | W]} can absorb: a scalar
instrument, complete given the index, absorbs everything (the Gram matrix
of the residuals vanishes), while a second instrument coordinate that
enters the columns but not the index law leaves the instrument incomplete,
a nonsingular Gram matrix and hence a computable lower bound on the
derivative norm.
"""

from momentid.fnspace import GridFunction, norm
from momentid.linop import apply, conditional_expectation
from momentid.models.single_index import (
    diagnose_single_index,
    gaussian_index_design,
    index_split,
)
from momentid.semiparam import gram_singular, split_lower_bound_check


def verdict(report):
    return "singular" if gram_singular(report.gram_ratio) else "nonsingular"


print("--- scalar instrument ---")
scalar = gaussian_index_design(rho=0.5, w_dim=1, link="softplus")
d1 = diagnose_single_index(scalar)
print("W complete given V: yes, W given V is a Gaussian location family")
print(f"Gram matrix: lambda_min/sum ||col||^2 = {d1.gram_ratio:.2e} -> "
      f"{verdict(d1)}, the index coefficients are not separated from the "
      "link")

print("\n--- two-dimensional instrument ---")
rich = gaussian_index_design(rho=0.5, w_dim=2, link="softplus", n_v=49,
                             n_w=15)
d2 = diagnose_single_index(rich)
w_to_v = conditional_expectation(rich.joint_ratio.T, rich.w_measure,
                                 rich.v_measure)
w1, w2 = rich.w_measure.points.T
b = GridFunction(w1 - w2, rich.w_measure)
print("W complete given V: no, the index law sees only w1 + w2: "
      f"||E[w1 - w2 | V]|| / ||w1 - w2|| = "
      f"{norm(apply(w_to_v, b)) / norm(b):.1e}")
print(f"Gram matrix: lambda_min/sum ||col||^2 = {d2.gram_ratio:.3f} -> "
      f"{verdict(d2)}")

print(f"\npartialled-out constants: eps1 = {d2.eps1:.4f}, "
      f"C* = {d2.c_star:.4f}, eps = {d2.eps:.4f}")
ratio = split_lower_bound_check(index_split(rich), d2, trials=5000, seed=3)
if ratio < d2.eps - 1e-10:
    raise SystemExit(f"lower bound violated: {ratio:.4f} < eps")
print(f"sampled lower bound: min ||b^T a + zeta|| / (|a| + ||zeta||) = "
      f"{ratio:.4f} >= eps")
print("so the index coefficients are locally identified even though the "
      "link is not")
