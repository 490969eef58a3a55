"""Partialling out a nonparametric direction to identify a parameter.

In a single-index design the link function of the index is unknown.
Whether the index coefficients survive depends on how much of their
derivative columns the closure of {E[h(V) | W]} can absorb: a scalar
instrument absorbs everything (the Gram matrix of the residuals vanishes),
while a second instrument coordinate that enters the columns but not the
index law leaves a nonsingular Gram matrix and hence a computable lower
bound on the derivative norm.
"""

from momentid.models.single_index import (
    diagnose_single_index,
    gaussian_index_design,
    index_split,
)
from momentid.semiparam import partial_out, split_lower_bound_check

print("--- scalar instrument ---")
scalar = gaussian_index_design(rho=0.5, w_dim=1, link="softplus")
d1 = diagnose_single_index(scalar)
print(f"instrument-given-index completeness proxy: {d1.w_given_v_complete} "
      f"(sigma_min ratio {d1.sigma_min_ratio:.2e})")
print(f"Gram matrix: lambda_min/sum ||col||^2 = {d1.gram_ratio:.2e}  -> "
      "singular, the index coefficients are not separated from the link")
print(f"diagnosis consistent: {d1.consistent}")

print("\n--- two-dimensional instrument ---")
rich = gaussian_index_design(rho=0.5, w_dim=2, link="softplus", n_v=49,
                             n_w=15)
d2 = diagnose_single_index(rich)
print(f"completeness proxy: {d2.w_given_v_complete} (a function of two "
      "instrument coordinates cannot be pinned by one index)")
print(f"Gram matrix: lambda_min/sum ||col||^2 = {d2.gram_ratio:.3f} "
      "-> nonsingular")

split = index_split(rich)
report = partial_out(split)
print(f"\npartialled-out constants: eps1 = {report.eps1:.4f}, "
      f"C* = {report.c_star:.4f}, eps = {report.eps:.4f}")
ratio = split_lower_bound_check(split, report, trials=5000, seed=3)
if ratio < report.eps - 1e-10:
    raise SystemExit(f"lower bound violated: {ratio:.4f} < eps")
print(f"sampled lower bound: min ||b^T a + zeta|| / (|a| + ||zeta||) = "
      f"{ratio:.4f} >= eps")
print("so the index coefficients are locally identified even though the "
      "link is not")
