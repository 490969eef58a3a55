"""Local identification of an endogenous quantile curve.

The moment map averages a conditional outcome CDF over the law of the
regressor given the instrument.  Its derivative is a conditional
expectation weighted by the outcome density at the true curve, an operator
with rapidly decaying singular values, so naive inversion is hopeless; the
usable neighborhood is the source-condition ellipsoid scaled by the
curvature constant L1 L2.
"""

import numpy as np

from momentid.fnspace import FunctionStack, norm
from momentid.identcore import estimate_nonlinearity, gateaux_check, \
    sample_ellipsoid_deviations, verify_local_id
from momentid.linop import svd
from momentid.models.quantile import gaussian_quantile_model, \
    quantile_moment_map

model = gaussian_quantile_model(n_x=81, n_w=81, n_y=161, rho=0.6, tau=0.5)
mmap, bound = quantile_moment_map(model)

print(f"quantile level tau = {model.tau}")
print(f"density slope bound L1 = {model.l1:.4f}")
print(f"density ratio bound L2 = {model.l2:.2f}")
print(f"curvature constant L = L1 L2 = {bound.L:.3f}, exponent r = 2")
print(f"residual at the true curve: {norm(mmap.eval(mmap.base_point)):.2e}")

# The derivative operator is severely ill posed: singular values fall
# geometrically, which is why identification needs the ellipsoid restraint.
dec = svd(mmap.derivative)
print("\nleading singular values of the derivative:")
print(np.array2string(dec.singular_values[:8], precision=5))

# A finite-difference check of the attached derivative.
rng = np.random.default_rng(0)
dirs = FunctionStack(rng.standard_normal((5, model.x_measure.size)) * 0.3,
                     model.x_measure)
print(f"\nfinite-difference error of the derivative: "
      f"{gateaux_check(mmap, dirs, 1e-4):.2e}")

# Sample deviations inside the ellipsoid: every one keeps the map away from
# zero, with the linearization dominating the curvature remainder.
ellipsoid, _ = sample_ellipsoid_deviations(dec, bound, 100, rng)
report = verify_local_id(mmap, bound, ellipsoid, dec=dec)
worst_ratio = max(rem / lin for _, lin, rem, _, _ in report.rows)
print(f"\n{report.samples} ellipsoid deviations, {report.passes} pass: "
      f"worst remainder/linearization ratio {worst_ratio:.2e} (< 1 "
      f"everywhere), min ||m|| {report.min_m_norm:.2e}")

# The sampled curvature stays below the density-derived bound.
scales = rng.uniform(0.05, 0.6, size=200)
devs = FunctionStack(
    rng.standard_normal((200, model.x_measure.size)) * scales[:, None],
    model.x_measure)
print(f"sampled curvature constant: "
      f"{estimate_nonlinearity(mmap, 2.0, devs):.4f} <= L = {bound.L:.3f}")
