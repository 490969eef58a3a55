"""Why a full-rank derivative is not enough in infinite dimensions.

A smooth map on a weighted sequence space can have the identity as its
derivative and still vanish at points arbitrarily close to the base point,
because the domain norm is stronger than the image norm.  This script walks
the explicit construction and then shows the curvature-restricted set on
which identification is rescued.
"""

import numpy as np

from momentid.identcore import (
    counterexample_cases,
    counterexample_map,
    verify_local_id,
)
from momentid.fnspace import FunctionStack
from momentid.linop import svd

# The model maps a sequence (a_1, a_2, ...) to (f(a_1), f(a_2), ...) with a
# smooth f vanishing exactly at 0 and 1 and unit slope at 0.  Weights 2^-j
# make the tail cheap: setting all coordinates past k to 1 produces a zero
# of the map whose distance to the origin is the tail mass to the 1/4 power.
print("k   ||m(alpha_k)||   ||alpha_k - alpha_0||   inside identified set?")
cases = counterexample_cases(range(2, 13), n_terms=64)
for case in cases:
    print(f"{case.k:2d}  {case.m_norm:14.3e}  {case.dev_norm:20.6f}   "
          f"{case.in_n}")

print(f"\nmeasured curvature constant L = sup|f''|/2 = {cases[0].L:.4f} >= 1")
print("so the deviation sequence can never satisfy the curvature inequality")
print("||m'(alpha - alpha_0)|| > L ||alpha - alpha_0||^2,")
print("which is exactly what excludes it from the identified set.\n")

# Inside the curvature-restricted set the story reverses: every sampled
# deviation keeps the map bounded away from zero.  Coordinates below 1/L
# are a handy sufficient condition, so we sample uniformly under that cap.
mmap, bound = counterexample_map(n_terms=64)
dec = svd(mmap.derivative)
mu = mmap.base_point.measure
cap = 0.9 / bound.L
rng = np.random.default_rng(7)
inside = FunctionStack(rng.uniform(-cap, cap, (300, mu.size)), mu)
report = verify_local_id(mmap, bound, inside, dec=dec)
print(f"sampling the restricted set: {report.passes}/{report.samples} "
      f"deviations keep ||m|| > 0 (min {report.min_m_norm:.3e})")

# On a plain open ball the guarantee is gone: the tail sequences above are
# inside any ball and are zeros of the map.
holes = FunctionStack(
    (np.arange(mu.size) >= np.arange(12, 17)[:, None]).astype(float), mu)
ball = verify_local_id(mmap, bound, holes, dec=dec)
print(f"sampling an open ball instead: {ball.failures}/{ball.samples} "
      "draws are zeros of the map arbitrarily close to the truth")
