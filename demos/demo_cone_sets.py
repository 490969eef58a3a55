"""Tangential cone sets: where the rank condition decides identification.

Four sets organize the relation between a nonlinear map and its
linearization: the identified set (map nonzero), the rank set
(linearization nonzero), and two cone sets bounding the remainder by eta
times the map norm or the linearization norm.  Under either cone condition
with eta < 1, the rank condition is necessary and sufficient for
identification; this demo samples random instances and watches the
inclusions hold without exception.
"""

import numpy as np

from momentid.fnspace import GridFunction, GridMeasure, norm
from momentid.identcore import (MomentMap, cone_flags, cone_inclusion_suite,
                                zero_threshold)
from momentid.linop import LinearOperator, apply, singular_values

# One concrete instance first: a mildly quadratic map in three dimensions.
mu = GridMeasure(np.arange(3.0), np.ones(3))
lin = np.array([[1.0, 0.3, 0.0], [0.0, 1.2, 0.4], [0.2, 0.0, 0.9]])
quad = 0.08


def eval_rows(rows):
    # one row of domain values per point, one row of map values back
    a0, a1, a2 = rows.T
    return rows @ lin.T + quad * np.stack([a0**2, a1 * a2, a2**2], axis=1)


mmap = MomentMap(GridFunction.zero(mu), eval_rows,
                 LinearOperator(lin, mu, mu))
rng = np.random.default_rng(0)
alpha = GridFunction(rng.standard_normal(3), mu)
# the three defining norms: the map, its linearization and the remainder
delta = alpha - mmap.base_point
m_val = mmap.eval(alpha)
lin_val = apply(mmap.derivative, delta)
m_n, lin_n, rem_n = norm(m_val), norm(lin_val), norm(m_val - lin_val)
# numerical zero: the zero rule at this deviation
zero = zero_threshold(singular_values(mmap.derivative)[0], norm(delta))
for eta in (0.25, 0.75):
    in_n, in_nprime, in_n_eta, in_nprime_eta = cone_flags(
        m_n, lin_n, rem_n, eta, zero)
    print(f"eta = {eta}: map norm {m_n:.3f}, linearization "
          f"{lin_n:.3f}, remainder {rem_n:.3f}")
    print(f"  in identified set {in_n}, in rank set {in_nprime}, "
          f"remainder under eta*map {in_n_eta}, under eta*linearization "
          f"{in_nprime_eta}")

# Now the Monte Carlo suite: inclusions between the four sets, the
# equalities for eta < 1, and the eta/(1-eta) transfer bounds.
report = cone_inclusion_suite(instances=20_000, dim=6, rng_seed=99)
print(f"\n{report.instances} random instances, violations by check:")
for name, count in report.violations.items():
    print(f"  {name}: {count}")
print(f"total violations: {report.total_violations}")
# Zero violations mean something only if the premises occurred: how many
# instances met each inclusion's premise, and how many had a zero linear term.
print("instances meeting each inclusion's premise, and zero linear terms:")
for name, count in report.premises.items():
    print(f"  {name}: {count}")
# A transfer bound that is never approached proves no more than a looser one.
print("instances within 1% of each transfer's eta/(1-eta) bound:")
for name, count in report.near_bound.items():
    print(f"  {name}: {count}")
