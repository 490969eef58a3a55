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

from momentid.fnspace import GridFunction, GridMeasure
from momentid.identcore import MomentMap, cone_classify, cone_inclusion_suite
from momentid.linop import LinearOperator

# One concrete instance first: a mildly quadratic map in three dimensions.
mu = GridMeasure(np.arange(3.0), np.ones(3))
lin = np.array([[1.0, 0.3, 0.0], [0.0, 1.2, 0.4], [0.2, 0.0, 0.9]])
quad = 0.08


def eval_fn(alpha):
    a = alpha.values
    return GridFunction(lin @ a + quad * np.array([a[0] ** 2, a[1] * a[2],
                                                   a[2] ** 2]), mu)


mmap = MomentMap(GridFunction.zero(mu), eval_fn,
                 LinearOperator(lin, mu, mu))
rng = np.random.default_rng(0)
alpha = GridFunction(rng.standard_normal(3), mu)
for eta in (0.25, 0.75):
    cm = cone_classify(mmap, alpha, eta)
    print(f"eta = {eta}: map norm {cm.m_norm:.3f}, linearization "
          f"{cm.linear_norm:.3f}, remainder {cm.remainder_norm:.3f}")
    print(f"  in identified set {cm.in_n}, in rank set {cm.in_nprime}, "
          f"remainder under eta*map {cm.in_n_eta}, under eta*linearization "
          f"{cm.in_nprime_eta}")

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
