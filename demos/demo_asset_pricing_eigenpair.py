"""Recovering a discount factor and marginal-utility tilt from pricing data.

The pricing restriction is homogeneous of degree one in the unknown
positive function g, so g is at best identified up to scale.  Conditioning
the restriction down to the current growth state turns it into a
positive-kernel eigenproblem: the unique positive eigenpair recovers the
discount factor as the reciprocal eigenvalue and g as the eigenfunction.
"""

import numpy as np

from momentid.fnspace import inner, norm
from momentid.identcore import rank_condition
from momentid.linop import svd
from momentid.models.ccapm import (
    ccapm_moment_map,
    check_global_identification,
    fixed_state_completeness_operator,
    lognormal_ccapm_model,
    perron_frobenius,
)
from momentid.semiparam import partial_out

# desk scale: more signal nodes than states
model = lognormal_ccapm_model(n_state=21, n_signal=31)
smap = ccapm_moment_map(model)

print(f"true discount factor {model.delta0}, curvature {model.gamma0}")
print(f"pricing residual at the truth: "
      f"{norm(smap.eval(smap.beta0, model.g0)):.2e}")
print(f"and at twice g (scale is not identified): "
      f"{norm(smap.eval(smap.beta0, model.g0 * 2.0)):.2e}")

# The second-kind operator in g has a one-dimensional null space spanned by
# the truth: uniqueness up to scale in operator form.
dec = svd(smap.split.m_g)
print(f"\nsmallest two singular values of the g-derivative: "
      f"{dec.singular_values[-1]:.2e}, {dec.singular_values[-2]:.2e}")

# Power iteration on the positive kernel, here on a finer state grid.
fine = lognormal_ccapm_model(n_state=101, n_signal=15)
pair = perron_frobenius(fine, tol=1e-12)
print(f"\npower iteration on 101 states: {pair.iterations} steps, residual "
      f"{pair.residual:.1e}")
print(f"recovered discount factor {pair.delta:.12f}")
print(f"eigenfunction positive everywhere: {(pair.g.values > 0).all()}, "
      f"alignment with the truth {abs(inner(pair.g, fine.g0)):.12f}")
print(f"spectral gap |rho_2|/rho_1 = {pair.gap:.3f} (simple eigenvalue)")

# Dual eigenfunction pairing, needed for simplicity of the eigenvalue.
print(f"dual pairing <psi, g> = {inner(pair.dual, pair.g):.4f} (nonzero)")

# Beyond the eigenpair: completeness at a fixed state makes the whole
# triple globally identified up to scale, and the partialled-out Gram
# matrix being nonsingular is what lets the two scalars be separated.
comp = rank_condition(
    fixed_state_completeness_operator(model, model.c_measure.size // 2))
print(f"\ncompleteness proxy at the midpoint state: {comp.holds} "
      f"(sigma_min {comp.sigma_min:.2e})")
gram = partial_out(smap.split)
print(f"Gram matrix eigenvalues: "
      f"{np.linalg.eigvalsh(gram.gram).round(6).tolist()}")

candidates = [
    (model.delta0, model.gamma0, model.g0 * 2.0),
    (model.delta0, model.gamma0 + 0.5, model.g0),
]
gid = check_global_identification(smap, candidates)
for row in gid.rows:
    verdict = ("solution, matches the truth up to scale"
               if row["is_solution"] else "not a solution")
    print(f"candidate (delta={row['delta']}, gamma={row['gamma']}): "
          f"moment norm {row['moment_norm']:.2e} -> {verdict}")
