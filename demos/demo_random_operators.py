"""Injectivity of randomly drawn integral operators.

Drawing diagonal coefficients from a continuous distribution over supplied
orthonormal families produces an operator whose singular values are exactly
the absolute coefficients, so a zero singular value is a measure-zero
event.  Variants force a nonnegative kernel, or a kernel with unit row sums
that behaves like a conditional density.
"""

import numpy as np

from momentid.fnspace import GridMeasure, cosine_basis
from momentid.genericity import GeneratorConfig, draw_operator, mc_injectivity

grid = GridMeasure.uniform(48)
basis = cosine_basis(grid, 30)
sigma = 1.0 / np.arange(1, 31, dtype=float) ** 2

config = GeneratorConfig(sigma=sigma, kappa=1.0, trunc_n=30, compact=True)
print(f"coefficient bounds sigma_j = j^-2, truncated at {config.trunc_n}")
print(f"square-summable decay test passes: {config.compact_decay_ok()}")

report = mc_injectivity(config, (basis, basis), draws=300, tol=1e-12,
                        seed=42)
print(f"\n300 draws: fraction with sigma_min below numerical zero = "
      f"{report.fraction_below_tol}")
print(f"smallest observed sigma_min = {report.sigma_min.min():.3e}")
print(f"spectrum vs sorted |kappa lambda_j|: max deviation "
      f"{report.max_spectrum_deviation:.2e}")

# Positivity variant: the leading coefficient dominates the mixed terms, so
# the kernel is nonnegative at every node pair.
pos = draw_operator(
    GeneratorConfig(sigma=sigma, kappa=1.0, trunc_n=30, positive=True),
    (basis, basis), seed=1,
)
print(f"\npositive variant: min kernel entry {pos.operator.entries.min():.4f}"
      f" with bound c = {pos.c_bound:.3f}")

# Density variant: rescale so the kernel has unit row sums, like a
# conditional density table.
dens = draw_operator(
    GeneratorConfig(sigma=sigma, kappa=1.0, trunc_n=30, positive=True,
                    density=True),
    (basis, basis), seed=1,
)
rows = dens.operator.entries @ grid.weights
print(f"density variant: row sums within {np.abs(rows - 1).max():.2e} of 1")
