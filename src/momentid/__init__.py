"""Local identification diagnostics for conditional moment models.

The package discretizes function spaces on weighted grids, represents
derivatives of moment maps as dense kernel operators, and turns
identification conditions (rank conditions, curvature-restricted
neighborhoods, partialled-out Gram matrices, positive-kernel eigenpairs)
into executable checks with independent oracles.

Import from the submodules (``momentid.linop``, ``momentid.identcore``,
``momentid.models.quantile``, ...); the package root holds only
``__version__``.
"""

__version__ = "0.1.0"
