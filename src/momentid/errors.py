"""Exception types shared across the package."""


class GridMismatchError(ValueError):
    """Operands live on different grid measures or have incompatible shapes."""


class DegenerateMarginalError(ValueError):
    """A conditional expectation has zero marginal mass at some point."""


class ConvergenceError(RuntimeError):
    """An iterative solver did not reach its tolerance within the budget."""
