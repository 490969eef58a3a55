"""Dense linear operators between weighted-grid spaces.

An operator stores its kernel table K on codomain x domain nodes and acts by
quadrature, (T f)(s) = sum_t w_t K(s, t) f(t).  Adjoints and singular value
decompositions are taken with respect to the weighted inner products of the
two grids, not the plain Euclidean ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMarginalError, GridMismatchError
from .fnspace import GridFunction, GridMeasure, OrthonormalBasis

MAX_AXIS_POINTS = 512


def _checked_entries(
    e: np.ndarray, domain: GridMeasure, codomain: GridMeasure, lead: tuple
) -> np.ndarray:
    """Kernel tables of shape ``lead + (codomain, domain)``, finite, between
    grids within the dense-storage cap; raises otherwise."""
    if e.shape != lead + (codomain.size, domain.size):
        raise GridMismatchError(
            f"entries shape {e.shape} does not match "
            f"codomain x domain = ({codomain.size}, {domain.size})"
        )
    if not np.isfinite(e).all():
        raise ValueError("operator entries must be finite")
    for mu in (domain, codomain):
        if max(mu.axis_sizes) > MAX_AXIS_POINTS:
            raise ValueError(
                f"grid axis exceeds the dense-storage cap of {MAX_AXIS_POINTS}"
            )
    return e


@dataclass(frozen=True)
class LinearOperator:
    """Kernel-table operator from one weighted grid to another."""

    entries: np.ndarray
    domain: GridMeasure
    codomain: GridMeasure

    def __post_init__(self):
        e = np.atleast_2d(np.asarray(self.entries, dtype=float))
        e = _checked_entries(e, self.domain, self.codomain, ())
        object.__setattr__(self, "entries", e)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def action_matrix(self) -> np.ndarray:
        """Matrix sending node values to node values (weights absorbed)."""
        return self.entries * self.domain.weights[None, :]

    def __mul__(self, c: float) -> "LinearOperator":
        return LinearOperator(self.entries * float(c), self.domain, self.codomain)

    __rmul__ = __mul__

    @staticmethod
    def identity(mu: GridMeasure) -> "LinearOperator":
        return LinearOperator(np.diag(1.0 / mu.weights), mu, mu)


@dataclass(frozen=True)
class OperatorStack:
    """Operators between one pair of grids, their kernel tables stacked:
    ``entries[b]`` is the table of operator b.  The stack is checked as a
    whole, with the checks of :class:`LinearOperator`."""

    entries: np.ndarray
    domain: GridMeasure
    codomain: GridMeasure

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        e = _checked_entries(e, self.domain, self.codomain, e.shape[:1])
        object.__setattr__(self, "entries", e)


def apply(op: LinearOperator, f: GridFunction) -> GridFunction:
    if not f.measure.same_as(op.domain):
        raise GridMismatchError("function does not live on the operator domain")
    return GridFunction(apply_values(op, f.values), op.codomain)


def apply_values(op: LinearOperator, values: np.ndarray) -> np.ndarray:
    """Codomain node values of ``op`` applied to a row of domain node values:
    :func:`apply` without the grid functions, for callers that hold rows
    already checked against the domain grid."""
    return op.entries @ (op.domain.weights * values)


def apply_rows(op: LinearOperator, rows: np.ndarray) -> np.ndarray:
    """:func:`apply_values` of each row of a (B, n_domain) stack.  Each row
    takes one matrix-vector product, as :func:`apply_values` does, so each
    result row has its bits; a matrix product across the rows would not."""
    return np.matmul(op.entries, (op.domain.weights * rows)[:, :, None])[:, :, 0]


def conditional_expectation(
    joint: np.ndarray,
    dom: GridMeasure,
    cod: GridMeasure,
    weight: np.ndarray | None = None,
) -> LinearOperator:
    """Conditional expectation operator built from a joint density table.

    ``joint[i, j]`` is the joint density of (X, W) at (x_i, w_j) relative to
    the product of the two grid measures, so a table identically one encodes
    independence.  The operator maps g on the X grid to
    E[a(X, W) g(X) | W] on the W grid; ``weight`` supplies a(x, w) and
    defaults to one.  Conditioning points with no marginal mass are rejected.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.shape != (dom.size, cod.size):
        raise GridMismatchError(
            f"joint table shape {joint.shape} != (dom, cod) = "
            f"({dom.size}, {cod.size})"
        )
    if (joint < 0).any():
        raise ValueError("joint density table must be nonnegative")
    marg = dom.weights @ joint
    bad = np.flatnonzero(marg <= 0)
    if bad.size:
        j = int(bad[0])
        raise DegenerateMarginalError(
            f"zero conditional mass at codomain point index {j}, "
            f"coordinates {cod.points[j]}"
        )
    kernel = joint
    if weight is not None:
        kernel = np.asarray(weight, dtype=float)
        if kernel.shape != joint.shape:
            raise GridMismatchError(
                "weight table must match the joint table shape")
        kernel = kernel * joint
    return LinearOperator((kernel / marg[None, :]).T, dom, cod)


def adjoint(op: LinearOperator) -> LinearOperator:
    """Adjoint with respect to the weighted inner products (kernel transpose)."""
    return LinearOperator(op.entries.T, op.codomain, op.domain)


@dataclass(frozen=True)
class SvdDecomposition:
    """Weighted singular value decomposition of a grid operator.

    The singular functions are matrix-backed bases: column j of
    ``right_functions.matrix()`` and ``left_functions.matrix()`` holds the
    j-th right and left singular function at the nodes.
    """

    singular_values: np.ndarray
    right_functions: OrthonormalBasis
    left_functions: OrthonormalBasis

    def __post_init__(self):
        s = np.asarray(self.singular_values, dtype=float)
        if (s < 0).any() or (np.diff(s) > 0).any():
            raise ValueError("singular values must be nonnegative and nonincreasing")
        object.__setattr__(self, "singular_values", s)

    @property
    def sigma_max(self) -> float:
        return float(self.singular_values[0])


def _weighted_svd(op: LinearOperator | OperatorStack, compute_uv: bool):
    """LAPACK SVD of the weight-symmetrized kernel sqrt(w_c) K sqrt(w_d).

    Returns (u, s, vt), or s alone without ``compute_uv``; for a stack, each
    has one leading entry per operator.  Failure to converge and non-finite
    singular values both raise LinAlgError.
    """
    b = np.sqrt(op.codomain.weights)[:, None] * op.entries
    b *= np.sqrt(op.domain.weights)[None, :]
    try:
        out = np.linalg.svd(b, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        cond = float(np.abs(b).max() / max(np.abs(b).min(), 1e-300))
        raise np.linalg.LinAlgError(
            f"SVD failed to converge (entry magnitude ratio {cond:.2e})"
        ) from exc
    s = out[1] if compute_uv else out
    if not np.isfinite(s).all():
        raise np.linalg.LinAlgError("SVD returned non-finite singular values")
    return out


def svd(op: LinearOperator) -> SvdDecomposition:
    """Weighted SVD: op(phi_j) = mu_j psi_j with orthonormal phi on the domain
    and psi on the codomain.  Every value is retained, however small:
    ``identcore.resolved`` is the one rule for which of them count.
    """
    u, s, vt = _weighted_svd(op, compute_uv=True)
    # scaled in place: the bases copy what they are given
    vt /= np.sqrt(op.domain.weights)[None, :]
    u /= np.sqrt(op.codomain.weights)[:, None]
    return SvdDecomposition(
        s,
        OrthonormalBasis(vt.T, op.domain, check=False),
        OrthonormalBasis(u, op.codomain, check=False),
    )


def singular_values(op: LinearOperator | OperatorStack) -> np.ndarray:
    """Weighted singular values of ``op``, nonincreasing: the values-only
    mode of :func:`svd`, which skips the singular functions.  A stack gets
    one row of values per operator, from one stacked LAPACK call."""
    return _weighted_svd(op, compute_uv=False)
