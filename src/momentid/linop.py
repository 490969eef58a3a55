"""Dense linear operators between weighted-grid spaces.

An operator stores its kernel table K on codomain x domain nodes and acts by
quadrature, (T f)(s) = sum_t w_t K(s, t) f(t).  Adjoints, singular value
decompositions and Hilbert-Schmidt norms are all taken with respect to the
weighted inner products of the two grids, not the plain Euclidean ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMarginalError, GridMismatchError
from .fnspace import GridFunction, GridMeasure, OrthonormalBasis

MAX_AXIS_POINTS = 512


@dataclass(frozen=True)
class KernelSpec:
    """Tabulated kernel values on codomain x domain nodes (density-ratio units)."""

    values: np.ndarray
    nonnegative: bool = False

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(vals)):
            raise ValueError("kernel entries must be finite")
        if self.nonnegative and np.any(vals < 0):
            raise ValueError("kernel flagged nonnegative has negative entries")
        object.__setattr__(self, "values", vals)


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
    if not np.all(np.isfinite(e)):
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

    def __call__(self, f: GridFunction) -> GridFunction:
        return apply(self, f)

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        self._check_compatible(other)
        return LinearOperator(self.entries + other.entries, self.domain, self.codomain)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        self._check_compatible(other)
        return LinearOperator(self.entries - other.entries, self.domain, self.codomain)

    def __mul__(self, c: float) -> "LinearOperator":
        return LinearOperator(self.entries * float(c), self.domain, self.codomain)

    __rmul__ = __mul__

    def _check_compatible(self, other: "LinearOperator") -> None:
        if not (
            self.domain.same_as(other.domain) and self.codomain.same_as(other.codomain)
        ):
            raise GridMismatchError("operators act between different spaces")

    @staticmethod
    def identity(mu: GridMeasure) -> "LinearOperator":
        return LinearOperator(np.diag(1.0 / mu.weights), mu, mu)

    @staticmethod
    def zero(dom: GridMeasure, cod: GridMeasure) -> "LinearOperator":
        return LinearOperator(np.zeros((cod.size, dom.size)), dom, cod)


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


def from_kernel(
    kernel: KernelSpec | np.ndarray, dom: GridMeasure, cod: GridMeasure
) -> LinearOperator:
    """Integral operator (T g)(s) = sum_t w_t K(s, t) g(t)."""
    if not isinstance(kernel, KernelSpec):
        kernel = KernelSpec(np.asarray(kernel))
    return LinearOperator(kernel.values, dom, cod)


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
    if np.any(joint < 0):
        raise ValueError("joint density table must be nonnegative")
    marg = dom.weights @ joint
    bad = np.flatnonzero(marg <= 0)
    if bad.size:
        j = int(bad[0])
        raise DegenerateMarginalError(
            f"zero conditional mass at codomain point index {j}, "
            f"coordinates {cod.points[j]}"
        )
    a = np.ones_like(joint) if weight is None else np.asarray(weight, dtype=float)
    if a.shape != joint.shape:
        raise GridMismatchError("weight table must match the joint table shape")
    kernel = (a * joint / marg[None, :]).T
    return LinearOperator(kernel, dom, cod)


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
    tol: float = 0.0

    def __post_init__(self):
        s = np.asarray(self.singular_values, dtype=float)
        if np.any(s < 0) or np.any(np.diff(s) > 0):
            raise ValueError("singular values must be nonnegative and nonincreasing")
        object.__setattr__(self, "singular_values", s)

    @property
    def sigma_min(self) -> float:
        return float(self.singular_values[-1])

    @property
    def sigma_max(self) -> float:
        return float(self.singular_values[0])

    def num_numerically_zero(self) -> int:
        """Count of values at or below tol * sigma_max (retained, not removed)."""
        if self.singular_values.size == 0:
            return 0
        return int(np.sum(self.singular_values <= self.tol * self.sigma_max))


def _weighted_svd(op: LinearOperator | OperatorStack, compute_uv: bool):
    """LAPACK SVD of the weight-symmetrized kernel sqrt(w_c) K sqrt(w_d).

    Returns (u, s, vt), or s alone without ``compute_uv``; for a stack, each
    has one leading entry per operator.  Failure to converge and non-finite
    singular values both raise LinAlgError.
    """
    b = (np.sqrt(op.codomain.weights)[:, None] * op.entries
         * np.sqrt(op.domain.weights)[None, :])
    try:
        out = np.linalg.svd(b, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        cond = float(np.abs(b).max() / max(np.abs(b).min(), 1e-300))
        raise np.linalg.LinAlgError(
            f"SVD failed to converge (entry magnitude ratio {cond:.2e})"
        ) from exc
    s = out[1] if compute_uv else out
    if not np.all(np.isfinite(s)):
        raise np.linalg.LinAlgError("SVD returned non-finite singular values")
    return out


def svd(op: LinearOperator, tol: float = 1e-12) -> SvdDecomposition:
    """Weighted SVD: op(phi_j) = mu_j psi_j with orthonormal phi on the domain
    and psi on the codomain.

    Values at or below ``tol * mu_1`` are reported as numerically zero by the
    decomposition but are retained in the spectrum.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    u, s, vt = _weighted_svd(op, compute_uv=True)
    right = vt.T / np.sqrt(op.domain.weights)[:, None]
    left = u / np.sqrt(op.codomain.weights)[:, None]
    return SvdDecomposition(
        s,
        OrthonormalBasis.from_matrix(right, op.domain, check=False),
        OrthonormalBasis.from_matrix(left, op.codomain, check=False),
        tol=tol,
    )


def singular_values(op: LinearOperator | OperatorStack) -> np.ndarray:
    """Weighted singular values of ``op``, nonincreasing: the values-only
    mode of :func:`svd`, which skips the singular functions.  A stack gets
    one row of values per operator, from one stacked LAPACK call."""
    return _weighted_svd(op, compute_uv=False)


def hs_norm(op: LinearOperator) -> float:
    """Hilbert-Schmidt norm sqrt(sum_{s,t} w_s w_t K(s,t)^2)."""
    return float(
        np.sqrt(
            np.einsum(
                "s,t,st->", op.codomain.weights, op.domain.weights, op.entries**2
            )
        )
    )


def compose(outer: LinearOperator, inner_op: LinearOperator) -> LinearOperator:
    """Operator composition outer(inner_op(.))."""
    if not inner_op.codomain.same_as(outer.domain):
        raise GridMismatchError("composition spaces do not chain")
    kernel = outer.action_matrix() @ inner_op.entries
    return LinearOperator(kernel, inner_op.domain, outer.codomain)
