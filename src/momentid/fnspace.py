"""Weighted-grid Hilbert spaces.

A function space here is a finite grid of support points together with
positive quadrature weights.  Inner products are plain weighted sums, so
every L2 computation in the package reduces to dense linear algebra on
values tabulated at the grid nodes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import GridMismatchError

DEFAULT_ORTHO_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GridMeasure:
    """Discrete measure: support points (1-d or 2-d) plus positive weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] not in (1, 2):
            raise ValueError("points must be 1-d or 2-d vectors")
        if w.shape != (pts.shape[0],):
            raise GridMismatchError(
                f"weights shape {w.shape} does not match {pts.shape[0]} points"
            )
        if not np.isfinite(pts).all() or not np.isfinite(w).all():
            raise ValueError("points and weights must be finite")
        if (w <= 0).any():
            raise ValueError("all weights must be positive")
        order = np.lexsort(pts.T)
        if pts.shape[0] > 1 and (
            np.diff(pts[order], axis=0) == 0.0
        ).all(axis=1).any():
            raise ValueError("support points must be pairwise distinct")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def is_probability(self) -> bool:
        return abs(float(self.weights.sum()) - 1.0) <= 1e-12

    @cached_property
    def axis_sizes(self) -> tuple[int, ...]:
        """Number of distinct values on each coordinate axis."""
        # steps between sorted values; np.unique would import numpy.ma
        steps = np.diff(np.sort(self.points, axis=0), axis=0)
        return tuple(((steps != 0.0).sum(axis=0) + (self.size > 0)).tolist())

    def coords(self) -> np.ndarray:
        return self.points[:, 0]

    @staticmethod
    def uniform(n: int, a: float = 0.0, b: float = 1.0) -> "GridMeasure":
        """Midpoint grid on [a, b] with equal weights summing to b - a."""
        h = (b - a) / n
        pts = a + h * (np.arange(n) + 0.5)
        return GridMeasure(pts, np.full(n, h))

    @staticmethod
    def from_density(
        points: Sequence[float], density: Sequence[float]
    ) -> "GridMeasure":
        """Probability measure with trapezoid quadrature times a density."""
        quad = trapezoid_weights(points)
        d = np.asarray(density, dtype=float)
        if (d <= 0).any():
            raise ValueError("density must be strictly positive on the grid")
        w = quad * d
        return GridMeasure(points, w / w.sum())

    @staticmethod
    def tensor(mx: "GridMeasure", my: "GridMeasure") -> "GridMeasure":
        """Tensor product of two 1-d measures; first factor varies slowest."""
        if mx.dim != 1 or my.dim != 1:
            raise ValueError("tensor products are built from 1-d measures")
        px, py = np.meshgrid(mx.coords(), my.coords(), indexing="ij")
        pts = np.column_stack([px.ravel(), py.ravel()])
        w = np.outer(mx.weights, my.weights).ravel()
        return GridMeasure(pts, w)

    def same_as(self, other: "GridMeasure") -> bool:
        if self is other:
            return True
        return (
            self.points.shape == other.points.shape
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
        )


def trapezoid_weights(points: Sequence[float]) -> np.ndarray:
    """Trapezoid-rule weights of a strictly increasing 1-d grid; the
    trapezoid measure is ``GridMeasure(points, trapezoid_weights(points))``."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise ValueError("trapezoid rule needs a sorted 1-d grid")
    if (np.diff(pts) <= 0).any():
        raise ValueError("trapezoid grid must be strictly increasing")
    w = np.empty_like(pts)
    w[1:-1] = (pts[2:] - pts[:-2]) / 2.0
    w[0] = (pts[1] - pts[0]) / 2.0
    w[-1] = (pts[-1] - pts[-2]) / 2.0
    if not np.isfinite(w).all():
        raise ValueError("points and weights must be finite")
    return w


@dataclass(frozen=True)
class GridFunction:
    """Real values tabulated at the nodes of a grid measure."""

    values: np.ndarray
    measure: GridMeasure

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.shape != (self.measure.size,):
            raise GridMismatchError(
                f"values shape {v.shape} does not match a "
                f"{self.measure.size}-point measure"
            )
        if not np.isfinite(v).all():
            raise ValueError("function values must be finite")
        object.__setattr__(self, "values", _readonly(v))

    @staticmethod
    def constant(measure: GridMeasure, c: float) -> "GridFunction":
        return GridFunction(np.full(measure.size, float(c)), measure)

    @staticmethod
    def zero(measure: GridMeasure) -> "GridFunction":
        return GridFunction.constant(measure, 0.0)

    def _check(self, other: "GridFunction") -> None:
        if not self.measure.same_as(other.measure):
            raise GridMismatchError("grid functions live on different measures")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.values + other.values, self.measure)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.values - other.values, self.measure)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.values * float(c), self.measure)

    __rmul__ = __mul__


@dataclass(frozen=True)
class FunctionStack:
    """Grid functions on one measure, their values stacked: ``values[b]``
    is function b.  The stack holds at least one function and is checked as
    a whole, with the checks of :class:`GridFunction`; its values are
    read-only."""

    values: np.ndarray
    measure: GridMeasure

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise GridMismatchError(
                f"a function stack needs a 2-d (functions, nodes) array, "
                f"got shape {v.shape}"
            )
        if v.shape[0] == 0:
            raise ValueError("a function stack needs at least one function")
        if v.shape[1] != self.measure.size:
            raise GridMismatchError(
                f"values shape {v.shape} does not match a "
                f"{self.measure.size}-point measure"
            )
        if not np.isfinite(v).all():
            raise ValueError("function values must be finite")
        object.__setattr__(self, "values", _readonly(v))

    def __len__(self) -> int:
        return self.values.shape[0]


def inner(f: GridFunction, g: GridFunction) -> float:
    """Weighted inner product sum_i w_i f_i g_i."""
    f._check(g)
    return float(np.dot(f.measure.weights, f.values * g.values))


def norm(f: GridFunction) -> float:
    return weighted_norm(f.values, f.measure.weights)


def weighted_norm(values: np.ndarray, weights: np.ndarray) -> float:
    """Weighted L2 norm of a row of node values: :func:`norm` without the
    grid function, for callers that hold stacks of validated rows."""
    return float(np.sqrt(np.dot(weights, values**2)))


def weighted_norms(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """:func:`weighted_norm` of each row of a (B, n) stack.  Each row takes
    one dot product, as :func:`weighted_norm` does, so each norm has its
    bits; a matrix product across the rows would not."""
    return np.sqrt(np.matmul((rows * rows)[:, None, :], weights[:, None]))[:, 0, 0]


@dataclass(frozen=True, init=False, eq=False)
class OrthonormalBasis:
    """Ordered family of grid functions, pairwise orthonormal under the measure.

    Built from its node-by-element matrix: element j takes the values
    ``mat[:, j]`` at the nodes.  The basis keeps a read-only copy of the
    matrix and builds element grid functions from its columns on demand.
    It may have no elements.  ``check=False`` skips the orthonormality
    test, for columns orthonormal by construction (singular functions).
    """

    measure: GridMeasure
    _mat: np.ndarray

    def __init__(self, mat: np.ndarray, measure: GridMeasure,
                 check: bool = True):
        mat = np.array(mat, dtype=float, order="C")
        if mat.ndim != 2 or mat.shape[0] != measure.size:
            raise GridMismatchError(
                f"basis matrix shape {mat.shape} does not fit a "
                f"{measure.size}-point measure"
            )
        if not np.isfinite(mat).all():
            raise ValueError("basis values must be finite")
        mat.flags.writeable = False
        object.__setattr__(self, "_mat", mat)
        object.__setattr__(self, "measure", measure)
        k = mat.shape[1]
        if check and k:
            gram = (mat * measure.weights[:, None]).T @ mat
            if not np.allclose(gram, np.eye(k), rtol=0, atol=DEFAULT_ORTHO_TOL):
                worst = np.abs(gram - np.eye(k)).max()
                raise ValueError(
                    f"family is not orthonormal (worst Gram defect {worst:.2e})"
                )

    def __len__(self) -> int:
        return self._mat.shape[1]

    def __getitem__(self, j: int) -> GridFunction:
        return GridFunction(self._mat[:, operator.index(j)], self.measure)

    def __iter__(self) -> Iterator[GridFunction]:
        return (self[j] for j in range(len(self)))

    def matrix(self) -> np.ndarray:
        """Node-by-element array of basis values (read-only, shared)."""
        return self._mat


def project(f: GridFunction, basis: OrthonormalBasis) -> GridFunction:
    """Orthogonal projection of f onto the span of the basis."""
    if len(basis) == 0:
        return GridFunction.zero(f.measure)
    return GridFunction(basis.matrix() @ fourier_coeffs(f, basis), f.measure)


def fourier_coeffs(f: GridFunction, basis: OrthonormalBasis) -> np.ndarray:
    """Coefficients <f, u_j> against an orthonormal basis."""
    if not f.measure.same_as(basis.measure):
        raise GridMismatchError("function and basis live on different measures")
    mat = basis.matrix()
    return (mat * basis.measure.weights[:, None]).T @ f.values


def cosine_basis(measure: GridMeasure, n_funcs: int) -> OrthonormalBasis:
    """Discrete cosine family, exactly orthonormal on a uniform midpoint grid.

    The first element is the constant function; element j is
    sqrt(2) cos(j pi t) evaluated at the midpoint parameters t = (i+1/2)/n.
    """
    if measure.dim != 1:
        raise ValueError("cosine basis requires a 1-d measure")
    n = measure.size
    if n_funcs < 1:
        raise ValueError("cosine basis needs at least one function")
    if n_funcs > n:
        raise ValueError("cannot build more basis functions than grid points")
    if np.ptp(measure.weights) > 1e-14 * measure.weights[0]:
        raise ValueError("cosine basis requires uniform weights")
    wsum = measure.weights.sum()
    t = (np.arange(n) + 0.5) / n
    mat = np.empty((n, n_funcs))
    for j in range(n_funcs):
        if j == 0:
            mat[:, j] = 1.0 / np.sqrt(wsum)
        else:
            mat[:, j] = np.sqrt(2.0 / wsum) * np.cos(j * np.pi * t)
    return OrthonormalBasis(mat, measure)

