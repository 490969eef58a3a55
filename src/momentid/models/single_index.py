"""Single-index model with endogeneity on tabulated Gaussian designs.

The outcome is a smooth link of a linear index plus noise that is mean
independent of the instruments.  The nonparametric direction is the link
function of the index, so partialling it out asks whether the parametric
derivative columns escape the closure of {E[h(V) | W]}.  If W is complete
given V, that closure holds every function of W, the columns cannot escape,
and the partialled Gram matrix is singular.

A grid cannot test completeness (Canay, Santos & Shaikh 2013), so the
designs settle it.  With a scalar instrument, W given V is a Gaussian
location family, which is complete (Newey & Powell 2003): the Gram matrix
must read singular.  With a two-dimensional instrument the index law sees
only w1 + w2, so E[b(W) | V] vanishes for b = w1 - w2 and W is not
complete given V: the loadings keep the Gram matrix nonsingular.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import GridMismatchError
from ..fnspace import GridFunction, GridMeasure, trapezoid_weights
from ..linop import apply, conditional_expectation
from ..semiparam import PartialOutReport, SplitDerivative, partial_out


@dataclass(frozen=True)
class SingleIndexModel:
    """Tabulated design for the index model.

    ``joint_ratio`` is the joint mass of (V, W) relative to the product of
    the two probability measures.  ``x2`` holds the instrument-measurable
    regressor values, one row per W node and one column per index
    coefficient.  ``g0_prime`` holds the link's derivative at the index
    nodes, which is all of the link that the split derivative reads.
    """

    v_measure: GridMeasure
    w_measure: GridMeasure
    joint_ratio: np.ndarray
    x2: np.ndarray
    g0_prime: np.ndarray

    def __post_init__(self):
        ratio = np.asarray(self.joint_ratio, dtype=float)
        if ratio.shape != (self.v_measure.size, self.w_measure.size):
            raise GridMismatchError("joint_ratio must be (n_v, n_w)")
        if not np.isfinite(ratio).all():
            raise ValueError("joint_ratio table must be finite")
        if (ratio < 0).any():
            raise ValueError("joint mass ratios must be nonnegative")
        col = self.v_measure.weights @ ratio
        if np.abs(col - 1.0).max() > 1e-10:
            raise ValueError("joint_ratio columns must average to one")
        x2 = np.asarray(self.x2, dtype=float)
        if x2.ndim != 2 or x2.shape[0] != self.w_measure.size:
            raise GridMismatchError("x2 must be (n_w, p)")
        if not np.isfinite(x2).all():
            raise ValueError("x2 table must be finite")
        gp = np.asarray(self.g0_prime, dtype=float)
        if gp.shape != (self.v_measure.size,):
            raise GridMismatchError("g0_prime must be (n_v,)")
        if not np.isfinite(gp).all():
            raise ValueError("g0_prime must be finite on the index grid")
        object.__setattr__(self, "joint_ratio", ratio)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "g0_prime", gp)

    @property
    def p(self) -> int:
        return self.x2.shape[1]


def index_split(model: SingleIndexModel) -> SplitDerivative:
    """The split derivative of the index map at the truth, which
    ``diagnose_single_index`` partials out.

    The map integrates g0(v) - g(v + x2(w)^T (beta - beta0)) against the
    conditional mass of the index given each instrument value; its
    derivative splits into m_g h = -E[h(V)|W] and the columns
    -x2_k(w) E[g0'(V)|W=w].  Only the derivative is built.
    """
    mv, mw = model.v_measure, model.w_measure
    cond = conditional_expectation(model.joint_ratio, mv, mw)
    # E[g0'(V) | W], from the operator whose negative is m_g
    u = apply(cond, GridFunction(model.g0_prime, mv)).values
    m_g = -1.0 * cond
    m_beta = tuple(
        GridFunction(-model.x2[:, k] * u, mw) for k in range(model.p)
    )
    return SplitDerivative(m_beta=m_beta, m_g=m_g)


def diagnose_single_index(model: SingleIndexModel) -> PartialOutReport:
    """``partial_out`` of the design's split derivative.

    ``gram_singular`` of the report's ``gram_ratio`` reads whether m_g
    absorbs the parametric columns; the ratio is the one scale-free reading
    of the partialled Gram matrix, whose own smallest eigenvalue and trace
    are both roundoff where the columns are absorbed.  The module docstring
    says which designs must read singular, and why.
    """
    return partial_out(index_split(model))


def _phi(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)


# typed, so that n_v=41.0 still reaches np.linspace and raises there
@functools.lru_cache(maxsize=8, typed=True)
def _index_grids(w_dim, n_v, n_w):
    """The rho- and link-free part of ``gaussian_index_design``: the index
    grid, its trapezoid weights, the index and instrument measures, the
    index as a function of the instrument, and the regressors x2.  The
    arrays are read-only, so every design built at one key shares them."""
    span = 3.5  # both grids reach 3.5 standard deviations
    vg = np.linspace(-span, span, n_v)
    v_measure = GridMeasure.from_density(vg, _phi(vg))
    quad_v = trapezoid_weights(vg)
    wg = np.linspace(-span, span, n_w)
    if w_dim == 1:
        w_measure = GridMeasure.from_density(wg, _phi(wg))
        index_of_w = wg
        x2 = np.column_stack([wg, 0.7 * wg])
    else:
        axis = GridMeasure.from_density(wg, _phi(wg))
        w_measure = GridMeasure.tensor(axis, axis)
        w1 = w_measure.points[:, 0]
        w2 = w_measure.points[:, 1]
        index_of_w = (w1 + w2) / math.sqrt(2.0)
        # no nonzero combination of these loadings is a function of the
        # index alone, which is what keeps the partialled Gram nonsingular
        x2 = np.column_stack([w1, w2**2 - 1.0])
    for a in (vg, quad_v, index_of_w, x2):
        a.flags.writeable = False
    return vg, quad_v, v_measure, w_measure, index_of_w, x2


def gaussian_index_design(
    rho: float,
    w_dim: int,
    link: str,
    n_v: int = 41,
    n_w: int = 21,
) -> SingleIndexModel:
    """Jointly Gaussian index design with instrument-measurable regressors.

    With a scalar instrument the regressors load proportionally on one
    transform of W (the fully absorbed case); with a two-dimensional
    instrument each regressor loads on its own coordinate while the index
    depends only on the average, which is the exclusion structure that makes
    the partialled-out Gram matrix nonsingular.  The link is the softplus
    log(1 + e^v) or v + sin(v)/2.  Designs built with the same grid
    arguments share their measures and ``x2``, which are read-only.
    """
    if w_dim not in (1, 2):
        raise ValueError("w_dim must be 1 or 2")
    if not 0 < abs(rho) < 1:
        raise ValueError("rho must lie in (-1, 0) or (0, 1)")

    vg, quad_v, v_measure, w_measure, index_of_w, x2 = _index_grids(
        w_dim, n_v, n_w
    )
    s = math.sqrt(1 - rho * rho)
    cond = _phi((vg[:, None] - rho * index_of_w[None, :]) / s) / s
    cond_mass = quad_v[:, None] * cond
    cond_mass /= cond_mass.sum(axis=0, keepdims=True)
    joint_ratio = cond_mass / v_measure.weights[:, None]

    if link == "softplus":
        g0_prime = 1.0 / (1.0 + np.exp(-vg))
    elif link == "sin":
        g0_prime = 1.0 + 0.5 * np.cos(vg)
    else:
        raise ValueError(f"unknown link {link!r}")

    return SingleIndexModel(
        v_measure=v_measure,
        w_measure=w_measure,
        joint_ratio=joint_ratio,
        x2=x2,
        g0_prime=g0_prime,
    )
