"""Single-index model with endogeneity on tabulated Gaussian designs.

The outcome is a smooth link of a linear index plus noise that is mean
independent of the instruments.  The nonparametric direction is the link
function of the index, so partialling it out asks whether the parametric
derivative columns escape the closure of {E[h(V) | W]}.  The diagnosis
couples two discrete proxies: injectivity of b(W) -> E[b(W) | V] (the
completeness of W given V) and singularity of the partialled-out Gram
matrix.  Nonsingularity together with completeness is impossible, and the
harness treats that as a hard invariant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import GridMismatchError
from ..fnspace import GridFunction, GridMeasure, trapezoid_weights
from ..identcore import rank_condition
from ..linop import apply, conditional_expectation
from ..semiparam import SplitDerivative, gram_singular, partial_out


@dataclass(frozen=True)
class SingleIndexModel:
    """Tabulated design for the index model.

    ``joint_ratio`` is the joint mass of (V, W) relative to the product of
    the two probability measures.  ``x2`` holds the instrument-measurable
    regressor values, one row per W node.  The link ``g0`` and its
    derivative ``g0_prime`` are callables; the split derivative reads
    ``g0_prime`` on the index grid alone.
    """

    beta0: np.ndarray
    v_measure: GridMeasure
    w_measure: GridMeasure
    joint_ratio: np.ndarray
    x2: np.ndarray
    g0: Callable
    g0_prime: Callable

    def __post_init__(self):
        b0 = np.atleast_1d(np.asarray(self.beta0, dtype=float))
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
        x2 = np.atleast_2d(np.asarray(self.x2, dtype=float))
        if x2.shape != (self.w_measure.size, b0.size):
            raise GridMismatchError("x2 must be (n_w, p)")
        if not np.isfinite(x2).all():
            raise ValueError("x2 table must be finite")
        gp = np.asarray(self.g0_prime(self.v_measure.coords()), dtype=float)
        if not np.isfinite(gp).all():
            raise ValueError("g0_prime must be finite on the index grid")
        object.__setattr__(self, "beta0", b0)
        object.__setattr__(self, "joint_ratio", ratio)
        object.__setattr__(self, "x2", x2)
        # the split derivative reads g0' here rather than evaluating it again
        object.__setattr__(self, "_g0_prime_values", gp)

    @property
    def p(self) -> int:
        return self.beta0.size


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
    u = apply(cond, GridFunction(model._g0_prime_values, mv)).values
    m_g = -1.0 * cond
    m_beta = tuple(
        GridFunction(-model.x2[:, k] * u, mw) for k in range(model.p)
    )
    return SplitDerivative(m_beta=m_beta, m_g=m_g)


@dataclass(frozen=True)
class IndexDiagnosis:
    """Outcome of ``diagnose_single_index``.

    ``sigma_min_ratio`` is sigma_min / sigma_max of the completeness proxy
    operator as ``rank_condition`` reports them: 0.0 when the instrument
    grid is larger than the index grid, since such an operator is never
    injective, and 0.0 for the zero operator.  ``w_given_v_complete`` holds
    when the ratio is above ``identcore.RANK_CUTOFF``.  ``gram_ratio`` is
    that of ``partial_out``, which ``pi_singular`` reads through
    ``gram_singular``; it is the one scale-free reading of the partialled
    Gram matrix, whose own smallest eigenvalue and trace are both roundoff
    where m_g absorbs the columns.
    """

    w_given_v_complete: bool
    pi_singular: bool
    consistent: bool
    sigma_min_ratio: float
    gram_ratio: float


def _subsample_indices(n: int, target: int) -> np.ndarray:
    if n <= target:
        return np.arange(n)
    # the nodes are more than one apart, so their rounded values are
    # distinct and increasing: no deduplication (np.unique) is needed
    return np.linspace(0, n - 1, target).round().astype(int)


def _subgrid(mu: GridMeasure, idx: np.ndarray) -> GridMeasure:
    """The nodes ``idx`` of ``mu`` with their weights renormalized to one,
    memoised on ``mu`` itself, so designs that share a grid share it."""
    memo = vars(mu).setdefault("_subgrids", {})
    key = idx.tobytes()
    if key not in memo:
        w = mu.weights[idx]
        memo[key] = GridMeasure(mu.points[idx], w / w.sum())
    return memo[key]


def diagnose_single_index(model: SingleIndexModel) -> IndexDiagnosis:
    """Joint completeness / Gram-singularity diagnosis of the index design.

    The completeness proxy reads ``rank_condition`` of b(W) -> E[b(W)|V],
    at the rank rule that also cuts m_g's range in ``partial_out``, on a
    coarse subsample of the grids, at most 12 index nodes and 12^d
    instrument nodes for a d-dimensional instrument; truncated injectivity
    is only meaningful near the operator's numerical rank, and the
    structural question (scalar instrument versus richer instrument) is
    already visible at desk resolution.  A domain larger than the codomain
    can never be injective, so two-dimensional instrument grids fail the
    proxy by dimension count.  The Gram matrix is ``partial_out``'s on the
    full grids, and ``gram_singular`` reads whether it is singular.
    ``consistent`` is the contrapositive gate: completeness and a
    nonsingular Gram matrix must never hold together.
    """
    supported = np.flatnonzero(model.joint_ratio.max(axis=1) > 0)
    iv = supported[_subsample_indices(supported.size, 12)]
    iw = _subsample_indices(model.w_measure.size, 12**model.w_measure.dim)
    sub_v = _subgrid(model.v_measure, iv)
    sub_w = _subgrid(model.w_measure, iw)
    sub_joint = model.joint_ratio[np.ix_(iv, iw)]
    # renormalize so the subsampled table is again a joint mass ratio
    sub_joint = sub_joint / (sub_v.weights @ sub_joint)[None, :]
    w_to_v = conditional_expectation(sub_joint.T, sub_w, sub_v)
    rank = rank_condition(w_to_v)
    ratio = rank.sigma_min / rank.sigma_max if rank.sigma_max > 0 else 0.0

    report = partial_out(index_split(model))
    pi_singular = gram_singular(report.gram_ratio)
    return IndexDiagnosis(
        w_given_v_complete=rank.holds, pi_singular=pi_singular,
        consistent=not (rank.holds and not pi_singular),
        sigma_min_ratio=ratio, gram_ratio=report.gram_ratio)


def _phi(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)


# typed, so that n_v=41.0 still reaches np.linspace and raises there
@functools.lru_cache(maxsize=8, typed=True)
def _index_grids(w_dim, n_v, n_w, span, v_pad, proportional_c):
    """The rho- and link-free part of ``gaussian_index_design``: the index
    grid, its trapezoid weights, the index and instrument measures, the
    index as a function of the instrument, and the regressors x2.  The
    arrays are read-only, so every design built at one key shares them."""
    # the index grid reaches v_pad past the span; the padded nodes carry no
    # index mass, and the shipped designs' grids keep them
    vg = np.linspace(-span - v_pad, span + v_pad, n_v)
    v_measure = GridMeasure.from_density(vg, _phi(vg))
    quad_v = trapezoid_weights(vg)
    wg = np.linspace(-span, span, n_w)
    if w_dim == 1:
        w_measure = GridMeasure.from_density(wg, _phi(wg))
        index_of_w = wg
        x2 = np.column_stack([wg, proportional_c * wg])
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
    rho: float = 0.5,
    w_dim: int = 1,
    n_v: int = 41,
    n_w: int = 21,
    span: float = 3.5,
    v_pad: float = 1.0,
    link: str = "softplus",
    loading: float = 0.6,
    proportional_c: float = 0.7,
) -> SingleIndexModel:
    """Jointly Gaussian index design with instrument-measurable regressors.

    With a scalar instrument the regressors load proportionally on one
    transform of W (the fully absorbed case); with a two-dimensional
    instrument each regressor loads on its own coordinate while the index
    depends only on the average, which is the exclusion structure that makes
    the partialled-out Gram matrix nonsingular.  Designs built with the
    same grid arguments share their measures and ``x2``, which are
    read-only.
    """
    if w_dim not in (1, 2):
        raise ValueError("w_dim must be 1 or 2")
    if not 0 < abs(rho) < 1:
        raise ValueError("rho must lie in (-1, 0) or (0, 1)")

    vg, quad_v, v_measure, w_measure, index_of_w, x2 = _index_grids(
        w_dim, n_v, n_w, span, v_pad, proportional_c
    )
    s = math.sqrt(1 - rho * rho)
    cond = _phi((vg[:, None] - rho * index_of_w[None, :]) / s) / s
    cond[np.abs(vg) > span] = 0.0  # index mass stays off the padded edges
    cond_mass = quad_v[:, None] * cond
    cond_mass /= cond_mass.sum(axis=0, keepdims=True)
    joint_ratio = cond_mass / v_measure.weights[:, None]

    if link == "softplus":
        g0 = lambda v: np.logaddexp(0.0, v)  # noqa: E731
        g0p = lambda v: 1.0 / (1.0 + np.exp(-v))  # noqa: E731
    elif link == "sin":
        g0 = lambda v: v + 0.5 * np.sin(v)  # noqa: E731
        g0p = lambda v: 1.0 + 0.5 * np.cos(v)  # noqa: E731
    else:
        raise ValueError(f"unknown link {link!r}")

    p = 2
    beta0 = np.full(p, loading)
    return SingleIndexModel(
        beta0=beta0,
        v_measure=v_measure,
        w_measure=w_measure,
        joint_ratio=joint_ratio,
        x2=x2,
        g0=g0,
        g0_prime=g0p,
    )
