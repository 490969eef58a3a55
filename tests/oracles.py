"""Reference implementations that only the tests read.

Each one restates a library quantity the slow, direct way, or wraps the
library for a check that no run makes: the source-condition ellipsoid,
the one-chunk cone classification, the Hilbert-Schmidt norm, the stacked
(beta, g) moment map of a semiparametric map, and the one-instance cone
membership.
"""

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from momentid.errors import GridMismatchError
from momentid.fnspace import GridFunction, GridMeasure, norm
from momentid.identcore import (
    ConeChunk,
    ConeChunkFlags,
    MomentMap,
    NonlinearityBound,
    classify_cones,
    cone_flags,
    measure_cone_chunk,
    zero_threshold,
)
from momentid.linop import LinearOperator, apply, singular_values
from momentid.semiparam import SemiparametricMap


def in_ellipsoid(
    b: Sequence[float], mu: Sequence[float], bound: NonlinearityBound
) -> bool:
    """Source-condition ellipsoid sum_j mu_j^(-2/(r-1)) b_j^2 < L^(-2/(r-1)).

    Membership implies membership of the corresponding deviation in the
    identification set for the same (L, r).  Requires r > 1 and L > 0.
    The sum runs over the nonzero b_j only, so a zero coefficient on a null
    direction (mu_j = 0) adds nothing; a nonzero one there is outside.
    """
    if bound.r <= 1 or bound.L <= 0:
        raise ValueError("the ellipsoid test requires r > 1 and L > 0")
    b = np.asarray(b, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if b.shape != mu.shape:
        raise GridMismatchError("coefficients and singular values differ in length")
    if not b.any():
        warnings.warn(
            "zero coefficients encode the center point itself, which the "
            "identification claim excludes",
            stacklevel=2,
        )
        return True
    live = b != 0.0
    if (mu[live] == 0.0).any():
        return False
    p = 2.0 / (bound.r - 1.0)
    # zeros stay in place, so the sum adds its terms in the same order
    terms = np.zeros_like(b)
    terms[live] = mu[live] ** (-p) * b[live] ** 2
    return float(np.sum(terms)) < bound.L ** (-p)


def evaluate_cone_chunk(chunk: ConeChunk, slack: float) -> ConeChunkFlags:
    """Classify every instance of a chunk against the four cone sets:
    ``measure_cone_chunk`` and then ``classify_cones`` on the one chunk."""
    measured = np.empty((4, chunk.eta.size))
    measure_cone_chunk(chunk, measured)
    return classify_cones(measured, slack)


def hs_norm(op: LinearOperator) -> float:
    """Hilbert-Schmidt norm sqrt(sum_{s,t} w_s w_t K(s,t)^2)."""
    return float(
        np.sqrt(
            np.einsum(
                "s,t,st->", op.codomain.weights, op.domain.weights, op.entries**2
            )
        )
    )


def stacked_derivative(smap: SemiparametricMap) -> LinearOperator:
    """The split derivative of ``smap`` as one operator on the stacked
    (beta, g) grid.

    The beta coordinates get unit weights at sentinel support points below
    the g grid; the stacked weighted norm is then the product norm
    sqrt(|beta - beta0|^2 + ||g - g0||^2).
    """
    g_mu = smap.g0.measure
    if g_mu.dim != 1:
        raise ValueError("stacking requires a 1-d nonparametric grid")
    p = smap.split.p
    lo = float(g_mu.points.min())
    span = max(float(np.ptp(g_mu.points)), 1.0)
    sentinels = lo - span * (np.arange(p, dtype=float) + 1.0)
    pts = np.concatenate([sentinels[::-1], g_mu.coords()])
    wts = np.concatenate([np.ones(p), g_mu.weights])
    kernel = np.hstack([smap.split.beta_matrix(), smap.split.m_g.entries])
    return LinearOperator(kernel, GridMeasure(pts, wts),
                          smap.split.m_g.codomain)


def to_moment_map(smap: SemiparametricMap) -> MomentMap:
    """The same map, and the same ``eval_rows``, as a ``MomentMap`` on the
    stacked (beta, g) grid of :func:`stacked_derivative`, so the generic
    map tools apply."""
    derivative = stacked_derivative(smap)
    base = GridFunction(np.concatenate([smap.beta0, smap.g0.values]),
                        derivative.domain)
    return MomentMap(
        base_point=base, eval_rows=smap.eval_rows, derivative=derivative,
    )


@dataclass(frozen=True)
class ConeMembership:
    """Membership flags for the four tangential-cone sets at one alpha."""

    in_n: bool
    in_nprime: bool
    in_n_eta: bool
    in_nprime_eta: bool
    eta: float
    m_norm: float
    linear_norm: float
    remainder_norm: float


def cone_classify(
    mmap: MomentMap, alpha: GridFunction, eta: float
) -> ConeMembership:
    """Evaluate the defining norms of the cone sets and set the four flags.

    The one-instance case of ``cone_flags``, with numerical zero set by
    the zero rule (``zero_threshold``) at the deviation alpha - alpha0.
    The membership carries the three norms the flags were read from.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    delta = alpha - mmap.base_point
    m_val = mmap.eval(alpha)
    lin = apply(mmap.derivative, delta)
    m_n = norm(m_val)
    lin_n = norm(lin)
    rem_n = norm(m_val - lin)
    zero = zero_threshold(singular_values(mmap.derivative)[0], norm(delta))
    return ConeMembership(
        *cone_flags(m_n, lin_n, rem_n, eta, zero),
        eta=eta,
        m_norm=m_n,
        linear_norm=lin_n,
        remainder_norm=rem_n,
    )
