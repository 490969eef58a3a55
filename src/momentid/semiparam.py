"""Partialling out the nonparametric direction of a semiparametric model.

The derivative of a map in (beta, g) splits into p parametric columns and a
linear operator in g.  Projecting the columns onto the closure of the
operator's range leaves a residual Gram matrix; when that matrix is
nonsingular, a computable constant eps bounds ||m'(alpha - alpha0)|| from
below by eps (|beta - beta0| + ||m'_g (g - g0)||), which is what makes beta
locally identifiable without identifying g.  ``split_lower_bound_check``
samples that lower bound on the split itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridMismatchError
from .fnspace import GridFunction, OrthonormalBasis, inner, norm, project
from .identcore import RESIDUAL_TOL, _eval_stack, resolved
from .linop import LinearOperator, SvdDecomposition, svd


@dataclass(frozen=True)
class SplitDerivative:
    """Parametric derivative columns plus the nonparametric derivative operator."""

    m_beta: tuple
    m_g: LinearOperator

    def __post_init__(self):
        cols = tuple(self.m_beta)
        if not cols:
            raise ValueError("the split needs at least one parametric column")
        for col in cols:
            if not col.measure.same_as(self.m_g.codomain):
                raise GridMismatchError(
                    "parametric columns must live on the codomain of m_g"
                )
        object.__setattr__(self, "m_beta", cols)

    @property
    def p(self) -> int:
        return len(self.m_beta)

    def beta_matrix(self) -> np.ndarray:
        return np.column_stack([c.values for c in self.m_beta])


# the largest gram_ratio of a singular partialled Gram matrix
GRAM_SINGULAR = 1e-6


def gram_singular(gram_ratio: float) -> bool:
    """The one Gram-singularity rule, on ``PartialOutReport.gram_ratio``."""
    return gram_ratio <= GRAM_SINGULAR


@dataclass(frozen=True)
class PartialOutReport:
    """Residual Gram matrix of the partialled-out parametric columns.

    eps1 = sqrt(lambda_min / 2) and eps = min(eps1/2, eps1/(2 c_star)) are the
    constants entering the lower bound; c_star is the measured projection
    size inflated ten percent and floored so eps1 / (sqrt(2) c_star) <= 1.
    ``gram_ratio`` = lambda_min / sum_j ||m_beta,j||^2 (0 for zero columns)
    is free of the scale of m, and ``gram_singular`` reads it: the Gram
    matrix's own trace is roundoff when m_g absorbs the columns.
    ``decomposition`` is the weighted SVD of m_g the range was read from.
    """

    gram: np.ndarray
    zeta_star: tuple
    lambda_min: float
    gram_ratio: float
    eps1: float
    c_star: float
    eps: float
    range_basis: OrthonormalBasis
    tail_singular_mass: float
    decomposition: SvdDecomposition
    degenerate: bool


def partial_out(split: SplitDerivative) -> PartialOutReport:
    """Project the parametric columns off the truncated range of m_g.

    The range's closure is approximated by the left singular functions of
    the singular values that ``identcore.resolved`` keeps, and the discarded
    squared singular mass is reported.  A zero m_g yields the zero subspace
    and the plain Gram matrix of the columns, flagged as degenerate.
    ``gram_singular(report.gram_ratio)`` reads whether G is singular.
    """
    dec = svd(split.m_g)
    mu = dec.singular_values
    keep = resolved(mu)  # none for a zero m_g
    tail_mass = float(np.sum(mu[~keep] ** 2))
    degenerate = not bool(keep.any())
    range_basis = OrthonormalBasis(
        dec.left_functions.matrix()[:, keep], split.m_g.codomain, check=False
    )
    zeta = tuple(project(col, range_basis) for col in split.m_beta)
    resid = [col - z for col, z in zip(split.m_beta, zeta)]
    gram = np.array([[inner(a, b) for b in resid] for a in resid])
    lam_min = max(float(np.linalg.eigvalsh(gram)[0]), 0.0)
    scale = sum(inner(col, col) for col in split.m_beta)
    eps1 = math.sqrt(lam_min / 2.0)
    c_star = 1.1 * math.sqrt(sum(norm(z) ** 2 for z in zeta))
    c_star = max(c_star, eps1 / math.sqrt(2.0))
    eps = eps1 / 2.0 if c_star == 0.0 else min(eps1 / 2.0, eps1 / (2.0 * c_star))
    return PartialOutReport(
        gram=gram,
        zeta_star=zeta,
        lambda_min=lam_min,
        gram_ratio=lam_min / scale if scale > 0 else 0.0,
        eps1=eps1,
        c_star=c_star,
        eps=eps,
        range_basis=range_basis,
        tail_singular_mass=tail_mass,
        decomposition=dec,
        degenerate=degenerate,
    )


def split_lower_bound_check(
    split: SplitDerivative,
    report: PartialOutReport,
    trials: int,
    seed: int,
) -> float:
    """Sample the lower bound ||b^T a + zeta|| >= eps (|a| + ||zeta||).

    Half of the draws build zeta from coefficients on the truncated range
    basis, half push random domain functions through m_g.  Returns the
    minimum observed ratio and raises if it undercuts report.eps beyond
    floating slack, or if no trial has a nonzero |a| + ||zeta||.
    """
    rng = np.random.default_rng(seed)
    p = split.p
    bmat = split.beta_matrix()
    w = split.m_g.codomain.weights
    k = len(report.range_basis)

    a_draws = rng.standard_normal((p, trials))
    a_draws[:, : max(trials // 20, 1)] = 0.0  # include pure-zeta cases
    half = trials // 2
    zeta_vals = np.zeros((split.m_g.codomain.size, trials))
    if k:
        coef = rng.standard_normal((k, half))
        zeta_vals[:, :half] = report.range_basis.matrix() @ coef
        zeta_norms_first = np.linalg.norm(coef, axis=0)
    else:
        zeta_norms_first = np.zeros(half)
    dvals = rng.standard_normal((split.m_g.domain.size, trials - half))
    dvals[:, : max((trials - half) // 20, 1)] = 0.0  # include pure-a cases
    zeta_vals[:, half:] = split.m_g.action_matrix() @ dvals
    zeta_norms = np.concatenate(
        [zeta_norms_first, np.sqrt(w @ zeta_vals[:, half:] ** 2)])
    denom = np.linalg.norm(a_draws, axis=0) + zeta_norms
    vals = bmat @ a_draws + zeta_vals
    ratios = np.sqrt(w @ vals**2)
    live = denom > 0
    if not live.any():  # trials = 1 draws only a = 0 and zeta = 0
        raise ValueError(f"no trial has a nonzero |a| + ||zeta|| at trials "
                         f"= {trials}: the bound was not checked")
    min_ratio = float((ratios[live] / denom[live]).min())
    if min_ratio < report.eps - 1e-10:
        raise RuntimeError(
            f"lower bound violated: min ratio {min_ratio:.3e} < eps "
            f"{report.eps:.3e}"
        )
    return min_ratio


@dataclass(frozen=True)
class SemiparametricMap:
    """Moment map over (beta, g) with its split derivative at the truth.

    ``eval_rows`` is the map under the ``MomentMap`` contract: a stack of
    (beta, g) rows (B, p + n_g), beta's p coordinates first and g's values
    on the domain grid of m_g after them, to the codomain rows of m.
    """

    beta0: np.ndarray
    g0: GridFunction
    eval_rows: Callable[[np.ndarray], np.ndarray]
    split: SplitDerivative

    def __post_init__(self):
        b0 = np.atleast_1d(np.asarray(self.beta0, dtype=float))
        if b0.size != self.split.p:
            raise GridMismatchError("beta0 length must match the split column count")
        object.__setattr__(self, "beta0", b0)
        if not self.g0.measure.same_as(self.split.m_g.domain):
            raise GridMismatchError("g0 must live on the domain of m_g")
        r0 = norm(self.eval(self.beta0, self.g0))
        if r0 > RESIDUAL_TOL:
            raise ValueError(f"map violates m(beta0, g0) = 0: residual {r0:.3e}")

    def eval(self, beta: np.ndarray, g: GridFunction) -> GridFunction:
        """m(beta, g), evaluated as a one-row stack."""
        if not g.measure.same_as(self.split.m_g.domain):
            raise GridMismatchError("g must live on the domain of m_g")
        row = np.concatenate([np.atleast_1d(beta), g.values])
        return GridFunction(self.eval_stack(row[None])[0],
                            self.split.m_g.codomain)

    def eval_stack(self, rows: np.ndarray) -> np.ndarray:
        """The (B, n_codomain) values of m at each row of a (B, p + n_g)
        stack of (beta, g) rows, ``EVAL_CHUNK`` rows per ``eval_rows``
        call."""
        return _eval_stack(self.eval_rows, self.split.m_g.codomain, rows)
