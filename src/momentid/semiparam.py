"""Partialling out the nonparametric direction of a semiparametric model.

The derivative of a map in (beta, g) splits into p parametric columns and a
linear operator in g.  Projecting the columns onto the closure of the
operator's range leaves a residual Gram matrix; when that matrix is
nonsingular, a computable constant eps bounds ||m'(alpha - alpha0)|| from
below by eps (|beta - beta0| + ||m'_g (g - g0)||), which is what makes beta
locally identifiable without identifying g.  The verification harnesses here
check those claims by direct sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import GridMismatchError
from .fnspace import (
    GridFunction,
    GridMeasure,
    OrthonormalBasis,
    inner,
    norm,
    project,
    weighted_norm,
)
from .identcore import (
    RESIDUAL_TOL,
    MomentMap,
    NonlinearityBound,
    _codomain_rows,
    accepted_draws,
    positivity_tol,
    rank_condition,
)
from .linop import (
    LinearOperator,
    SvdDecomposition,
    apply,
    singular_values,
    svd,
)


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


@dataclass(frozen=True)
class PartialOutReport:
    """Residual Gram matrix of the partialled-out parametric columns.

    eps1 = sqrt(lambda_min / 2) and eps = min(eps1/2, eps1/(2 c_star)) are the
    constants entering the lower bound; c_star is the measured projection
    size inflated ten percent and floored so eps1 / (sqrt(2) c_star) <= 1.
    ``decomposition`` is the weighted SVD of m_g the range was read from.
    """

    gram: np.ndarray
    zeta_star: tuple
    lambda_min: float
    eps1: float
    c_star: float
    eps: float
    range_tol: float
    range_basis: OrthonormalBasis
    tail_singular_mass: float
    decomposition: SvdDecomposition
    degenerate: bool


def partial_out(split: SplitDerivative, range_tol: float) -> PartialOutReport:
    """Project the parametric columns off the truncated range of m_g.

    The closure of the range is approximated by the left singular functions
    with singular value above range_tol times the largest; the discarded
    squared singular mass is reported so the truncation error is visible.  A
    fully degenerate m_g yields the zero subspace, projections zero and the
    plain Gram matrix of the columns, flagged but valid.
    """
    if range_tol <= 0:
        raise ValueError("range_tol must be positive")
    dec = svd(split.m_g)
    mu = dec.singular_values
    keep = mu > range_tol * mu[0] if mu[0] > 0 else np.zeros(mu.size, dtype=bool)
    tail_mass = float(np.sum(mu[~keep] ** 2))
    degenerate = not bool(keep.any())
    range_basis = OrthonormalBasis(
        dec.left_functions.matrix()[:, keep], split.m_g.codomain, check=False
    )
    zeta = tuple(project(col, range_basis) for col in split.m_beta)
    resid = [col - z for col, z in zip(split.m_beta, zeta)]
    p = split.p
    gram = np.empty((p, p))
    for j in range(p):
        for k in range(j, p):
            gram[j, k] = gram[k, j] = inner(resid[j], resid[k])
    lam_min = max(float(np.linalg.eigvalsh(gram)[0]), 0.0)
    eps1 = math.sqrt(lam_min / 2.0)
    c_star = 1.1 * math.sqrt(sum(norm(z) ** 2 for z in zeta))
    c_star = max(c_star, eps1 / math.sqrt(2.0))
    eps = eps1 / 2.0 if c_star == 0.0 else min(eps1 / 2.0, eps1 / (2.0 * c_star))
    return PartialOutReport(
        gram=gram,
        zeta_star=zeta,
        lambda_min=lam_min,
        eps1=eps1,
        c_star=c_star,
        eps=eps,
        range_tol=range_tol,
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
    floating slack.
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
    min_ratio = float((ratios[live] / denom[live]).min()) if live.any() else math.inf
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
    g_norm: Callable[[GridFunction], float] | None = None

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
        row = np.concatenate([np.atleast_1d(beta), g.values])
        (m_val,) = self.eval_stack([row])
        return GridFunction(m_val, self.split.m_g.codomain)

    def eval_stack(self, rows: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """Codomain value rows of m at each of ``rows``, in order."""
        return _codomain_rows(self.eval_rows, self.split.m_g.codomain, rows)

    def g_norm_of(self, f: GridFunction) -> float:
        return norm(f) if self.g_norm is None else float(self.g_norm(f))

    def to_moment_map(self) -> MomentMap:
        """The same map, and the same ``eval_rows``, as a ``MomentMap`` on the
        stacked (beta, g) grid, so the generic map tools apply.

        The beta coordinates get unit weights at sentinel support points below
        the g grid; the stacked weighted norm is then the product norm
        sqrt(|beta - beta0|^2 + ||g - g0||^2).
        """
        g_mu = self.g0.measure
        if g_mu.dim != 1:
            raise ValueError("stacking requires a 1-d nonparametric grid")
        p = self.split.p
        lo = float(g_mu.points.min())
        span = max(float(np.ptp(g_mu.points)), 1.0)
        sentinels = lo - span * (np.arange(p, dtype=float) + 1.0)
        pts = np.concatenate([sentinels[::-1], g_mu.coords()])
        wts = np.concatenate([np.ones(p), g_mu.weights])
        stacked_mu = GridMeasure(pts, wts)
        kernel = np.hstack([self.split.beta_matrix(), self.split.m_g.entries])
        derivative = LinearOperator(kernel, stacked_mu, self.split.m_g.codomain)
        base = GridFunction(np.concatenate([self.beta0, self.g0.values]),
                            stacked_mu)
        return MomentMap(
            base_point=base, eval_rows=self.eval_rows, derivative=derivative,
        )


def _m_norms(model: SemiparametricMap, points: Iterable) -> list[float]:
    """||m(beta, g0 + d)|| at each (beta, d) of ``points``, in order."""
    w = model.split.m_g.codomain.weights
    rows = (np.concatenate([beta, model.g0.values + d.values])
            for beta, d in points)
    return [weighted_norm(m_val, w) for m_val in model.eval_stack(rows)]


def linearity_in_g_check(model: SemiparametricMap, seed: int = 0) -> float:
    """Largest relative additivity/homogeneity defect of g -> m(beta0, g)
    over four random pairs of directions, all drawn before m is evaluated."""
    rng = np.random.default_rng(seed)
    g0 = model.g0.values
    coefs, gs = [], [g0]
    for _ in range(4):
        d1, d2 = rng.standard_normal(g0.size), rng.standard_normal(g0.size)
        a, b = rng.uniform(-2, 2, size=2)
        coefs.append((a, b))
        gs += [g0 + d1 * a + d2 * b, g0 + d1, g0 + d2]
    m0, *m = model.eval_stack(np.concatenate([model.beta0, g]) for g in gs)
    w = model.split.m_g.codomain.weights
    worst = 0.0
    for (a, b), lhs, r1, r2 in zip(coefs, m[0::3], m[1::3], m[2::3]):
        rhs = (r1 - m0) * a + (r2 - m0) * b
        scale = max(weighted_norm(rhs, w), 1e-12)
        worst = max(worst, weighted_norm(lhs - m0 - rhs, w) / scale)
    return worst


@dataclass
class SemiparamIdReport:
    pi_nonsingular: bool
    samples: int
    passes: int
    failures: int
    min_m_norm: float
    full_local_id: bool
    g_rank_holds: bool
    partial: PartialOutReport
    pos_tol: float

    @property
    def all_passed(self) -> bool:
        return self.pi_nonsingular and self.failures == 0


def _sample_g_deviation(
    rng: np.random.Generator, dec, g_radius: float, g_norm_of
) -> GridFunction:
    mu = dec.right_functions.measure
    raw = rng.standard_normal(mu.size) * 0.7 ** np.arange(mu.size)
    g = GridFunction(dec.right_functions.matrix() @ raw, mu)
    scale = g_norm_of(g)
    if scale == 0.0:
        return g
    return (rng.uniform(0.05, 1.0) * g_radius / scale) * g


def _sample_beta(
    rng: np.random.Generator, model: SemiparametricMap, beta_radius: float
) -> np.ndarray:
    direction = rng.standard_normal(model.split.p)
    direction /= np.linalg.norm(direction)
    return model.beta0 + rng.uniform(0.05, 1.0) * beta_radius * direction


def _gram_gate(
    model: SemiparametricMap, pos_tol: float | None
) -> SemiparamIdReport:
    """Partial out m_g and gate on the Gram matrix, for both harnesses.

    The range of m_g keeps the singular values above 1e-12 times the
    largest.  A Gram matrix whose smallest eigenvalue is at most 1e-10
    times the unpartialled column scale gives the final no-claim report;
    otherwise the report carries the partial-out result and the positivity
    tolerance, with nothing sampled yet.
    """
    report = partial_out(model.split, 1e-12)
    # gate against the unpartialled column scale: a fully absorbed column
    # leaves only projection dust in the Gram matrix
    scale = sum(norm(c) ** 2 for c in model.split.m_beta)
    no_claim = SemiparamIdReport(
        pi_nonsingular=False, samples=0, passes=0, failures=0,
        min_m_norm=math.nan, full_local_id=False, g_rank_holds=False,
        partial=report, pos_tol=math.nan,
    )
    if report.lambda_min <= 1e-10 * max(scale, 1e-300):
        return no_claim
    if pos_tol is None:
        stacked = model.to_moment_map().derivative
        pos_tol = positivity_tol(singular_values(stacked)[0])
    return replace(no_claim, pi_nonsingular=True, pos_tol=pos_tol)


def _tallied(
    gate: SemiparamIdReport, m_norms: list[float], samples: int, **flags
) -> SemiparamIdReport:
    """The gate's report with the pass/fail tally of the sampled ||m||."""
    passes = sum(m_n > gate.pos_tol for m_n in m_norms)
    return replace(
        gate,
        samples=samples,
        passes=passes,
        failures=len(m_norms) - passes,
        min_m_norm=min(m_norms, default=math.inf),
        **flags,
    )


def verify_semiparam_linear(
    model: SemiparametricMap,
    beta_radius: float,
    g_radius: float,
    samples: int,
    seed: int,
    pos_tol: float | None = None,
) -> SemiparamIdReport:
    """Sampling harness for parametric identification with g linear.

    Requires linearity of g -> m(beta0, g); checks that every sampled
    (beta, g) with beta != beta0 in the product neighborhood keeps
    ||m(beta, g)|| above numerical zero.  When the rank condition for m_g
    also holds at tolerance 1e-10, samples with beta = beta0 and g != g0
    are asserted nonzero too, upgrading the claim to full local
    identification.  With a singular Gram matrix the precondition gate
    fails and no claim is made.
    """
    defect = linearity_in_g_check(model, seed=seed)
    if defect > 1e-9:
        raise ValueError(
            f"m(beta0, .) is not linear in g (defect {defect:.2e}); "
            "use verify_semiparam_nonlinear with a curvature bound"
        )
    gate = _gram_gate(model, pos_tol)
    if not gate.pi_nonsingular:
        return gate
    rng = np.random.default_rng(seed)
    dec = gate.partial.decomposition
    g_rank = rank_condition(model.split.m_g, 1e-10)
    # the draws come first, the map's evaluations after them in chunks
    points = [
        (_sample_beta(rng, model, beta_radius),
         _sample_g_deviation(rng, dec, g_radius, model.g_norm_of))
        for _ in range(samples)
    ]
    if g_rank.holds:
        for _ in range(samples):
            g_dev = _sample_g_deviation(rng, dec, g_radius, model.g_norm_of)
            if model.g_norm_of(g_dev) != 0.0:
                points.append((model.beta0, g_dev))
    m_norms = _m_norms(model, points)
    full_ok = bool(g_rank.holds) and all(
        m_n > gate.pos_tol for m_n in m_norms[samples:])
    return _tallied(gate, m_norms, samples * (2 if g_rank.holds else 1),
                    full_local_id=full_ok, g_rank_holds=bool(g_rank.holds))


def verify_semiparam_nonlinear(
    model: SemiparametricMap,
    bound: NonlinearityBound,
    beta_radius: float,
    samples: int,
    seed: int,
    g_radius: float | None = None,
    budget_factor: int = 200,
) -> SemiparamIdReport:
    """Like the linear harness, but g-deviations are restricted by rejection
    to the curvature-adjusted identification set
    ||m_g d|| > (L / eps) ||d||^r with eps from the partialled-out report.

    With L = 0 the restriction is vacuous and the behavior reduces to the
    linear harness.  An exhausted rejection budget raises
    EmptyNeighborhoodError, which usually means the threshold is too strict
    for the sampled decay profile.
    """
    gate = _gram_gate(model, None)
    if not gate.pi_nonsingular:
        return gate
    if g_radius is None:
        g_radius = bound.radius if math.isfinite(bound.radius) else 1.0
    rng = np.random.default_rng(seed)
    dec = gate.partial.decomposition
    # the curvature-adjusted set is the identification set of L / eps
    adjusted = replace(bound, L=bound.L / gate.partial.eps)

    def draw():
        g_dev = _sample_g_deviation(rng, dec, g_radius, model.g_norm_of)
        dn = model.g_norm_of(g_dev)
        if dn == 0.0 or not bound.contains_deviation(dn):
            return None
        if not adjusted.separates(norm(apply(model.split.m_g, g_dev)), dn):
            return None
        return g_dev

    # each accepted g-deviation's beta is drawn right after it
    points = [
        (_sample_beta(rng, model, beta_radius), g_dev)
        for _, g_dev in accepted_draws(
            draw, samples, budget_factor, "g-deviations",
            f"threshold (L/eps) = {adjusted.L:.3e} may be too strict",
        )
    ]
    return _tallied(gate, _m_norms(model, points), samples)
