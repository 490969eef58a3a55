"""Semiparametric consumption-based asset pricing on a growth-state grid.

Marginal utility is a power function of the consumption level times an
unknown positive function of consumption growth, so the pricing restriction
is a conditional moment equation in (discount factor, curvature, g).  The
nonparametric direction solves a homogeneous second-kind equation: a
conditional expectation of g at the next state equals g at the current
state.  Conditioning that equation down to the current growth state turns it
into a positive-kernel eigenproblem whose unique positive eigenpair pins
down the discount factor and g up to scale; power iteration computes it and
a dense full-spectrum oracle certifies simplicity on desk-scale grids.

The synthetic design draws log growth as a Gaussian autoregression with an
observed signal about the next state, and defines the asset return as the
reciprocal price of a unit payoff under the model's own stochastic discount
factor, so the pricing equation holds on the grid to rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import ConvergenceError, GridMismatchError
from ..fnspace import (GridFunction, GridMeasure, inner, norm,
                       trapezoid_weights, weighted_norms)
from ..linop import LinearOperator, adjoint
from ..semiparam import SemiparametricMap, SplitDerivative


@dataclass(frozen=True)
class CcapmModel:
    """Discrete pricing design on growth states.

    ``cond_mass[s, i, j]`` is the probability of moving to growth state s
    given signal node i and current state j; columns sum to one exactly.
    ``returns`` holds the gross return, measurable with respect to the
    instruments (signal, current state).  ``g0`` is positive with unit norm
    under the stationary state measure.  ``window`` is the half width of the
    curvature interval on which the integrability envelope is valid.
    """

    delta0: float
    gamma0: float
    c_measure: GridMeasure
    omega_measure: GridMeasure
    cond_mass: np.ndarray
    returns: np.ndarray
    g0: GridFunction
    window: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.delta0 < 1.0:
            raise ValueError("the discount factor must lie in (0, 1)")
        if not np.isfinite(self.gamma0):
            raise ValueError("gamma0 must be finite")
        if not 0 < self.window < np.inf:  # False on NaN as well
            raise ValueError("the curvature window must be finite and positive")
        n_s = self.c_measure.size
        n_o = self.omega_measure.size
        p = np.asarray(self.cond_mass, dtype=float)
        if p.shape != (n_s, n_o, n_s):
            raise GridMismatchError("cond_mass must be (n_state, n_signal, n_state)")
        if not np.isfinite(p).all():
            raise ValueError("cond_mass table must be finite")
        if (p < 0).any():
            raise ValueError("transition masses must be nonnegative")
        if np.abs(p.sum(axis=0) - 1.0).max() > 1e-12:
            raise ValueError("transition masses must sum to one per column")
        r = np.asarray(self.returns, dtype=float)
        if r.shape != (n_o, n_s):
            raise GridMismatchError("returns must be (n_signal, n_state)")
        if not np.isfinite(r).all():
            raise ValueError("returns table must be finite")
        if (r <= 0).any():
            raise ValueError("gross returns must be positive")
        if (self.g0.values <= 0).any():
            raise ValueError("g0 must be strictly positive on the grid")
        if abs(norm(self.g0) - 1.0) > 1e-10:
            raise ValueError("g0 must have unit norm under the state measure")
        env = self.envelope()
        if env.min() < 1.0:
            raise ValueError(f"integrability envelope dips to {env.min():.4f} < 1")
        object.__setattr__(self, "cond_mass", p)
        object.__setattr__(self, "returns", r)

    @property
    def states(self) -> np.ndarray:
        return self.c_measure.coords()

    @property
    def w_measure(self) -> GridMeasure:
        return GridMeasure.tensor(self.omega_measure, self.c_measure)

    def discounted_returns(self) -> np.ndarray:
        """delta0 R s^(-gamma0) at the truth, per (next state, signal, state)."""
        return (self.delta0 * self.returns[None, :, :]
                * (self.states**(-self.gamma0))[:, None, None])

    def envelope(self) -> np.ndarray:
        """Dominating table (1 + R)(2 + ln(s)^2) sup_gamma s^(-gamma), per
        (next state, signal, state)."""
        s = self.states
        lo, hi = self.gamma0 - self.window, self.gamma0 + self.window
        sup_pow = np.where(s >= 1.0, s**(-lo), s**(-hi))
        return (
            (1.0 + self.returns)[None, :, :]
            * ((2.0 + np.log(s) ** 2) * sup_pow)[:, None, None]
        )


def ccapm_moment_map(model: CcapmModel) -> SemiparametricMap:
    """Pricing map over ((delta, gamma), g) with its split derivative.

    The map averages R delta s^(-gamma) g(s) over the transition mass given
    each instrument node and subtracts g at the current state, in one
    einsum per stack of rows.  The parametric columns are the derivative in
    (delta, gamma); the nonparametric operator is the conditional
    expectation minus evaluation at the current state.  Curvatures outside
    the envelope window raise: the dominating table is not valid there.
    """
    mw = model.w_measure
    mc = model.c_measure
    s = model.states
    n_s, n_o = mc.size, model.omega_measure.size
    p = model.cond_mass
    r = model.returns
    g0v = model.g0.values
    log_s = np.log(s)

    def eval_rows(rows: np.ndarray) -> np.ndarray:
        delta, gamma, g = rows[:, 0], rows[:, 1], rows[:, 2:]
        outside = np.abs(gamma - model.gamma0) > model.window
        if outside.any():
            raise ValueError(
                f"gamma = {gamma[outside.argmax()]:.4f} leaves the envelope "
                f"window [{model.gamma0 - model.window:.4f}, "
                f"{model.gamma0 + model.window:.4f}]"
            )
        if (delta <= 0).any():
            raise ValueError("the discount factor must be positive")
        priced = delta[:, None, None] * r * np.einsum(
            "soc,bs->boc", p, s ** (-gamma[:, None]) * g)
        return (priced - g[:, None, :]).reshape(len(rows), -1)

    a0 = model.discounted_returns()
    col_delta = np.einsum("soc,s->oc", p * a0, g0v) / model.delta0
    col_gamma = -np.einsum("soc,s->oc", p * a0, g0v * log_s)
    m_beta = (
        GridFunction(col_delta.ravel(), mw),
        GridFunction(col_gamma.ravel(), mw),
    )

    # conditional-expectation part: kernel against the state measure
    t1 = np.einsum("soc,soc->ocs", p, a0) / mc.weights[None, None, :]
    t1 = t1.reshape(n_o * n_s, n_s)
    t2 = np.tile(np.diag(1.0 / mc.weights), (n_o, 1))
    m_g = LinearOperator(t1 - t2, mc, mw)

    return SemiparametricMap(
        beta0=np.array([model.delta0, model.gamma0]),
        g0=model.g0,
        eval_rows=eval_rows,
        split=SplitDerivative(m_beta=m_beta, m_g=m_g),
    )


def build_pf_operator(model: CcapmModel) -> LinearOperator:
    """Positive-kernel operator of the state-conditioned pricing equation.

    Tg(c) = sum_s mass(s) K(c, s) g(s) with
    K(c, s) = rbar(c, s) s^(-gamma0) joint(s, c) / (mass(s) mass(c)), where
    rbar is the posterior mean return given the transition (c -> s) and
    joint is the signal-averaged transition mass times the state mass.
    """
    mo = model.omega_measure.weights
    mc = model.c_measure.weights
    s = model.states
    p_avg = np.einsum("o,soc->sc", mo, model.cond_mass)
    flow = np.einsum("o,soc,oc->sc", mo, model.cond_mass, model.returns)
    rbar = flow / p_avg
    kernel = (rbar * (s**(-model.gamma0))[:, None] * p_avg / mc[:, None]).T
    return LinearOperator(kernel, model.c_measure, model.c_measure)


@dataclass(frozen=True)
class EigenPair:
    """Leading positive eigenpair of a positive-kernel operator."""

    rho: float
    delta: float
    g: GridFunction
    dual: GridFunction
    residual: float
    gap: float
    iterations: int


def positive_eigenpair(
    op: LinearOperator,
    tol: float = 1e-12,
    max_iter: int = 10000,
) -> EigenPair:
    """Power iteration for the leading eigenpair of a positive operator.

    Starts from the constant function, normalizes in the weighted norm of
    the grid, and stops when ||Tg / rho - g|| falls below tol.  The dual
    eigenfunction comes from the adjoint; on grids of up to 256 nodes the
    full spectrum is computed densely and the gap |rho_2| / rho_1 certifies
    that the leading eigenvalue is simple.
    """
    if not 0 < tol < math.inf:  # False on NaN as well
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not op.domain.same_as(op.codomain):
        raise GridMismatchError("eigenproblem needs matching domain and codomain")
    if (op.entries <= 0).any():
        raise ValueError(
            "kernel must be strictly positive at every node pair for the "
            "positive-eigenpair guarantee"
        )
    w = op.domain.weights
    amat = op.action_matrix()

    def iterate(mat):
        v = np.ones(op.domain.size)
        v /= math.sqrt(np.dot(w, v * v))
        rho = math.nan
        res = math.inf
        for it in range(1, max_iter + 1):
            u = mat @ v
            rho = float(np.dot(w, u * v))
            res = float(np.sqrt(np.dot(w, (u / rho - v) ** 2)))
            v = u / math.sqrt(np.dot(w, u * u))
            if res <= tol:
                return rho, v, res, it
        raise ConvergenceError(
            f"power iteration residual {res:.3e} > tol {tol:.1e} after "
            f"{max_iter} iterations"
        )

    rho, v, res, iters = iterate(amat)
    if (v <= 0).any():
        raise ValueError("computed eigenfunction is not strictly positive")
    rho_d, dual, _, _ = iterate(adjoint(op).action_matrix())
    if abs(rho_d - rho) > 1e-8 * abs(rho):
        raise ConvergenceError(
            f"primal and dual eigenvalues disagree: {rho} vs {rho_d}"
        )
    gap = math.nan
    if op.domain.size <= 256:
        eigs = np.linalg.eigvals(amat)
        mags = np.sort(np.abs(eigs))[::-1]
        gap = float(mags[1] / mags[0]) if mags.size > 1 else 0.0
    g_fn = GridFunction(v, op.domain)
    dual_fn = GridFunction(dual, op.domain)
    if inner(dual_fn, g_fn) == 0.0:
        raise ValueError("dual pairing vanished; the eigenvalue may not be simple")
    return EigenPair(
        rho=rho,
        delta=1.0 / rho,
        g=g_fn,
        dual=dual_fn,
        residual=res,
        gap=gap,
        iterations=iters,
    )


def perron_frobenius(model: CcapmModel, tol: float = 1e-12) -> EigenPair:
    """Unique positive eigenpair of the model's state-conditioned operator."""
    return positive_eigenpair(build_pf_operator(model), tol=tol)


def fixed_state_completeness_operator(
    model: CcapmModel, state_index: int
) -> LinearOperator:
    """h(next state) -> E[A h | signal, state fixed at the given node]."""
    p = model.cond_mass[:, :, state_index]
    a0 = model.discounted_returns()[:, :, state_index]
    kernel = (p * a0).T / model.c_measure.weights[None, :]
    return LinearOperator(kernel, model.c_measure, model.omega_measure)


@dataclass
class GlobalIdReport:
    rows: list
    vacuous: bool
    violations: int


# Global screen tolerance: relative moment norm, delta, gamma, 1 - cosine.
GLOBAL_ID_TOL = 1e-8


def check_global_identification(
    smap: SemiparametricMap,
    candidates: Sequence[tuple[float, float, GridFunction]],
) -> GlobalIdReport:
    """Screen candidate (delta, gamma, g) triples against the pricing map.

    The truth is that of ``smap``, a ``ccapm_moment_map``: its beta0 is
    (delta0, gamma0) and its g0 lives on the growth states.  Candidates
    must live on that grid, the domain of m_g, and be bounded away from
    zero.  Those violating the moment equation are reported as
    non-solutions, which is informative, not a failure.
    Every candidate that does satisfy it must match the truth in delta and
    gamma and match g0 up to scale; an accepted pair also gets the
    ratio-identity check that states^(gamma - gamma0) times g0/g is constant.
    """
    tol, g0 = GLOBAL_ID_TOL, smap.g0
    delta0, gamma0 = smap.beta0.tolist()
    domain = smap.split.m_g.domain
    if not all(g.measure.same_as(domain) for _, _, g in candidates):
        raise GridMismatchError("candidate g must live on the domain of m_g")
    if any((g.values <= 0).any() for _, _, g in candidates):
        raise ValueError("candidate g must be bounded away from zero")
    # m at (beta0, 2 g0), which sets the scale, and at each candidate
    points = [(*smap.beta0, *(g0.values * 2.0))]
    points += [(delta, gamma, *g.values) for delta, gamma, g in candidates]
    scale, *m_norms = weighted_norms(smap.eval_stack(np.array(points)),
                                     smap.split.m_g.codomain.weights).tolist()
    rows = []
    for (delta, gamma, g), m_n in zip(candidates, m_norms):
        rows.append({"delta": delta, "gamma": gamma, "moment_norm": m_n,
                     "is_solution": m_n <= tol * (1.0 + scale)})
        if not rows[-1]["is_solution"]:
            continue
        cosine = inner(g, g0) / (norm(g) * norm(g0))
        ratio = g0.measure.coords() ** (gamma - gamma0) * g0.values / g.values
        spread = float(np.ptp(ratio) / np.abs(ratio).mean())
        rows[-1].update(
            gamma_ok=abs(gamma - gamma0) <= tol,
            delta_ok=abs(delta - delta0) <= tol,
            scale_ok=cosine >= 1.0 - tol,
            cosine=float(cosine),
            ratio_spread=spread,
        )
    solutions = [row for row in rows if row["is_solution"]]
    return GlobalIdReport(rows=rows, vacuous=not solutions, violations=sum(
        not (row["gamma_ok"] and row["delta_ok"] and row["scale_ok"])
        for row in solutions))


def lognormal_ccapm_model(
    n_state: int = 21,
    n_signal: int = 31,
    gamma0: float = 2.0,
    delta0: float = 0.96,
    phi: float = 0.6,
    mean_growth: float = 0.02,
    sigma_signal: float = 0.045,
    sigma_noise: float = 0.02,
    span: float = 3.5,
    window: float = 1.0,
    g0_fn: Callable | None = None,
) -> CcapmModel:
    """Gaussian autoregression in log growth with an observed one-step signal.

    The return is the reciprocal price of a unit payoff under the model's
    stochastic discount factor, hence measurable with respect to the
    instruments and strictly positive, and the pricing equation holds on the
    grid by construction.
    """
    sigma_tot = math.hypot(sigma_signal, sigma_noise)
    s_x = sigma_tot / math.sqrt(1.0 - phi * phi)
    xg = np.linspace(mean_growth - span * s_x, mean_growth + span * s_x, n_state)
    quad_x = trapezoid_weights(xg)
    stat = np.exp(-0.5 * ((xg - mean_growth) / s_x) ** 2)
    mass_c = quad_x * stat
    mass_c /= mass_c.sum()
    c_measure = GridMeasure(np.exp(xg), mass_c)

    og = np.linspace(-span, span, n_signal)
    quad_o = trapezoid_weights(og)
    mass_o = quad_o * np.exp(-0.5 * og**2)
    mass_o /= mass_o.sum()
    omega_measure = GridMeasure(og, mass_o)

    mean_next = (1 - phi) * mean_growth + phi * xg[None, :] + (
        sigma_signal * og[:, None]
    )
    dev = (xg[:, None, None] - mean_next[None, :, :]) / sigma_noise
    cond = quad_x[:, None, None] * np.exp(-0.5 * dev**2)
    cond_mass = cond / cond.sum(axis=0, keepdims=True)

    states = np.exp(xg)
    if g0_fn is None:
        g0_raw = 1.0 + 0.5 * np.exp(-0.5 * ((xg - mean_growth) / s_x) ** 2)
    else:
        g0_raw = np.asarray(g0_fn(states), dtype=float)
        if (g0_raw <= 0).any():
            raise ValueError("g0_fn must be strictly positive on the grid")
    g0_vals = g0_raw / math.sqrt(np.dot(mass_c, g0_raw**2))
    g0 = GridFunction(g0_vals, c_measure)

    priced = delta0 * np.einsum(
        "soc,s->oc", cond_mass, states**(-gamma0) * g0_vals
    )
    returns = g0_vals[None, :] / priced
    return CcapmModel(
        delta0=delta0,
        gamma0=gamma0,
        c_measure=c_measure,
        omega_measure=omega_measure,
        cond_mass=cond_mass,
        returns=returns,
        g0=g0,
        window=window,
    )
