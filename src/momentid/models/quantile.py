"""Endogenous quantile model on tabulated conditional densities.

The residual is the indicator 1(Y <= alpha(X)) minus the quantile level, so
the moment map averages the conditional CDF of Y over the conditional law of
X given the instrument.  The CDF is interpolated by a monotone cubic in y,
which keeps the map twice differentiable with a curvature constant read off
the density tables: L1 bounds the density slope in y, L2 bounds the density
ratio of X given W against the marginal of X, and the curvature constant of
the map is their product with exponent two.

The outcome law does not depend on the instrument: the density, CDF and
slope tables are (n_y, n_x), and the CDF is stored, integrated and
interpolated once per x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import GridMismatchError
from ..fnspace import GridFunction, GridMeasure, trapezoid_weights
from ..identcore import MomentMap, NonlinearityBound
from ..linop import conditional_expectation


def _pchip_slopes(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Monotonicity-preserving cubic Hermite slopes along the first axis."""
    n = x.size
    h = np.diff(x)
    hs = h.reshape((-1,) + (1,) * (f.ndim - 1))
    delta = np.diff(f, axis=0) / hs
    d = np.zeros_like(f)
    if n == 2:
        d[0] = d[1] = delta[0]
        return d
    w1 = (2 * h[1:] + h[:-1]).reshape((-1,) + (1,) * (f.ndim - 1))
    w2 = (h[1:] + 2 * h[:-1]).reshape((-1,) + (1,) * (f.ndim - 1))
    d0, d1 = delta[:-1], delta[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        harmonic = (w1 + w2) / (w1 / d0 + w2 / d1)
    d[1:-1] = np.where(d0 * d1 > 0, harmonic, 0.0)

    def edge(h0, h1, del0, del1):
        out = ((2 * h0 + h1) * del0 - h0 * del1) / (h0 + h1)
        out = np.where(np.sign(out) != np.sign(del0), 0.0, out)
        out = np.where(
            (np.sign(del0) != np.sign(del1)) & (np.abs(out) > 3 * np.abs(del0)),
            3 * del0,
            out,
        )
        return out

    d[0] = edge(h[0], h[1], delta[0], delta[1])
    d[-1] = edge(h[-1], h[-2], delta[-1], delta[-2])
    return d


def _cells(x: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Index of the cell of the strictly increasing grid ``x`` that holds
    each query, clipped to [0, n - 2]: the value of
    ``np.clip(np.searchsorted(x, xq, "right") - 1, 0, n - 2)``.

    The first guess reads the cell off the grid's mean spacing, which is
    exact on a uniform grid up to rounding; each correction pass then
    moves every query whose cell is still off by one node.  Queries must
    not be NaN.
    """
    last = x.size - 2
    step = (x[-1] - x[0]) / (last + 1)
    idx = np.clip((xq - x[0]) / step, 0, last).astype(np.intp)
    while (down := (x[idx] > xq) & (idx > 0)).any():
        idx -= down
    while (up := (x[idx + 1] <= xq) & (idx < last)).any():
        idx += up
    return idx


def _cubic(t, h, f0, d0, f1, d1, derivative: bool):
    """Cubic Hermite value, or its first derivative, at the fraction t of a
    cell of width h with end values f0, f1 and end slopes d0, d1."""
    t2, t3 = t * t, t * t * t
    if not derivative:
        h00 = 2 * t3 - 3 * t2 + 1
        h10 = t3 - 2 * t2 + t
        h01 = -2 * t3 + 3 * t2
        h11 = t3 - t2
        return h00 * f0 + h * h10 * d0 + h01 * f1 + h * h11 * d1
    g00 = 6 * t2 - 6 * t
    g10 = 3 * t2 - 4 * t + 1
    g01 = -6 * t2 + 6 * t
    g11 = 3 * t2 - 2 * t
    return (g00 * f0 + h * g10 * d0 + g01 * f1 + h * g11 * d1) / h


def _hermite(
    x: np.ndarray,
    f: np.ndarray,
    d: np.ndarray,
    xq: np.ndarray,
    derivative: bool,
) -> np.ndarray:
    """Cubic Hermite value, or its first derivative, at the queries xq.

    ``f`` and ``d`` are (n_grid, n_col) tables with the grid on axis 0.
    ``xq`` has shape (..., n_col): entry [..., c] is evaluated in column c,
    inside the cell of ``x`` that holds it, and the result has the shape
    of ``xq``.  Every entry is computed by the same elementwise operations
    whatever the leading shape, so a stack of queries gives the same bits
    as one query at a time.
    """
    idx = _cells(x, xq)
    n_col = f.shape[1]
    # entry idx * n_col + col of the flat tables is [idx, col]
    flat = idx * n_col + np.arange(n_col)
    f_flat, d_flat = f.ravel(), d.ravel()
    f0, f1 = f_flat[flat], f_flat[flat + n_col]
    d0, d1 = d_flat[flat], d_flat[flat + n_col]
    h = x[idx + 1] - x[idx]
    return _cubic((xq - x[idx]) / h, h, f0, d0, f1, d1, derivative)


def _bisect_cdf(y: np.ndarray, cdf: np.ndarray, slopes: np.ndarray,
                level: float) -> np.ndarray:
    """Per column of the (n_y, n_col) tables, the point where the
    interpolated CDF crosses ``level``, by 90 halvings of [y[0], y[-1]].

    Each step evaluates the expression ``_hermite`` evaluates, on the same
    operands, so it gives the bits of a full ``cdf_at`` call.  A column's
    cell and operands are looked up again only when its midpoint leaves
    the cell it was in.  All 90 steps run: at tau = 0.5 the bracket of the
    node where the curve is zero halves through every one of them, so the
    step count is part of the result.
    """
    n_col = cdf.shape[1]
    lo, hi = np.full(n_col, y[0]), np.full(n_col, y[-1])
    # [y0, y1) is each column's current cell; an empty one forces a lookup
    y0, y1 = np.full(n_col, np.inf), np.full(n_col, -np.inf)
    h, f0, f1, d0, d1 = np.empty((5, n_col))
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        moved = np.flatnonzero((mid < y0) | (mid >= y1))
        if moved.size:
            c = _cells(y, mid[moved])
            y0[moved], y1[moved] = y[c], y[c + 1]
            h[moved] = y[c + 1] - y[c]
            f0[moved], f1[moved] = cdf[c, moved], cdf[c + 1, moved]
            d0[moved], d1[moved] = slopes[c, moved], slopes[c + 1, moved]
        val = _cubic((mid - y0) / h, h, f0, d0, f1, d1, derivative=False)
        lower = val < level
        lo = np.where(lower, mid, lo)
        hi = np.where(lower, hi, mid)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class QuantileIvModel:
    """Tabulated design for the endogenous quantile moment map.

    ``f_y`` is the conditional density of the outcome given x on the y
    grid, smooth in y, of shape (n_y, n_x): the outcome law does not depend
    on the instrument.
    ``x_ratio`` is the conditional-to-marginal mass ratio of X given W on the
    two probability grids, so columns average to one under the X measure.
    The slope bound L1 and the ratio bound L2 are recomputed from these
    tables, never taken on trust.
    """

    tau: float
    x_measure: GridMeasure
    w_measure: GridMeasure
    y_grid: np.ndarray
    f_y: np.ndarray
    x_ratio: np.ndarray
    alpha0: GridFunction

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie strictly between 0 and 1")
        y = np.asarray(self.y_grid, dtype=float)
        if (np.diff(y) <= 0).any():
            raise ValueError("y grid must be strictly increasing")
        fy = np.asarray(self.f_y, dtype=float)
        nx, nw = self.x_measure.size, self.w_measure.size
        if fy.shape != (y.size, nx):
            raise GridMismatchError("f_y table must be (n_y, n_x)")
        if not np.isfinite(fy).all():
            raise ValueError("f_y table must be finite")
        if (fy < 0).any():
            raise ValueError("densities must be nonnegative")
        ratio = np.asarray(self.x_ratio, dtype=float)
        if ratio.shape != (nx, nw):
            raise GridMismatchError("x_ratio table must be (n_x, n_w)")
        if not np.isfinite(ratio).all():
            raise ValueError("x_ratio table must be finite")
        if (ratio < 0).any():
            raise ValueError("density ratios must be nonnegative")
        col = self.x_measure.weights @ ratio
        if np.abs(col - 1.0).max() > 1e-10:
            raise ValueError("x_ratio columns must average to one")
        wy = trapezoid_weights(y)
        mass = np.einsum("y,yx->x", wy, fy)
        if np.abs(mass - 1.0).max() > 1e-10:
            raise ValueError("f_y slices must integrate to one in y")
        object.__setattr__(self, "y_grid", y)
        object.__setattr__(self, "f_y", fy)
        object.__setattr__(self, "x_ratio", ratio)
        # cumulative trapezoid CDF and its monotone cubic slopes
        increments = (y[1:] - y[:-1])[:, None] * (fy[1:] + fy[:-1]) / 2.0
        cdf = np.concatenate([np.zeros((1, nx)), np.cumsum(increments, axis=0)])
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "_cdf_slopes", _pchip_slopes(y, cdf))

    @property
    def l1(self) -> float:
        """Largest density slope magnitude in y across the table."""
        dy = np.diff(self.y_grid)[:, None]
        return float(np.abs(np.diff(self.f_y, axis=0) / dy).max())

    @property
    def l2(self) -> float:
        """Largest conditional-to-marginal mass ratio across the table."""
        return float(self.x_ratio.max())

    def _interpolate(self, alpha_values: np.ndarray,
                     derivative: bool) -> np.ndarray:
        """Interpolated CDF, or its y-derivative, at y = alpha(x) for every
        x, in the shape of the query: (n_x,) for one curve, (B, n_x) for a
        stack."""
        yq = np.asarray(alpha_values, dtype=float)
        y = self.y_grid
        if not ((yq >= y[0]) & (yq <= y[-1])).all():
            if not np.isfinite(yq).all():
                raise ValueError("requested y values must be finite, "
                                 "not NaN or inf")
            raise ValueError(
                "requested y values leave the tabulated range "
                f"[{y[0]:.4g}, {y[-1]:.4g}]"
            )
        return _hermite(y, self._cdf, self._cdf_slopes, yq, derivative)

    def cdf_at(self, alpha_values: np.ndarray) -> np.ndarray:
        """F(alpha(x) | x) for every x, for one curve or a stack."""
        return self._interpolate(alpha_values, derivative=False)

    def density_at(self, alpha_values: np.ndarray) -> np.ndarray:
        """f(alpha(x) | x), the exact y-derivative of the interpolated CDF,
        in the shapes of ``cdf_at``."""
        return self._interpolate(alpha_values, derivative=True)

    def quantile_curve(self) -> np.ndarray:
        """Invert the interpolated CDF at the quantile level tau, per x."""
        return _bisect_cdf(self.y_grid, self._cdf, self._cdf_slopes, self.tau)


def quantile_moment_map(
    model: QuantileIvModel,
) -> tuple[MomentMap, NonlinearityBound]:
    """Moment map, derivative operator and curvature bound of the model.

    eval(alpha)(w) averages F(alpha(x)|x) over the conditional mass of X
    given w and subtracts the quantile level; the derivative is the
    conditional expectation weighted by the conditional density at alpha0.
    The curvature bound is L = L1 L2 with exponent 2 on the whole space.
    The map's ``eval_rows`` evaluates a stack of curves in one pass of the
    Hermite kernel, bit-identical to evaluating each curve alone.
    """
    mx, mw = model.x_measure, model.w_measure
    weighted_ratio = mx.weights[:, None] * model.x_ratio

    def eval_rows(alphas: np.ndarray) -> np.ndarray:
        # einsum sums over x in the order of the per-curve elementwise
        # product and sum, so a stack reproduces one-curve evaluation bit
        # for bit; a matmul would not
        cdf = model.cdf_at(alphas)
        return np.einsum("bi,ij->bj", cdf, weighted_ratio) - model.tau

    weight = np.broadcast_to(model.density_at(model.alpha0.values)[:, None],
                             model.x_ratio.shape)
    derivative = conditional_expectation(model.x_ratio, mx, mw, weight=weight)
    mmap = MomentMap(
        base_point=model.alpha0, eval_rows=eval_rows, derivative=derivative,
    )
    bound = NonlinearityBound(L=model.l1 * model.l2, r=2.0)
    return mmap, bound


def gaussian_quantile_model(
    n_x: int = 101,
    n_w: int = 101,
    n_y: int = 161,
    rho: float = 0.6,
    tau: float = 0.5,
    sigma_u: float = 1.0,
    x_span: float = 3.0,
    y_span: float = 7.5,
) -> QuantileIvModel:
    """Gaussian triangular design: X and W correlated, Y = alpha0(X) + noise.

    The true quantile curve is recovered from the discretized tables by CDF
    inversion, so the model restriction holds on the grid to rounding error,
    not merely asymptotically.

    This is the truncated Gaussian model: the grids stop at +-x_span, and
    its ill-posedness is steeper than that of the untruncated design, whose
    derivative is phi(z_tau)/sigma_u times E[. | W] with singular values
    rho^k (Mehler's formula; Carrasco, Florens & Renault 2007).  At the
    default x_span = 3, sigma_6/sigma_0 falls below rho^6/4; at x_span = 7
    the spectrum matches rho^k to within 2e-3 for k <= 6.
    """
    if not -1 < rho < 1:
        raise ValueError("rho must lie in (-1, 1)")
    xg = np.linspace(-x_span, x_span, n_x)
    wg = np.linspace(-x_span, x_span, n_w)
    yg = np.linspace(-y_span, y_span, n_y)

    def phi(z):
        return np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    x_measure = GridMeasure.from_density(xg, phi(xg))
    w_measure = GridMeasure.from_density(wg, phi(wg))

    # conditional mass of X given W, normalized per column
    quad = trapezoid_weights(xg)
    s = math.sqrt(1 - rho * rho)
    cond = phi((xg[:, None] - rho * wg[None, :]) / s) / s
    cond_mass = quad[:, None] * cond
    cond_mass /= cond_mass.sum(axis=0, keepdims=True)
    ratio = cond_mass / x_measure.weights[:, None]

    # outcome density: location family around the median curve, w-free
    curve = np.tanh(xg)  # bounded inside the y range with room for deviations
    f_y = phi((yg[:, None] - curve[None, :]) / sigma_u) / sigma_u
    wy = trapezoid_weights(yg)
    f_y /= np.einsum("y,yx->x", wy, f_y)[None, :]

    model = QuantileIvModel(
        tau=tau,
        x_measure=x_measure,
        w_measure=w_measure,
        y_grid=yg,
        f_y=f_y,
        x_ratio=ratio,
        alpha0=GridFunction(curve, x_measure),
    )
    # no check or table of the model reads alpha0, so the inverted curve
    # replaces the seed in place rather than through a second validation
    # and tabulation by dataclasses.replace
    alpha0 = GridFunction(model.quantile_curve(), x_measure)
    object.__setattr__(model, "alpha0", alpha0)
    return model
