"""Local identification logic for nonlinear moment maps on weighted grids.

The central objects are a moment map m with m(alpha0) = 0, its derivative
operator at alpha0, and a curvature bound ||m(a) - m(a0) - m'(a - a0)|| <=
L ||a - a0||^r.  The functions here check derivative fidelity, estimate the
curvature constant, test rank conditions, classify deviations against the
identification neighborhoods those quantities induce, and stress-test the
tangential-cone set inclusions on random finite-dimensional instances.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptyNeighborhoodError, GridMismatchError
from .fnspace import (
    GridFunction,
    GridMeasure,
    norm,
    weighted_norm,
)
from .linop import (
    LinearOperator,
    SvdDecomposition,
    apply,
    apply_values,
    singular_values,
    svd,
)


# m(alpha0) must vanish to this codomain norm.
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class MomentMap:
    """Nonlinear map alpha -> m(alpha) with a base point and attached derivative.

    ``eval_rows`` is the map: it sends a stack of domain value rows
    (B, n_domain) to the codomain value rows (B, n_codomain) of m at each.
    It is handed at most ``EVAL_CHUNK`` rows at a time; the shape and
    finiteness of each returned stack are checked once, not row by row.

    ``norm_a`` overrides the weighted-L2 norm of the domain grid; the
    sequence-space counterexample uses a quartic domain norm, everything
    else keeps the default.  Codomain norms are always weighted L2.
    """

    base_point: GridFunction
    eval_rows: Callable[[np.ndarray], np.ndarray]
    derivative: LinearOperator
    norm_a: Callable[[GridFunction], float] | None = None

    def __post_init__(self):
        if not self.base_point.measure.same_as(self.derivative.domain):
            raise GridMismatchError("base point does not live on the derivative domain")
        r0 = norm(self.eval(self.base_point))
        if r0 > RESIDUAL_TOL:
            raise ValueError(
                f"moment map violates m(alpha0) = 0: residual {r0:.3e}"
            )

    def eval(self, alpha: GridFunction) -> GridFunction:
        return self.eval_many([alpha])[0]

    def eval_many(self, alphas: Iterable[GridFunction]) -> list[GridFunction]:
        """m at each of ``alphas``, ``EVAL_CHUNK`` points per ``eval_rows``
        call; a chunk's points are taken only when the chunk runs."""
        dom, cod = self.base_point.measure, self.derivative.codomain

        def rows():
            for alpha in alphas:
                if not alpha.measure.same_as(dom):
                    raise GridMismatchError(
                        "alpha does not live on the domain grid")
                yield alpha.values

        return [GridFunction(row, cod)
                for row in _codomain_rows(self.eval_rows, cod, rows())]

    def norm_a_of(self, f: GridFunction) -> float:
        return norm(f) if self.norm_a is None else float(self.norm_a(f))


@dataclass(frozen=True)
class NonlinearityBound:
    """Curvature constant L, exponent r and the radius of the deviation-norm
    ball where they apply."""

    L: float
    r: float
    radius: float = math.inf

    def __post_init__(self):
        if self.L < 0:
            raise ValueError("L must be nonnegative")
        if self.r < 1:
            raise ValueError("r must be at least 1")
        if self.radius <= 0:
            raise ValueError("neighborhood radius must be positive")

    def contains_deviation(self, dev_norm: float) -> bool:
        return dev_norm <= self.radius

    def separates(self, lin_norm: float, dev_norm: float) -> bool:
        """The identification-set test ||m' d|| > L ||d||^r, given the two
        norms ||m' d|| and ||d||."""
        return lin_norm > self.L * dev_norm**self.r


# The sampling harnesses evaluate the moment map this many points at a time,
# building each chunk's inputs only when the chunk runs.
EVAL_CHUNK = 64


def _codomain_rows(
    eval_rows: Callable[[np.ndarray], np.ndarray],
    cod: GridMeasure,
    rows: Iterable[np.ndarray],
) -> Iterator[np.ndarray]:
    """Value rows on the codomain ``cod`` of the map ``eval_rows`` at each
    of ``rows`` of domain values, in order.  The rows are consumed
    ``EVAL_CHUNK`` at a time; each chunk is stacked, checked for finiteness,
    evaluated in one ``eval_rows`` call, and the returned stack checked for
    shape and finiteness."""
    it = iter(rows)
    while chunk := list(itertools.islice(it, EVAL_CHUNK)):
        stack = np.stack(chunk)
        if not np.all(np.isfinite(stack)):
            raise ValueError("domain values must be finite")
        out = np.asarray(eval_rows(stack), dtype=float)
        if out.shape != (len(chunk), cod.size):
            raise GridMismatchError(
                f"eval_rows returned shape {out.shape} for {len(chunk)} "
                f"rows on a {cod.size}-point codomain"
            )
        if not np.all(np.isfinite(out)):
            raise ValueError("eval_rows returned values that are not finite")
        yield from out


def positivity_tol(sigma_max: float) -> float:
    """Numerical zero scale for codomain norms: 1e-10 (1 + ||m'||), given
    the largest singular value ||m'|| of the derivative."""
    return 1e-10 * (1.0 + float(sigma_max))


def accepted_draws(
    draw: Callable[[], object | None],
    samples: int,
    budget_factor: int,
    what: str,
    hint: str,
) -> Iterator[tuple[int, object]]:
    """Budgeted rejection sampling: call ``draw`` until ``samples`` calls
    have returned something other than None (a rejection).

    Yields each accepted draw with the number of attempts so far, so the
    caller's own random draws between acceptances keep their order.  Raises
    EmptyNeighborhoodError, naming the ``what`` counted and the caller's
    ``hint``, once ``budget_factor * samples`` attempts have not been enough.
    """
    accepted = attempts = 0
    while accepted < samples:
        if attempts >= budget_factor * samples:
            raise EmptyNeighborhoodError(
                f"accepted only {accepted}/{samples} {what} after "
                f"{attempts} draws; {hint}"
            )
        attempts += 1
        item = draw()
        if item is not None:
            accepted += 1
            yield attempts, item


def _check_domain(
    mmap: MomentMap, fns: Sequence[GridFunction], what: str
) -> None:
    dom = mmap.base_point.measure
    if not all(f.measure.same_as(dom) for f in fns):
        raise GridMismatchError(f"{what} must live on the domain grid")


def gateaux_check(
    mmap: MomentMap,
    directions: Sequence[GridFunction],
    steps: Sequence[float],
    richardson: bool = False,
) -> float:
    """Compare central finite differences of m against the attached derivative.

    Steps must be positive and decreasing, and there must be at least one
    direction.  Returns the worst relative error over the directions at the
    smallest step; with ``richardson`` each step t combines the t and t/2
    central differences to cancel the quadratic error term.
    """
    directions, steps = list(directions), list(steps)
    if not directions:
        raise ValueError("directions must not be empty")
    if not steps or any(s <= 0 for s in steps):
        raise ValueError("steps must be positive")
    if any(b >= a for a, b in zip(steps, steps[1:])):
        raise ValueError("steps must be decreasing")
    _check_domain(mmap, directions, "directions")
    a0 = mmap.base_point.values

    def points():
        # every evaluation central() asks for, in the order it asks; the
        # rows are a0 + s * h as GridFunction arithmetic forms them
        for h in directions:
            for t in steps:
                for s in (t, t / 2.0) if richardson else (t,):
                    yield a0 + h.values * float(s)
                    yield a0 + h.values * float(-s)

    values = _codomain_rows(mmap.eval_rows, mmap.derivative.codomain,
                            points())

    def central(t: float) -> np.ndarray:
        up, dn = next(values), next(values)
        return (up - dn) / (2.0 * t)

    w_b = mmap.derivative.codomain.weights
    worst = 0.0
    for h in directions:
        exact = apply(mmap.derivative, h)
        scale = max(norm(exact), 1e-300)
        err = math.inf
        for t in steps:
            fd = central(t)
            if richardson:
                fd = (4.0 * central(t / 2.0) - fd) / 3.0
            err = weighted_norm(fd - exact.values, w_b) / scale
        worst = max(worst, err)
    return worst


def estimate_nonlinearity(
    mmap: MomentMap, r: float, deviations: Sequence[GridFunction]
) -> float:
    """Empirical curvature constant: max ||m(a0+d) - m(a0) - m'd|| / ||d||^r.

    A lower bound for any valid L on a neighborhood covering the sampled
    deviations, of which there must be at least one.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    deviations = list(deviations)
    if not deviations:
        raise ValueError("deviations must not be empty")
    _check_domain(mmap, deviations, "deviations")
    a0 = mmap.base_point
    m0 = mmap.eval(a0).values
    w_b = mmap.derivative.codomain.weights
    best = 0.0
    values = _codomain_rows(mmap.eval_rows, mmap.derivative.codomain,
                            (a0.values + d.values for d in deviations))
    for d, m_val in zip(deviations, values):
        dn = mmap.norm_a_of(d)
        if dn == 0.0:
            raise ValueError("deviations must have nonzero norm")
        rem = m_val - m0 - apply_values(mmap.derivative, d.values)
        best = max(best, weighted_norm(rem, w_b) / dn**r)
    return best


@dataclass(frozen=True)
class RankReport:
    holds: bool
    sigma_min: float
    sigma_max: float


def rank_condition(op: LinearOperator, tol: float) -> RankReport:
    """Injectivity proxy: smallest singular value above tol * largest."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    s = singular_values(op)
    # a domain larger than the codomain always has a null space
    smin = 0.0 if op.domain.size > op.codomain.size else float(s[-1])
    smax = float(s[0])
    return RankReport(holds=smin > tol * smax, sigma_min=smin, sigma_max=smax)


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
    if np.any(mu[live] == 0.0):
        return False
    p = 2.0 / (bound.r - 1.0)
    # zeros stay in place, so the sum adds its terms in the same order
    terms = np.zeros_like(b)
    terms[live] = mu[live] ** (-p) * b[live] ** 2
    return float(np.sum(terms)) < bound.L ** (-p)


def sample_ellipsoid_deviations(
    dec: SvdDecomposition,
    bound: NonlinearityBound,
    n: int,
    rng: np.random.Generator,
) -> list[tuple[GridFunction, np.ndarray]]:
    """Draw deviations strictly inside the source-condition ellipsoid.

    Coefficients follow a geometric decay 0.75^j over the singular basis,
    with a share of 0.3 guaranteed on the leading component, so the image
    norm never falls to numerical-zero scale; each deviation is scaled to a
    uniform fraction in [0.2, 0.9] of the ellipsoid's extent.
    """
    if bound.r <= 1 or bound.L <= 0:
        raise ValueError("ellipsoid sampling requires r > 1 and L > 0")
    mu = dec.singular_values
    k = mu.size
    mat = dec.right_functions.matrix()
    out = []
    power = 1.0 / (bound.r - 1.0)
    profile = 0.75 ** np.arange(k)
    l_p = bound.L ** (-power)
    mu_p = mu**power
    for _ in range(n):
        raw = rng.standard_normal(k) * profile
        raw /= np.linalg.norm(raw)
        c = raw * 0.7
        c[0] += math.copysign(0.3, raw[0] if raw[0] != 0 else 1.0)
        c /= np.linalg.norm(c)
        s = rng.uniform(0.2, 0.9)
        b = s * l_p * mu_p * c
        delta = GridFunction(mat @ b, dec.right_functions.measure)
        out.append((delta, b))
    return out


def geometric_deviation_sampler(
    dec: SvdDecomposition,
    bound: NonlinearityBound,
    rng: np.random.Generator,
) -> GridFunction:
    """Random deviation with singular-basis coefficients decaying as 0.7^j.

    The magnitude is drawn below one, the neighborhood radius and the
    direction's own identification-set cap, which keeps rejection rates
    low; membership is still verified by the caller, never assumed.
    """
    mu = dec.singular_values
    k = mu.size
    mat = dec.right_functions.matrix()
    raw = rng.standard_normal(k) * 0.7 ** np.arange(k)
    nrm = np.linalg.norm(raw)
    if nrm == 0.0:
        raw[0] = 1.0
        nrm = 1.0
    raw /= nrm
    cap = min(1.0, bound.radius)
    if bound.L > 0 and bound.r > 1:
        mu_dir = float(np.sqrt(np.sum((mu * raw) ** 2)))
        if mu_dir > 0:
            cap = min(cap, 0.95 * (mu_dir / bound.L) ** (1.0 / (bound.r - 1.0)))
    s = rng.uniform(0.05, 1.0) * cap
    return GridFunction(mat @ (s * raw), dec.right_functions.measure)


@dataclass
class LocalIdReport:
    samples: int
    attempts: int
    passes: int
    failures: int
    min_m_norm: float
    min_margin: float
    seed: int
    pos_tol: float
    rows: list

    @property
    def all_passed(self) -> bool:
        return self.failures == 0 and self.passes == self.samples


def verify_local_id(
    mmap: MomentMap,
    bound: NonlinearityBound,
    samples: int,
    rng_seed: int,
    sampler: Callable[[np.random.Generator], GridFunction] | None = None,
    enforce_membership: bool = True,
    budget_factor: int = 200,
    pos_tol: float | None = None,
) -> LocalIdReport:
    """Monte Carlo check of the identification inequality on the target set.

    Draws deviations, rejects those outside the curvature neighborhood or the
    identification set ||m' d|| > L ||d||^r, and for every accepted alpha
    verifies both ||m(alpha) - m'(alpha - alpha0)|| < ||m'(alpha - alpha0)||
    and ||m(alpha)|| above numerical-zero scale.  Raises
    EmptyNeighborhoodError if the rejection budget runs out.  The report's
    ``rows`` hold (||d||, ||m'd||, remainder norm, ||m||, passed) per
    accepted deviation.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(rng_seed)
    op = mmap.derivative
    dec = None
    if sampler is None:
        dec = svd(op)
        sampler = functools.partial(geometric_deviation_sampler, dec, bound)
    if pos_tol is None:
        sigma_max = singular_values(op)[0] if dec is None else dec.sigma_max
        pos_tol = positivity_tol(sigma_max)

    def draw():
        delta = sampler(rng)
        dev_norm = mmap.norm_a_of(delta)
        if dev_norm == 0.0:
            return None
        if enforce_membership and not bound.contains_deviation(dev_norm):
            return None
        lin = apply(op, delta)
        lin_n = norm(lin)
        if enforce_membership and not bound.separates(lin_n, dev_norm):
            return None
        return delta, dev_norm, lin, lin_n

    a0 = mmap.base_point
    # the draws come first, the map's evaluations after them in chunks
    accepted = list(accepted_draws(
        draw, samples, budget_factor, "deviations",
        f"the sampled neighborhood may be empty for L={bound.L}, r={bound.r}",
    ))
    attempts = accepted[-1][0]
    values = _codomain_rows(
        mmap.eval_rows, op.codomain,
        (a0.values + item[0].values for _, item in accepted))
    w_b = op.codomain.weights
    rows = []
    for (_, (delta, dev_norm, lin, lin_n)), m_val in zip(accepted, values):
        rem = weighted_norm(m_val - lin.values, w_b)
        m_n = weighted_norm(m_val, w_b)
        rows.append((dev_norm, lin_n, rem, m_n, rem < lin_n and m_n > pos_tol))
    passes = sum(row[4] for row in rows)
    return LocalIdReport(
        samples=samples,
        attempts=attempts,
        passes=passes,
        failures=samples - passes,
        min_m_norm=min(row[3] for row in rows),
        min_margin=min(row[1] - row[2] for row in rows),
        seed=rng_seed,
        pos_tol=pos_tol,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Sequence-space counterexample: smooth map, identity derivative, yet not
# locally identified on any open ball.
# ---------------------------------------------------------------------------


def default_counterexample_f(x):
    """x (1 - x) exp(-x^2): zeros exactly at 0 and 1, unit slope at 0."""
    x = np.asarray(x, dtype=float)
    return x * (1.0 - x) * np.exp(-(x**2))


def dyadic_weights(n_terms: int) -> np.ndarray:
    """Weights 2^-j for j = 1..n_terms with the tail folded into the last one."""
    p = 0.5 ** np.arange(1, n_terms + 1)
    p[-1] *= 2.0  # fold sum_{j >= n} 2^-j = 2^-(n-1)
    return p


def measure_curvature_constant(f: Callable) -> float:
    """sup |f''| / 2 by central second differences on a 24,001-point scan
    of [-6, 6], once f is checked on the same values: finite, zero at 0 and
    1 and nowhere else, and of unit slope at 0."""
    scan = np.linspace(-6.0, 6.0, 24001)
    vals = np.asarray(f(scan), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("f must be finite on the scan range")
    for root in (0.0, 1.0):
        if abs(float(f(root))) > 1e-12:
            raise ValueError(f"f must vanish at {root}")
    slope = (float(f(1e-6)) - float(f(-1e-6))) / 2e-6
    if abs(slope - 1.0) > 1e-4:
        raise ValueError(f"f must have unit slope at 0, measured {slope:.6f}")
    sign_changes = np.flatnonzero(vals[:-1] * vals[1:] < 0)
    for idx in sign_changes:
        lo, hi = scan[idx], scan[idx + 1]
        if not any(lo - 1e-9 <= root <= hi + 1e-9 for root in (0.0, 1.0)):
            raise ValueError(
                f"f changes sign away from {{0, 1}} in [{lo:.4f}, {hi:.4f}]"
            )
    h = scan[1] - scan[0]
    second = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h**2
    return float(np.abs(second).max() / 2.0)


def quartic_norm(delta: GridFunction) -> float:
    """(sum_j p_j d_j^4)^(1/4), the stronger norm of the counterexample domain."""
    return float(np.dot(delta.measure.weights, delta.values**4) ** 0.25)


def counterexample_map(
    f: Callable | None = None, n_terms: int = 64
) -> tuple[MomentMap, NonlinearityBound]:
    """The truncated sequence model as a moment map with quartic domain norm.

    The map sends a sequence to f applied to each term, on ``n_terms``
    dyadic weights; ``f`` acts elementwise and must accept a 2-D stack of
    sequences, since the map's ``eval_rows`` hands it one.  ``f`` must be
    finite, vanish exactly at 0 and 1 and nowhere else, and have unit slope
    at 0; the bound has r = 2 and L = sup|f''|/2, which must be at least one.
    """
    if f is None:
        f = default_counterexample_f
    L = measure_curvature_constant(f)
    if L < 1.0:
        raise ValueError(
            f"measured curvature constant {L:.6f} < 1 contradicts f(1) = 0 "
            "with unit slope at 0; check the supplied f"
        )
    mu = GridMeasure(np.arange(1, n_terms + 1, dtype=float),
                     dyadic_weights(n_terms))
    mmap = MomentMap(
        base_point=GridFunction.zero(mu),
        eval_rows=lambda rows: np.asarray(f(rows), dtype=float),
        derivative=LinearOperator.identity(mu),
        norm_a=quartic_norm,
    )
    return mmap, NonlinearityBound(L=L, r=2.0)


@dataclass(frozen=True)
class CounterexampleCase:
    k: int
    m_norm: float
    dev_norm: float
    in_n: bool
    L: float
    alpha: np.ndarray


def counterexample_cases(
    ks: Sequence[int], f: Callable | None = None, n_terms: int = 64
) -> list[CounterexampleCase]:
    """``counterexample(k)`` for every k in ``ks``, in order, read through
    one ``counterexample_map``: its evaluation, its quartic deviation norm
    and its bound's identification-set test."""
    for k in ks:
        if k < 1:
            raise ValueError("k must be at least 1")
        if k >= n_terms:
            raise ValueError(
                f"k = {k} must be below n_terms = {n_terms}: alpha^k is "
                "zero beyond the last term"
            )
    mmap, bound = counterexample_map(f, n_terms)
    # alpha^k: zero in the first k terms, one in the rest
    alphas = [GridFunction((np.arange(n_terms) >= k).astype(float),
                           mmap.base_point.measure) for k in ks]
    cases = []
    for k, alpha, m_val in zip(ks, alphas, mmap.eval_many(alphas)):
        dev = mmap.norm_a_of(alpha)
        lin = norm(apply(mmap.derivative, alpha))
        cases.append(CounterexampleCase(
            k=k, m_norm=norm(m_val), dev_norm=dev,
            in_n=bound.separates(lin, dev), L=bound.L, alpha=alpha.values,
        ))
    return cases


def counterexample(
    k: int, f: Callable | None = None, n_terms: int = 64
) -> CounterexampleCase:
    """Evaluate the sequence alpha^k = (0,...,0,1,1,...) in the truncated model.

    Returns the residual norm (exactly zero), the quartic deviation norm
    (tail mass to the 1/4 power), membership in the identification set with
    L = sup|f''|/2, and the measured L itself, which must be at least one.
    """
    return counterexample_cases([k], f, n_terms)[0]


# ---------------------------------------------------------------------------
# Tangential cone sets
# ---------------------------------------------------------------------------


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
    deviation_norm: float


def cone_flags(m_n, lin_n, rem_n, eta, tol):
    """Membership in N, N', N_eta and N'_eta from the defining norms
    ||m(a)||, ||m'(a - a0)|| and the remainder ||m(a) - m'(a - a0)||.

    N and N' ask for the first two norms above ``tol``; the eta-sets compare
    the remainder against eta times each.  The arguments may be scalars or
    arrays of instances alike.
    """
    return m_n > tol, lin_n > tol, rem_n <= eta * m_n, rem_n <= eta * lin_n


def cone_classify(
    mmap: MomentMap, alpha: GridFunction, eta: float, tol: float | None = None
) -> ConeMembership:
    """Evaluate the defining norms of the cone sets and set the four flags.

    The one-instance case of :func:`cone_flags`, whose tolerance defaults
    to ``positivity_tol`` of the derivative.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if tol is None:
        tol = positivity_tol(singular_values(mmap.derivative)[0])
    delta = alpha - mmap.base_point
    m_val = mmap.eval(alpha)
    lin = apply(mmap.derivative, delta)
    m_n = norm(m_val)
    lin_n = norm(lin)
    rem_n = norm(m_val - lin)
    return ConeMembership(
        *cone_flags(m_n, lin_n, rem_n, eta, tol),
        eta=eta,
        m_norm=m_n,
        linear_norm=lin_n,
        remainder_norm=rem_n,
        deviation_norm=mmap.norm_a_of(delta),
    )


# Instances drawn and evaluated together by the cone suite.  The largest
# buffer is the chunk's (n, dim, dim, dim) quadratic part: 0.5 MB at dim 8,
# where the whole suite peaks at 0.8 MB of traced memory (1.6 MB with 256).
CONE_CHUNK = 128


@dataclass(frozen=True)
class ConeChunk:
    """Random cone-suite instances, each padded to ``dim`` coordinates.

    Instance i maps R^da[i] to R^db[i]: its linear part is
    ``m_lin[i, :db, :da]``, its quadratic remainder
    ``quad[i, :db, :da, :da]`` (m(a) = m_lin a + a' quad_b a per output b)
    and its deviation ``alpha[i, :da]``.  Every entry outside an instance's
    own block is an exact zero, so the padding changes no norm.
    """

    da: np.ndarray
    db: np.ndarray
    m_lin: np.ndarray
    quad: np.ndarray
    alpha: np.ndarray
    eta: np.ndarray


def _transfer_ratio(eta: np.ndarray) -> np.ndarray:
    """eta/(1-eta) where eta < 1, and 0 where the transfers do not apply."""
    return np.divide(eta, 1.0 - eta, out=np.zeros_like(eta), where=eta < 1.0)


def draw_cone_chunk(rng: np.random.Generator, n: int, dim: int) -> ConeChunk:
    """Draw ``n`` instances of at most ``dim`` coordinates per side.

    Sizes are uniform on 1..dim; the linear and quadratic parts are standard
    normal, and with probability 0.15 the first k rows of the linear part
    vanish (k uniform on 1..db), so rank-deficient and zero linear terms
    occur.  The deviation is standard normal scaled by 10^U(-3, 0.5), and
    eta is uniform on [0.05, 1.5].

    With probability 0.1 the quadratic part is replaced by one with a
    single nonzero coefficient per output, on the first coordinate squared,
    whose remainder at the deviation is k times the linear term, with k just
    inside the premise of one transfer, picked with probability 1/2 each:
    k = u eta/(1-eta) (zero when eta >= 1) or k = -u eta, for u uniform on
    [0.99, 1].  Those instances come close to the transfers' eta/(1-eta)
    bounds, which independent normal parts almost never do.
    """
    da = rng.integers(1, dim + 1, size=n)
    db = rng.integers(1, dim + 1, size=n)
    coord = np.arange(dim)
    col = coord < da[:, None]
    row = coord < db[:, None]
    # only the live entries are drawn; the padding stays exactly zero
    lin_live = row[:, :, None] & col[:, None, :]
    m_lin = np.zeros((n, dim, dim))
    m_lin[lin_live] = rng.standard_normal(int(np.count_nonzero(lin_live)))
    deficient = rng.uniform(size=n) < 0.15
    zeroed = rng.integers(1, db + 1)
    m_lin[deficient[:, None] & (coord < zeroed[:, None])] = 0.0
    quad_live = lin_live[:, :, :, None] & col[:, None, None, :]
    quad = np.zeros((n, dim, dim, dim))
    quad[quad_live] = rng.standard_normal(int(np.count_nonzero(quad_live)))
    alpha = np.zeros((n, dim))
    alpha[col] = rng.standard_normal(int(np.count_nonzero(col)))
    alpha *= 10.0 ** rng.uniform(-3, 0.5, size=n)[:, None]
    eta = rng.uniform(0.05, 1.5, size=n)
    aligned = np.flatnonzero(rng.uniform(size=n) < 0.1)
    k = rng.uniform(0.99, 1.0, size=n) * np.where(
        rng.uniform(size=n) < 0.5, _transfer_ratio(eta), -eta)
    # quad_b[0, 0] = k lin_b / alpha_0^2, and nothing else, gives rem = k lin
    a = alpha[aligned]
    lin = np.matmul(m_lin[aligned], a[:, :, None])[:, :, 0]
    quad[aligned] = 0.0
    quad[aligned, :, 0, 0] = (k[aligned] / a[:, 0] ** 2)[:, None] * lin
    return ConeChunk(da=da, db=db, m_lin=m_lin, quad=quad, alpha=alpha,
                     eta=eta)


@dataclass(frozen=True)
class ConeChunkFlags:
    """Per-instance results of one evaluated chunk: the three norms, the
    four set memberships, for each of the eight checks whether its premise
    held and whether the instance violates it, and for each of the two
    transfers whether its premise held with the remainder norm within
    ``NEAR_BOUND`` of a positive eta/(1-eta) bound."""

    m_norm: np.ndarray
    linear_norm: np.ndarray
    remainder_norm: np.ndarray
    in_n: np.ndarray
    in_nprime: np.ndarray
    in_n_eta: np.ndarray
    in_nprime_eta: np.ndarray
    premises: dict
    violations: dict
    near_bound: dict


# A transfer's bound counts as approached by an instance whose remainder
# norm is at least this fraction of it.
NEAR_BOUND = 0.99


def evaluate_cone_chunk(chunk: ConeChunk, slack: float) -> ConeChunkFlags:
    """Classify every instance of a chunk against the four cone sets.

    The remainder is m(alpha) - m'alpha as computed, the unrestricted sets
    use exact positivity of the norms, and each transfer allows the roundoff
    slack * (1 + largest of the three norms).
    """
    alpha = chunk.alpha
    lin_val = np.matmul(chunk.m_lin, alpha[:, :, None])[:, :, 0]
    m_val = lin_val + np.einsum("nbij,ni,nj->nb", chunk.quad, alpha, alpha)
    rem_val = m_val - lin_val
    m_n = np.linalg.norm(m_val, axis=1)
    lin_n = np.linalg.norm(lin_val, axis=1)
    rem_n = np.linalg.norm(rem_val, axis=1)
    eps = slack * (1.0 + np.maximum(np.maximum(m_n, lin_n), rem_n))

    eta = chunk.eta
    in_n, in_np, in_ne, in_npe = cone_flags(m_n, lin_n, rem_n, eta, 0.0)
    below = eta < 1.0
    ratio = _transfer_ratio(eta)
    # the eta/(1-eta) bounds on the remainder norm that the transfers claim
    to_etaprime, to_eta = ratio * lin_n, ratio * m_n
    # The one declaration of the checks' names, in report order:
    # check -> (premise, conclusion, a transfer's bound), per instance.
    relations = {
        "inclusion_eta_rank_in_id": (in_ne & in_np, in_n, None),
        "inclusion_etaprime_id_in_rank": (in_npe & in_n, in_np, None),
        "inclusion_eta_id_in_rank": (below & in_ne & in_n, in_np, None),
        "inclusion_etaprime_rank_in_id": (below & in_npe & in_np, in_n, None),
        "equality_eta_rank_vs_id": (below & in_ne, in_np == in_n, None),
        "equality_etaprime_rank_vs_id": (below & in_npe, in_np == in_n, None),
        "cone_transfer_eta_to_etaprime":
            (below & in_ne, rem_n <= to_etaprime + eps, to_etaprime),
        "cone_transfer_etaprime_to_eta":
            (below & in_npe, rem_n <= to_eta + eps, to_eta),
    }
    return ConeChunkFlags(
        m_norm=m_n, linear_norm=lin_n, remainder_norm=rem_n,
        in_n=in_n, in_nprime=in_np, in_n_eta=in_ne, in_nprime_eta=in_npe,
        premises={name: p for name, (p, _, _) in relations.items()},
        violations={name: p & ~c for name, (p, c, _) in relations.items()},
        near_bound={
            name: p & (b > 0.0) & (rem_n >= NEAR_BOUND * b)
            for name, (p, _, b) in relations.items() if b is not None
        },
    )


@dataclass
class ConeSuiteReport:
    """Violation counts per check, and how often each premise held.

    ``premises`` counts, out of ``instances``, the instances where each of
    the four inclusions had its premise met (the eta < 1 ones only when
    eta < 1), and the instances whose linear term is exactly zero: a check
    whose premise is never met proves nothing.  ``near_bound`` counts, per
    transfer, the instances that met its premise and came within
    ``NEAR_BOUND`` of its eta/(1-eta) bound: a check whose bound is never
    approached cannot tell that bound from a looser one.
    """

    instances: int
    violations: dict
    premises: dict
    near_bound: dict

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())


def cone_inclusion_suite(
    instances: int, dim: int, rng_seed: int
) -> ConeSuiteReport:
    """Random finite-dimensional stress test of the cone-set relations.

    Each instance draws a linear part, a quadratic remainder vanishing at the
    base point, a deviation and an eta (see ``draw_cone_chunk``), then checks
    every inclusion between the four sets (the eta < 1 ones only when
    eta < 1), the two equalities that hold for eta < 1, and the two
    eta/(1-eta) transfers.  The transfers compare norms of the same
    floating-point vectors, so a roundoff slack of 1e-12 times the norm
    scale is allowed.

    Instances are drawn and evaluated ``CONE_CHUNK`` at a time, each padded
    to ``dim`` with exact zeros (``ConeChunk``).  The draws run per chunk,
    one quantity for the whole chunk at a time, so a seed fixes the
    instances of each full chunk, and a partial last chunk is not the start
    of a full one.  The report also counts how often each inclusion's
    premise held, how often the linear term was exactly zero
    (``ConeSuiteReport.premises``), and how often each transfer's bound was
    approached (``ConeSuiteReport.near_bound``).
    """
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    if dim > 8:
        raise ValueError("the suite is desk scale: dim must be at most 8")
    if instances <= 0:
        raise ValueError("instances must be positive")
    rng = np.random.default_rng(rng_seed)
    violations, premises, near_bound = {}, {}, {}

    def tally(counts: dict, name: str, hits: np.ndarray) -> None:
        counts[name] = counts.get(name, 0) + int(np.count_nonzero(hits))

    for start in range(0, instances, CONE_CHUNK):
        n = min(CONE_CHUNK, instances - start)
        flags = evaluate_cone_chunk(draw_cone_chunk(rng, n, dim), 1e-12)
        for name, hits in flags.violations.items():
            tally(violations, name, hits)
        for name, hits in flags.premises.items():
            if name.startswith("inclusion_"):
                tally(premises, name, hits)
        tally(premises, "zero_linear_term", flags.linear_norm == 0.0)
        for name, hits in flags.near_bound.items():
            tally(near_bound, name, hits)
    return ConeSuiteReport(instances=instances, violations=violations,
                           premises=premises, near_bound=near_bound)
