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
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptyNeighborhoodError, GridMismatchError
from .fnspace import (
    GridFunction,
    GridMeasure,
    OrthonormalBasis,
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


@dataclass(frozen=True)
class MomentMap:
    """Nonlinear map alpha -> m(alpha) with a base point and attached derivative.

    ``norm_a`` and ``norm_b`` override the default weighted-L2 norms of the
    domain and codomain grids; the sequence-space counterexample uses a
    quartic domain norm, everything else keeps the defaults.

    ``eval_rows``, when given, evaluates a stack of domain value rows
    (B, n_domain) to codomain value rows (B, n_codomain) in one call.  Each
    output row must equal, bit for bit, what ``eval_fn`` returns for that
    row alone; ``eval_many`` and the sampling harnesses rely on it.  They
    hand it at most ``EVAL_CHUNK`` rows at a time and check the shape and
    finiteness of each returned stack once, not row by row.
    """

    base_point: GridFunction
    eval_fn: Callable[[GridFunction], GridFunction]
    derivative: LinearOperator
    norm_a: Callable[[GridFunction], float] | None = None
    norm_b: Callable[[GridFunction], float] | None = None
    residual_tol: float = 1e-10
    eval_rows: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not self.base_point.measure.same_as(self.derivative.domain):
            raise GridMismatchError("base point does not live on the derivative domain")
        r0 = self.norm_b_of(self.eval(self.base_point))
        if r0 > self.residual_tol:
            raise ValueError(
                f"moment map violates m(alpha0) = 0: residual {r0:.3e}"
            )

    def eval(self, alpha: GridFunction) -> GridFunction:
        if not alpha.measure.same_as(self.base_point.measure):
            raise GridMismatchError("alpha does not live on the domain grid")
        out = self.eval_fn(alpha)
        if not out.measure.same_as(self.derivative.codomain):
            raise GridMismatchError("eval output does not live on the codomain grid")
        return out

    def eval_many(self, alphas: Sequence[GridFunction]) -> list[GridFunction]:
        """m at each of ``alphas``, through ``eval_rows`` ``EVAL_CHUNK``
        points at a time when the map has one and through ``eval`` one at
        a time otherwise."""
        return list(_evaluated(self, alphas))

    def norm_a_of(self, f: GridFunction) -> float:
        return norm(f) if self.norm_a is None else float(self.norm_a(f))

    def norm_b_of(self, f: GridFunction) -> float:
        return norm(f) if self.norm_b is None else float(self.norm_b(f))

    def norm_b_of_row(self, values: np.ndarray) -> float:
        """``norm_b_of`` on a row of codomain values; only a custom
        ``norm_b`` is handed it as a grid function."""
        cod = self.derivative.codomain
        if self.norm_b is None:
            return weighted_norm(values, cod.weights)
        return float(self.norm_b(GridFunction(values, cod)))


@dataclass(frozen=True)
class NonlinearityBound:
    """Curvature constant L, exponent r and the neighborhood where they apply.

    The neighborhood is a deviation-norm ball of the given radius unless a
    custom membership predicate replaces it.
    """

    L: float
    r: float
    radius: float = math.inf
    membership: Callable[[GridFunction], bool] | None = None

    def __post_init__(self):
        if self.L < 0:
            raise ValueError("L must be nonnegative")
        if self.r < 1:
            raise ValueError("r must be at least 1")
        if self.radius <= 0:
            raise ValueError("neighborhood radius must be positive")

    def contains_deviation(self, delta: GridFunction, dev_norm: float) -> bool:
        if self.membership is not None:
            return bool(self.membership(delta))
        return dev_norm <= self.radius


# The sampling harnesses evaluate the moment map this many points at a time,
# building each chunk's inputs only when the chunk runs.
EVAL_CHUNK = 64


def _codomain_rows(
    mmap: MomentMap, points: Iterable[GridFunction | np.ndarray]
) -> Iterator[np.ndarray]:
    """Codomain value rows of m at each of ``points``, in order.

    A point is a grid function on the domain grid or a row of its values.
    The points are consumed ``EVAL_CHUNK`` at a time.  A map with
    ``eval_rows`` evaluates a chunk in one call; the chunk's input stack is
    checked for finiteness, and the returned stack for shape and
    finiteness, once per chunk.  A map without one has ``eval`` called on
    each point, as a grid function (the caller's own where one was given).
    """
    dom, cod = mmap.base_point.measure, mmap.derivative.codomain
    it = iter(points)
    while chunk := list(itertools.islice(it, EVAL_CHUNK)):
        if mmap.eval_rows is None:
            for p in chunk:
                if not isinstance(p, GridFunction):
                    p = GridFunction(p, dom)
                yield mmap.eval(p).values
            continue
        rows = []
        for p in chunk:
            if isinstance(p, GridFunction):
                if not p.measure.same_as(dom):
                    raise GridMismatchError(
                        "alpha does not live on the domain grid")
                p = p.values
            rows.append(p)
        rows = np.stack(rows)
        if not np.all(np.isfinite(rows)):
            raise ValueError("domain values must be finite")
        out = np.asarray(mmap.eval_rows(rows), dtype=float)
        if out.shape != (len(chunk), cod.size):
            raise GridMismatchError(
                f"eval_rows returned shape {out.shape} for {len(chunk)} "
                f"rows on a {cod.size}-point codomain"
            )
        if not np.all(np.isfinite(out)):
            raise ValueError("eval_rows returned values that are not finite")
        yield from out


def _evaluated(
    mmap: MomentMap, alphas: Iterable[GridFunction]
) -> Iterator[GridFunction]:
    """m at each of ``alphas`` in order, as grid functions: the rows of
    ``_codomain_rows``, which consumes the input one chunk at a time."""
    cod = mmap.derivative.codomain
    return (GridFunction(row, cod) for row in _codomain_rows(mmap, alphas))


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

    values = _codomain_rows(mmap, points())

    def central(t: float) -> np.ndarray:
        up, dn = next(values), next(values)
        return (up - dn) / (2.0 * t)

    worst = 0.0
    for h in directions:
        exact = apply(mmap.derivative, h)
        scale = max(mmap.norm_b_of(exact), 1e-300)
        err = math.inf
        for t in steps:
            fd = central(t)
            if richardson:
                fd = (4.0 * central(t / 2.0) - fd) / 3.0
            err = mmap.norm_b_of_row(fd - exact.values) / scale
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
    best = 0.0
    values = _codomain_rows(mmap, (a0.values + d.values for d in deviations))
    for d, m_val in zip(deviations, values):
        dn = mmap.norm_a_of(d)
        if dn == 0.0:
            raise ValueError("deviations must have nonzero norm")
        rem = m_val - m0 - apply_values(mmap.derivative, d.values)
        best = max(best, mmap.norm_b_of_row(rem) / dn**r)
    return best


@dataclass(frozen=True)
class RankReport:
    holds: bool
    sigma_min: float
    sigma_max: float
    vacuous: bool = False


def rank_condition(
    op: LinearOperator, tol: float, subspace: OrthonormalBasis | None = None
) -> RankReport:
    """Injectivity proxy: smallest singular value above tol * largest.

    With a subspace the operator is restricted to that span first; a
    subspace of more than ``MAX_AXIS_POINTS`` elements exceeds the
    dense-storage cap and raises ValueError.  An empty subspace makes the
    condition vacuously true; that case is flagged with a warning and not
    reported as success.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if subspace is not None and len(subspace) == 0:
        warnings.warn(
            "rank condition on an empty subspace is vacuous, not a success",
            stacklevel=2,
        )
        return RankReport(holds=False, sigma_min=math.nan, sigma_max=math.nan,
                          vacuous=True)
    if subspace is None:
        s = singular_values(op)
        dom_dim = op.domain.size
    else:
        if not subspace.measure.same_as(op.domain):
            raise GridMismatchError("subspace does not live on the operator domain")
        # the restriction in subspace coordinates, on a unit-weight grid
        dom_dim = len(subspace)
        s = singular_values(LinearOperator(
            op.action_matrix() @ subspace.matrix(),
            GridMeasure(np.arange(dom_dim, dtype=float), np.ones(dom_dim)),
            op.codomain,
        ))
    # a domain larger than the codomain always has a null space
    smin = 0.0 if dom_dim > op.codomain.size else float(s[-1])
    smax = float(s[0])
    return RankReport(holds=smin > tol * smax, sigma_min=smin, sigma_max=smax)


def in_identification_set(
    delta: GridFunction,
    op: LinearOperator,
    bound: NonlinearityBound,
    norm_a: Callable[[GridFunction], float] | None = None,
) -> bool:
    """Strict test ||m' d|| > L ||d||^r; the zero deviation is excluded."""
    dev = norm(delta) if norm_a is None else float(norm_a(delta))
    lin = norm(apply(op, delta))
    return lin > bound.L * dev**bound.r


def in_ellipsoid(
    b: Sequence[float], mu: Sequence[float], bound: NonlinearityBound
) -> bool:
    """Source-condition ellipsoid sum_j mu_j^(-2/(r-1)) b_j^2 < L^(-2/(r-1)).

    Membership implies membership of the corresponding deviation in the
    identification set for the same (L, r).  Requires r > 1 and L > 0.
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
    p = 2.0 / (bound.r - 1.0)
    return float(np.sum(mu ** (-p) * b**2)) < bound.L ** (-p)


def sample_ellipsoid_deviations(
    dec: SvdDecomposition,
    bound: NonlinearityBound,
    n: int,
    rng: np.random.Generator,
    decay: float = 0.75,
    scale_range: tuple[float, float] = (0.2, 0.9),
    first_mass: float = 0.3,
) -> list[tuple[GridFunction, np.ndarray]]:
    """Draw deviations strictly inside the source-condition ellipsoid.

    Coefficients follow a geometric decay over the singular basis with a
    guaranteed share on the leading component, so the image norm never falls
    to numerical-zero scale.
    """
    if bound.r <= 1 or bound.L <= 0:
        raise ValueError("ellipsoid sampling requires r > 1 and L > 0")
    mu = dec.singular_values
    k = mu.size
    mat = dec.right_functions.matrix()
    out = []
    power = 1.0 / (bound.r - 1.0)
    profile = decay ** np.arange(k)
    l_p = bound.L ** (-power)
    mu_p = mu**power
    for _ in range(n):
        raw = rng.standard_normal(k) * profile
        raw /= np.linalg.norm(raw)
        c = raw * (1.0 - first_mass)
        c[0] += math.copysign(first_mass, raw[0] if raw[0] != 0 else 1.0)
        c /= np.linalg.norm(c)
        s = rng.uniform(*scale_range)
        b = s * l_p * mu_p * c
        delta = GridFunction(mat @ b, dec.right_functions.measure)
        out.append((delta, b))
    return out


def geometric_deviation_sampler(
    dec: SvdDecomposition,
    bound: NonlinearityBound,
    rng: np.random.Generator,
    decay: float = 0.7,
    scale: float = 1.0,
) -> GridFunction:
    """Random deviation with geometrically decaying singular-basis coefficients.

    The magnitude is drawn below the direction's own identification-set cap,
    which keeps rejection rates low; membership is still verified by the
    caller, never assumed.
    """
    mu = dec.singular_values
    k = mu.size
    mat = dec.right_functions.matrix()
    raw = rng.standard_normal(k) * decay ** np.arange(k)
    nrm = np.linalg.norm(raw)
    if nrm == 0.0:
        raw[0] = 1.0
        nrm = 1.0
    raw /= nrm
    cap = min(scale, bound.radius if math.isfinite(bound.radius) else scale)
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
    rows: list = field(default_factory=list)

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
    keep_rows: bool = False,
) -> LocalIdReport:
    """Monte Carlo check of the identification inequality on the target set.

    Draws deviations, rejects those outside the curvature neighborhood or the
    identification set ||m' d|| > L ||d||^r, and for every accepted alpha
    verifies both ||m(alpha) - m'(alpha - alpha0)|| < ||m'(alpha - alpha0)||
    and ||m(alpha)|| above numerical-zero scale; all codomain norms are the
    map's own.  Raises EmptyNeighborhoodError if the rejection budget runs
    out.
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
        if enforce_membership and not bound.contains_deviation(delta, dev_norm):
            return None
        lin = apply(op, delta)
        lin_n = mmap.norm_b_of(lin)
        if enforce_membership and not lin_n > bound.L * dev_norm**bound.r:
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
        mmap, (a0.values + item[0].values for _, item in accepted))
    rows = []
    for (_, (delta, dev_norm, lin, lin_n)), m_val in zip(accepted, values):
        rem = mmap.norm_b_of_row(m_val - lin.values)
        m_n = mmap.norm_b_of_row(m_val)
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
        rows=rows if keep_rows else [],
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


def _validate_counterexample_f(f: Callable, scan: np.ndarray) -> None:
    vals = np.asarray(f(scan), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("f must be finite on the scan range")
    for root in (0.0, 1.0):
        if abs(float(f(root))) > 1e-12:
            raise ValueError(f"f must vanish at {root}")
    h = 1e-6
    slope = (float(f(h)) - float(f(-h))) / (2 * h)
    if abs(slope - 1.0) > 1e-4:
        raise ValueError(f"f must have unit slope at 0, measured {slope:.6f}")
    sign_changes = np.flatnonzero(vals[:-1] * vals[1:] < 0)
    for idx in sign_changes:
        lo, hi = scan[idx], scan[idx + 1]
        if not any(lo - 1e-9 <= root <= hi + 1e-9 for root in (0.0, 1.0)):
            raise ValueError(
                f"f changes sign away from {{0, 1}} in [{lo:.4f}, {hi:.4f}]"
            )


def measure_curvature_constant(
    f: Callable, scan_lo: float = -6.0, scan_hi: float = 6.0, n: int = 24001
) -> float:
    """sup |f''| / 2 by central second differences on a fine scan grid."""
    x = np.linspace(scan_lo, scan_hi, n)
    h = x[1] - x[0]
    v = np.asarray(f(x), dtype=float)
    second = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
    return float(np.abs(second).max() / 2.0)


def quartic_norm(delta: GridFunction) -> float:
    """(sum_j p_j d_j^4)^(1/4), the stronger norm of the counterexample domain."""
    return float(np.dot(delta.measure.weights, delta.values**4) ** 0.25)


def in_counterexample_set(p: np.ndarray, alpha: np.ndarray, L: float) -> bool:
    """Strict test (sum p a^2)^(1/2) > L (sum p a^4)^(1/2)."""
    lhs = math.sqrt(float(np.dot(p, alpha**2)))
    rhs = L * math.sqrt(float(np.dot(p, alpha**4)))
    return lhs > rhs


@dataclass(frozen=True)
class CounterexampleCase:
    k: int
    m_norm: float
    dev_norm: float
    in_n: bool
    L: float
    alpha: np.ndarray


def counterexample_cases(
    ks: Sequence[int],
    p: np.ndarray | None = None,
    f: Callable | None = None,
    n_terms: int = 64,
) -> list[CounterexampleCase]:
    """``counterexample(k)`` for every k in ``ks``, in order.

    The two 24,001-point scans that validate ``f`` and measure its
    curvature constant run once for all of them.
    """
    for k in ks:
        if k < 1:
            raise ValueError("k must be at least 1")
    if p is None:
        p = dyadic_weights(n_terms)
    else:
        p = np.asarray(p, dtype=float)
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")
    if f is None:
        f = default_counterexample_f
    _validate_counterexample_f(f, np.linspace(-6.0, 6.0, 24001))
    L = measure_curvature_constant(f)
    if L < 1.0:
        raise ValueError(
            f"measured curvature constant {L:.6f} < 1 contradicts f(1) = 0 "
            "with unit slope at 0; check the supplied f"
        )
    cases = []
    for k in ks:
        alpha = np.zeros(p.size)
        alpha[k:] = 1.0
        cases.append(CounterexampleCase(
            k=k,
            m_norm=weighted_norm(np.asarray(f(alpha), dtype=float), p),
            dev_norm=float(np.dot(p, alpha**4) ** 0.25),
            in_n=in_counterexample_set(p, alpha, L),
            L=L,
            alpha=alpha,
        ))
    return cases


def counterexample(
    k: int,
    p: np.ndarray | None = None,
    f: Callable | None = None,
    n_terms: int = 64,
) -> CounterexampleCase:
    """Evaluate the sequence alpha^k = (0,...,0,1,1,...) in the truncated model.

    Returns the residual norm (exactly zero), the quartic deviation norm
    (tail mass to the 1/4 power), membership in the identification set with
    L = sup|f''|/2, and the measured L itself, which must be at least one.
    """
    return counterexample_cases([k], p, f, n_terms)[0]


def counterexample_map(
    p: np.ndarray | None = None,
    f: Callable | None = None,
    n_terms: int = 64,
) -> tuple[MomentMap, NonlinearityBound]:
    """The truncated sequence model as a moment map with quartic domain norm."""
    if p is None:
        p = dyadic_weights(n_terms)
    if f is None:
        f = default_counterexample_f
    mu = GridMeasure(np.arange(1, p.size + 1, dtype=float), p)
    a0 = GridFunction.zero(mu)

    def eval_fn(alpha: GridFunction) -> GridFunction:
        return GridFunction(np.asarray(f(alpha.values), dtype=float), mu)

    mmap = MomentMap(
        base_point=a0,
        eval_fn=eval_fn,
        derivative=LinearOperator.identity(mu),
        norm_a=quartic_norm,
    )
    L = measure_curvature_constant(f)
    return mmap, NonlinearityBound(L=L, r=2.0)


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


def cone_classify(
    mmap: MomentMap, alpha: GridFunction, eta: float, tol: float | None = None
) -> ConeMembership:
    """Evaluate the defining norms of the cone sets and set the four flags.

    The unrestricted sets use numerical positivity (norm above tol); the
    eta-sets are the inequality comparisons of the remainder against eta
    times the map norm and the linearization norm respectively.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if tol is None:
        tol = positivity_tol(singular_values(mmap.derivative)[0])
    delta = alpha - mmap.base_point
    m_val = mmap.eval(alpha)
    lin = apply(mmap.derivative, delta)
    m_n = mmap.norm_b_of(m_val)
    lin_n = mmap.norm_b_of(lin)
    rem_n = mmap.norm_b_of(m_val - lin)
    return ConeMembership(
        in_n=m_n > tol,
        in_nprime=lin_n > tol,
        in_n_eta=rem_n <= eta * m_n,
        in_nprime_eta=rem_n <= eta * lin_n,
        eta=eta,
        m_norm=m_n,
        linear_norm=lin_n,
        remainder_norm=rem_n,
        deviation_norm=mmap.norm_a_of(delta),
    )


_CONE_CHECKS = (
    "inclusion_eta_rank_in_id",
    "inclusion_etaprime_id_in_rank",
    "inclusion_eta_id_in_rank",
    "inclusion_etaprime_rank_in_id",
    "equality_eta_rank_vs_id",
    "equality_etaprime_rank_vs_id",
    "cone_transfer_eta_to_etaprime",
    "cone_transfer_etaprime_to_eta",
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
    in_n = m_n > 0.0
    in_np = lin_n > 0.0
    in_ne = rem_n <= eta * m_n
    in_npe = rem_n <= eta * lin_n
    below = eta < 1.0
    ratio = _transfer_ratio(eta)
    # the eta/(1-eta) bounds on the remainder norm that the transfers claim
    bounds = {"cone_transfer_eta_to_etaprime": ratio * lin_n,
              "cone_transfer_etaprime_to_eta": ratio * m_n}
    # check -> (premise, conclusion), per instance
    relations = {
        "inclusion_eta_rank_in_id": (in_ne & in_np, in_n),
        "inclusion_etaprime_id_in_rank": (in_npe & in_n, in_np),
        "inclusion_eta_id_in_rank": (below & in_ne & in_n, in_np),
        "inclusion_etaprime_rank_in_id": (below & in_npe & in_np, in_n),
        "equality_eta_rank_vs_id": (below & in_ne, in_np == in_n),
        "equality_etaprime_rank_vs_id": (below & in_npe, in_np == in_n),
        "cone_transfer_eta_to_etaprime":
            (below & in_ne,
             rem_n <= bounds["cone_transfer_eta_to_etaprime"] + eps),
        "cone_transfer_etaprime_to_eta":
            (below & in_npe,
             rem_n <= bounds["cone_transfer_etaprime_to_eta"] + eps),
    }
    return ConeChunkFlags(
        m_norm=m_n, linear_norm=lin_n, remainder_norm=rem_n,
        in_n=in_n, in_nprime=in_np, in_n_eta=in_ne, in_nprime_eta=in_npe,
        premises={name: p for name, (p, _) in relations.items()},
        violations={name: p & ~c for name, (p, c) in relations.items()},
        near_bound={
            name: relations[name][0] & (b > 0.0) & (rem_n >= NEAR_BOUND * b)
            for name, b in bounds.items()
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
    violations: dict = field(default_factory=dict)
    premises: dict = field(default_factory=dict)
    near_bound: dict = field(default_factory=dict)

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())


_CONE_INCLUSIONS = _CONE_CHECKS[:4]
_CONE_TRANSFERS = _CONE_CHECKS[6:]


def cone_inclusion_suite(
    instances: int, dim: int, rng_seed: int, slack: float = 1e-12
) -> ConeSuiteReport:
    """Random finite-dimensional stress test of the cone-set relations.

    Each instance draws a linear part, a quadratic remainder vanishing at the
    base point, a deviation and an eta (see ``draw_cone_chunk``), then checks
    every inclusion between the four sets (the eta < 1 ones only when
    eta < 1), the two equalities that hold for eta < 1, and the two
    eta/(1-eta) transfers.  The transfers compare norms of the same
    floating-point vectors, so a roundoff slack proportional to the norm
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
    violations = dict.fromkeys(_CONE_CHECKS, 0)
    premises = dict.fromkeys(_CONE_INCLUSIONS + ("zero_linear_term",), 0)
    near_bound = dict.fromkeys(_CONE_TRANSFERS, 0)
    for start in range(0, instances, CONE_CHUNK):
        n = min(CONE_CHUNK, instances - start)
        flags = evaluate_cone_chunk(draw_cone_chunk(rng, n, dim), slack)
        for name in _CONE_CHECKS:
            violations[name] += int(np.count_nonzero(flags.violations[name]))
        for name in _CONE_INCLUSIONS:
            premises[name] += int(np.count_nonzero(flags.premises[name]))
        premises["zero_linear_term"] += int(
            np.count_nonzero(flags.linear_norm == 0.0))
        for name in _CONE_TRANSFERS:
            near_bound[name] += int(np.count_nonzero(flags.near_bound[name]))
    return ConeSuiteReport(instances=instances, violations=violations,
                           premises=premises, near_bound=near_bound)
