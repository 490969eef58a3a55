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
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import GridMismatchError
from .fnspace import (
    FunctionStack,
    GridFunction,
    GridMeasure,
    norm,
    weighted_norms,
)
from .linop import (
    LinearOperator,
    SvdDecomposition,
    apply_rows,
    singular_values,
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

    ``norm_a`` overrides the weighted-L2 norm of the domain grid: it maps a
    :class:`FunctionStack` of deviations to their norms, one per function.
    The sequence-space counterexample uses a quartic domain norm, everything
    else keeps the default.  Codomain norms are always weighted L2.
    """

    base_point: GridFunction
    eval_rows: Callable[[np.ndarray], np.ndarray]
    derivative: LinearOperator
    norm_a: Callable[[FunctionStack], np.ndarray] | None = None

    def __post_init__(self):
        if not self.base_point.measure.same_as(self.derivative.domain):
            raise GridMismatchError("base point does not live on the derivative domain")
        r0 = norm(self.eval(self.base_point))
        if r0 > RESIDUAL_TOL:
            raise ValueError(
                f"moment map violates m(alpha0) = 0: residual {r0:.3e}"
            )

    def eval(self, alpha: GridFunction) -> GridFunction:
        """m(alpha), evaluated as a one-row stack."""
        if not alpha.measure.same_as(self.base_point.measure):
            raise GridMismatchError("alpha does not live on the domain grid")
        cod = self.derivative.codomain
        return GridFunction(
            _eval_stack(self.eval_rows, cod, alpha.values[None])[0], cod)

    def norm_a_rows(self, devs: FunctionStack) -> np.ndarray:
        """The domain norm of each deviation of ``devs``: ``norm_a``, or the
        weighted-L2 norm of the stack's grid."""
        if self.norm_a is None:
            return weighted_norms(devs.values, devs.measure.weights)
        out = np.asarray(self.norm_a(devs), dtype=float)
        if out.shape != (len(devs),):
            raise GridMismatchError(
                f"norm_a returned shape {out.shape} for {len(devs)} deviations")
        return out


def _check_exponent(r: float) -> None:
    """Reject a remainder exponent r that is not finite or below one: at
    r = inf, L ||d||^r is 0 for every ||d|| < 1, and a NaN r compares
    False against everything."""
    if not 1 <= r < np.inf:
        raise ValueError(f"r must be finite and at least 1, got {r}")


@dataclass(frozen=True)
class NonlinearityBound:
    """Curvature constant L and exponent r of the remainder bound
    ||m(a) - m(a0) - m'(a - a0)|| <= L ||a - a0||^r."""

    L: float
    r: float

    def __post_init__(self):
        if not 0 <= self.L < np.inf:  # False on NaN as well
            raise ValueError(f"L must be finite and nonnegative, got {self.L}")
        _check_exponent(self.r)

    def separates(self, lin_norm: float, dev_norm: float) -> bool:
        """The identification-set test ||m' d|| > L ||d||^r, given the two
        norms ||m' d|| and ||d||."""
        return lin_norm > self.L * dev_norm**self.r


# Every evaluation hands a map's eval_rows at most this many rows at a time.
EVAL_CHUNK = 64


def _codomain_chunks(
    eval_rows: Callable[[np.ndarray], np.ndarray],
    cod: GridMeasure,
    stacks: Iterable[np.ndarray],
) -> Iterator[np.ndarray]:
    """Value stacks on the codomain ``cod`` of the map ``eval_rows`` at each
    of ``stacks`` of domain value rows, in order.  Each stack is checked for
    finiteness, evaluated in one ``eval_rows`` call, and the returned stack
    checked for shape and finiteness."""
    for stack in stacks:
        if not np.isfinite(stack).all():
            raise ValueError("domain values must be finite")
        out = np.asarray(eval_rows(stack), dtype=float)
        if out.shape != (len(stack), cod.size):
            raise GridMismatchError(
                f"eval_rows returned shape {out.shape} for {len(stack)} "
                f"rows on a {cod.size}-point codomain"
            )
        if not np.isfinite(out).all():
            raise ValueError("eval_rows returned values that are not finite")
        yield out


def _chunks(rows: np.ndarray, size: int) -> list[np.ndarray]:
    """Consecutive views of at most ``size`` rows of a stack."""
    return [rows[i:i + size] for i in range(0, len(rows), size)]


def _eval_stack(eval_rows: Callable, cod: GridMeasure, rows: np.ndarray):
    """The (B, n_codomain) values of the map ``eval_rows`` at each row of a
    (B, n) stack, ``EVAL_CHUNK`` rows per :func:`_codomain_chunks` call.
    A stack of one chunk is not copied."""
    out = list(_codomain_chunks(eval_rows, cod, _chunks(rows, EVAL_CHUNK)))
    return out[0] if len(out) == 1 else np.concatenate(out)


def _chunks_at(
    mmap: MomentMap, devs: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(d, m(alpha0 + d)) for each ``EVAL_CHUNK`` rows d of a deviation
    stack, so that no harness holds a temporary of the whole stack."""
    chunks = _chunks(devs, EVAL_CHUNK)
    a0 = mmap.base_point.values
    return zip(chunks, _codomain_chunks(
        mmap.eval_rows, mmap.derivative.codomain, (a0 + d for d in chunks)))


def zero_threshold(sigma_max: float, dev_norm):
    """The one zero rule for map values: ||m(alpha)|| is nonzero above this
    threshold, 1e-10 sigma_max ||d||, with ||d|| the weighted-L2 norm of
    alpha - alpha0 on the derivative's domain grid, where sigma_max is
    taken.  Scaling m moves norm and threshold alike; sigma_max = 0 is exact
    positivity.  ``zero_threshold(sigma_max, 1.0)`` is the coefficient."""
    return 1e-10 * float(sigma_max) * dev_norm


# a singular value is resolved above this fraction of sigma_max
RANK_CUTOFF = 1e-8


def resolved(s: np.ndarray) -> np.ndarray:
    """The one rank rule: which of the nonincreasing singular values ``s``
    are above ``RANK_CUTOFF`` times the largest.  Scaling the operator moves
    values and cutoff alike; a zero operator resolves none."""
    return s > RANK_CUTOFF * s[0]


def _check_domain(mmap: MomentMap, stack: FunctionStack, what: str) -> None:
    if not stack.measure.same_as(mmap.base_point.measure):
        raise GridMismatchError(f"{what} must live on the domain grid")


def gateaux_check(
    mmap: MomentMap,
    directions: FunctionStack,
    step: float,
) -> float:
    """Compare finite differences of m against the attached derivative.

    The step t must be positive.  Each direction's difference quotient is
    the Richardson combination (4 D(t/2) - D(t)) / 3 of the central
    differences D at t and t/2, which cancels their quadratic error term.
    Returns the worst relative error over the directions.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    _check_domain(mmap, directions, "directions")
    # the points a0 + s h at s = t, -t, t/2, -t/2 of each direction, in
    # order: EVAL_CHUNK // 4 directions make one EVAL_CHUNK-point stack
    shifts = np.array([step, -step, step / 2.0, -step / 2.0])[None, :, None]
    chunks = _chunks(directions.values, EVAL_CHUNK // 4)
    a0 = mmap.base_point.values
    points = (a0 + (h[:, None, :] * shifts).reshape(-1, a0.size)
              for h in chunks)
    w_b = mmap.derivative.codomain.weights
    worst = 0.0
    for h, m in zip(chunks, _codomain_chunks(
            mmap.eval_rows, mmap.derivative.codomain, points)):
        m = m.reshape(len(h), 4, -1)
        fd = (m[:, 0] - m[:, 1]) / (2.0 * step)
        fd = (4.0 * ((m[:, 2] - m[:, 3]) / (2.0 * (step / 2.0))) - fd) / 3.0
        exact = apply_rows(mmap.derivative, h)
        errs = weighted_norms(fd - exact, w_b).tolist()
        scales = weighted_norms(exact, w_b).tolist()
        worst = max(worst, *(e / max(s, 1e-300) for e, s in zip(errs, scales)))
    return worst


def estimate_nonlinearity(
    mmap: MomentMap, r: float, deviations: FunctionStack
) -> float:
    """Empirical curvature constant: max ||m(a0+d) - m(a0) - m'd|| / ||d||^r.

    A lower bound for any valid L on a neighborhood covering the sampled
    deviations.
    """
    _check_exponent(r)
    _check_domain(mmap, deviations, "deviations")
    dev_norms = mmap.norm_a_rows(deviations).tolist()
    if 0.0 in dev_norms:
        raise ValueError("deviations must have nonzero norm")
    m0 = mmap.eval(mmap.base_point).values
    w_b = mmap.derivative.codomain.weights
    rem_norms = []
    for d, m in _chunks_at(mmap, deviations.values):
        rem = m - m0 - apply_rows(mmap.derivative, d)
        rem_norms += weighted_norms(rem, w_b).tolist()
    return max(0.0, *(rn / dn**r for rn, dn in zip(rem_norms, dev_norms)))


@dataclass(frozen=True)
class RankReport:
    holds: bool
    sigma_min: float
    sigma_max: float


def rank_condition(op: LinearOperator) -> RankReport:
    """Injectivity proxy: the smallest singular value is ``resolved``.

    A domain larger than the codomain always has a null space, so there
    the proxy fails and ``sigma_min`` is 0.0.
    """
    s = singular_values(op)
    square_or_tall = op.domain.size <= op.codomain.size
    return RankReport(holds=square_or_tall and bool(resolved(s)[-1]),
                      sigma_min=float(s[-1]) if square_or_tall else 0.0,
                      sigma_max=float(s[0]))


def _row_norms(a: np.ndarray) -> np.ndarray:
    """The (n, 1) Euclidean norms of the rows of ``a``: one dot product per
    row, the one ``np.linalg.norm`` takes on a single row, so each norm
    has that call's bits."""
    return np.sqrt(np.matmul(a[:, None, :], a[:, :, None]))[:, 0]


def sample_ellipsoid_deviations(
    dec: SvdDecomposition,
    bound: NonlinearityBound,
    n: int,
    rng: np.random.Generator,
) -> tuple[FunctionStack, np.ndarray]:
    """Draw ``n`` deviations strictly inside the source-condition ellipsoid.

    Coefficients follow a geometric decay 0.75^j over the singular basis,
    with a share of 0.3 guaranteed on the leading component, so the image
    norm never falls to numerical-zero scale; each deviation is scaled to a
    uniform fraction in [0.2, 0.9] of the ellipsoid's extent.  Returns the
    deviations as one stack and their (n, k) singular-basis coefficients.
    """
    if bound.r <= 1 or bound.L <= 0:
        raise ValueError("ellipsoid sampling requires r > 1 and L > 0")
    mu = dec.singular_values
    k = mu.size
    power = 1.0 / (bound.r - 1.0)
    profile = 0.75 ** np.arange(k)
    l_p = bound.L ** (-power)
    mu_p = mu**power
    # two generator calls per draw, in the order of a draw at a time
    raw, s = np.empty((n, k)), []
    for row in raw:
        rng.standard_normal(out=row)
        s.append(rng.uniform(0.2, 0.9))
    raw *= profile
    raw /= _row_norms(raw)
    c = raw * 0.7
    # 0.3 toward the sign of the leading draw, + for a zero one
    c[:, 0] += np.where(raw[:, 0] < 0, -0.3, 0.3)
    c /= _row_norms(c)
    coefs = (np.array(s) * l_p)[:, None] * mu_p * c
    # one matrix-vector product per draw, as mat @ b would take
    rows = np.matmul(dec.right_functions.matrix(), coefs[:, :, None])
    return FunctionStack(rows[:, :, 0], dec.right_functions.measure), coefs


@dataclass
class LocalIdReport:
    """Outcome of ``verify_local_id``: every deviation passed exactly when
    ``failures`` is zero."""

    samples: int
    passes: int
    failures: int
    min_m_norm: float
    pos_tol: float  # the zero rule's coefficient zero_threshold(sigma_max, 1)
    rows: list


def verify_local_id(
    mmap: MomentMap,
    bound: NonlinearityBound,
    deviations: FunctionStack,
    dec: SvdDecomposition,
) -> LocalIdReport:
    """Check the identification inequality at each of the given deviations.

    A deviation d passes when it lies in the identification set
    ||m' d|| > L ||d||^r (``bound.separates``), the remainder
    ||m(alpha) - m' d|| is below ||m' d||, and ||m(alpha)|| is above the
    zero rule, at alpha = alpha0 + d.  A deviation outside the set, the
    zero deviation included, is a failed row.  ``dec`` is the derivative's
    SVD; the zero rule reads its sigma_max.  The report's ``rows`` hold
    (||d||, ||m'd||, remainder norm, ||m||, passed) per deviation, in order.
    """
    _check_domain(mmap, deviations, "deviations")
    op = mmap.derivative
    w_a, w_b = deviations.measure.weights, op.codomain.weights
    # the zero rule's ||d|| is weighted L2, whatever norm_a is
    l2s, lins, rems, ms = [], [], [], []
    for d, m in _chunks_at(mmap, deviations.values):
        lin = apply_rows(op, d)
        l2s += weighted_norms(d, w_a).tolist()
        lins += weighted_norms(lin, w_b).tolist()
        rems += weighted_norms(m - lin, w_b).tolist()
        ms += weighted_norms(m, w_b).tolist()
    devs = l2s if mmap.norm_a is None else mmap.norm_a_rows(deviations).tolist()
    rows = [(dev_n, lin_n, rem, m_n,
             bound.separates(lin_n, dev_n) and rem < lin_n
             and m_n > zero_threshold(dec.sigma_max, l2_n))
            for dev_n, lin_n, rem, m_n, l2_n in zip(devs, lins, rems, ms, l2s)]
    passes = sum(row[4] for row in rows)
    return LocalIdReport(
        samples=len(rows),
        passes=passes,
        failures=len(rows) - passes,
        min_m_norm=min(row[3] for row in rows),
        pos_tol=zero_threshold(dec.sigma_max, 1.0),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Sequence-space counterexample: smooth map, identity derivative, yet not
# locally identified on any open ball.
# ---------------------------------------------------------------------------


def counterexample_f(x):
    """x (1 - x) exp(-x^2), the scalar map of the sequence model: zeros
    exactly at 0 and 1, unit slope at 0."""
    x = np.asarray(x, dtype=float)
    return x * (1.0 - x) * np.exp(-(x**2))


def dyadic_weights(n_terms: int) -> np.ndarray:
    """Weights 2^-j for j = 1..n_terms with the tail folded into the last one."""
    p = 0.5 ** np.arange(1, n_terms + 1)
    p[-1] *= 2.0  # fold sum_{j >= n} 2^-j = 2^-(n-1)
    return p


def measure_curvature_constant() -> float:
    """sup |f''| / 2 of ``counterexample_f`` by central second differences
    on a 24,001-point scan of [-6, 6]."""
    scan = np.linspace(-6.0, 6.0, 24001)
    vals = counterexample_f(scan)
    h = scan[1] - scan[0]
    second = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h**2
    return float(np.abs(second).max() / 2.0)


def quartic_norm(devs: FunctionStack) -> np.ndarray:
    """(sum_j p_j d_j^4)^(1/4) of each deviation of ``devs``, the stronger
    norm of the counterexample domain.  Each sum is one dot product, and
    each root is taken on its own: an array power may round otherwise."""
    sums = np.matmul((devs.values**4)[:, None, :], devs.measure.weights[:, None])
    return np.array([x ** 0.25 for x in sums.ravel().tolist()])


def counterexample_map(n_terms: int) -> tuple[MomentMap, NonlinearityBound]:
    """The truncated sequence model as a moment map with quartic domain norm.

    The map sends a sequence to ``counterexample_f`` applied to each term,
    on ``n_terms`` dyadic weights.  The bound has r = 2 and the measured
    L = sup|f''|/2; since f vanishes at 0 and 1 with unit slope at 0, L is
    at least one, which the counterexample run checks.
    """
    L = measure_curvature_constant()
    mu = GridMeasure(np.arange(1, n_terms + 1, dtype=float),
                     dyadic_weights(n_terms))
    mmap = MomentMap(
        base_point=GridFunction.zero(mu),
        eval_rows=counterexample_f,
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
    ks: Sequence[int], n_terms: int
) -> list[CounterexampleCase]:
    """The sequences alpha^k = (0,...,0,1,1,...), zero in the first k
    terms, for every k in ``ks``, in order, read through one
    ``counterexample_map``: the residual norm (exactly zero), the quartic
    deviation norm (tail mass to the 1/4 power) and membership in the
    identification set, each on the whole stack, with the measured L."""
    for k in ks:
        if k < 1:
            raise ValueError("k must be at least 1")
        if k >= n_terms:
            raise ValueError(
                f"k = {k} must be below n_terms = {n_terms}: alpha^k is "
                "zero beyond the last term"
            )
    mmap, bound = counterexample_map(n_terms)
    # alpha^k: zero in the first k terms, one in the rest
    alphas = FunctionStack(np.arange(n_terms) >= np.asarray(ks)[:, None],
                           mmap.base_point.measure)
    cod = mmap.derivative.codomain
    m_norms = weighted_norms(_eval_stack(mmap.eval_rows, cod, alphas.values),
                             cod.weights).tolist()
    lins = weighted_norms(apply_rows(mmap.derivative, alphas.values),
                          cod.weights).tolist()
    return [CounterexampleCase(k=k, m_norm=m_n, dev_norm=dev,
                               in_n=bound.separates(lin, dev), L=bound.L,
                               alpha=alpha)
            for k, alpha, m_n, lin, dev in zip(
                ks, alphas.values, m_norms, lins,
                mmap.norm_a_rows(alphas).tolist())]


# ---------------------------------------------------------------------------
# Tangential cone sets
# ---------------------------------------------------------------------------


def cone_flags(m_n, lin_n, rem_n, eta, zero):
    """Membership in N, N', N_eta and N'_eta from the defining norms
    ||m(a)||, ||m'(a - a0)|| and the remainder ||m(a) - m'(a - a0)||.

    N and N' ask for the first two norms above the numerical zero ``zero``;
    the eta-sets compare the remainder against eta times each.  The
    arguments may be scalars or arrays of instances alike.
    """
    return m_n > zero, lin_n > zero, rem_n <= eta * m_n, rem_n <= eta * lin_n


# Instances drawn together by the cone suite, and instances classified
# together: a block of 16 chunks.  The largest buffer is the chunk's
# (n, dim, dim, dim) quadratic part, 0.5 MB at dim 8; the block buffer of
# four floats per instance holds 64 kB.  At dim 8 the whole suite peaks at
# about 0.9 MB of traced memory, whatever the number of instances.
CONE_CHUNK = 128
CONE_BLOCK = 16 * CONE_CHUNK


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


@functools.lru_cache(maxsize=8)
def _live_masks(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Live-entry masks of one cone instance padded to ``dim`` coordinates,
    for every size: the (dim,) mask of the first k coordinates at row
    k - 1, and for sizes (da, db) the linear part's (dim, dim) and the
    quadratic part's (dim, dim, dim) masks at row (db - 1) dim + (da - 1).
    Read-only, built once per dim."""
    coord = np.arange(dim)
    col = coord < coord[:, None] + 1
    lin = col[:, None, :, None] & col[None, :, None, :]
    quad = lin[..., None] & col[None, :, None, None, :]
    masks = (col, lin.reshape(dim * dim, dim, dim),
             quad.reshape(dim * dim, dim, dim, dim))
    for mask in masks:
        mask.flags.writeable = False
    return masks


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
    col_masks, lin_masks, quad_masks = _live_masks(dim)
    pair = (db - 1) * dim + (da - 1)
    col = col_masks.take(da - 1, axis=0)
    # only the live entries are drawn; the padding stays exactly zero
    lin_live = lin_masks.take(pair, axis=0)
    m_lin = np.zeros((n, dim, dim))
    m_lin[lin_live] = rng.standard_normal(int(np.count_nonzero(lin_live)))
    deficient = rng.uniform(size=n) < 0.15
    zeroed = rng.integers(1, db + 1)
    m_lin[deficient[:, None] & col_masks.take(zeroed - 1, axis=0)] = 0.0
    quad_live = quad_masks.take(pair, axis=0)
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


def measure_cone_chunk(chunk: ConeChunk, out: np.ndarray) -> None:
    """Write each instance's ||m(alpha)||, ||m'alpha||, remainder norm
    ||m(alpha) - m'alpha|| and eta into the rows of the (4, n) ``out``.

    The remainder is m(alpha) - m'alpha as computed.  Each norm is
    ``np.linalg.norm``'s sum of squares along the instance, bit for bit,
    taken for the three vectors at once.
    """
    alpha = chunk.alpha
    vals = np.empty((3,) + alpha.shape)
    lin_val = np.matmul(chunk.m_lin, alpha[:, :, None])[:, :, 0]
    vals[1] = lin_val
    np.add(lin_val, np.einsum("nbij,ni,nj->nb", chunk.quad, alpha, alpha),
           out=vals[0])
    np.subtract(vals[0], lin_val, out=vals[2])
    np.multiply(vals, vals, out=vals)
    np.sqrt(np.add.reduce(vals, axis=2), out=out[:3])
    out[3] = chunk.eta


@dataclass(frozen=True)
class ConeChunkFlags:
    """Per-instance results of classified instances: the three norms, the
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

    def counts(self) -> dict:
        """The tallies of ``ConeSuiteReport``, field -> name -> count, in
        report order: the violations, the inclusions' premises and the
        exactly zero linear terms, and the transfers' approached bounds."""
        premises = {name: hits for name, hits in self.premises.items()
                    if name.startswith("inclusion_")}
        premises["zero_linear_term"] = self.linear_norm == 0.0
        return {
            field: {name: int(np.count_nonzero(hits))
                    for name, hits in flags.items()}
            for field, flags in (("violations", self.violations),
                                 ("premises", premises),
                                 ("near_bound", self.near_bound))
        }


# A transfer's bound counts as approached by an instance whose remainder
# norm is at least this fraction of it.
NEAR_BOUND = 0.99


def classify_cones(measured: np.ndarray, slack: float) -> ConeChunkFlags:
    """Classify measured instances against the four cone sets.

    ``measured`` holds the rows that ``measure_cone_chunk`` writes, for any
    number of instances.  The unrestricted sets use exact positivity of the
    norms, and each transfer allows the roundoff slack * (1 + largest of the
    three norms).
    """
    m_n, lin_n, rem_n, eta = measured
    eps = slack * (1.0 + np.maximum(np.maximum(m_n, lin_n), rem_n))
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

    Instances are drawn ``CONE_CHUNK`` at a time, each padded to ``dim``
    with exact zeros (``ConeChunk``), and each chunk is measured as soon as
    it is drawn (``measure_cone_chunk``).  The measured instances are
    classified ``CONE_BLOCK`` at a time (``classify_cones``), so memory
    stays that of one chunk and one block, whatever ``instances`` is.  The
    draws run per chunk, one quantity for the whole chunk at a time, so a
    seed fixes the instances of each full chunk, and a partial last chunk
    is not the start of a full one; blocks change neither the random
    stream nor the counts.  The report also counts how often each
    inclusion's premise held, how often the linear term was exactly zero
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
    block = np.empty((4, CONE_BLOCK))
    counts = {"violations": {}, "premises": {}, "near_bound": {}}
    for first in range(0, instances, CONE_BLOCK):
        size = min(CONE_BLOCK, instances - first)
        for lo in range(0, size, CONE_CHUNK):
            n = min(CONE_CHUNK, size - lo)
            # no name holds a chunk, so it is freed before the next draw
            measure_cone_chunk(draw_cone_chunk(rng, n, dim),
                               block[:, lo:lo + n])
        # no name holds the flags either, so they go before the next block
        for field, tally in classify_cones(block[:, :size],
                                           1e-12).counts().items():
            for name, count in tally.items():
                counts[field][name] = counts[field].get(name, 0) + count
    return ConeSuiteReport(instances=instances, **counts)
