"""Randomized generic operators and Monte Carlo injectivity studies.

Operators are drawn as kappa * sum_j lambda_j <phi_j, .> psi_j over supplied
orthonormal families, with lambda_j = u_j sigma_j for uniform u_j on [-1, 1].
Optional variants enforce a compactness decay test on sigma, or construct
a nonnegative kernel or unit kernel row sums (a conditional-density
operator): the library checks each construction's preconditions, and a run
checks the property it built.  Each draw reads trunc_n uniforms, one per
term.  A Monte Carlo study reads all its draws from one generator stream,
the first of them being the single draw at the same seed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .fnspace import GridMeasure, OrthonormalBasis
from .linop import LinearOperator, OperatorStack, singular_values

# mc_injectivity draws and decomposes this many operators at a time.  A
# chunk's buffers are a few (DRAW_CHUNK, n, n) stacks: about 0.15 MB each
# at n = 48.
DRAW_CHUNK = 8


@dataclass(frozen=True)
class GeneratorConfig:
    """Bounds sigma_j for |lambda_j|, global scale kappa, truncation length."""

    sigma: np.ndarray
    kappa: float
    trunc_n: int
    compact: bool = False
    positive: bool = False
    density: bool = False

    def __post_init__(self):
        try:
            trunc_n = operator.index(self.trunc_n)
        except TypeError:
            raise TypeError(
                f"trunc_n must be an integer, got {self.trunc_n!r}") from None
        s = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        if not (np.isfinite(s).all() and (s > 0).all()):
            raise ValueError("sigma entries must be finite and positive")
        if not 0 < self.kappa < np.inf:  # False on NaN as well
            raise ValueError("kappa must be finite and positive")
        if trunc_n < 1:
            raise ValueError("trunc_n must be at least 1")
        if self.compact and trunc_n < 2:
            raise ValueError(
                "the compactness test fits a slope to log sigma_j^2 and needs "
                f"trunc_n >= 2 points, got trunc_n = {trunc_n}"
            )
        if s.size < trunc_n:
            raise ValueError("sigma must provide at least trunc_n entries")
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "trunc_n", trunc_n)

    def tail_mass(self) -> float:
        """Neglected squared mass sum of sigma_j^2 beyond the truncation."""
        return float(np.sum(self.sigma[self.trunc_n:] ** 2))

    def compact_decay_ok(self) -> bool:
        """Decay-rate proxy for square-summability on the truncation.

        Fits log sigma_j^2 against log j and requires a slope below -1, the
        threshold at which the tail sum converges for power-law decay.
        """
        j = np.arange(1, self.trunc_n + 1, dtype=float)
        y = 2.0 * np.log(self.sigma[: self.trunc_n])
        slope = np.polyfit(np.log(j), y, 1)[0]
        return bool(slope < -1.0)


@dataclass(frozen=True)
class OperatorDraw:
    operator: LinearOperator
    lambdas: np.ndarray
    kappa: float
    seed: int
    c_bound: float | None


@dataclass(frozen=True)
class _DrawSetup:
    """What every draw on one (config, bases) pair shares, validated once."""

    config: GeneratorConfig
    phi_mat: np.ndarray
    psi_mat: np.ndarray
    domain: GridMeasure
    codomain: GridMeasure
    c_bound: float | None


def _setup_draws(
    config: GeneratorConfig,
    bases: tuple[OrthonormalBasis, OrthonormalBasis],
) -> _DrawSetup:
    """The per-configuration checks of :func:`draw_operator`: basis length,
    the compactness decay test, the positivity preconditions and probability
    grids for the density variant; with positivity, also the sup bound c of
    the bases plus ten percent.  The finiteness of the entries and the
    dense-storage axis cap are checked on each stack of draws
    (``OperatorStack``)."""
    phi, psi = bases
    n = config.trunc_n
    if len(phi) < n or len(psi) < n:
        raise ValueError("bases must provide at least trunc_n elements")
    if config.compact and not config.compact_decay_ok():
        raise ValueError("sigma decay fails the compactness (square-summable) test")
    phi_mat, psi_mat = phi.matrix()[:, :n], psi.matrix()[:, :n]

    c_bound = None
    if config.positive or config.density:
        for name, mat in (("phi", phi_mat), ("psi", psi_mat)):
            lead = mat[:, 0]
            if np.ptp(lead) > 1e-12 * (1.0 + np.abs(lead).max()):
                raise ValueError(
                    f"positivity needs a constant leading element in the "
                    f"{name} basis"
                )
        c_bound = 1.1 * float(max(np.abs(phi_mat).max(),
                                  np.abs(psi_mat).max()))
        if config.density and not (
            phi.measure.is_probability and psi.measure.is_probability
        ):
            raise ValueError("the density variant needs probability grids")
    return _DrawSetup(config, phi_mat, psi_mat, phi.measure, psi.measure,
                      c_bound)


def _draw_stack(
    setup: _DrawSetup, u: np.ndarray
) -> tuple[OperatorStack, np.ndarray, np.ndarray]:
    """The realizations for the uniforms ``u`` on validated bases, in order:
    their operators as one stack, the coefficients lambda (one row per draw)
    and the scales kappa.  It checks no property of the kernels it builds:
    the positive and density constructions rest on the preconditions that
    :func:`_setup_draws` checked.

    Row i of ``u`` holds draw i's ``trunc_n`` uniforms on [-1, 1], the
    next ``trunc_n`` values of the caller's generator stream.
    """
    config = setup.config
    n = config.trunc_n
    lam = u * config.sigma[:n]
    kappa = np.full(len(u), float(config.kappa))
    if config.positive or config.density:
        lam[:, 0] = (setup.c_bound**2 * np.sum(np.abs(lam[:, 1:]), axis=1)
                     + np.abs(u[:, 0]) * config.sigma[0])
        if config.density:
            kappa = 1.0 / lam[:, 0]

    # kappa * (psi * lam) @ phi.T for each draw, grouped as one draw groups it
    kernels = np.matmul(
        kappa[:, None, None] * (setup.psi_mat[None] * lam[:, None, :]),
        setup.phi_mat.T)
    return OperatorStack(kernels, setup.domain, setup.codomain), lam, kappa


def draw_operator(
    config: GeneratorConfig,
    bases: tuple[OrthonormalBasis, OrthonormalBasis],
    seed: int,
) -> OperatorDraw:
    """One realization of the random operator on the supplied bases.

    With the positive flag the zeroth basis elements must be the constant
    function and the leading coefficient is replaced by
    c^2 sum_{j>=1} |lambda_j| + |u_0| sigma_0, which dominates the mixed terms
    and makes the kernel nonnegative at every node pair; c is the measured
    sup bound of the bases plus ten percent.  The density flag
    additionally rescales kappa so the leading coefficient contributes unit
    kernel row sums.  This is the one-draw case of :func:`_draw_stack`, on
    the first uniforms of numpy's ``default_rng(seed)``, so it equals draw 0
    of :func:`mc_injectivity` at the same seed, bit for bit.
    """
    setup = _setup_draws(config, bases)
    # an integer only: default_rng would also take None, OS entropy
    u = np.random.default_rng(operator.index(seed)).uniform(
        -1.0, 1.0, size=config.trunc_n)
    ops, lam, kappa = _draw_stack(setup, u[None])
    op = LinearOperator(ops.entries[0], setup.domain, setup.codomain)
    return OperatorDraw(operator=op, lambdas=lam[0], kappa=float(kappa[0]),
                        seed=seed, c_bound=setup.c_bound)


@dataclass
class InjectivityReport:
    draws: int
    sigma_min: np.ndarray
    fraction_below_tol: float
    max_spectrum_deviation: float
    tail_mass: float


def mc_injectivity(
    config: GeneratorConfig,
    bases: tuple[OrthonormalBasis, OrthonormalBasis],
    draws: int,
    tol: float,
    seed: int,
) -> InjectivityReport:
    """Monte Carlo distribution of the smallest truncated singular value.

    For each draw the top trunc_n singular values of the realized operator
    are compared against |kappa lambda_j| sorted decreasingly (they agree to
    machine scale on truncations), and sigma_min is the last of them.  The
    report gives the fraction of draws with sigma_min at or below
    tol * sigma_max, predicted to be zero.

    The uniforms of every draw come from one stream,
    ``np.random.default_rng(seed)``: draw i is built from row i of
    ``default_rng(seed).uniform(-1, 1, (draws, trunc_n))``, so draw 0 is
    ``draw_operator`` at ``seed``, bit for bit.  The draws are made,
    checked and decomposed ``DRAW_CHUNK`` at a time, each chunk continuing
    the stream, with one stacked values-only SVD per chunk.
    """
    if draws < 1:
        raise ValueError("draws must be at least 1")
    if not 0 < tol < np.inf:  # False on NaN as well
        raise ValueError(f"tol must be finite and positive, got {tol}")
    setup = _setup_draws(config, bases)
    # an integer only: default_rng would also take None, OS entropy
    rng = np.random.default_rng(operator.index(seed))
    n = config.trunc_n
    sig_min = np.empty(draws)
    worst_dev = 0.0
    below = 0
    for start in range(0, draws, DRAW_CHUNK):
        u = rng.uniform(-1.0, 1.0,
                        size=(min(DRAW_CHUNK, draws - start), n))
        ops, lam, kappa = _draw_stack(setup, u)
        s = singular_values(ops)[:, :n]
        expected = np.sort(np.abs(kappa[:, None] * lam), axis=1)[:, ::-1]
        worst_dev = max(worst_dev, float(np.abs(s - expected).max()))
        sig_min[start:start + len(s)] = s[:, -1]
        below += int(np.count_nonzero(s[:, -1] <= tol * s[:, 0]))
    return InjectivityReport(
        draws=draws,
        sigma_min=sig_min,
        fraction_below_tol=below / draws,
        max_spectrum_deviation=worst_dev,
        tail_mass=config.tail_mass(),
    )
