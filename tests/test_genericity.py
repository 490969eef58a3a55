import tracemalloc

import numpy as np
import pytest

from momentid import genericity
from momentid.fnspace import (
    GridFunction,
    GridMeasure,
    OrthonormalBasis,
    cosine_basis,
    inner,
)
from momentid.genericity import (
    DRAW_CHUNK,
    GeneratorConfig,
    draw_operator,
    mc_injectivity,
)
from momentid.linop import LinearOperator, apply, singular_values, svd


@pytest.fixture(scope="module")
def grid_and_basis():
    grid = GridMeasure.uniform(40)
    return grid, cosine_basis(grid, 32)


def test_single_term_is_rank_one(grid_and_basis):
    grid, basis = grid_and_basis
    config = GeneratorConfig(sigma=np.array([1.0]), kappa=1.0, trunc_n=1)
    draw = draw_operator(config, (basis, basis), seed=5)
    assert abs(draw.lambdas[0]) <= 1.0
    s = svd(draw.operator).singular_values
    assert s[0] == pytest.approx(abs(draw.lambdas[0]), abs=1e-12)
    assert np.all(s[1:] < 1e-12)


def test_same_seed_same_draw(grid_and_basis):
    _, basis = grid_and_basis
    config = GeneratorConfig(sigma=np.full(8, 0.5), kappa=2.0, trunc_n=8)
    d1 = draw_operator(config, (basis, basis), seed=11)
    d2 = draw_operator(config, (basis, basis), seed=11)
    assert np.array_equal(d1.lambdas, d2.lambdas)
    assert np.array_equal(d1.operator.entries, d2.operator.entries)


def test_realized_coefficients_within_bounds(grid_and_basis):
    _, basis = grid_and_basis
    sigma = 1.0 / np.arange(1, 13) ** 1.5
    config = GeneratorConfig(sigma=sigma, kappa=1.0, trunc_n=12)
    for seed in range(5):
        draw = draw_operator(config, (basis, basis), seed=seed)
        assert np.all(np.abs(draw.lambdas) <= sigma + 1e-15)


def test_operator_reproduces_the_sum(grid_and_basis):
    grid, basis = grid_and_basis
    rng = np.random.default_rng(3)
    config = GeneratorConfig(sigma=np.full(6, 0.8), kappa=1.7, trunc_n=6)
    draw = draw_operator(config, (basis, basis), seed=21)
    f = GridFunction(rng.standard_normal(grid.size), grid)
    direct = sum(
        draw.kappa * lam * inner(basis[j], f) * basis[j].values
        for j, lam in enumerate(draw.lambdas)
    )
    assert np.abs(apply(draw.operator, f).values - direct).max() < 1e-12


def test_positive_flag_kernel_nonnegative(grid_and_basis):
    _, basis = grid_and_basis
    sigma = 1.0 / np.arange(1, 9) ** 2
    config = GeneratorConfig(sigma=sigma, kappa=1.0, trunc_n=8, positive=True)
    for seed in range(10):
        draw = draw_operator(config, (basis, basis), seed=seed)
        assert draw.operator.entries.min() >= 0.0  # grid scan oracle


def test_positive_flag_requires_constant_lead():
    grid = GridMeasure.uniform(16)
    # drop the constant
    basis = OrthonormalBasis(cosine_basis(grid, 6).matrix()[:, 1:], grid)
    config = GeneratorConfig(sigma=np.full(4, 1.0), kappa=1.0, trunc_n=4,
                             positive=True)
    with pytest.raises(ValueError, match="constant leading"):
        draw_operator(config, (basis, basis), seed=0)


def test_density_flag_unit_row_sums(grid_and_basis):
    grid, basis = grid_and_basis
    sigma = 1.0 / np.arange(1, 11) ** 2
    config = GeneratorConfig(sigma=sigma, kappa=3.0, trunc_n=10,
                             positive=True, density=True)
    draw = draw_operator(config, (basis, basis), seed=7)
    rows = draw.operator.entries @ grid.weights
    assert np.abs(rows - 1.0).max() <= 1e-12
    assert draw.operator.entries.min() >= 0.0
    assert draw.kappa * draw.lambdas[0] == pytest.approx(1.0)


def test_compact_decay_gate():
    ok = GeneratorConfig(sigma=1.0 / np.arange(1, 21) ** 2, kappa=1.0,
                         trunc_n=20, compact=True)
    assert ok.compact_decay_ok()
    flat = GeneratorConfig(sigma=np.full(20, 0.5), kappa=1.0, trunc_n=20,
                           compact=True)
    assert not flat.compact_decay_ok()
    basis = cosine_basis(GridMeasure.uniform(24), 20)
    with pytest.raises(ValueError, match="decay"):
        draw_operator(flat, (basis, basis), seed=0)


def test_compact_decay_gate_needs_two_terms():
    # the gate fits a slope; one point would leave it undetermined
    with pytest.raises(ValueError, match="trunc_n >= 2"):
        GeneratorConfig(sigma=np.ones(3), kappa=1.0, trunc_n=1, compact=True)


@pytest.mark.parametrize("field, kwargs", [
    ("sigma", {"sigma": np.array([1.0, np.nan, 0.5])}),
    ("sigma", {"sigma": np.array([1.0, np.inf, 0.5])}),
    ("kappa", {"kappa": np.nan}),
    ("kappa", {"kappa": np.inf}),
], ids=["sigma-nan", "sigma-inf", "kappa-nan", "kappa-inf"])
def test_nonfinite_config_rejected(field, kwargs):
    # NaN compares False against zero, so a sign test alone lets it through
    args = {"sigma": np.ones(3), "kappa": 1.0, "trunc_n": 3} | kwargs
    with pytest.raises(ValueError, match=f"{field} .*finite"):
        GeneratorConfig(**args)


@pytest.mark.parametrize("trunc_n", [2.5, 3.0, "3"])
def test_non_integer_trunc_n_rejected(trunc_n):
    # 2.5 used to construct and then fail in tail_mass's slice
    with pytest.raises(TypeError, match="trunc_n must be an integer"):
        GeneratorConfig(sigma=np.ones(4), kappa=1.0, trunc_n=trunc_n)


def test_numpy_integer_trunc_n_accepted():
    config = GeneratorConfig(sigma=np.ones(4), kappa=1.0, trunc_n=np.int64(3))
    assert config.trunc_n == 3 and config.tail_mass() == 1.0


def test_tail_mass_reported():
    sigma = 1.0 / np.arange(1, 31) ** 2
    config = GeneratorConfig(sigma=sigma, kappa=1.0, trunc_n=20)
    assert config.tail_mass() == pytest.approx(np.sum(sigma[20:] ** 2))


def reference_draw(config, basis, rng):
    """One draw written out from the generator's definition, one draw at a
    time, on the next uniforms of the generator ``rng``: the coefficients,
    lambda_0 for the positive variants, and the kernel
    kappa * (psi * lambda) @ phi.T."""
    n = config.trunc_n
    u = rng.uniform(-1.0, 1.0, size=n)
    lam = u * config.sigma[:n]
    kappa = config.kappa
    mat = basis.matrix()[:, :n]
    if config.positive or config.density:
        c = 1.1 * float(np.abs(mat).max())
        lam[0] = c**2 * np.sum(np.abs(lam[1:])) + abs(u[0]) * config.sigma[0]
        if config.density:
            kappa = 1.0 / lam[0]
    return kappa * (mat * lam[None, :]) @ mat.T, lam, kappa


@pytest.mark.parametrize("flags", [
    {},
    {"positive": True},
    {"positive": True, "density": True},
], ids=["plain", "positive", "density"])
def test_draws_match_the_one_at_a_time_reference(grid_and_basis, flags):
    _, basis = grid_and_basis
    config = GeneratorConfig(sigma=1.0 / np.arange(1, 13) ** 2, kappa=1.3,
                             trunc_n=12, **flags)
    for seed in range(6):
        draw = draw_operator(config, (basis, basis), seed)
        kernel, lam, kappa = reference_draw(config, basis,
                                            np.random.default_rng(seed))
        assert np.array_equal(draw.operator.entries, kernel)
        assert np.array_equal(draw.lambdas, lam)
        assert draw.kappa == kappa


def reference_loop(config, basis, draws, tol, seed, decompose):
    """mc_injectivity written out one draw at a time over one generator
    stream: sigma_min per draw, the fraction at or below tol * sigma_max,
    and the largest spectrum deviation, each draw's operator decomposed by
    ``decompose``."""
    grid = basis.measure
    n = config.trunc_n
    rng = np.random.default_rng(seed)
    ref_min = np.empty(draws)
    below, worst = 0, 0.0
    for i in range(draws):
        kernel, lam, kappa = reference_draw(config, basis, rng)
        s = decompose(LinearOperator(kernel, grid, grid))[:n]
        expected = np.sort(np.abs(kappa * lam))[::-1]
        worst = max(worst, float(np.abs(s - expected).max()))
        ref_min[i] = s[-1]
        below += int(s[-1] <= tol * s[0])
    return ref_min, below / draws, worst


@pytest.mark.filterwarnings("error")
class TestBulkSetupMatchesNumpy:
    """The generator of mc_injectivity is numpy's own default_rng(seed),
    the one draw_operator reads: its stream starts with draw_operator's
    draw and runs on through the chunks."""

    @pytest.mark.parametrize("flags", [{}], ids=["plain"])
    def test_draw_kernels_continue_one_stream(self, grid_and_basis, flags,
                                              monkeypatch):
        _, basis = grid_and_basis
        config = GeneratorConfig(sigma=1.0 / np.arange(1, 13) ** 2,
                                 kappa=1.3, trunc_n=12, **flags)
        seed, draws = 20250809, 2 * DRAW_CHUNK + 3
        kernels = []

        def recording(ops):
            kernels.extend(ops.entries.copy())
            return singular_values(ops)

        monkeypatch.setattr(genericity, "singular_values", recording)
        mc_injectivity(config, (basis, basis), draws=draws, tol=1e-12,
                       seed=seed)
        assert len(kernels) == draws
        first = draw_operator(config, (basis, basis), seed)
        assert np.array_equal(kernels[0], first.operator.entries)
        rng = np.random.default_rng(seed)
        for kernel in kernels:
            assert np.array_equal(kernel,
                                  reference_draw(config, basis, rng)[0])

    def test_shorter_run_is_a_prefix(self, grid_and_basis):
        _, basis = grid_and_basis
        config = GeneratorConfig(sigma=1.0 / np.arange(1, 13) ** 2,
                                 kappa=1.3, trunc_n=12)
        short, long = (mc_injectivity(config, (basis, basis), draws=draws,
                                      tol=1e-12, seed=3)
                       for draws in (17, 200))
        assert np.array_equal(short.sigma_min, long.sigma_min[:17])

    def test_negative_seed_raises_as_numpy_does(self, grid_and_basis):
        _, basis = grid_and_basis
        with pytest.raises(ValueError, match="non-negative"):
            np.random.default_rng(-1)
        config = GeneratorConfig(sigma=np.ones(3), kappa=1.0, trunc_n=3)
        with pytest.raises(ValueError, match="non-negative"):
            draw_operator(config, (basis, basis), seed=-1)
        with pytest.raises(ValueError, match="non-negative"):
            mc_injectivity(config, (basis, basis), draws=2, tol=1e-12,
                           seed=-1)

    @pytest.mark.parametrize("seed", [None, 1.5])
    def test_seed_must_be_an_integer(self, grid_and_basis, seed):
        # numpy's default_rng(None) would draw from OS entropy
        _, basis = grid_and_basis
        config = GeneratorConfig(sigma=np.ones(3), kappa=1.0, trunc_n=3)
        with pytest.raises(TypeError):
            draw_operator(config, (basis, basis), seed=seed)
        with pytest.raises(TypeError):
            mc_injectivity(config, (basis, basis), draws=2, tol=1e-12,
                           seed=seed)


class TestMcInjectivity:
    def test_spectrum_matches_sorted_coefficients(self, grid_and_basis):
        _, basis = grid_and_basis
        sigma = 1.0 / np.arange(1, 21) ** 2
        config = GeneratorConfig(sigma=sigma, kappa=1.3, trunc_n=20)
        report = mc_injectivity(config, (basis, basis), draws=1,
                                tol=1e-12, seed=4)
        assert report.max_spectrum_deviation <= 1e-10

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-12])
    def test_tol_must_be_finite_and_positive(self, grid_and_basis, tol,
                                             monkeypatch):
        # at tol = nan or tol <= 0 no draw reads as below it, a vacuous pass
        _, basis = grid_and_basis
        config = GeneratorConfig(sigma=np.ones(4), kappa=1.0, trunc_n=4)

        def no_work(*args):
            raise AssertionError("draws set up before tol was checked")

        monkeypatch.setattr(genericity, "_setup_draws", no_work)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            mc_injectivity(config, (basis, basis), draws=10, tol=tol, seed=0)

    def test_fraction_zero_at_numerical_scale(self, grid_and_basis):
        _, basis = grid_and_basis
        sigma = 1.0 / np.arange(1, 21) ** 2
        config = GeneratorConfig(sigma=sigma, kappa=1.0, trunc_n=20)
        report = mc_injectivity(config, (basis, basis), draws=100,
                                tol=1e-12, seed=9)
        assert report.fraction_below_tol == 0.0
        assert report.sigma_min.min() > 0.0

    @pytest.mark.parametrize("flags", [
        {},
        {"positive": True},
        {"positive": True, "density": True},
    ], ids=["plain", "positive", "density"])
    def test_matches_reference_loop(self, grid_and_basis, flags):
        _, basis = grid_and_basis
        n = 12
        config = GeneratorConfig(sigma=1.0 / np.arange(1, n + 1) ** 2,
                                 kappa=1.3, trunc_n=n, compact=True, **flags)
        draws, tol, seed = 40, 1e-12, 17
        report = mc_injectivity(config, (basis, basis), draws=draws, tol=tol,
                                seed=seed)
        ref_min, fraction, _ = reference_loop(
            config, basis, draws, tol, seed,
            lambda op: svd(op).singular_values)
        assert report.fraction_below_tol == fraction
        assert np.all(np.abs(report.sigma_min - ref_min) <= 1e-13 * ref_min)
        assert report.max_spectrum_deviation <= 1e-10

    # chunk edges, the shipped 200 draws, and a run longer than the 1000
    # draws of the genericity-mc benchmark
    @pytest.mark.parametrize("draws", [
        1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 2 * DRAW_CHUNK - 1,
        2 * DRAW_CHUNK, 2 * DRAW_CHUNK + 1, 200, 1025])
    @pytest.mark.parametrize("flags", [{}], ids=["plain"])
    def test_chunks_reproduce_single_draws_bit_for_bit(
            self, grid_and_basis, flags, draws):
        _, basis = grid_and_basis
        n = 12
        config = GeneratorConfig(sigma=1.0 / np.arange(1, n + 1) ** 2,
                                 kappa=1.3, trunc_n=n, **flags)
        tol, seed = 1e-3, 5
        report = mc_injectivity(config, (basis, basis), draws=draws, tol=tol,
                                seed=seed)
        ref_min, fraction, worst = reference_loop(
            config, basis, draws, tol, seed, singular_values)
        assert np.array_equal(report.sigma_min, ref_min)
        assert report.fraction_below_tol == fraction
        assert report.max_spectrum_deviation == worst

    def test_chunk_buffers_stay_small(self):
        # the genericity-mc benchmark size: 48-point grids, 30 terms
        basis = cosine_basis(GridMeasure.uniform(48), 30)
        config = GeneratorConfig(sigma=1.0 / np.arange(1, 31) ** 2,
                                 kappa=1.0, trunc_n=30, compact=True)
        mc_injectivity(config, (basis, basis), draws=DRAW_CHUNK, tol=1e-12,
                       seed=0)  # numpy's lazily built state is not counted
        tracemalloc.start()
        try:
            mc_injectivity(config, (basis, basis), draws=1000, tol=1e-12,
                           seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6

    def test_compact_decay_gate_still_raises(self, grid_and_basis):
        _, basis = grid_and_basis
        flat = GeneratorConfig(sigma=np.full(20, 0.5), kappa=1.0, trunc_n=20,
                               compact=True)
        with pytest.raises(ValueError, match="decay"):
            mc_injectivity(flat, (basis, basis), draws=3, tol=1e-12, seed=0)


class TestDrawChecks:
    """Every check of draw_operator still fires on the mc_injectivity path."""

    def test_constant_lead_required(self):
        grid = GridMeasure.uniform(16)
        basis = OrthonormalBasis(cosine_basis(grid, 6).matrix()[:, 1:], grid)
        config = GeneratorConfig(sigma=np.full(4, 1.0), kappa=1.0, trunc_n=4,
                                 positive=True)
        with pytest.raises(ValueError, match="constant leading"):
            mc_injectivity(config, (basis, basis), draws=2, tol=1e-12, seed=0)

    def test_density_needs_probability_grids(self):
        # midpoint grid on [0, 2], total mass 2
        grid = GridMeasure(0.125 * (np.arange(16) + 0.5), np.full(16, 0.125))
        basis = cosine_basis(grid, 4)
        config = GeneratorConfig(sigma=np.full(4, 1.0), kappa=1.0, trunc_n=4,
                                 positive=True, density=True)
        with pytest.raises(ValueError, match="probability grids"):
            mc_injectivity(config, (basis, basis), draws=2, tol=1e-12, seed=0)

    def test_density_row_sums_checked_per_draw(self, grid_and_basis):
        grid, basis = grid_and_basis
        # an element not orthogonal to the constant breaks the unit row sums
        mat = basis.matrix()[:, :3].copy()
        mat[:, 1] += 0.2
        skewed = OrthonormalBasis(mat, grid, check=False)
        config = GeneratorConfig(sigma=np.full(3, 1.0), kappa=1.0, trunc_n=3,
                                 positive=True, density=True)
        with pytest.raises(ValueError, match="row sums deviate"):
            mc_injectivity(config, (skewed, skewed), draws=2, tol=1e-12,
                           seed=0)

    def test_nonfinite_entries_rejected(self, grid_and_basis):
        _, basis = grid_and_basis
        config = GeneratorConfig(sigma=np.full(3, 1e300), kappa=1e300,
                                 trunc_n=3)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="finite"):
            mc_injectivity(config, (basis, basis), draws=2, tol=1e-12, seed=0)

    def test_axis_cap_enforced(self):
        from momentid.linop import MAX_AXIS_POINTS

        grid = GridMeasure.uniform(MAX_AXIS_POINTS + 1)
        basis = cosine_basis(grid, 2)
        config = GeneratorConfig(sigma=np.ones(2), kappa=1.0, trunc_n=2)
        with pytest.raises(ValueError, match="dense-storage cap"):
            mc_injectivity(config, (basis, basis), draws=1, tol=1e-12, seed=0)
