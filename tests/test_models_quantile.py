import warnings
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

from momentid.errors import GridMismatchError
from momentid.fnspace import FunctionStack, GridFunction, norm
from momentid.identcore import (
    NonlinearityBound,
    _eval_stack,
    estimate_nonlinearity,
    gateaux_check,
    sample_ellipsoid_deviations,
    verify_local_id,
)
from momentid.linop import apply, svd
from momentid.models.quantile import (
    QuantileIvModel,
    _cells,
    gaussian_quantile_model,
    quantile_moment_map,
)
from oracles import in_ellipsoid


@pytest.fixture(scope="module")
def model():
    return gaussian_quantile_model(n_x=41, n_w=41, n_y=121, rho=0.6,
                                   tau=0.5)


@pytest.fixture(scope="module")
def mapped(model):
    return quantile_moment_map(model)


@pytest.mark.parametrize("field", ["f_y", "x_ratio"])
def test_nonfinite_tables_rejected(model, field):
    # NaN compares False, so a deviation test alone would let it through
    # and leave the curvature bound NaN
    bad = np.array(getattr(model, field), dtype=float)
    bad.flat[bad.size // 2] = np.nan
    with pytest.raises(ValueError, match=f"{field} table must be finite"):
        replace(model, **{field: bad})


def test_restriction_holds_at_quantile_curve(mapped):
    mmap, _ = mapped
    assert norm(mmap.eval(mmap.base_point)) <= 1e-10


def test_cdf_tables_normalized(model):
    # interpolated CDF runs from 0 to 1 across the y range
    top = model.cdf_at(np.full(model.x_measure.size, model.y_grid[-1]))
    assert np.abs(top - 1.0).max() < 1e-10


def test_bounds_recomputed_from_tables(model):
    # the density is a unit-variance Gaussian slice: slope bound ~ 0.242,
    # and the corner of the correlated design dominates the ratio bound
    assert model.l1 == pytest.approx(0.2419707, rel=1e-2)
    assert model.l2 > 1.0


def test_curvature_estimate_within_bound(model, mapped):
    mmap, bound = mapped
    rng = np.random.default_rng(0)
    scales = rng.uniform(0.05, 0.6, size=100)
    devs = FunctionStack(
        rng.standard_normal((100, model.x_measure.size)) * scales[:, None],
        model.x_measure)
    l_hat = estimate_nonlinearity(mmap, 2.0, devs)
    assert l_hat <= 1.05 * bound.L


def test_derivative_matches_finite_differences(model, mapped):
    mmap, _ = mapped
    rng = np.random.default_rng(1)
    dirs = FunctionStack(
        rng.standard_normal((10, model.x_measure.size)) * 0.3,
        model.x_measure)
    err = gateaux_check(mmap, dirs, 1e-4)
    assert err < 1e-5


def test_derivative_weight_is_density_at_alpha0(model, mapped):
    mmap, _ = mapped
    # hand-build the weighted conditional expectation and compare actions
    dens = model.density_at(model.alpha0.values)
    rng = np.random.default_rng(2)
    h = GridFunction(rng.standard_normal(model.x_measure.size),
                     model.x_measure)
    direct = (
        model.x_measure.weights[:, None] * model.x_ratio * dens[:, None]
        * h.values[:, None]
    ).sum(axis=0)
    assert np.abs(apply(mmap.derivative, h).values - direct).max() < 1e-12


def test_ellipsoid_membership_equals_direct_formula(mapped):
    mmap, bound = mapped
    dec = svd(mmap.derivative)
    mu = dec.singular_values
    rng = np.random.default_rng(3)
    agreements = 0
    for _ in range(200):
        b = rng.standard_normal(mu.size) * mu * rng.uniform(0, 2)
        direct = float(np.sum(b**2 / mu**2)) < bound.L ** (-2.0)
        assert in_ellipsoid(b, mu, bound) == direct
        agreements += 1
    assert agreements == 200


def test_ellipsoid_deviations_locally_identified(mapped):
    mmap, bound = mapped
    dec = svd(mmap.derivative)
    rng = np.random.default_rng(4)
    inside, coefs = sample_ellipsoid_deviations(dec, bound, 60, rng)
    for values, b in zip(inside.values, coefs):
        delta = GridFunction(values, inside.measure)
        assert in_ellipsoid(b, dec.singular_values, bound)
        alpha = mmap.base_point + delta
        m_val = mmap.eval(alpha)
        lin = apply(mmap.derivative, delta)
        assert norm(m_val - lin) < norm(lin)
        assert norm(m_val) > 1e-10


def test_extrapolation_guard(model, mapped):
    mmap, _ = mapped
    wild = GridFunction(
        np.full(model.x_measure.size, model.y_grid[-1] + 1.0),
        model.x_measure,
    )
    with pytest.raises(ValueError, match="tabulated range"):
        mmap.eval(wild)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_queries_are_rejected(model, bad):
    curve = model.alpha0.values.copy()
    curve[3] = bad
    for at in (model.cdf_at, model.density_at):
        for yq in (curve, np.stack([model.alpha0.values, curve])):
            # a ValueError, and no cast warning before it
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="must be finite"):
                    at(yq)


def test_quantile_level_enters_eval(model):
    shifted = gaussian_quantile_model(n_x=21, n_w=21, n_y=81, rho=0.6,
                                      tau=0.3)
    mmap, _ = quantile_moment_map(shifted)
    assert norm(mmap.eval(mmap.base_point)) <= 1e-10
    # the 0.5-quantile curve is not the 0.3-quantile curve
    assert np.abs(replace(shifted, tau=0.5).quantile_curve()
                  - shifted.alpha0.values).max() > 0.1


def test_outcome_table_must_be_n_y_by_n_x(model):
    # a w axis, of length one or n_w, is not a shape of the outcome table
    column = model.f_y.reshape(model.f_y.shape[:2] + (1,))
    for k in (1, model.w_measure.size):
        with pytest.raises(GridMismatchError,
                           match=r"f_y table must be \(n_y, n_x\)"):
            replace(model, f_y=np.repeat(column, k, axis=2))


@pytest.mark.parametrize("at", ["cdf_at", "density_at"])
def test_interpolation_takes_the_shape_of_its_query(model, at):
    curve = model.alpha0.values
    interpolate = getattr(model, at)
    assert interpolate(curve).shape == (model.x_measure.size,)
    stack = np.stack([curve, curve + 0.5, curve - 0.5])
    assert interpolate(stack).shape == (3, model.x_measure.size)


def test_fine_grid_keeps_tables_free_of_the_w_axis():
    n = 481
    fine = gaussian_quantile_model(n_x=n, n_w=n, n_y=n, rho=0.6, tau=0.5)
    mmap, _ = quantile_moment_map(fine)
    assert norm(mmap.eval(mmap.base_point)) <= 1e-10
    for table in (fine.f_y, fine._cdf, fine._cdf_slopes):
        assert table.size <= n * n


# ---------------------------------------------------------------------------
# Closed-form oracle.  In the Gaussian design (X, W) is bivariate normal with
# correlation rho and the outcome density at the tau-quantile is
# phi(z_tau) / sigma_u for every x, so the derivative is that constant times
# E[. | W].  By Mehler's formula E[. | W] has singular values rho^k and the
# normalised Hermite polynomials He_k as singular functions on both sides.
# ---------------------------------------------------------------------------


def hermite_he(k, x):
    """Probabilists' Hermite polynomial He_k at x."""
    prev, cur = np.ones_like(x), x
    if k == 0:
        return prev
    for j in range(1, k):
        prev, cur = cur, x * cur - j * prev
    return cur


@pytest.fixture(scope="module", params=[(0.3, 0.25), (0.3, 0.5),
                                        (0.6, 0.25), (0.6, 0.5)])
def wide_spectrum(request):
    rho, tau = request.param
    wide = gaussian_quantile_model(n_x=121, n_w=121, n_y=161, rho=rho,
                                   tau=tau, x_span=7.0, y_span=14.5)
    mmap, _ = quantile_moment_map(wide)
    return rho, tau, wide, svd(mmap.derivative)


def test_singular_value_ratios_are_powers_of_rho(wide_spectrum):
    rho, _, _, dec = wide_spectrum
    s = dec.singular_values
    for k in range(7):
        assert abs(s[k] / s[0] - rho**k) <= 2e-3, k


def test_leading_singular_value_is_the_quantile_density(wide_spectrum):
    _, tau, _, dec = wide_spectrum
    sigma_u = 1.0
    z = NormalDist().inv_cdf(tau)
    assert dec.sigma_max == pytest.approx(NormalDist().pdf(z) / sigma_u,
                                          rel=1e-2)


def test_singular_functions_are_hermite_polynomials(wide_spectrum):
    _, _, wide, dec = wide_spectrum
    sides = ((dec.right_functions, wide.x_measure),
             (dec.left_functions, wide.w_measure))
    for basis, measure in sides:
        x, w = measure.coords(), measure.weights
        for k in range(6):
            he = hermite_he(k, x)
            he = he / np.sqrt(w @ he**2)
            assert abs(w @ (basis.matrix()[:, k] * he)) >= 0.9999, k


@pytest.mark.parametrize("rho", [0.3, 0.6])
def test_shipped_span_truncates_the_spectrum(rho):
    # x_span = 3 cuts the Gaussian tails: the sixth ratio falls far below
    # the untruncated model's rho^6
    mmap, _ = quantile_moment_map(gaussian_quantile_model(
        n_x=101, n_w=101, n_y=161, rho=rho, tau=0.5))
    s = svd(mmap.derivative).singular_values
    assert s[6] / s[0] < rho**6 / 4


# ---------------------------------------------------------------------------
# Stacked evaluation.  A reference written from the cubic Hermite cell
# formulas, one row and one x at a time, must agree bit for bit with the
# stacked kernel, and the moment map must equal the per-row elementwise
# product and sum over x.
# ---------------------------------------------------------------------------


def reference_rows(model, rows):
    """CDF and density at every x, and m, for each row of ``rows``."""
    y, cdf, slopes = model.y_grid, model._cdf, model._cdf_slopes
    weighted_ratio = model.x_measure.weights[:, None] * model.x_ratio
    shape = model.x_measure.size
    cdfs, dens, maps = [], [], []
    for row in rows:
        c, g = np.empty(shape), np.empty(shape)
        for i, yq in enumerate(row):
            k = min(max(int(np.searchsorted(y, yq, side="right")) - 1, 0),
                    y.size - 2)
            h = y[k + 1] - y[k]
            t = (yq - y[k]) / h
            t2, t3 = t * t, t * t * t
            f0, f1 = cdf[k, i], cdf[k + 1, i]
            d0, d1 = slopes[k, i], slopes[k + 1, i]
            c[i] = ((2 * t3 - 3 * t2 + 1) * f0 + h * (t3 - 2 * t2 + t) * d0
                    + (-2 * t3 + 3 * t2) * f1 + h * (t3 - t2) * d1)
            g[i] = ((6 * t2 - 6 * t) * f0 + h * (3 * t2 - 4 * t + 1) * d0
                    + (-6 * t2 + 6 * t) * f1 + h * (3 * t2 - 2 * t) * d1) / h
        cdfs.append(c)
        dens.append(g)
        maps.append((weighted_ratio * c[:, None]).sum(axis=0) - model.tau)
    return np.array(cdfs), np.array(dens), np.array(maps)


@pytest.fixture(scope="module")
def stack_model():
    return gaussian_quantile_model(n_x=9, n_w=7, n_y=41, rho=0.6, tau=0.5)


def query_rows(model, n):
    rng = np.random.default_rng(n)
    rows = model.alpha0.values + rng.uniform(-2.0, 2.0, (n, 9))
    # the range ends and a grid node are cells' edge cases
    rows[0, :3] = model.y_grid[0], model.y_grid[-1], model.y_grid[7]
    return rows


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_stacked_evaluation_matches_the_per_row_reference(stack_model, n):
    model = stack_model
    rows = query_rows(model, n)
    cdf_ref, dens_ref, map_ref = reference_rows(model, rows)
    assert np.array_equal(model.cdf_at(rows), cdf_ref)
    assert np.array_equal(model.density_at(rows), dens_ref)
    mmap, _ = quantile_moment_map(model)
    stacked = _eval_stack(mmap.eval_rows, mmap.derivative.codomain, rows)
    assert np.array_equal(stacked, map_ref)
    for b in (0, n // 2, n - 1):
        assert np.array_equal(model.cdf_at(rows[b]), cdf_ref[b])
        assert np.array_equal(model.density_at(rows[b]), dens_ref[b])
    for b, row in enumerate(rows):
        assert np.array_equal(
            mmap.eval(GridFunction(row, model.x_measure)).values, map_ref[b])


def test_harnesses_are_bit_identical_with_and_without_stacking(stack_model):
    model = stack_model
    mmap, _ = quantile_moment_map(model)
    # the reference: one curve per Hermite kernel pass
    plain = replace(mmap, eval_rows=lambda rows: np.stack(
        [mmap.eval_rows(row[None])[0] for row in rows]))
    rng = np.random.default_rng(21)
    scales = rng.uniform(0.05, 0.6, size=130)
    devs = FunctionStack(rng.standard_normal((130, 9)) * scales[:, None],
                         model.x_measure)
    dirs = FunctionStack(devs.values[:20], model.x_measure)
    assert (estimate_nonlinearity(mmap, 2.0, devs)
            == estimate_nonlinearity(plain, 2.0, devs))
    assert (gateaux_check(mmap, dirs, 1e-4)
            == gateaux_check(plain, dirs, 1e-4))
    dec = svd(mmap.derivative)
    reports = [verify_local_id(m, NonlinearityBound(L=0.0, r=1.0), devs,
                               dec=dec)
               for m in (mmap, plain)]
    assert reports[0].rows == reports[1].rows


# ---------------------------------------------------------------------------
# Cell lookup and bisection.  The Hermite kernel finds cells from the grid's
# mean spacing and the bisection reuses a column's cell while its midpoint
# stays inside; both must give the bits of the np.searchsorted lookup and
# of the 90 full CDF evaluations they replaced.
# ---------------------------------------------------------------------------


CELL_GRIDS = {
    "uniform": np.linspace(-7.5, 7.5, 241),
    "sinh": np.sinh(np.linspace(-3.0, 3.0, 101)),
    "random": np.cumsum(np.random.default_rng(8).uniform(1e-3, 1.0, 80)),
}


@pytest.mark.parametrize("grid", CELL_GRIDS)
def test_cell_lookup_equals_clipped_searchsorted(grid):
    y = CELL_GRIDS[grid]
    span = y[-1] - y[0]
    rng = np.random.default_rng(9)
    queries = np.concatenate([
        y,
        np.nextafter(y, -np.inf),
        np.nextafter(y, np.inf),
        [y[0], y[-1], y[0] - 0.5 * span, y[-1] + 0.5 * span],
        rng.uniform(y[0] - 0.1 * span, y[-1] + 0.1 * span, 2000),
    ])
    expected = np.clip(np.searchsorted(y, queries, "right") - 1, 0,
                       y.size - 2)
    assert np.array_equal(_cells(y, queries), expected)
    # any query shape, one cell per entry
    assert np.array_equal(_cells(y, np.stack([queries, queries[::-1]])),
                          np.stack([expected, expected[::-1]]))


def old_quantile_curve(model):
    """``quantile_curve`` as it was: 90 halvings, each a full CDF
    evaluation with an np.searchsorted lookup and 2-D fancy indexes."""
    y, cdf, slopes = model.y_grid, model._cdf, model._cdf_slopes
    cols = np.arange(cdf.shape[1])
    lo, hi = np.full(cols.size, y[0]), np.full(cols.size, y[-1])
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        idx = np.clip(np.searchsorted(y, mid, side="right") - 1, 0,
                      y.size - 2)
        f0, f1 = cdf[idx, cols], cdf[idx + 1, cols]
        d0, d1 = slopes[idx, cols], slopes[idx + 1, cols]
        h = y[idx + 1] - y[idx]
        t = (mid - y[idx]) / h
        t2, t3 = t * t, t * t * t
        val = ((2 * t3 - 3 * t2 + 1) * f0 + h * (t3 - 2 * t2 + t) * d0
               + (-2 * t3 + 3 * t2) * f1 + h * (t3 - t2) * d1)
        lower = val < model.tau
        lo = np.where(lower, mid, lo)
        hi = np.where(lower, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("rho", [0.0, 0.6])
@pytest.mark.parametrize("tau", [0.1, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("sizes", [(61, 61, 121), (201, 201, 241),
                                   (481, 61, 481), (21, 21, 41)])
def test_alpha0_equals_the_old_bisection_loop(sizes, tau, rho):
    n_x, n_w, n_y = sizes
    model = gaussian_quantile_model(n_x=n_x, n_w=n_w, n_y=n_y, rho=rho,
                                    tau=tau)
    old = old_quantile_curve(model)
    assert np.array_equal(model.alpha0.values, old)
    assert np.array_equal(model.quantile_curve(), old)


def test_one_model_build_runs_post_init_once(monkeypatch):
    built = []
    post_init = QuantileIvModel.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(QuantileIvModel, "__post_init__", counted)
    model = gaussian_quantile_model(n_x=21, n_w=21, n_y=41, rho=0.6,
                                    tau=0.5)
    assert len(built) == 1 and built[0] is model
