from dataclasses import replace

import numpy as np
import pytest

from momentid.errors import GridMismatchError
from momentid.fnspace import GridFunction, norm
from momentid.identcore import (
    estimate_nonlinearity,
    gateaux_check,
    in_ellipsoid,
    sample_ellipsoid_deviations,
)
from momentid.linop import apply, svd
from momentid.models.quantile import gaussian_quantile_model, quantile_moment_map


@pytest.fixture(scope="module")
def model():
    return gaussian_quantile_model(n_x=41, n_w=41, n_y=121)


@pytest.fixture(scope="module")
def mapped(model):
    return quantile_moment_map(model)


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
    devs = [
        GridFunction(rng.standard_normal(model.x_measure.size) * s,
                     model.x_measure)
        for s in rng.uniform(0.05, 0.6, size=100)
    ]
    l_hat = estimate_nonlinearity(mmap, 2.0, devs)
    assert l_hat <= 1.05 * bound.L


def test_derivative_matches_finite_differences(model, mapped):
    mmap, _ = mapped
    rng = np.random.default_rng(1)
    dirs = [
        GridFunction(rng.standard_normal(model.x_measure.size) * 0.3,
                     model.x_measure)
        for _ in range(10)
    ]
    err = gateaux_check(mmap, dirs, [1e-3, 1e-4], richardson=True)
    assert err < 1e-5


def test_derivative_weight_is_density_at_alpha0(model, mapped):
    mmap, _ = mapped
    # hand-build the weighted conditional expectation and compare actions
    dens = model.density_at(model.alpha0.values)
    rng = np.random.default_rng(2)
    h = GridFunction(rng.standard_normal(model.x_measure.size),
                     model.x_measure)
    direct = (
        model.x_measure.weights[:, None] * model.x_ratio * dens
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
    for delta, b in sample_ellipsoid_deviations(dec, bound, 60, rng):
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


def test_quantile_level_enters_eval(model):
    shifted = gaussian_quantile_model(n_x=21, n_w=21, n_y=81, tau=0.3)
    mmap, _ = quantile_moment_map(shifted)
    assert norm(mmap.eval(mmap.base_point)) <= 1e-10
    # the 0.5-quantile curve is not the 0.3-quantile curve
    assert np.abs(shifted.quantile_curve(0.5)
                  - shifted.alpha0.values).max() > 0.1


def test_w_free_table_matches_repeated_table_bit_for_bit():
    free = gaussian_quantile_model(n_x=23, n_w=17, n_y=81)
    n_w = free.w_measure.size
    assert free.f_y.shape == (81, 23, 1)
    full = replace(free, f_y=np.repeat(free.f_y, n_w, axis=2))
    assert full.f_y.shape == (81, 23, n_w)
    rng = np.random.default_rng(5)
    points = [free.alpha0.values,
              free.alpha0.values + rng.uniform(-1.0, 1.0, 23)]
    for yq in points:
        assert free.cdf_at(yq).shape == (23, n_w)
        assert np.array_equal(free.cdf_at(yq), full.cdf_at(yq))
        assert np.array_equal(free.density_at(yq), full.density_at(yq))
    assert free.l1 == full.l1
    assert np.array_equal(free.quantile_curve(), full.quantile_curve())
    assert np.array_equal(free.quantile_curve(0.3), full.quantile_curve(0.3))
    free_map, free_bound = quantile_moment_map(free)
    full_map, full_bound = quantile_moment_map(full)
    assert free_bound == full_bound
    assert np.array_equal(free_map.derivative.entries,
                          full_map.derivative.entries)
    alpha = GridFunction(points[1], free.x_measure)
    for point in (free.alpha0, alpha):
        assert np.array_equal(free_map.eval(point).values,
                              full_map.eval(point).values)


def test_w_axis_must_be_one_or_n_w(model):
    for k in (2, model.w_measure.size + 1):
        with pytest.raises(GridMismatchError, match="f_y table"):
            replace(model, f_y=np.repeat(model.f_y, k, axis=2))


def test_quantile_curve_rejects_w_dependent_table(model):
    f_y = np.repeat(model.f_y, model.w_measure.size, axis=2)
    # mirror x in one w slice: still a density in y for every x, but the
    # median curve tanh(x) is odd, so this slice's CDF differs from the rest
    f_y[:, :, 3] = f_y[:, ::-1, 3]
    varied = replace(model, f_y=f_y)
    with pytest.raises(ValueError, match="conditional CDF varies with w"):
        varied.quantile_curve()


def test_fine_grid_keeps_tables_free_of_the_w_axis():
    n = 481
    fine = gaussian_quantile_model(n_x=n, n_w=n, n_y=n)
    mmap, _ = quantile_moment_map(fine)
    assert norm(mmap.eval(mmap.base_point)) <= 1e-10
    for table in (fine.f_y, fine._cdf, fine._cdf_slopes):
        assert table.size <= n * n
