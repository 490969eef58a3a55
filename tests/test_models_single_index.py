from dataclasses import replace

import numpy as np
import pytest

from momentid.fnspace import GridFunction, norm
from momentid.linop import apply
from momentid.models.single_index import (
    SingleIndexModel,
    diagnose_single_index,
    gaussian_index_design,
    single_index_map,
)
from momentid.semiparam import linearity_in_g_check, partial_out


@pytest.fixture(scope="module")
def scalar_model():
    return gaussian_index_design(rho=0.5, w_dim=1)


@pytest.fixture(scope="module")
def twodim_model():
    return gaussian_index_design(rho=0.5, w_dim=2, n_v=49, n_w=15)


def test_eval_vanishes_at_truth(twodim_model):
    smap = single_index_map(twodim_model)
    assert norm(smap.eval(smap.beta0, smap.g0)) <= 1e-12


def test_map_linear_in_g(twodim_model):
    smap = single_index_map(twodim_model)
    assert linearity_in_g_check(smap, seed=0) < 1e-12


def test_linear_link_collapses_to_linear_iv(scalar_model):
    model = SingleIndexModel(
        beta0=scalar_model.beta0,
        v_measure=scalar_model.v_measure,
        w_measure=scalar_model.w_measure,
        joint_ratio=scalar_model.joint_ratio,
        x2=scalar_model.x2,
        g0=lambda v: 2.0 + 3.0 * v,
        g0_prime=lambda v: np.full_like(np.asarray(v, dtype=float), 3.0),
    )
    split = single_index_map(model).split
    # m_beta_k = -x2_k(w) * slope since E[g0'(V)|W] is the constant slope
    for k, col in enumerate(split.m_beta):
        assert np.allclose(col.values, -3.0 * model.x2[:, k], atol=1e-10)


def test_m_g_matches_direct_conditional_expectation(scalar_model):
    split = single_index_map(scalar_model).split
    rng = np.random.default_rng(0)
    h = GridFunction(rng.standard_normal(scalar_model.v_measure.size),
                     scalar_model.v_measure)
    cond_mass = (scalar_model.v_measure.weights[:, None]
                 * scalar_model.joint_ratio)
    direct = -(cond_mass * h.values[:, None]).sum(axis=0)
    assert np.abs(apply(split.m_g, h).values - direct).max() < 1e-9


def test_domain_guard_on_large_beta_shift(twodim_model):
    smap = single_index_map(twodim_model)
    with pytest.raises(ValueError, match="tabulated domain"):
        smap.eval(smap.beta0 + np.array([5.0, 5.0]), smap.g0)


@pytest.fixture(scope="module")
def unit_shift_map():
    """Index map on a dyadic grid whose first regressor loads 1 at every
    instrument node and whose second loads 0: a beta shift (t, s) moves
    every index node by exactly t."""
    design = gaussian_index_design(rho=0.5, w_dim=1, n_v=33, n_w=29,
                                   v_pad=0.5)
    n_w = design.w_measure.size
    x2 = np.column_stack([np.ones(n_w), np.zeros(n_w)])
    return single_index_map(replace(design, x2=x2))


def test_stack_equals_rows(unit_shift_map):
    smap = unit_shift_map
    vg = smap.g0.measure.coords()
    assert (vg[0], vg[-1]) == (-4.0, 4.0) and np.all(np.diff(vg) == 0.25)
    rng = np.random.default_rng(4)
    # the mass sits on [-3.5, 3.5]: shifts of -0.5, 0.25 and 0.5 land it
    # exactly on the first node, on interior nodes and on the last node
    shifts = np.concatenate([[-0.5, 0.25, 0.5], rng.uniform(-0.5, 0.5, 62)])
    betas = smap.beta0 + np.column_stack(
        [shifts, rng.uniform(-1.0, 1.0, 65)])
    gs = smap.g0.values + rng.standard_normal((65, vg.size))
    rows = np.hstack([betas, gs])
    one_by_one = np.stack([smap.eval_rows(row[None])[0] for row in rows])
    assert np.array_equal(smap.eval_rows(rows), one_by_one)
    assert np.array_equal(np.stack(list(smap.eval_stack(rows))), one_by_one)


def test_stack_checks_a_bad_row_past_the_first(unit_shift_map):
    smap = unit_shift_map
    rows = np.tile(np.concatenate([smap.beta0, smap.g0.values]), (65, 1))
    rows[40, 0] += 0.75
    with pytest.raises(ValueError, match="tabulated domain"):
        smap.eval_rows(rows)


class TestDiagnosis:
    def test_scalar_design(self, scalar_model):
        d = diagnose_single_index(scalar_model)
        assert d.w_given_v_complete
        assert d.pi_singular
        assert d.consistent
        assert d.lambda_min < 1e-8 * max(d.trace, 1e-300)

    def test_twodim_design(self, twodim_model):
        d = diagnose_single_index(twodim_model)
        assert not d.w_given_v_complete
        assert not d.pi_singular
        assert d.consistent
        assert d.lambda_min > 1e-4 * d.trace

    def test_twodim_ratio_is_zero_by_dimension_count(self, twodim_model):
        # the proxy keeps 144 instrument nodes and 12 index nodes, so the
        # operator has a null space and rank_condition reports sigma_min 0
        d = diagnose_single_index(twodim_model)
        assert d.sigma_min_ratio == 0.0
        assert not d.w_given_v_complete

    def test_scalar_ratio_is_positive_and_above_tol(self, scalar_model):
        d = diagnose_single_index(scalar_model)
        assert 1e-10 < d.sigma_min_ratio < 1.0
        assert not diagnose_single_index(
            scalar_model, tol=d.sigma_min_ratio * 1.01).w_given_v_complete

    def test_independent_instrument_not_complete(self):
        model = gaussian_index_design(rho=0.5, w_dim=1)
        # break the dependence: the proxy operator becomes rank one
        flat = np.ones_like(model.joint_ratio)
        indep = SingleIndexModel(
            beta0=model.beta0,
            v_measure=model.v_measure,
            w_measure=model.w_measure,
            joint_ratio=flat,
            x2=model.x2,
            g0=model.g0,
            g0_prime=model.g0_prime,
        )
        d = diagnose_single_index(indep)
        assert not d.w_given_v_complete
        assert d.consistent  # no inconsistency is possible here

    def test_consistency_across_designs(self):
        rhos = np.linspace(0.4, 0.7, 5)
        for i, rho in enumerate(rhos):
            link = "softplus" if i % 2 == 0 else "sin"
            for w_dim, kwargs in ((1, {}), (2, {"n_v": 49, "n_w": 13})):
                model = gaussian_index_design(rho=float(rho), w_dim=w_dim,
                                              link=link, **kwargs)
                assert diagnose_single_index(model).consistent


def test_partialled_gram_scale_free_of_loading_constant():
    # proportional second column keeps the Gram matrix exactly rank one
    model = gaussian_index_design(rho=0.55, w_dim=1, proportional_c=0.3)
    split = single_index_map(model).split
    report = partial_out(split, 1e-8)
    eigs = np.linalg.eigvalsh(report.gram)
    assert eigs[0] <= 1e-10 * max(eigs[1], 1e-300)


def map_based_diagnosis(model, tol=1e-10):
    """``diagnose_single_index`` with its Gram matrix read from the split of
    the whole map, built and checked at its base point; the completeness
    proxy does not touch the map and is taken as computed."""
    got = diagnose_single_index(model, tol)
    report = partial_out(single_index_map(model).split, 1e-8)
    trace = float(np.trace(report.gram))
    pi_singular = report.lambda_min <= 1e-6 * max(trace, 1e-300)
    return replace(
        got, pi_singular=pi_singular,
        consistent=not (got.w_given_v_complete and not pi_singular),
        lambda_min=report.lambda_min, trace=trace)


@pytest.mark.parametrize("w_dim, link", [
    (1, "softplus"), (1, "sin"), (2, "softplus"), (2, "sin")])
@pytest.mark.parametrize("rho", [0.4, 0.7])
def test_split_only_diagnosis_matches_the_map(w_dim, link, rho):
    sizes = {} if w_dim == 1 else {"n_v": 49, "n_w": 15}
    model = gaussian_index_design(rho=rho, w_dim=w_dim, link=link, **sizes)
    assert diagnose_single_index(model) == map_based_diagnosis(model)


@pytest.mark.parametrize("target", [1, 2, 7, 12, 144])
def test_subsample_indices_are_the_distinct_rounded_nodes(target):
    from momentid.models.single_index import _subsample_indices

    for n in range(1, target + 400):
        got = _subsample_indices(n, target)
        want = np.arange(n) if n <= target else np.unique(
            np.linspace(0, n - 1, target).round().astype(int))
        assert got.dtype == want.dtype and np.array_equal(got, want), n
