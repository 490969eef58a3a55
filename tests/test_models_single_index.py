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
    smap, _ = single_index_map(twodim_model)
    assert norm(smap.eval(smap.beta0, smap.g0)) <= 1e-12


def test_map_linear_in_g(twodim_model):
    smap, _ = single_index_map(twodim_model)
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
    _, split = single_index_map(model)
    # m_beta_k = -x2_k(w) * slope since E[g0'(V)|W] is the constant slope
    for k, col in enumerate(split.m_beta):
        assert np.allclose(col.values, -3.0 * model.x2[:, k], atol=1e-10)


def test_m_g_matches_direct_conditional_expectation(scalar_model):
    _, split = single_index_map(scalar_model)
    rng = np.random.default_rng(0)
    h = GridFunction(rng.standard_normal(scalar_model.v_measure.size),
                     scalar_model.v_measure)
    cond_mass = (scalar_model.v_measure.weights[:, None]
                 * scalar_model.joint_ratio)
    direct = -(cond_mass * h.values[:, None]).sum(axis=0)
    assert np.abs(apply(split.m_g, h).values - direct).max() < 1e-9


def test_domain_guard_on_large_beta_shift(twodim_model):
    smap, _ = single_index_map(twodim_model)
    with pytest.raises(ValueError, match="tabulated domain"):
        smap.eval(smap.beta0 + np.array([5.0, 5.0]), smap.g0)


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
    _, split = single_index_map(model)
    report = partial_out(split, 1e-8)
    eigs = np.linalg.eigvalsh(report.gram)
    assert eigs[0] <= 1e-10 * max(eigs[1], 1e-300)
