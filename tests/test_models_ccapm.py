import numpy as np
import pytest

from momentid.errors import ConvergenceError
from momentid.fnspace import GridFunction, GridMeasure, inner, norm
from momentid.linop import LinearOperator, apply, compose, hs_norm, svd
from momentid.models.ccapm import (
    build_pf_operator,
    ccapm_moment_map,
    check_global_identification,
    completeness_check,
    conditioning_operator,
    fixed_state_completeness_operator,
    lognormal_ccapm_model,
    perron_frobenius,
    positive_eigenpair,
    two_argument_completeness_operator,
)
from momentid.semiparam import partial_out


@pytest.fixture(scope="module")
def model():
    return lognormal_ccapm_model()


@pytest.fixture(scope="module")
def mapped(model):
    return ccapm_moment_map(model)


def unit_grid(n):
    return GridMeasure(np.arange(float(n)), np.ones(n))


class TestMomentMap:
    def test_restriction_holds_at_truth(self, model, mapped):
        smap, _ = mapped
        assert norm(smap.eval(smap.beta0, model.g0)) <= 1e-12

    def test_scale_non_identification(self, model, mapped):
        smap, _ = mapped
        for c in (2.0, 0.3):
            assert norm(smap.eval(smap.beta0, model.g0 * c)) <= 1e-12

    def test_derivative_matches_finite_differences(self, mapped):
        from momentid.identcore import gateaux_check

        smap, _ = mapped
        mm = smap.to_moment_map()
        rng = np.random.default_rng(0)
        mu = mm.base_point.measure
        dirs = [GridFunction(rng.standard_normal(mu.size) * 0.2, mu)
                for _ in range(10)]
        assert gateaux_check(mm, dirs, [1e-3, 1e-4], richardson=True) < 1e-5

    def test_envelope_window_guard(self, model, mapped):
        smap, _ = mapped
        with pytest.raises(ValueError, match="envelope window"):
            smap.eval(np.array([model.delta0, model.gamma0 + 2.0]), model.g0)

    def test_g_norm_dominates_plain_norm(self, model):
        # the envelope is at least one, so the weighted norm is too
        g_norm = model.g_space_norm()
        rng = np.random.default_rng(1)
        g = GridFunction(rng.standard_normal(model.c_measure.size),
                         model.c_measure)
        assert g_norm(g) >= norm(g) * 0.99

    def test_m_g_null_space_is_the_scale_direction(self, model, mapped):
        _, split = mapped
        dec = svd(split.m_g)
        # exactly one vanishing singular value, matching uniqueness up to
        # scale of the second-kind solution
        assert dec.singular_values[-1] <= 1e-12 * dec.sigma_max
        assert dec.singular_values[-2] > 1e-6 * dec.sigma_max
        null_dir = dec.right_functions[len(dec.right_functions) - 1]
        cosine = abs(inner(null_dir, model.g0))
        assert cosine == pytest.approx(1.0, abs=1e-8)


class TestPerronFrobenius:
    def test_row_stochastic_hand_case(self):
        mu = unit_grid(2)
        op = LinearOperator(np.array([[0.6, 0.4], [0.3, 0.7]]), mu, mu)
        pair = positive_eigenpair(op, tol=1e-13)
        assert pair.rho == pytest.approx(1.0, abs=1e-10)
        v = pair.g.values / np.linalg.norm(pair.g.values)
        assert np.abs(v - np.sqrt(0.5)).max() < 1e-10

    def test_symmetric_hand_case(self):
        mu = unit_grid(2)
        op = LinearOperator(np.array([[2.0, 1.0], [1.0, 2.0]]), mu, mu)
        pair = positive_eigenpair(op, tol=1e-13)
        assert pair.rho == pytest.approx(3.0, abs=1e-10)
        assert pair.gap == pytest.approx(1.0 / 3.0, abs=1e-10)
        v = pair.g.values / np.linalg.norm(pair.g.values)
        assert np.abs(v - np.sqrt(0.5)).max() < 1e-10

    def test_recovers_discount_factor_and_g(self, model):
        pair = perron_frobenius(model, tol=1e-13)
        assert abs(pair.delta - model.delta0) < 1e-10
        assert np.all(pair.g.values > 0)
        assert abs(inner(pair.g, model.g0)) == pytest.approx(1.0, abs=1e-10)
        assert pair.gap < 1.0
        assert inner(pair.dual, pair.g) != 0.0

    def test_matches_full_spectrum_oracle(self, model):
        pair = perron_frobenius(model, tol=1e-13)
        amat = build_pf_operator(model).action_matrix()
        eigs, vecs = np.linalg.eig(amat)
        lead = np.argmax(np.abs(eigs))
        assert abs(eigs[lead].imag) < 1e-12
        assert abs(eigs[lead].real - pair.rho) < 1e-8 * pair.rho
        v = np.real(vecs[:, lead])
        v /= np.sqrt(np.dot(model.c_measure.weights, v * v))
        v *= np.sign(v[0])
        assert np.abs(v - pair.g.values).max() < 1e-8

    def test_nonpositive_kernel_rejected(self):
        mu = unit_grid(2)
        op = LinearOperator(np.array([[1.0, 0.0], [1.0, 1.0]]), mu, mu)
        with pytest.raises(ValueError, match="strictly positive"):
            positive_eigenpair(op)

    def test_convergence_error_carries_budget(self):
        mu = unit_grid(2)
        op = LinearOperator(np.array([[2.0, 1.0], [1.0, 5.0]]), mu, mu)
        with pytest.raises(ConvergenceError):
            positive_eigenpair(op, tol=1e-15, max_iter=2)

    def test_second_kind_solutions_solve_the_eigenproblem(self, model,
                                                          mapped):
        # conditioning the second-kind operator down to the current state
        # reproduces delta0 * T - I exactly on the grid
        _, split = mapped
        cond = conditioning_operator(model)
        lhs = compose(cond, split.m_g)
        t_op = build_pf_operator(model)
        rhs = model.delta0 * t_op.entries - LinearOperator.identity(
            model.c_measure).entries
        scale = np.abs(rhs).max()
        assert np.abs(lhs.entries - rhs).max() < 1e-9 * scale


class TestCompleteness:
    def test_independent_design_not_injective(self):
        mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
        from momentid.linop import conditional_expectation

        op = conditional_expectation(np.ones((4, 4)), mu, mu)
        rep = completeness_check(op, tol=1e-10)
        assert not rep.injective

    def test_two_by_two_distinct_ratios_injective(self):
        mu = unit_grid(2)
        from momentid.linop import conditional_expectation

        joint = np.array([[0.4, 0.1], [0.1, 0.4]])
        rep = completeness_check(conditional_expectation(joint, mu, mu),
                                 tol=1e-10)
        assert rep.injective

    def test_hs_value_matches_double_sum_oracle(self, model):
        op = fixed_state_completeness_operator(model,
                                               model.c_measure.size // 2)
        rep = completeness_check(op, tol=1e-8)
        wc, wd = op.codomain.weights, op.domain.weights
        oracle = sum(
            wc[i] * wd[j] * op.entries[i, j] ** 2
            for i in range(op.shape[0]) for j in range(op.shape[1])
        )
        assert abs(rep.hs_value - oracle) < 1e-9 * (1 + oracle)
        assert rep.hs_value == pytest.approx(hs_norm(op) ** 2, rel=1e-9)

    def test_midpoint_state_operator_injective(self, model):
        op = fixed_state_completeness_operator(model,
                                               model.c_measure.size // 2)
        rep = completeness_check(op, tol=1e-8)
        assert rep.injective
        assert rep.sigma_min > 0

    def test_two_argument_operator_blocks(self, model):
        op = two_argument_completeness_operator(model)
        n_s = model.c_measure.size
        rng = np.random.default_rng(2)
        h = rng.standard_normal((n_s, n_s))
        out = apply(op, GridFunction(h.ravel(), op.domain))
        # block structure: column j of the two-argument table is priced by
        # the fixed-state operator at state j
        j = n_s // 3
        block = fixed_state_completeness_operator(model, j)
        direct = apply(block, GridFunction(h[:, j], model.c_measure)).values
        got = out.values.reshape(model.omega_measure.size, n_s)[:, j]
        assert np.abs(got - direct).max() < 1e-10


class TestGlobalIdentification:
    def test_scaled_truth_accepted(self, model):
        report = check_global_identification(
            model, [(model.delta0, model.gamma0, model.g0 * 2.0)], tol=1e-8)
        row = report.rows[0]
        assert row["is_solution"] and row["scale_ok"]
        assert row["gamma_ok"] and row["delta_ok"]
        assert row["ratio_spread"] < 1e-8
        assert report.violations == 0

    def test_shifted_curvature_rejected(self, model):
        report = check_global_identification(
            model, [(model.delta0, model.gamma0 + 0.5, model.g0)], tol=1e-8)
        assert not report.rows[0]["is_solution"]
        assert report.vacuous

    def test_candidate_must_be_positive(self, model):
        bad = GridFunction(np.zeros(model.c_measure.size), model.c_measure)
        with pytest.raises(ValueError, match="bounded away"):
            check_global_identification(model,
                                        [(model.delta0, model.gamma0, bad)])


def test_partialled_gram_nonsingular(model, mapped):
    _, split = mapped
    report = partial_out(split, 1e-12)
    trace = float(np.trace(report.gram))
    assert report.lambda_min > 1e-6 * trace


def test_returns_positive_and_envelope_valid(model):
    assert model.returns.min() > 0
    assert model.envelope().min() >= 1.0
