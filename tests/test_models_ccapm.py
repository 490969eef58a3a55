from dataclasses import replace

import numpy as np
import pytest

from momentid.errors import ConvergenceError, GridMismatchError
from momentid.fnspace import FunctionStack, GridFunction, GridMeasure, inner, norm
from momentid.identcore import rank_condition
from momentid.linop import LinearOperator, svd
from momentid.models.ccapm import (
    build_pf_operator,
    ccapm_moment_map,
    check_global_identification,
    fixed_state_completeness_operator,
    lognormal_ccapm_model,
    perron_frobenius,
    positive_eigenpair,
)
from oracles import hs_norm, to_moment_map


@pytest.fixture(scope="module")
def model():
    return lognormal_ccapm_model()


@pytest.fixture(scope="module")
def mapped(model):
    return ccapm_moment_map(model)


@pytest.mark.parametrize("field", ["cond_mass", "returns"])
def test_nonfinite_tables_rejected(model, field):
    bad = np.array(getattr(model, field), dtype=float)
    bad.flat[bad.size // 2] = np.nan
    with pytest.raises(ValueError, match=f"{field} table must be finite"):
        replace(model, **{field: bad})


@pytest.mark.parametrize("field, value, match", [
    ("gamma0", np.nan, "gamma0 must be finite"),
    ("window", np.nan, "window must be finite"),
    ("window", np.inf, "window must be finite"),
], ids=["gamma0-nan", "window-nan", "window-inf"])
def test_nonfinite_scalars_rejected(model, field, value, match):
    # a NaN window would switch off the envelope-window guard of the map
    with pytest.raises(ValueError, match=match):
        replace(model, **{field: value})


def unit_grid(n):
    return GridMeasure(np.arange(float(n)), np.ones(n))


class TestMomentMap:
    def test_restriction_holds_at_truth(self, model, mapped):
        smap = mapped
        assert norm(smap.eval(smap.beta0, model.g0)) <= 1e-12

    def test_scale_non_identification(self, model, mapped):
        smap = mapped
        for c in (2.0, 0.3):
            assert norm(smap.eval(smap.beta0, model.g0 * c)) <= 1e-12

    def test_derivative_matches_finite_differences(self, mapped):
        from momentid.identcore import gateaux_check

        smap = mapped
        mm = to_moment_map(smap)
        rng = np.random.default_rng(0)
        mu = mm.base_point.measure
        dirs = FunctionStack(rng.standard_normal((10, mu.size)) * 0.2, mu)
        assert gateaux_check(mm, dirs, 1e-4) < 1e-5

    def test_envelope_window_guard(self, model, mapped):
        smap = mapped
        with pytest.raises(ValueError, match="envelope window"):
            smap.eval(np.array([model.delta0, model.gamma0 + 2.0]), model.g0)

    def test_stack_equals_rows(self, model, mapped):
        # 65 rows cross EVAL_CHUNK, so eval_stack makes a 64- and a 1-row call
        rng = np.random.default_rng(3)
        n = model.c_measure.size
        rows = np.column_stack([
            model.delta0 + rng.uniform(-0.2, 0.2, 65),
            model.gamma0 + rng.uniform(-model.window, model.window, 65),
            model.g0.values * rng.uniform(0.5, 2.0, (65, n)),
        ])
        one_by_one = np.stack([mapped.eval_rows(row[None])[0]
                               for row in rows])
        assert np.array_equal(mapped.eval_rows(rows), one_by_one)
        assert np.array_equal(np.stack(list(mapped.eval_stack(rows))),
                              one_by_one)

    @pytest.mark.parametrize("column, offset, match", [
        (1, 1.5, "gamma = 3.5000 leaves the envelope window"),
        (0, -0.96, "discount factor must be positive"),
    ], ids=["gamma", "delta"])
    def test_stack_checks_a_bad_row_past_the_first(
            self, model, mapped, column, offset, match):
        rows = np.tile(np.concatenate([mapped.beta0, model.g0.values]),
                       (65, 1))
        rows[40, column] += offset
        with pytest.raises(ValueError, match=match):
            mapped.eval_rows(rows)

    def test_m_g_null_space_is_the_scale_direction(self, model, mapped):
        split = mapped.split
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

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-12])
    def test_tol_must_be_finite_and_positive(self, tol):
        # a NaN or nonpositive tol would run out the whole iteration budget
        mu = unit_grid(2)
        op = LinearOperator(np.array([[2.0, 1.0], [1.0, 5.0]]), mu, mu)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            positive_eigenpair(op, tol=tol)

    def test_convergence_error_carries_budget(self):
        mu = unit_grid(2)
        op = LinearOperator(np.array([[2.0, 1.0], [1.0, 5.0]]), mu, mu)
        with pytest.raises(ConvergenceError):
            positive_eigenpair(op, tol=1e-15, max_iter=2)

    def test_second_kind_solutions_solve_the_eigenproblem(self, model,
                                                          mapped):
        # conditioning the second-kind operator down to the current state
        # reproduces delta0 * T - I exactly on the grid
        split = mapped.split
        n_s = model.c_measure.size
        # the signal-weighted sum of the (signal, state) rows of m_g
        lhs = LinearOperator(
            np.einsum("o,ocs->cs", model.omega_measure.weights,
                      split.m_g.entries.reshape(-1, n_s, n_s)),
            model.c_measure, model.c_measure)
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
        rep = rank_condition(op)
        assert not rep.holds

    def test_two_by_two_distinct_ratios_injective(self):
        mu = unit_grid(2)
        from momentid.linop import conditional_expectation

        joint = np.array([[0.4, 0.1], [0.1, 0.4]])
        rep = rank_condition(conditional_expectation(joint, mu, mu))
        assert rep.holds

    def test_hs_value_matches_double_sum_oracle(self, model):
        op = fixed_state_completeness_operator(model,
                                               model.c_measure.size // 2)
        # the squared Hilbert-Schmidt norm is the double quadrature sum of
        # the squared kernel
        wc, wd = op.codomain.weights, op.domain.weights
        oracle = sum(
            wc[i] * wd[j] * op.entries[i, j] ** 2
            for i in range(op.shape[0]) for j in range(op.shape[1])
        )
        assert abs(hs_norm(op) ** 2 - oracle) < 1e-9 * (1 + oracle)

    def test_midpoint_state_operator_injective(self, model):
        op = fixed_state_completeness_operator(model,
                                               model.c_measure.size // 2)
        rep = rank_condition(op)
        assert rep.holds
        assert rep.sigma_min > 0


class TestGlobalIdentification:
    def test_scaled_truth_accepted(self, model, mapped):
        report = check_global_identification(
            mapped, [(model.delta0, model.gamma0, model.g0 * 2.0)])
        row = report.rows[0]
        assert row["is_solution"] and row["scale_ok"]
        assert row["gamma_ok"] and row["delta_ok"]
        assert row["ratio_spread"] < 1e-8
        assert report.violations == 0

    def test_shifted_curvature_rejected(self, model, mapped):
        report = check_global_identification(
            mapped, [(model.delta0, model.gamma0 + 0.5, model.g0)])
        assert not report.rows[0]["is_solution"]
        assert report.vacuous

    def test_candidate_must_live_on_the_state_grid(self, model, mapped):
        calls = []

        def eval_rows(rows):
            calls.append(len(rows))
            return mapped.eval_rows(rows)

        smap = replace(mapped, eval_rows=eval_rows)
        calls.clear()  # the m(beta0, g0) = 0 check of the construction
        # g0's values, positive, on a uniform grid of the same size
        moved = GridFunction(model.g0.values,
                             GridMeasure.uniform(model.g0.measure.size))
        candidates = [(model.delta0, model.gamma0, model.g0 * 2.0),
                      (model.delta0, model.gamma0, moved)]
        with pytest.raises(GridMismatchError, match="domain of m_g"):
            check_global_identification(smap, candidates)
        assert calls == []

    def test_candidate_must_be_positive(self, model, mapped):
        bad = GridFunction(np.zeros(model.c_measure.size), model.c_measure)
        with pytest.raises(ValueError, match="bounded away"):
            check_global_identification(mapped,
                                        [(model.delta0, model.gamma0, bad)])


def test_partialled_gram_nonsingular(mapped, gram_oracle):
    assert gram_oracle(mapped.split) > 1e-6


def test_returns_positive_and_envelope_valid(model):
    assert model.returns.min() > 0
    assert model.envelope().min() >= 1.0
