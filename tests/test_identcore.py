import math

import numpy as np
import pytest

from momentid.errors import EmptyNeighborhoodError
from momentid.fnspace import GridFunction, GridMeasure
from momentid.identcore import (
    MomentMap,
    NonlinearityBound,
    cone_classify,
    cone_inclusion_suite,
    counterexample,
    counterexample_map,
    dyadic_weights,
    estimate_nonlinearity,
    gateaux_check,
    in_counterexample_set,
    in_ellipsoid,
    in_identification_set,
    rank_condition,
    verify_local_id,
)
from momentid.linop import LinearOperator, apply, from_kernel, svd


def unit_grid(n):
    return GridMeasure(np.arange(float(n)), np.ones(n))


def linear_map(matrix, mu_a, mu_b):
    op = LinearOperator(matrix / mu_a.weights[None, :], mu_a, mu_b)
    return MomentMap(
        base_point=GridFunction.zero(mu_a),
        eval_fn=lambda a: apply(op, a),
        derivative=op,
    )


def quadratic_map(matrix, quads, mu_a, mu_b):
    op = LinearOperator(matrix / mu_a.weights[None, :], mu_a, mu_b)

    def eval_fn(alpha):
        lin = apply(op, alpha).values
        rem = np.einsum("bij,i,j->b", quads, alpha.values, alpha.values)
        return GridFunction(lin + rem, mu_b)

    return MomentMap(GridFunction.zero(mu_a), eval_fn, op)


class TestGateaux:
    def test_linear_map_is_exact(self):
        rng = np.random.default_rng(0)
        mu = unit_grid(4)
        mmap = linear_map(rng.standard_normal((4, 4)), mu, mu)
        dirs = [GridFunction(rng.standard_normal(4), mu) for _ in range(3)]
        assert gateaux_check(mmap, dirs, [1e-2, 1e-3]) <= 1e-12

    def test_error_scales_quadratically(self):
        # cubic map: central differences carry an O(t^2) remainder
        mu = unit_grid(1)

        def eval_fn(alpha):
            a = alpha.values[0]
            return GridFunction([a + a**3], mu)

        mmap = MomentMap(GridFunction.zero(mu), eval_fn,
                         LinearOperator.identity(mu))
        h = [GridFunction([1.0], mu)]
        e3 = gateaux_check(mmap, h, [1e-3])
        e4 = gateaux_check(mmap, h, [1e-3, 1e-4])
        assert e4 < e3
        assert e4 == pytest.approx(1e-8, rel=0.1)

    def test_richardson_refines(self):
        mu = unit_grid(1)

        def eval_fn(alpha):
            a = alpha.values[0]
            return GridFunction([math.sin(a)], mu)

        mmap = MomentMap(GridFunction.zero(mu), eval_fn,
                         LinearOperator.identity(mu))
        h = [GridFunction([1.0], mu)]
        plain = gateaux_check(mmap, h, [1e-3])
        refined = gateaux_check(mmap, h, [1e-3], richardson=True)
        assert refined < plain * 1e-3

    def test_rejects_increasing_steps(self):
        mu = unit_grid(2)
        mmap = linear_map(np.eye(2), mu, mu)
        with pytest.raises(ValueError):
            gateaux_check(mmap, [GridFunction([1.0, 0.0], mu)], [1e-4, 1e-3])


class TestEstimateNonlinearity:
    def test_linear_map_gives_zero(self):
        rng = np.random.default_rng(1)
        mu = unit_grid(3)
        mmap = linear_map(rng.standard_normal((3, 3)), mu, mu)
        devs = [GridFunction(rng.standard_normal(3), mu) for _ in range(5)]
        assert estimate_nonlinearity(mmap, 2.0, devs) <= 1e-12

    def test_scalar_square_map_gives_one(self):
        mu = unit_grid(1)

        def eval_fn(alpha):
            return GridFunction([alpha.values[0] ** 2], mu)

        mmap = MomentMap(GridFunction.zero(mu), eval_fn,
                         LinearOperator.zero(mu, mu))
        devs = [GridFunction([t], mu) for t in (0.1, -0.7, 2.0)]
        assert estimate_nonlinearity(mmap, 2.0, devs) == pytest.approx(1.0)

    def test_zero_deviation_rejected(self):
        mu = unit_grid(2)
        mmap = linear_map(np.eye(2), mu, mu)
        with pytest.raises(ValueError):
            estimate_nonlinearity(mmap, 2.0, [GridFunction.zero(mu)])


class TestRankCondition:
    def test_identity_holds(self):
        mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
        rep = rank_condition(LinearOperator.identity(mu), 1e-10)
        assert rep.holds and rep.sigma_min == pytest.approx(1.0)

    def test_rank_one_fails(self):
        mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
        rep = rank_condition(from_kernel(np.ones((4, 4)), mu, mu), 1e-10)
        assert not rep.holds
        assert rep.sigma_min < 1e-12

    def test_matches_oracle_on_random_kernel(self):
        rng = np.random.default_rng(2)
        mu = GridMeasure(np.arange(6.0), rng.uniform(0.2, 1.0, 6))
        op = from_kernel(rng.standard_normal((6, 6)) + 3 * np.eye(6), mu, mu)
        rep = rank_condition(op, 1e-10)
        assert rep.holds
        assert rep.sigma_min == pytest.approx(
            svd(op).singular_values[-1], rel=1e-9)

    def test_wider_domain_never_injective(self):
        rng = np.random.default_rng(3)
        dom = unit_grid(5)
        cod = unit_grid(3)
        op = LinearOperator(rng.standard_normal((3, 5)), dom, cod)
        assert not rank_condition(op, 1e-10).holds

    def test_empty_subspace_warns_and_is_not_success(self):
        from momentid.fnspace import OrthonormalBasis

        mu = unit_grid(3)
        op = LinearOperator.identity(mu)
        empty = OrthonormalBasis((), measure=mu)
        with pytest.warns(UserWarning, match="vacuous"):
            rep = rank_condition(op, 1e-10, subspace=empty)
        assert rep.vacuous and not rep.holds

    def test_identity_on_cosine_subspace_holds(self):
        from momentid.fnspace import cosine_basis

        mu = GridMeasure.uniform(12)
        rep = rank_condition(LinearOperator.identity(mu), 1e-10,
                             subspace=cosine_basis(mu, 4))
        assert rep.holds
        assert rep.sigma_min == pytest.approx(1.0, abs=1e-12)
        assert rep.sigma_max == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_kernel_on_two_dim_subspace_fails(self):
        from momentid.fnspace import cosine_basis

        mu = GridMeasure.uniform(12)
        op = from_kernel(np.ones((12, 12)), mu, mu)
        rep = rank_condition(op, 1e-10, subspace=cosine_basis(mu, 2))
        assert not rep.holds
        assert rep.sigma_max == pytest.approx(1.0, abs=1e-12)
        assert rep.sigma_min < 1e-12

    def test_subspace_on_another_grid_is_rejected(self):
        from momentid.errors import GridMismatchError
        from momentid.fnspace import cosine_basis

        op = LinearOperator.identity(GridMeasure.uniform(6))
        with pytest.raises(GridMismatchError):
            rank_condition(op, 1e-10,
                           subspace=cosine_basis(GridMeasure.uniform(5), 2))


class TestIdentificationSet:
    def test_zero_deviation_excluded(self):
        mu = unit_grid(2)
        op = LinearOperator.identity(mu)
        bound = NonlinearityBound(L=0.0, r=1.0)
        assert not in_identification_set(GridFunction.zero(mu), op, bound)

    def test_linear_case_needs_only_nonzero_image(self):
        mu = unit_grid(2)
        op = LinearOperator.identity(mu)
        bound = NonlinearityBound(L=0.0, r=1.0)
        assert in_identification_set(GridFunction([1.0, 0.0], mu), op, bound)

    def test_norm_arithmetic(self):
        # identity, L=1, r=2: ||d|| = 0.5 gives 0.5 > 0.25
        mu = GridMeasure([0.0], [1.0])
        op = LinearOperator.identity(mu)
        bound = NonlinearityBound(L=1.0, r=2.0)
        assert in_identification_set(GridFunction([0.5], mu), op, bound)
        assert not in_identification_set(GridFunction([1.0], mu), op, bound)

    def test_star_shaped_for_r_above_one(self):
        rng = np.random.default_rng(4)
        mu = unit_grid(3)
        op = from_kernel(rng.standard_normal((3, 3)) + 2 * np.eye(3), mu, mu)
        bound = NonlinearityBound(L=0.8, r=2.0)
        for _ in range(50):
            d = GridFunction(rng.standard_normal(3), mu)
            if in_identification_set(d, op, bound):
                for lam in rng.uniform(0.01, 1.0, 5):
                    assert in_identification_set(lam * d, op, bound)


class TestEllipsoid:
    def test_zero_coefficients_centre(self):
        bound = NonlinearityBound(L=1.0, r=2.0)
        with pytest.warns(UserWarning, match="center"):
            assert in_ellipsoid(np.zeros(3), np.ones(3), bound)

    def test_isometric_case_reduces_to_unit_ball(self):
        bound = NonlinearityBound(L=1.0, r=2.0)
        assert in_ellipsoid([0.6, 0.6], [1.0, 1.0], bound)
        assert not in_ellipsoid([0.8, 0.7], [1.0, 1.0], bound)

    def test_hand_arithmetic(self):
        # sum mu^-2 b^2 = 0.01 + 4 * 0.0025 = 0.02 < 0.25
        bound = NonlinearityBound(L=2.0, r=2.0)
        assert in_ellipsoid([0.1, 0.05], [1.0, 0.5], bound)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            in_ellipsoid([0.1], [1.0], NonlinearityBound(L=0.0, r=2.0))
        with pytest.raises(ValueError):
            in_ellipsoid([0.1], [1.0], NonlinearityBound(L=1.0, r=1.0))

    def test_membership_implies_identification_set(self):
        rng = np.random.default_rng(5)
        mu = GridMeasure(np.arange(5.0), np.full(5, 0.2))
        op = from_kernel(rng.standard_normal((5, 5)) + 2 * np.eye(5), mu, mu)
        dec = svd(op)
        bound = NonlinearityBound(L=1.5, r=2.0)
        hits = 0
        for _ in range(200):
            b = rng.standard_normal(5) * 0.1
            if in_ellipsoid(b, dec.singular_values, bound):
                hits += 1
                delta = GridFunction(dec.right_functions.matrix() @ b, mu)
                assert in_identification_set(delta, op, bound)
        assert hits > 0


class TestVerifyLocalId:
    def test_linear_injective_all_pass(self):
        rng = np.random.default_rng(6)
        mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
        mmap = linear_map(rng.standard_normal((4, 4)) + 2 * np.eye(4), mu, mu)
        report = verify_local_id(mmap, NonlinearityBound(L=0.0, r=1.0),
                                 samples=50, rng_seed=0)
        assert report.all_passed
        assert report.min_m_norm > report.pos_tol

    def test_empty_neighborhood_diagnostic(self):
        mu = GridMeasure(np.arange(3.0), np.full(3, 1 / 3))
        mmap = linear_map(np.eye(3), mu, mu)
        bound = NonlinearityBound(
            L=1.0, r=2.0, membership=lambda d: False
        )
        with pytest.raises(EmptyNeighborhoodError):
            verify_local_id(mmap, bound, samples=5, rng_seed=0,
                            budget_factor=10)

    def test_one_derivative_application_per_draw(self, monkeypatch):
        import momentid.identcore as identcore

        rng = np.random.default_rng(6)
        mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
        mmap = linear_map(rng.standard_normal((4, 4)) + 2 * np.eye(4), mu, mu)
        calls = []

        def counting_apply(op, f):
            calls.append(op)
            return apply(op, f)

        monkeypatch.setattr(identcore, "apply", counting_apply)
        report = verify_local_id(mmap, NonlinearityBound(L=0.1, r=2.0),
                                 samples=20, rng_seed=0)
        derivative_calls = [op for op in calls if op is mmap.derivative]
        assert report.attempts >= 20
        assert len(derivative_calls) == report.attempts

    def test_given_sampler_and_pos_tol_need_no_svd(self, monkeypatch):
        import momentid.identcore as identcore

        def no_svd(op):
            raise AssertionError("spectrum computed")

        monkeypatch.setattr(identcore, "svd", no_svd)
        monkeypatch.setattr(identcore, "singular_values", no_svd)
        mu = GridMeasure(np.arange(3.0), np.full(3, 1 / 3))
        mmap = linear_map(np.eye(3), mu, mu)

        def sampler(rng):
            return GridFunction(rng.uniform(-1.0, 1.0, 3), mu)

        report = verify_local_id(mmap, NonlinearityBound(L=0.0, r=1.0),
                                 samples=10, rng_seed=0, sampler=sampler,
                                 pos_tol=1e-10)
        assert report.all_passed and report.pos_tol == 1e-10

    def test_default_pos_tol_is_positivity_tol(self):
        from momentid.identcore import positivity_tol

        mu = GridMeasure(np.arange(3.0), np.full(3, 1 / 3))
        mmap = linear_map(3.0 * np.eye(3), mu, mu)
        sigma_max = svd(mmap.derivative).sigma_max
        default = verify_local_id(mmap, NonlinearityBound(L=0.0, r=1.0),
                                  samples=3, rng_seed=0)
        sampled = verify_local_id(
            mmap, NonlinearityBound(L=0.0, r=1.0), samples=3, rng_seed=0,
            sampler=lambda r: GridFunction(r.uniform(-1.0, 1.0, 3), mu))
        assert default.pos_tol == positivity_tol(sigma_max)
        assert sampled.pos_tol == pytest.approx(positivity_tol(sigma_max),
                                                rel=1e-12)


class TestAcceptedDraws:
    def test_yields_each_acceptance_before_the_next_draw(self):
        from momentid.identcore import accepted_draws

        values = iter([0.1, 0.9, 0.2, 0.3, 0.8, 0.7])
        log = []

        def draw():
            u = next(values)
            log.append(u)
            return u if u > 0.5 else None

        for attempts, u in accepted_draws(draw, 3, 100, "draws", "hint"):
            log.append(("accepted", attempts, u))
        assert log == [0.1, 0.9, ("accepted", 2, 0.9), 0.2, 0.3, 0.8,
                       ("accepted", 5, 0.8), 0.7, ("accepted", 6, 0.7)]

    def test_budget_names_the_shortfall_and_the_hint(self):
        from momentid.identcore import accepted_draws

        with pytest.raises(EmptyNeighborhoodError,
                           match=r"accepted only 0/2 items after 6 draws; "
                                 r"too strict"):
            list(accepted_draws(lambda: None, 2, 3, "items", "too strict"))


class TestCounterexample:
    def test_dyadic_weights_fold_exactly(self):
        p = dyadic_weights(64)
        assert p.sum() == 1.0

    def test_k4_values(self):
        case = counterexample(4)
        assert case.m_norm == 0.0
        assert case.dev_norm == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 5, 9, 12])
    def test_never_in_identification_set(self, k):
        case = counterexample(k)
        assert case.L >= 1.0
        assert not case.in_n

    def test_small_uniform_sequences_are_inside(self):
        case = counterexample(3)
        p = dyadic_weights(64)
        alpha = np.full(64, 0.5 / case.L)
        assert in_counterexample_set(p, alpha, case.L)

    def test_deviation_norm_decreasing_to_zero(self):
        devs = [counterexample(k).dev_norm for k in range(1, 13)]
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 0.13

    def test_invalid_f_detected(self):
        with pytest.raises(ValueError, match="slope"):
            counterexample(2, f=lambda x: 2.0 * x * (1.0 - x) * np.exp(-x**2))
        with pytest.raises(ValueError, match="vanish"):
            counterexample(2, f=lambda x: (x - 0.5) * (x - 1.0))

    def test_map_passes_inside_the_set(self):
        mmap, bound = counterexample_map()
        mu = mmap.base_point.measure
        cap = 0.9 / bound.L

        def sampler(rng):
            return GridFunction(rng.uniform(-cap, cap, mu.size), mu)

        report = verify_local_id(mmap, bound, samples=100, rng_seed=1,
                                 sampler=sampler)
        assert report.all_passed

    def test_map_fails_on_open_balls(self):
        mmap, bound = counterexample_map()
        mu = mmap.base_point.measure
        p = mu.weights
        holes = iter(range(10, 40))
        norms = []

        def sampler(rng):
            alpha = np.zeros(mu.size)
            alpha[next(holes):] = 1.0
            norms.append(float(np.dot(p, alpha**4) ** 0.25))
            return GridFunction(alpha, mu)

        report = verify_local_id(mmap, bound, samples=5, rng_seed=2,
                                 sampler=sampler, enforce_membership=False)
        assert report.failures == 5  # zeros of the map arbitrarily close
        assert max(norms) < 0.2  # inside a small open ball around the truth


class TestConeSets:
    def test_linear_map_in_all_sets(self):
        rng = np.random.default_rng(7)
        mu = unit_grid(3)
        mmap = linear_map(rng.standard_normal((3, 3)) + 2 * np.eye(3), mu, mu)
        alpha = GridFunction(rng.standard_normal(3), mu)
        for eta in (0.1, 0.5, 2.0):
            cm = cone_classify(mmap, alpha, eta)
            assert cm.in_n and cm.in_nprime
            assert cm.in_n_eta and cm.in_nprime_eta

    def test_base_point_memberships(self):
        mu = unit_grid(2)
        mmap = linear_map(np.eye(2), mu, mu)
        cm = cone_classify(mmap, mmap.base_point, 0.5)
        assert cm.in_n_eta and cm.in_nprime_eta
        assert not cm.in_n and not cm.in_nprime

    def test_flags_match_bruteforce_definitions(self):
        rng = np.random.default_rng(8)
        mu_a, mu_b = unit_grid(3), unit_grid(2)
        for _ in range(20):
            quads = rng.standard_normal((2, 3, 3))
            quads = 0.5 * (quads + np.swapaxes(quads, 1, 2))
            mmap = quadratic_map(rng.standard_normal((2, 3)), quads,
                                 mu_a, mu_b)
            alpha = GridFunction(rng.standard_normal(3), mu_a)
            eta = float(rng.uniform(0.05, 1.4))
            cm = cone_classify(mmap, alpha, eta, tol=0.0)
            m_val = mmap.eval(alpha).values
            lin = apply(mmap.derivative, alpha).values
            m_n = np.linalg.norm(m_val)
            lin_n = np.linalg.norm(lin)
            rem_n = np.linalg.norm(m_val - lin)
            assert cm.in_n == (m_n > 0)
            assert cm.in_nprime == (lin_n > 0)
            assert cm.in_n_eta == (rem_n <= eta * m_n)
            assert cm.in_nprime_eta == (rem_n <= eta * lin_n)

    def test_suite_clean_on_small_run(self):
        report = cone_inclusion_suite(2000, 4, rng_seed=0)
        assert report.total_violations == 0

    def test_suite_rejects_large_dimension(self):
        with pytest.raises(ValueError):
            cone_inclusion_suite(10, 9, rng_seed=0)


def test_moment_map_rejects_nonzero_base_residual():
    mu = unit_grid(2)
    with pytest.raises(ValueError, match="m\\(alpha0\\)"):
        MomentMap(
            base_point=GridFunction.zero(mu),
            eval_fn=lambda a: GridFunction.constant(mu, 1.0),
            derivative=LinearOperator.identity(mu),
        )


def test_local_id_report_rows_csv(tmp_path):
    rng = np.random.default_rng(11)
    mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
    mmap = linear_map(rng.standard_normal((4, 4)) + 2 * np.eye(4), mu, mu)
    report = verify_local_id(mmap, NonlinearityBound(L=0.0, r=1.0),
                             samples=8, rng_seed=0, keep_rows=True)
    assert len(report.rows) == 8
    path = tmp_path / "rows.csv"
    report.rows_to_csv(str(path))
    header, *rows = path.read_text().strip().splitlines()
    assert header.startswith("deviation_norm")
    assert len(rows) == 8
