import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from momentid.errors import EmptyNeighborhoodError, GridMismatchError
from momentid.fnspace import GridFunction, GridMeasure, OrthonormalBasis
from momentid.identcore import (
    CONE_CHUNK,
    EVAL_CHUNK,
    ConeChunk,
    MomentMap,
    NonlinearityBound,
    cone_classify,
    cone_inclusion_suite,
    counterexample,
    counterexample_cases,
    counterexample_map,
    draw_cone_chunk,
    dyadic_weights,
    estimate_nonlinearity,
    evaluate_cone_chunk,
    gateaux_check,
    in_counterexample_set,
    in_ellipsoid,
    in_identification_set,
    rank_condition,
    verify_local_id,
)
from momentid.linop import (
    MAX_AXIS_POINTS,
    LinearOperator,
    apply,
    from_kernel,
    singular_values,
    svd,
)


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

    def test_rejects_no_directions(self):
        # an empty check would report a worst error of 0, a perfect pass
        mu = unit_grid(2)
        mmap = linear_map(np.eye(2), mu, mu)
        with pytest.raises(ValueError, match="directions"):
            gateaux_check(mmap, [], [1e-3])

    def test_rejects_directions_on_another_grid(self):
        mu = unit_grid(2)
        mmap = linear_map(np.eye(2), mu, mu)
        other = GridMeasure(np.arange(2.0), np.full(2, 0.5))
        with pytest.raises(GridMismatchError, match="directions"):
            gateaux_check(mmap, [GridFunction([1.0, 0.0], other)], [1e-3])


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

    def test_rejects_no_deviations(self):
        # an empty estimate would report L = 0, a perfect pass
        mu = unit_grid(2)
        mmap = linear_map(np.eye(2), mu, mu)
        with pytest.raises(ValueError, match="deviations"):
            estimate_nonlinearity(mmap, 2.0, [])

    def test_rejects_deviations_on_another_grid(self):
        mu = unit_grid(2)
        mmap = linear_map(np.eye(2), mu, mu)
        other = GridMeasure(np.arange(2.0), np.full(2, 0.5))
        with pytest.raises(GridMismatchError, match="deviations"):
            estimate_nonlinearity(mmap, 2.0, [GridFunction([1.0, 0.0], other)])


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

    def test_subspace_report_is_the_restricted_operators_spectrum(self):
        rng = np.random.default_rng(4)
        mu = GridMeasure(np.arange(9.0), rng.uniform(0.2, 1.0, 9))
        cod = GridMeasure(np.arange(7.0), rng.uniform(0.2, 1.0, 7))
        op = from_kernel(rng.standard_normal((7, 9)), mu, cod)
        q, _ = np.linalg.qr(rng.standard_normal((9, 4)))
        sub = OrthonormalBasis.from_matrix(q / np.sqrt(mu.weights)[:, None], mu)
        rep = rank_condition(op, 1e-10, subspace=sub)
        s = singular_values(LinearOperator(
            op.action_matrix() @ sub.matrix(),
            GridMeasure(np.arange(4, dtype=float), np.ones(4)),
            op.codomain,
        ))
        assert rep.sigma_max == s[0] and rep.sigma_min == s[-1]

    def test_subspace_longer_than_the_axis_cap_is_rejected(self):
        # a 2-d domain with more nodes than one axis may hold
        side = 23
        mu = GridMeasure.tensor(GridMeasure.uniform(side),
                                GridMeasure.uniform(side))
        k = MAX_AXIS_POINTS + 1
        assert side**2 >= k
        sub = OrthonormalBasis.from_matrix(
            np.eye(mu.size)[:, :k] / np.sqrt(mu.weights)[:, None], mu)
        with pytest.raises(ValueError, match="dense-storage cap"):
            rank_condition(LinearOperator.identity(mu), 1e-10, subspace=sub)

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


def stacked_linear_map(matrix, mu, calls=None):
    """linear_map with an eval_rows that records the size of each stack it
    is given and evaluates it row by row, so it agrees with eval exactly."""
    base = linear_map(matrix, mu, mu)

    def eval_rows(rows):
        if calls is not None:
            calls.append(rows.shape[0])
        return np.stack([base.eval(GridFunction(row, mu)).values
                         for row in rows])

    return MomentMap(base.base_point, base.eval_fn, base.derivative,
                     eval_rows=eval_rows)


class TestEvalMany:
    def test_without_eval_rows_calls_eval_once_per_input(self):
        mu = unit_grid(3)
        seen = []

        def eval_fn(alpha):
            seen.append(alpha)
            return GridFunction(2.0 * alpha.values, mu)

        mmap = MomentMap(GridFunction.zero(mu), eval_fn,
                         LinearOperator.identity(mu) * 2.0)
        seen.clear()
        alphas = [GridFunction(np.full(3, float(k)), mu) for k in range(5)]
        out = mmap.eval_many(alphas)
        assert seen == alphas
        assert [f.values.tolist() for f in out] == [
            [2.0 * k] * 3 for k in range(5)]
        assert mmap.eval_many([]) == []

    def test_eval_rows_matches_eval_row_by_row(self):
        rng = np.random.default_rng(12)
        mu = unit_grid(4)
        calls = []
        mmap = stacked_linear_map(rng.standard_normal((4, 4)), mu, calls)
        alphas = [GridFunction(rng.standard_normal(4), mu) for _ in range(7)]
        out = mmap.eval_many(alphas)
        assert calls == [7]
        for alpha, got in zip(alphas, out):
            assert got.measure.same_as(mmap.derivative.codomain)
            assert np.array_equal(got.values, mmap.eval(alpha).values)
        assert mmap.eval_many([]) == [] and calls == [7]

    def test_rejects_inputs_on_another_grid(self):
        mmap = stacked_linear_map(np.eye(3), unit_grid(3))
        other = GridMeasure(np.arange(3.0), np.full(3, 2.0))
        with pytest.raises(GridMismatchError, match="domain grid"):
            mmap.eval_many([GridFunction.zero(other)])

    def test_rejects_a_stack_of_the_wrong_shape(self):
        mu = unit_grid(3)
        base = linear_map(np.eye(3), mu, mu)
        short = MomentMap(base.base_point, base.eval_fn, base.derivative,
                          eval_rows=lambda rows: rows[:, :2])
        with pytest.raises(GridMismatchError, match="eval_rows returned"):
            short.eval_many([GridFunction.zero(mu)])

    def test_chunk_inputs_are_built_when_the_chunk_runs(self):
        from momentid.identcore import _evaluated

        mu = unit_grid(2)
        calls, built = [], []
        mmap = stacked_linear_map(np.eye(2), mu, calls)

        def inputs(n):
            for k in range(n):
                built.append(len(calls))  # stacks evaluated so far
                yield GridFunction(np.full(2, float(k)), mu)

        out = list(_evaluated(mmap, inputs(200)))
        assert EVAL_CHUNK == 64
        assert calls == [64, 64, 64, 8]
        assert built == [k // 64 for k in range(200)]
        assert [f.values[0] for f in out] == list(range(200))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_harnesses_agree_with_and_without_eval_rows(self, n):
        rng = np.random.default_rng(13)
        mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
        matrix = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        calls = []
        stacked = stacked_linear_map(matrix, mu, calls)
        plain = linear_map(matrix, mu, mu)
        devs = [GridFunction(rng.standard_normal(4), mu) for _ in range(n)]
        assert (estimate_nonlinearity(stacked, 2.0, devs)
                == estimate_nonlinearity(plain, 2.0, devs))
        assert calls == [min(EVAL_CHUNK, n - k)
                         for k in range(0, n, EVAL_CHUNK)]
        calls.clear()
        steps = [1e-2, 1e-3]
        assert (gateaux_check(stacked, devs, steps, richardson=True)
                == gateaux_check(plain, devs, steps, richardson=True))
        assert sum(calls) == 8 * n and max(calls) == min(n * 8, EVAL_CHUNK)


def stacked_square_map(mu, norm_b=None, poison=None):
    """m(a) = 3a + a^2 on one grid, with a custom codomain norm if given and
    an eval_rows that evaluates row by row and hands the stack to
    ``poison`` before returning it."""
    op = LinearOperator(3.0 * np.eye(mu.size) / mu.weights[None, :], mu, mu)

    def eval_fn(alpha):
        return GridFunction(apply(op, alpha).values + alpha.values**2, mu)

    def eval_rows(rows):
        out = np.stack([eval_fn(GridFunction(row, mu)).values
                        for row in rows])
        return out if poison is None else poison(out)

    return MomentMap(GridFunction.zero(mu), eval_fn, op, norm_b=norm_b,
                     eval_rows=eval_rows)


HARNESSES = {
    "verify_local_id": lambda mmap, devs: verify_local_id(
        mmap, NonlinearityBound(L=0.0, r=1.0), len(devs), 0,
        sampler=lambda _, it=iter(devs): next(it), pos_tol=1e-10,
        keep_rows=True).rows,
    "estimate_nonlinearity":
        lambda mmap, devs: estimate_nonlinearity(mmap, 2.0, devs),
    "gateaux_check": lambda mmap, devs: gateaux_check(
        mmap, devs, [1e-2, 1e-3], richardson=True),
}


class TestStackedHarnessChecks:
    """The harnesses check each stack eval_rows returns once per chunk."""

    def deviations(self, mu, n=70):
        rng = np.random.default_rng(14)
        return [GridFunction(rng.uniform(-0.5, 0.5, mu.size), mu)
                for _ in range(n)]

    @pytest.mark.parametrize("harness", HARNESSES)
    def test_non_finite_row_is_rejected(self, harness):
        mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))

        def poison(out):
            out[-1, 2] = np.nan
            return out

        mmap = stacked_square_map(mu, poison=poison)
        with pytest.raises(ValueError, match="finite"):
            HARNESSES[harness](mmap, self.deviations(mu))

    @pytest.mark.parametrize("harness", HARNESSES)
    def test_wrong_shape_stack_is_rejected(self, harness):
        mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
        mmap = stacked_square_map(mu, poison=lambda out: out[:, :-1])
        with pytest.raises(GridMismatchError, match="eval_rows returned"):
            HARNESSES[harness](mmap, self.deviations(mu))

    @pytest.mark.parametrize("harness", HARNESSES)
    def test_custom_norm_b_agrees_with_and_without_eval_rows(self, harness):
        mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
        seen = []

        def sup_norm(f):
            seen.append(f)
            return float(np.abs(f.values).max())

        stacked = stacked_square_map(mu, norm_b=sup_norm)
        plain = replace(stacked, eval_rows=None)
        devs = self.deviations(mu)
        # codomain norms per deviation: ||m'd||, the remainder and ||m||;
        # the remainder; ||m'h|| and one difference error per step
        per_deviation = {"verify_local_id": 3, "estimate_nonlinearity": 1,
                         "gateaux_check": 3}[harness]
        results = []
        for mmap in (stacked, plain):
            seen.clear()
            results.append(HARNESSES[harness](mmap, devs))
            assert len(seen) == per_deviation * len(devs)
            assert all(f.measure.same_as(mu) for f in seen)
        assert results[0] == results[1]


class TestVerifyLocalIdBatching:
    def test_every_draw_is_made_before_the_first_evaluation(self):
        mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
        calls, draws = [], []
        mmap = stacked_linear_map(3.0 * np.eye(4), mu, calls)

        def sampler(rng):
            draws.append(len(calls))  # stacks evaluated so far
            return GridFunction(rng.uniform(-1.0, 1.0, 4), mu)

        report = verify_local_id(mmap, NonlinearityBound(L=0.1, r=2.0),
                                 samples=150, rng_seed=0, sampler=sampler,
                                 pos_tol=1e-10, keep_rows=True)
        assert calls == [64, 64, 22]
        assert draws == [0] * report.attempts
        plain = verify_local_id(linear_map(3.0 * np.eye(4), mu, mu),
                                NonlinearityBound(L=0.1, r=2.0), samples=150,
                                rng_seed=0, sampler=sampler, pos_tol=1e-10,
                                keep_rows=True)
        assert plain.attempts == report.attempts
        assert plain.rows == report.rows


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

    def test_cases_match_single_k_calls(self):
        ks = [1, 3, 12]
        for case, k in zip(counterexample_cases(ks, n_terms=32), ks):
            single = counterexample(k, n_terms=32)
            assert case.k == k
            assert (case.m_norm, case.dev_norm, case.in_n, case.L) == (
                single.m_norm, single.dev_norm, single.in_n, single.L)
            assert np.array_equal(case.alpha, single.alpha)

    def test_cases_reject_any_bad_k(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            counterexample_cases([2, 0])

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

    @pytest.mark.parametrize("dim", [0, -1])
    def test_suite_rejects_dimension_below_one(self, dim):
        with pytest.raises(ValueError, match="dim must be at least 1"):
            cone_inclusion_suite(10, dim, rng_seed=0)

    def test_suite_clean_in_one_dimension(self):
        report = cone_inclusion_suite(500, 1, rng_seed=4)
        assert report.total_violations == 0
        assert min(report.premises.values()) > 0

    @pytest.mark.parametrize("instances", [1, CONE_CHUNK + 1])
    def test_counts_add_up_over_chunks(self, instances):
        report = cone_inclusion_suite(instances, 5, rng_seed=3)
        rng = np.random.default_rng(3)
        sizes = [CONE_CHUNK] * (instances // CONE_CHUNK)
        sizes += [instances % CONE_CHUNK]  # the partial last chunk
        flags = [evaluate_cone_chunk(draw_cone_chunk(rng, n, 5), 1e-12)
                 for n in sizes]
        assert report.instances == instances
        assert report.total_violations == 0
        for name, count in report.violations.items():
            assert count == sum(int(f.violations[name].sum()) for f in flags)
        for name in list(report.premises)[:4]:
            assert report.premises[name] == sum(
                int(f.premises[name].sum()) for f in flags)
        assert report.premises["zero_linear_term"] == sum(
            int((f.linear_norm == 0.0).sum()) for f in flags)

    @pytest.mark.parametrize("dim", [6, 8])
    def test_suite_premises_are_met(self, dim):
        # shipped config (dim 6) and acceptance criterion 6 (dim 8): a
        # relation whose premise never holds would pass vacuously
        report = cone_inclusion_suite(10_000, dim, rng_seed=20250809)
        assert report.total_violations == 0
        zero_lin = report.premises.pop("zero_linear_term")
        assert len(report.premises) == 4
        assert min(report.premises.values()) >= 1_000
        assert zero_lin >= 100

    def test_suite_memory_stays_within_chunk_budget(self):
        tracemalloc.start()
        try:
            cone_inclusion_suite(10_000, 8, rng_seed=20250809)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6


E2P, P2E = "cone_transfer_eta_to_etaprime", "cone_transfer_etaprime_to_eta"


def boundary_chunk(dim):
    """Two 1-D instances padded to ``dim``, at eta = 1/2 (eta/(1-eta) = 1).

    In the first, m'a = 1 and the remainder 1 point the same way, so
    ||rem|| = eta ||m|| exactly and the first transfer's bound ||m'a|| is
    attained.  In the second, m'a = -2 and the remainder 1 point opposite
    ways, so ||rem|| = eta ||m'a|| exactly and the second transfer's bound
    ||m|| is attained.
    """
    m_lin = np.zeros((2, dim, dim))
    quad = np.zeros((2, dim, dim, dim))
    alpha = np.zeros((2, dim))
    m_lin[:, 0, 0] = 1.0, -2.0
    quad[:, 0, 0, 0] = 1.0
    alpha[:, 0] = 1.0
    return ConeChunk(da=np.ones(2, dtype=int), db=np.ones(2, dtype=int),
                     m_lin=m_lin, quad=quad, alpha=alpha,
                     eta=np.full(2, 0.5))


@pytest.mark.parametrize("dim", [1, 4])
def test_transfer_bounds_are_attained_on_the_boundary(dim):
    chunk = boundary_chunk(dim)
    flags = evaluate_cone_chunk(chunk, 1e-12)
    assert flags.linear_norm.tolist() == [1.0, 2.0]
    assert flags.remainder_norm.tolist() == [1.0, 1.0]
    assert flags.m_norm.tolist() == [2.0, 1.0]
    # the eta-sets are closed, so each boundary instance belongs to one
    assert flags.in_n_eta.tolist() == [True, False]
    assert flags.in_nprime_eta.tolist() == [False, True]
    assert flags.premises[E2P].tolist() == [True, False]
    assert flags.premises[P2E].tolist() == [False, True]
    assert flags.near_bound[E2P].tolist() == [True, False]
    assert flags.near_bound[P2E].tolist() == [False, True]
    assert not any(v.any() for v in flags.violations.values())
    # each bound is attained: tightened by any margin, it is violated
    tight = evaluate_cone_chunk(chunk, -1e-9)
    assert tight.violations[E2P].tolist() == [True, False]
    assert tight.violations[P2E].tolist() == [False, True]


@pytest.mark.parametrize("dim", [6, 8])
def test_suite_approaches_the_transfer_bounds(dim):
    # shipped config (dim 6) and acceptance criterion 6 (dim 8): a bound
    # never approached could not be told from a looser one
    report = cone_inclusion_suite(10_000, dim, rng_seed=20250809)
    assert set(report.near_bound) == {E2P, P2E}
    assert min(report.near_bound.values()) >= 50


def reference_cone_flags(m_lin, quad, alpha, eta, slack):
    """One unpadded instance classified from the cone-set definitions."""
    lin = m_lin @ alpha
    m_val = lin + np.einsum("bij,i,j->b", quad, alpha, alpha)
    m_n = float(np.linalg.norm(m_val))
    lin_n = float(np.linalg.norm(lin))
    rem_n = float(np.linalg.norm(m_val - lin))
    eps = slack * (1.0 + max(m_n, lin_n, rem_n))
    in_n, in_np = m_n > 0.0, lin_n > 0.0
    in_ne, in_npe = rem_n <= eta * m_n, rem_n <= eta * lin_n
    below = eta < 1.0
    ratio = eta / (1.0 - eta) if below else math.nan
    violations = {
        "inclusion_eta_rank_in_id": in_ne and in_np and not in_n,
        "inclusion_etaprime_id_in_rank": in_npe and in_n and not in_np,
        "inclusion_eta_id_in_rank": below and in_ne and in_n and not in_np,
        "inclusion_etaprime_rank_in_id":
            below and in_npe and in_np and not in_n,
        "equality_eta_rank_vs_id": below and in_ne and in_np != in_n,
        "equality_etaprime_rank_vs_id": below and in_npe and in_np != in_n,
        "cone_transfer_eta_to_etaprime":
            below and in_ne and rem_n > ratio * lin_n + eps,
        "cone_transfer_etaprime_to_eta":
            below and in_npe and rem_n > ratio * m_n + eps,
    }
    members = {"in_n": in_n, "in_nprime": in_np, "in_n_eta": in_ne,
               "in_nprime_eta": in_npe}
    return (m_n, lin_n, rem_n), members, violations


def test_chunk_evaluator_matches_per_instance_reference():
    dim = 8
    chunk = draw_cone_chunk(np.random.default_rng(11), CONE_CHUNK, dim)
    flags = evaluate_cone_chunk(chunk, 1e-12)
    deficient = 0
    for i in range(CONE_CHUNK):
        da, db = int(chunk.da[i]), int(chunk.db[i])
        m_lin = chunk.m_lin[i, :db, :da]
        quad = chunk.quad[i, :db, :da, :da]
        alpha = chunk.alpha[i, :da]
        # the padding around the instance's own block is exactly zero
        assert np.count_nonzero(chunk.m_lin[i]) == np.count_nonzero(m_lin)
        assert np.count_nonzero(chunk.quad[i]) == np.count_nonzero(quad)
        assert np.count_nonzero(chunk.alpha[i]) == np.count_nonzero(alpha)
        deficient += not m_lin[0].any()
        norms, members, violations = reference_cone_flags(
            m_lin, quad, alpha, float(chunk.eta[i]), 1e-12)
        got = (flags.m_norm[i], flags.linear_norm[i], flags.remainder_norm[i])
        assert np.allclose(got, norms, rtol=1e-14, atol=0.0)
        for name, flag in members.items():
            assert bool(getattr(flags, name)[i]) == flag, name
        assert len(violations) == len(flags.violations) == 8
        for name, flag in violations.items():
            assert bool(flags.violations[name][i]) == flag, name
    assert (chunk.da < dim).any() and (chunk.db < dim).any()
    assert deficient > 0  # the rank-deficient branch was drawn


def test_moment_map_rejects_nonzero_base_residual():
    mu = unit_grid(2)
    with pytest.raises(ValueError, match="m\\(alpha0\\)"):
        MomentMap(
            base_point=GridFunction.zero(mu),
            eval_fn=lambda a: GridFunction.constant(mu, 1.0),
            derivative=LinearOperator.identity(mu),
        )


def test_local_id_report_rows_csv():
    rng = np.random.default_rng(11)
    mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
    mmap = linear_map(rng.standard_normal((4, 4)) + 2 * np.eye(4), mu, mu)
    report = verify_local_id(mmap, NonlinearityBound(L=0.0, r=1.0),
                             samples=8, rng_seed=0, keep_rows=True)
    assert len(report.rows) == 8
