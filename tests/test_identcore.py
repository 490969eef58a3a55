import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momentid.errors import EmptyNeighborhoodError, GridMismatchError
from momentid.fnspace import GridFunction, GridMeasure, norm
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
    in_ellipsoid,
    positivity_tol,
    rank_condition,
    sample_ellipsoid_deviations,
    verify_local_id,
)
from momentid.linop import (
    LinearOperator,
    apply,
    apply_values,
    singular_values,
    svd,
)


def unit_grid(n):
    return GridMeasure(np.arange(float(n)), np.ones(n))


def linear_map(matrix, mu_a, mu_b):
    op = LinearOperator(matrix / mu_a.weights[None, :], mu_a, mu_b)
    # row by row, so each row is apply(op, a) bit for bit at any stack size
    return MomentMap(
        base_point=GridFunction.zero(mu_a),
        eval_rows=lambda rows: np.stack([apply_values(op, a) for a in rows]),
        derivative=op,
    )


def quadratic_map(matrix, quads, mu_a, mu_b):
    op = LinearOperator(matrix / mu_a.weights[None, :], mu_a, mu_b)

    def eval_rows(rows):
        lin = rows * mu_a.weights @ op.entries.T
        return lin + np.einsum("bij,ni,nj->nb", quads, rows, rows)

    return MomentMap(GridFunction.zero(mu_a), eval_rows, op)


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
        mmap = MomentMap(GridFunction.zero(mu), lambda rows: rows + rows**3,
                         LinearOperator.identity(mu))
        h = [GridFunction([1.0], mu)]
        e3 = gateaux_check(mmap, h, [1e-3])
        e4 = gateaux_check(mmap, h, [1e-3, 1e-4])
        assert e4 < e3
        assert e4 == pytest.approx(1e-8, rel=0.1)

    def test_richardson_refines(self):
        mu = unit_grid(1)
        mmap = MomentMap(GridFunction.zero(mu), np.sin,
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
        mmap = MomentMap(GridFunction.zero(mu), lambda rows: rows**2,
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
        rep = rank_condition(LinearOperator(np.ones((4, 4)), mu, mu), 1e-10)
        assert not rep.holds
        assert rep.sigma_min < 1e-12

    def test_matches_oracle_on_random_kernel(self):
        rng = np.random.default_rng(2)
        mu = GridMeasure(np.arange(6.0), rng.uniform(0.2, 1.0, 6))
        op = LinearOperator(rng.standard_normal((6, 6)) + 3 * np.eye(6), mu, mu)
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


class TestIdentificationSet:
    def test_zero_deviation_excluded(self):
        mu = unit_grid(2)
        op = LinearOperator.identity(mu)
        bound = NonlinearityBound(L=0.0, r=1.0)
        d = GridFunction.zero(mu)
        assert not bound.separates(norm(apply(op, d)), norm(d))

    def test_linear_case_needs_only_nonzero_image(self):
        mu = unit_grid(2)
        op = LinearOperator.identity(mu)
        bound = NonlinearityBound(L=0.0, r=1.0)
        d = GridFunction([1.0, 0.0], mu)
        assert bound.separates(norm(apply(op, d)), norm(d))

    def test_norm_arithmetic(self):
        # identity, L=1, r=2: ||d|| = 0.5 gives 0.5 > 0.25
        mu = GridMeasure([0.0], [1.0])
        op = LinearOperator.identity(mu)
        bound = NonlinearityBound(L=1.0, r=2.0)
        half, one = GridFunction([0.5], mu), GridFunction([1.0], mu)
        assert bound.separates(norm(apply(op, half)), norm(half))
        assert not bound.separates(norm(apply(op, one)), norm(one))

    def test_star_shaped_for_r_above_one(self):
        rng = np.random.default_rng(4)
        mu = unit_grid(3)
        op = LinearOperator(rng.standard_normal((3, 3)) + 2 * np.eye(3), mu, mu)
        bound = NonlinearityBound(L=0.8, r=2.0)
        for _ in range(50):
            d = GridFunction(rng.standard_normal(3), mu)
            if bound.separates(norm(apply(op, d)), norm(d)):
                for lam in rng.uniform(0.01, 1.0, 5):
                    d_lam = lam * d
                    assert bound.separates(norm(apply(op, d_lam)),
                                           norm(d_lam))


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

    @pytest.mark.parametrize("r", [2.0, 3.0])
    def test_null_direction_of_a_rank_deficient_derivative(self, r):
        bound = NonlinearityBound(L=1.0, r=r)
        mu = GridMeasure(np.arange(3.0), np.full(3, 0.25))
        dec = svd(LinearOperator(np.diag([8.0, 4.0, 0.0]), mu, mu))
        assert dec.singular_values[-1] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a zero coefficient on the null direction adds nothing
            assert in_ellipsoid([0.1, 0.0], [1.0, 0.0], bound)
            # a nonzero one cannot be bounded by the ellipsoid
            assert not in_ellipsoid([0.1, 0.1], [1.0, 0.0], bound)
            draws = sample_ellipsoid_deviations(
                dec, bound, 50, np.random.default_rng(4))
            for _, b in draws:
                assert b[-1] == 0.0
                assert in_ellipsoid(b, dec.singular_values, bound)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            in_ellipsoid([0.1], [1.0], NonlinearityBound(L=0.0, r=2.0))
        with pytest.raises(ValueError):
            in_ellipsoid([0.1], [1.0], NonlinearityBound(L=1.0, r=1.0))

    def test_membership_implies_identification_set(self):
        rng = np.random.default_rng(5)
        mu = GridMeasure(np.arange(5.0), np.full(5, 0.2))
        op = LinearOperator(rng.standard_normal((5, 5)) + 2 * np.eye(5), mu, mu)
        dec = svd(op)
        bound = NonlinearityBound(L=1.5, r=2.0)
        hits = 0
        for _ in range(200):
            b = rng.standard_normal(5) * 0.1
            if in_ellipsoid(b, dec.singular_values, bound):
                hits += 1
                delta = GridFunction(dec.right_functions.matrix() @ b, mu)
                assert bound.separates(norm(apply(op, delta)), norm(delta))
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
        bound = NonlinearityBound(L=1.0, r=2.0)
        with pytest.raises(EmptyNeighborhoodError):
            verify_local_id(mmap, bound, samples=5, rng_seed=0,
                            sampler=lambda rng: GridFunction.zero(mu),
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
    is given, apart from the single-row evaluations of m(alpha0) that
    building the map and ``estimate_nonlinearity`` make."""
    base = linear_map(matrix, mu, mu)

    def eval_rows(rows):
        if calls is not None and rows.any():
            calls.append(rows.shape[0])
        return base.eval_rows(rows)

    return replace(base, eval_rows=eval_rows)


class TestEvalMany:
    def test_eval_rows_matches_eval_row_by_row(self):
        rng = np.random.default_rng(12)
        mu = unit_grid(4)
        calls = []
        mmap = stacked_linear_map(rng.standard_normal((4, 4)), mu, calls)
        alphas = [GridFunction(rng.standard_normal(4), mu) for _ in range(7)]
        out = mmap.eval_many(alphas)
        assert calls == [7]
        assert mmap.eval_many([]) == [] and calls == [7]
        for alpha, got in zip(alphas, out):
            assert got.measure.same_as(mmap.derivative.codomain)
            assert np.array_equal(got.values, mmap.eval(alpha).values)

    def test_rejects_inputs_on_another_grid(self):
        mmap = stacked_linear_map(np.eye(3), unit_grid(3))
        other = GridMeasure(np.arange(3.0), np.full(3, 2.0))
        with pytest.raises(GridMismatchError, match="domain grid"):
            mmap.eval_many([GridFunction.zero(other)])

    def test_rejects_a_stack_of_the_wrong_shape(self):
        mu = unit_grid(3)
        base = linear_map(np.eye(3), mu, mu)
        # right at the base point, so the map can be built
        short = replace(base, eval_rows=lambda rows: rows[:, :2]
                        if rows.any() else rows)
        with pytest.raises(GridMismatchError, match="eval_rows returned"):
            short.eval_many([GridFunction.constant(mu, 1.0)])

    @pytest.mark.parametrize("bad, error, match", [
        (lambda rows: rows[:, :2], GridMismatchError, "eval_rows returned"),
        (lambda rows: rows + np.nan, ValueError, "not finite"),
    ], ids=["shape", "nan"])
    def test_construction_and_eval_check_a_single_point_stack(
            self, bad, error, match):
        mu = unit_grid(3)
        identity = LinearOperator.identity(mu)
        with pytest.raises(error, match=match):
            MomentMap(GridFunction.zero(mu), bad, identity)
        # right at the base point, so the map can be built
        mmap = MomentMap(GridFunction.zero(mu),
                         lambda rows: bad(rows) if rows.any() else rows,
                         identity)
        with pytest.raises(error, match=match):
            mmap.eval(GridFunction.constant(mu, 1.0))

    def test_chunk_inputs_are_built_when_the_chunk_runs(self):
        mu = unit_grid(2)
        calls, built = [], []
        mmap = stacked_linear_map(np.eye(2), mu, calls)

        def inputs(n):
            for k in range(n):
                built.append(len(calls))  # stacks evaluated so far
                yield GridFunction(np.full(2, float(k)), mu)

        out = mmap.eval_many(inputs(200))
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
        base = linear_map(matrix, mu, mu)
        # the reference: one row per eval_rows call
        plain = replace(base, eval_rows=lambda rows: np.stack(
            [base.eval_rows(row[None])[0] for row in rows]))
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


def stacked_square_map(mu, poison=None):
    """m(a) = 3a + a^2 on one grid, with an eval_rows that hands each stack
    other than the base point's to ``poison`` before returning it."""
    op = LinearOperator(3.0 * np.eye(mu.size) / mu.weights[None, :], mu, mu)

    def eval_rows(rows):
        out = 3.0 * rows + rows**2
        return out if poison is None or not rows.any() else poison(out)

    return MomentMap(GridFunction.zero(mu), eval_rows, op)


HARNESSES = {
    "verify_local_id": lambda mmap, devs: verify_local_id(
        mmap, NonlinearityBound(L=0.0, r=1.0), len(devs), 0,
        sampler=lambda _, it=iter(devs): next(it), pos_tol=1e-10).rows,
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
                                 pos_tol=1e-10)
        assert calls == [64, 64, 22]
        assert draws == [0] * report.attempts
        plain = verify_local_id(linear_map(3.0 * np.eye(4), mu, mu),
                                NonlinearityBound(L=0.1, r=2.0), samples=150,
                                rng_seed=0, sampler=sampler, pos_tol=1e-10)
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
        mmap, bound = counterexample_map()
        alpha = GridFunction(np.full(64, 0.5 / bound.L),
                             mmap.base_point.measure)
        lin = norm(apply(mmap.derivative, alpha))
        assert bound.separates(lin, mmap.norm_a_of(alpha))

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

    def test_cases_reject_k_past_the_last_term(self):
        # alpha^k would be all zero: no term left to set to one
        with pytest.raises(ValueError,
                           match="k = 8 must be below n_terms = 8"):
            counterexample_cases([3, 8], n_terms=8)
        assert counterexample_cases([7], n_terms=8)[0].dev_norm == 2.0 ** -1.75

    def test_invalid_f_detected(self):
        # the map and the cases share one check of f
        for build in (lambda f: counterexample(2, f=f), counterexample_map):
            with pytest.raises(ValueError, match="slope"):
                build(lambda x: 2.0 * x * (1.0 - x) * np.exp(-x**2))
            with pytest.raises(ValueError, match="slope"):
                build(lambda x: 0.1 * x * (1.0 - x))
            with pytest.raises(ValueError, match="vanish"):
                build(lambda x: (x - 0.5) * (x - 1.0))

    def test_cases_are_read_through_the_map(self):
        mmap, bound = counterexample_map(n_terms=32)
        for case in counterexample_cases([1, 5, 20], n_terms=32):
            alpha = GridFunction(case.alpha, mmap.base_point.measure)
            assert case.m_norm == norm(mmap.eval(alpha)) == 0.0
            assert case.dev_norm == mmap.norm_a_of(alpha)
            assert case.L == bound.L
            assert case.in_n == bound.separates(
                norm(apply(mmap.derivative, alpha)), case.dev_norm)

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
            eval_rows=np.ones_like,
            derivative=LinearOperator.identity(mu),
        )


def test_local_id_report_rows_csv():
    rng = np.random.default_rng(11)
    mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
    mmap = linear_map(rng.standard_normal((4, 4)) + 2 * np.eye(4), mu, mu)
    report = verify_local_id(mmap, NonlinearityBound(L=0.0, r=1.0),
                             samples=8, rng_seed=0)
    assert len(report.rows) == 8


# ---------------------------------------------------------------------------
# Invariance: verdicts must not depend on the order of the grid nodes or on
# the scale of the moment map.  Only draws whose comparisons clear a relative
# margin of 1e-9 are compared, so that roundoff cannot flip a verdict.
# ---------------------------------------------------------------------------

MARGIN = 1e-9


def relative_margin(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def permuted(mu, perm):
    return GridMeasure(mu.coords()[perm], mu.weights[perm])


@st.composite
def grids_and_permutations(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n_a, n_b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    mu_a = GridMeasure(np.arange(float(n_a)), rng.uniform(0.2, 2.0, n_a))
    mu_b = GridMeasure(np.arange(float(n_b)), rng.uniform(0.2, 2.0, n_b))
    perm_a = np.array(draw(st.permutations(range(n_a))))
    perm_b = np.array(draw(st.permutations(range(n_b))))
    return rng, mu_a, mu_b, perm_a, perm_b


@settings(max_examples=80, deadline=None)
@given(setup=grids_and_permutations(), c=st.floats(1e-3, 1e3))
def test_identification_set_invariant_under_node_order_and_scale(setup, c):
    rng, mu_a, mu_b, pa, pb = setup
    kernel = rng.standard_normal((mu_b.size, mu_a.size))
    values = rng.standard_normal(mu_a.size) * 10.0 ** rng.uniform(-2, 1)
    bound = NonlinearityBound(L=float(rng.uniform(0.1, 3.0)),
                              r=float(rng.choice([1.0, 1.5, 2.0, 3.0])))
    op = LinearOperator(kernel, mu_a, mu_b)
    delta = GridFunction(values, mu_a)
    assume(relative_margin(norm(apply(op, delta)),
                           bound.L * norm(delta) ** bound.r) > MARGIN)
    verdict = bound.separates(norm(apply(op, delta)), norm(delta))

    mu_pa, mu_pb = permuted(mu_a, pa), permuted(mu_b, pb)
    op_p = LinearOperator(kernel[np.ix_(pb, pa)], mu_pa, mu_pb)
    delta_p = GridFunction(values[pa], mu_pa)
    assert bound.separates(
        norm(apply(op_p, delta_p)), norm(delta_p)) == verdict
    assert replace(bound, L=c * bound.L).separates(
        norm(apply(c * op, delta)), norm(delta)) == verdict


def cone_margin(cm, tol):
    """Smallest relative margin among the four cone-set comparisons."""
    return min(
        relative_margin(cm.m_norm, tol),
        relative_margin(cm.linear_norm, tol),
        relative_margin(cm.remainder_norm, cm.eta * cm.m_norm),
        relative_margin(cm.remainder_norm, cm.eta * cm.linear_norm),
    )


def cone_verdict(cm):
    return cm.in_n, cm.in_nprime, cm.in_n_eta, cm.in_nprime_eta


@settings(max_examples=80, deadline=None)
@given(setup=grids_and_permutations(), c=st.floats(1e-3, 1e3))
def test_cone_flags_invariant_under_node_order_and_scale(setup, c):
    # the permuted map gets the default positivity_tol of its own
    # derivative; the scaled map gets c times the original tolerance, since
    # the default 1e-10 (1 + sigma_max) keeps a floor of 1e-10 that does
    # not scale with m
    rng, mu_a, mu_b, pa, pb = setup
    n_a, n_b = mu_a.size, mu_b.size
    # a zero derivative now and then puts instances outside N'
    matrix = rng.standard_normal((n_b, n_a)) * (rng.uniform() > 0.2)
    quads = rng.standard_normal((n_b, n_a, n_a))
    values = rng.standard_normal(n_a) * 10.0 ** rng.uniform(-3, 0.5)
    eta = float(rng.uniform(0.05, 1.5))

    def classify(mmap, alpha, tol=None):
        if tol is None:
            tol = positivity_tol(singular_values(mmap.derivative)[0])
        cm = cone_classify(mmap, GridFunction(alpha, mmap.base_point.measure),
                           eta, tol)
        return cm, cone_margin(cm, tol)

    mmap = quadratic_map(matrix, quads, mu_a, mu_b)
    tol = positivity_tol(singular_values(mmap.derivative)[0])
    cm, margin = classify(mmap, values)
    mu_pa, mu_pb = permuted(mu_a, pa), permuted(mu_b, pb)
    cm_p, margin_p = classify(
        quadratic_map(matrix[np.ix_(pb, pa)], quads[np.ix_(pb, pa, pa)],
                      mu_pa, mu_pb),
        values[pa])
    cm_c, margin_c = classify(
        quadratic_map(c * matrix, c * quads, mu_a, mu_b), values, c * tol)
    assume(min(margin, margin_p, margin_c) > MARGIN)
    assert cone_verdict(cm_p) == cone_verdict(cm)
    assert cone_verdict(cm_c) == cone_verdict(cm)
