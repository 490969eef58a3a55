import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momentid.errors import GridMismatchError
from momentid.fnspace import FunctionStack, GridFunction, GridMeasure, norm
import momentid.identcore as identcore
from momentid.identcore import (
    CONE_BLOCK,
    CONE_CHUNK,
    EVAL_CHUNK,
    ConeChunk,
    MomentMap,
    NonlinearityBound,
    _eval_stack,
    cone_inclusion_suite,
    counterexample_cases,
    counterexample_map,
    draw_cone_chunk,
    dyadic_weights,
    estimate_nonlinearity,
    gateaux_check,
    rank_condition,
    sample_ellipsoid_deviations,
    verify_local_id,
    zero_threshold,
)
from momentid.linop import (
    LinearOperator,
    apply,
    apply_rows,
    apply_values,
    singular_values,
    svd,
)
from oracles import cone_classify, evaluate_cone_chunk, in_ellipsoid


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
        dirs = FunctionStack(rng.standard_normal((3, 4)), mu)
        assert gateaux_check(mmap, dirs, 1e-3) <= 1e-12

    def test_error_scales_as_the_fourth_power(self):
        # m(x) = x + x^5: the central difference at t is 1 + t^4, so the
        # Richardson combination of t and t/2 is 1 - t^4 / 4
        mu = unit_grid(1)
        mmap = MomentMap(GridFunction.zero(mu), lambda rows: rows + rows**5,
                         LinearOperator.identity(mu))
        h = FunctionStack([[1.0]], mu)
        assert gateaux_check(mmap, h, 1e-1) == pytest.approx(2.5e-5, rel=1e-3)
        assert gateaux_check(mmap, h, 1e-2) == pytest.approx(2.5e-9, rel=1e-3)

    def test_richardson_refines(self):
        mu = unit_grid(1)
        mmap = MomentMap(GridFunction.zero(mu), np.sin,
                         LinearOperator.identity(mu))
        h = FunctionStack([[1.0]], mu)
        t = 1e-3
        plain = abs((np.sin(t) - np.sin(-t)) / (2.0 * t) - 1.0)
        assert plain == pytest.approx(t**2 / 6.0, rel=1e-3)
        assert gateaux_check(mmap, h, t) < plain * 1e-3

    def test_rejects_a_step_that_is_not_positive(self):
        mu = unit_grid(2)
        mmap = linear_map(np.eye(2), mu, mu)
        for step in (0.0, -1e-3, np.nan):
            with pytest.raises(ValueError, match="step must be positive"):
                gateaux_check(mmap, FunctionStack([[1.0, 0.0]], mu), step)

    def test_rejects_no_directions(self):
        # an empty check would report a worst error of 0, a perfect pass
        mu = unit_grid(2)
        mmap = linear_map(np.eye(2), mu, mu)
        with pytest.raises(ValueError, match="at least one function"):
            gateaux_check(mmap, FunctionStack(np.empty((0, 2)), mu), 1e-3)

    def test_rejects_directions_on_another_grid(self):
        mu = unit_grid(2)
        mmap = linear_map(np.eye(2), mu, mu)
        other = GridMeasure(np.arange(2.0), np.full(2, 0.5))
        with pytest.raises(GridMismatchError, match="directions"):
            gateaux_check(mmap, FunctionStack([[1.0, 0.0]], other), 1e-3)


class TestEstimateNonlinearity:
    def test_linear_map_gives_zero(self):
        rng = np.random.default_rng(1)
        mu = unit_grid(3)
        mmap = linear_map(rng.standard_normal((3, 3)), mu, mu)
        devs = FunctionStack(rng.standard_normal((5, 3)), mu)
        assert estimate_nonlinearity(mmap, 2.0, devs) <= 1e-12

    def test_scalar_square_map_gives_one(self):
        mu = unit_grid(1)
        mmap = MomentMap(GridFunction.zero(mu), lambda rows: rows**2,
                         LinearOperator(np.zeros((1, 1)), mu, mu))
        devs = FunctionStack([[0.1], [-0.7], [2.0]], mu)
        assert estimate_nonlinearity(mmap, 2.0, devs) == pytest.approx(1.0)

    def test_zero_deviation_rejected(self):
        mu = unit_grid(2)
        mmap = linear_map(np.eye(2), mu, mu)
        with pytest.raises(ValueError):
            estimate_nonlinearity(mmap, 2.0, FunctionStack(np.zeros((1, 2)), mu))

    def test_rejects_no_deviations(self):
        # an empty estimate would report L = 0, a perfect pass
        mu = unit_grid(2)
        mmap = linear_map(np.eye(2), mu, mu)
        with pytest.raises(ValueError, match="at least one function"):
            estimate_nonlinearity(mmap, 2.0, FunctionStack(np.empty((0, 2)), mu))

    def test_rejects_deviations_on_another_grid(self):
        mu = unit_grid(2)
        mmap = linear_map(np.eye(2), mu, mu)
        other = GridMeasure(np.arange(2.0), np.full(2, 0.5))
        with pytest.raises(GridMismatchError, match="deviations"):
            estimate_nonlinearity(mmap, 2.0, FunctionStack([[1.0, 0.0]], other))

    @pytest.mark.parametrize("r", [math.nan, math.inf, 0.5])
    def test_rejects_an_exponent_that_is_not_finite_or_below_one(self, r):
        # max(0.0, nan, ...) keeps 0.0: a NaN r read as a perfect pass
        mu = unit_grid(1)
        mmap = MomentMap(GridFunction.zero(mu), lambda rows: rows**2,
                         LinearOperator(np.zeros((1, 1)), mu, mu))
        with pytest.raises(ValueError, match="r must be finite and at least 1"):
            estimate_nonlinearity(mmap, r, FunctionStack([[0.1]], mu))


class TestRankCondition:
    def test_identity_holds(self):
        mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
        rep = rank_condition(LinearOperator.identity(mu))
        assert rep.holds and rep.sigma_min == pytest.approx(1.0)

    def test_rank_one_fails(self):
        mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
        rep = rank_condition(LinearOperator(np.ones((4, 4)), mu, mu))
        assert not rep.holds
        assert rep.sigma_min < 1e-12

    def test_matches_oracle_on_random_kernel(self):
        rng = np.random.default_rng(2)
        mu = GridMeasure(np.arange(6.0), rng.uniform(0.2, 1.0, 6))
        op = LinearOperator(rng.standard_normal((6, 6)) + 3 * np.eye(6), mu, mu)
        rep = rank_condition(op)
        assert rep.holds
        assert rep.sigma_min == pytest.approx(
            svd(op).singular_values[-1], rel=1e-9)

    def test_wider_domain_never_injective(self):
        rng = np.random.default_rng(3)
        dom = unit_grid(5)
        cod = unit_grid(3)
        op = LinearOperator(rng.standard_normal((3, 5)), dom, cod)
        rep = rank_condition(op)
        assert not rep.holds and rep.sigma_min == 0.0


class TestIdentificationSet:
    @pytest.mark.parametrize("L, r, field", [
        (math.nan, 2.0, "L"), (math.inf, 2.0, "L"), (-1.0, 2.0, "L"),
        (1.0, math.nan, "r"), (1.0, math.inf, "r"), (1.0, 0.5, "r")])
    def test_bound_must_be_finite(self, L, r, field):
        # at r = inf, L * 0.5**r is 0: any nonzero ||m'd|| would separate
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            NonlinearityBound(L=L, r=r)

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
            _, coefs = sample_ellipsoid_deviations(
                dec, bound, 50, np.random.default_rng(4))
            for b in coefs:
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


def random_deviations(rng, mu, n, scale=1.0):
    return FunctionStack(scale * rng.uniform(-1.0, 1.0, (n, mu.size)), mu)


class TestVerifyLocalId:
    def test_linear_injective_all_pass(self):
        rng = np.random.default_rng(6)
        mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
        mmap = linear_map(rng.standard_normal((4, 4)) + 2 * np.eye(4), mu, mu)
        report = verify_local_id(mmap, NonlinearityBound(L=0.0, r=1.0),
                                 random_deviations(rng, mu, 50),
                                 dec=svd(mmap.derivative))
        assert report.failures == 0 and report.samples == 50
        assert report.min_m_norm > report.pos_tol

    def test_deviation_outside_the_set_is_a_failed_row(self):
        # ||m'd|| = ||d||, so d is in the set iff ||d|| < 1 at L = 1, r = 2;
        # the linear map keeps m(alpha) = m'd, so only membership can fail
        mu = GridMeasure(np.arange(3.0), np.full(3, 1 / 3))
        mmap = linear_map(np.eye(3), mu, mu)
        report = verify_local_id(mmap, NonlinearityBound(L=1.0, r=2.0),
                                 FunctionStack(np.outer([0.5, 2.0, 0.9],
                                                        np.ones(3)), mu),
                                 dec=svd(mmap.derivative))
        assert [row[4] for row in report.rows] == [True, False, True]
        assert (report.samples, report.passes, report.failures) == (3, 2, 1)
        dev_n, lin_n, rem, m_n, _ = report.rows[1]
        assert dev_n == lin_n == m_n == pytest.approx(2.0)
        assert rem < lin_n and m_n > report.pos_tol * dev_n

    def test_zero_deviation_is_a_failed_row(self):
        mu = GridMeasure(np.arange(3.0), np.full(3, 1 / 3))
        mmap = linear_map(np.eye(3), mu, mu)
        devs = FunctionStack([[0.0, 0.0, 0.0], [0.1, 0.0, 0.2]], mu)
        for bound in (NonlinearityBound(L=1.0, r=2.0),
                      NonlinearityBound(L=0.0, r=1.0)):
            report = verify_local_id(mmap, bound, devs,
                                     dec=svd(mmap.derivative))
            assert report.rows[0] == (0.0, 0.0, 0.0, 0.0, False)
            assert report.rows[1][4]
            assert (report.passes, report.failures) == (1, 1)

    def test_rejects_no_deviations(self):
        # an empty check would report no failures, a perfect pass
        mu = unit_grid(2)
        mmap = linear_map(np.eye(2), mu, mu)
        with pytest.raises(ValueError, match="at least one function"):
            verify_local_id(mmap, NonlinearityBound(L=0.0, r=1.0),
                            FunctionStack(np.empty((0, 2)), mu),
                            dec=svd(mmap.derivative))

    def test_rejects_deviations_on_another_grid(self):
        mu = unit_grid(2)
        mmap = linear_map(np.eye(2), mu, mu)
        other = GridMeasure(np.arange(2.0), np.full(2, 0.5))
        with pytest.raises(GridMismatchError, match="deviations"):
            verify_local_id(mmap, NonlinearityBound(L=0.0, r=1.0),
                            FunctionStack([[1.0, 0.0]], other),
                            dec=svd(mmap.derivative))

    def test_one_derivative_application_per_draw(self, monkeypatch):
        # one batched application covers every row; none is made per row
        import momentid.identcore as identcore

        rng = np.random.default_rng(6)
        mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
        mmap = linear_map(rng.standard_normal((4, 4)) + 2 * np.eye(4), mu, mu)
        calls = []

        def counting_apply_rows(op, rows):
            calls.append((op, rows.shape[0]))
            return apply_rows(op, rows)

        # the module holds no per-row apply to fall back on
        assert not hasattr(identcore, "apply")
        monkeypatch.setattr(identcore, "apply_rows", counting_apply_rows)
        report = verify_local_id(mmap, NonlinearityBound(L=0.1, r=2.0),
                                 random_deviations(rng, mu, 20),
                                 dec=svd(mmap.derivative))
        assert calls == [(mmap.derivative, 20)] and report.samples == 20

    def test_given_dec_needs_no_svd(self, monkeypatch):
        import momentid.identcore as identcore

        mu = GridMeasure(np.arange(3.0), np.full(3, 1 / 3))
        mmap = linear_map(2.0 * np.eye(3), mu, mu)
        dec = svd(mmap.derivative)

        def no_svd(op):
            raise AssertionError("spectrum computed")

        # the module holds no svd to fall back on
        assert not hasattr(identcore, "svd")
        monkeypatch.setattr(identcore, "singular_values", no_svd)
        report = verify_local_id(
            mmap, NonlinearityBound(L=0.0, r=1.0),
            random_deviations(np.random.default_rng(0), mu, 10), dec=dec)
        assert report.failures == 0
        assert report.pos_tol == zero_threshold(dec.sigma_max, 1.0)

    def test_pos_tol_is_the_zero_rule_at_sigma_max(self):
        # the zero rule is scale-free: scaling the map by c scales pos_tol
        # and every ||m|| alike, so no verdict and no margin moves
        mu = GridMeasure(np.arange(3.0), np.full(3, 1 / 3))
        devs = random_deviations(np.random.default_rng(0), mu, 3)
        reports = {}
        for c in (1.0, 1e6, 1e-6):
            mmap = linear_map(c * 3.0 * np.eye(3), mu, mu)
            dec = svd(mmap.derivative)
            reports[c] = verify_local_id(
                mmap, NonlinearityBound(L=0.0, r=1.0), devs, dec=dec)
            assert reports[c].pos_tol == zero_threshold(dec.sigma_max, 1.0)
            assert reports[c].failures == 0
        base = reports[1.0]
        for c in (1e6, 1e-6):
            assert reports[c].pos_tol == pytest.approx(c * base.pos_tol,
                                                       rel=1e-12)
            assert (reports[c].min_m_norm / reports[c].pos_tol
                    == pytest.approx(base.min_m_norm / base.pos_tol,
                                     rel=1e-12))


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
    """Every evaluation of a map is an array stack: ``eval`` is a one-row
    stack, and ``_eval_stack`` hands ``eval_rows`` a whole stack."""

    def test_eval_rows_matches_eval_row_by_row(self):
        rng = np.random.default_rng(12)
        mu = unit_grid(4)
        calls = []
        mmap = stacked_linear_map(rng.standard_normal((4, 4)), mu, calls)
        rows = rng.standard_normal((7, 4))
        out = _eval_stack(mmap.eval_rows, mmap.derivative.codomain, rows)
        assert calls == [7] and out.shape == (7, 4)
        for row, got in zip(rows, out):
            assert np.array_equal(got,
                                  mmap.eval(GridFunction(row, mu)).values)
        assert calls == [7] + [1] * 7

    def test_rejects_inputs_on_another_grid(self):
        mmap = stacked_linear_map(np.eye(3), unit_grid(3))
        other = GridMeasure(np.arange(3.0), np.full(3, 2.0))
        with pytest.raises(GridMismatchError, match="domain grid"):
            mmap.eval(GridFunction.zero(other))

    def test_rejects_a_stack_of_the_wrong_shape(self):
        mu = unit_grid(3)
        base = linear_map(np.eye(3), mu, mu)
        # right at the base point, so the map can be built
        short = replace(base, eval_rows=lambda rows: rows[:, :2]
                        if rows.any() else rows)
        with pytest.raises(GridMismatchError, match="eval_rows returned"):
            short.eval(GridFunction.constant(mu, 1.0))

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
        devs = FunctionStack(rng.standard_normal((n, 4)), mu)
        assert (estimate_nonlinearity(stacked, 2.0, devs)
                == estimate_nonlinearity(plain, 2.0, devs))
        assert calls == [min(EVAL_CHUNK, n - k)
                         for k in range(0, n, EVAL_CHUNK)]
        calls.clear()
        assert (gateaux_check(stacked, devs, 1e-3)
                == gateaux_check(plain, devs, 1e-3))
        assert sum(calls) == 4 * n and max(calls) == min(n * 4, EVAL_CHUNK)


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
        mmap, NonlinearityBound(L=0.0, r=1.0), devs,
        dec=svd(mmap.derivative)).rows,
    "estimate_nonlinearity":
        lambda mmap, devs: estimate_nonlinearity(mmap, 2.0, devs),
    "gateaux_check": lambda mmap, devs: gateaux_check(mmap, devs, 1e-3),
}


class TestStackedHarnessChecks:
    """The harnesses check each stack eval_rows returns once per chunk."""

    def deviations(self, mu, n=70):
        rng = np.random.default_rng(14)
        return FunctionStack(rng.uniform(-0.5, 0.5, (n, mu.size)), mu)

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


def test_norm_a_must_give_one_norm_per_deviation():
    mu = unit_grid(3)
    mmap = replace(linear_map(np.eye(3), mu, mu),
                   norm_a=lambda devs: float(np.abs(devs.values).max()))
    with pytest.raises(GridMismatchError, match="norm_a returned shape"):
        estimate_nonlinearity(mmap, 2.0, random_deviations(
            np.random.default_rng(0), mu, 4))


class TestVerifyLocalIdBatching:
    def test_every_draw_is_made_before_the_first_evaluation(self):
        mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
        bound = NonlinearityBound(L=0.1, r=2.0)
        calls = []
        mmap = stacked_linear_map(3.0 * np.eye(4), mu, calls)
        # a stack is drawn whole before it is passed
        devs = random_deviations(np.random.default_rng(0), mu, 150)
        dec = svd(mmap.derivative)
        report = verify_local_id(mmap, bound, devs, dec=dec)
        assert calls == [64, 64, 22]
        plain = verify_local_id(linear_map(3.0 * np.eye(4), mu, mu), bound,
                                devs, dec=dec)
        assert plain.rows == report.rows


class TestCounterexample:
    def test_dyadic_weights_fold_exactly(self):
        p = dyadic_weights(64)
        assert p.sum() == 1.0

    def test_k4_values(self):
        case = counterexample_cases([4], 64)[0]
        assert case.m_norm == 0.0
        assert case.dev_norm == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 5, 9, 12])
    def test_never_in_identification_set(self, k):
        case = counterexample_cases([k], 64)[0]
        assert case.L >= 1.0
        assert not case.in_n

    def test_small_uniform_sequences_are_inside(self):
        mmap, bound = counterexample_map(64)
        alpha = GridFunction(np.full(64, 0.5 / bound.L),
                             mmap.base_point.measure)
        lin = norm(apply(mmap.derivative, alpha))
        devs = FunctionStack(alpha.values[None], alpha.measure)
        assert bound.separates(lin, mmap.norm_a_rows(devs)[0])

    def test_deviation_norm_decreasing_to_zero(self):
        devs = [counterexample_cases([k], 64)[0].dev_norm
                for k in range(1, 13)]
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 0.13

    def test_cases_match_single_k_calls(self):
        ks = [1, 3, 12]
        for case, k in zip(counterexample_cases(ks, 64), ks):
            single = counterexample_cases([k], 64)[0]
            assert case.k == k
            assert (case.m_norm, case.dev_norm, case.in_n, case.L) == (
                single.m_norm, single.dev_norm, single.in_n, single.L)
            assert np.array_equal(case.alpha, single.alpha)

    def test_cases_reject_any_bad_k(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            counterexample_cases([2, 0], 64)

    def test_cases_reject_k_past_the_last_term(self):
        # alpha^k would be all zero: no term left to set to one
        with pytest.raises(ValueError,
                           match="k = 8 must be below n_terms = 8"):
            counterexample_cases([3, 8], n_terms=8)
        assert counterexample_cases([7], n_terms=8)[0].dev_norm == 2.0 ** -1.75

    def test_cases_are_read_through_the_map(self):
        mmap, bound = counterexample_map(n_terms=32)
        for case in counterexample_cases([1, 5, 20], n_terms=32):
            alpha = GridFunction(case.alpha, mmap.base_point.measure)
            assert case.m_norm == norm(mmap.eval(alpha)) == 0.0
            assert case.dev_norm == mmap.norm_a_rows(
                FunctionStack(alpha.values[None], alpha.measure))[0]
            assert case.L == bound.L
            assert case.in_n == bound.separates(
                norm(apply(mmap.derivative, alpha)), case.dev_norm)

    def test_map_passes_inside_the_set(self):
        mmap, bound = counterexample_map(64)
        mu = mmap.base_point.measure
        cap = 0.9 / bound.L
        report = verify_local_id(mmap, bound, random_deviations(
            np.random.default_rng(1), mu, 100, scale=cap),
            dec=svd(mmap.derivative))
        assert report.failures == 0

    def test_map_fails_on_open_balls(self):
        mmap, bound = counterexample_map(64)
        mu = mmap.base_point.measure
        p = mu.weights
        holes = FunctionStack(
            (np.arange(mu.size) >= np.arange(10, 15)[:, None]).astype(float),
            mu)
        norms = [float(np.dot(p, h**4) ** 0.25) for h in holes.values]
        report = verify_local_id(mmap, bound, holes,
                                 dec=svd(mmap.derivative))
        assert report.failures == 5  # zeros of the map arbitrarily close
        assert all(row[3] == 0.0 for row in report.rows)
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
            cm = cone_classify(mmap, alpha, eta)
            m_val = mmap.eval(alpha).values
            lin = apply(mmap.derivative, alpha).values
            m_n = np.linalg.norm(m_val)
            lin_n = np.linalg.norm(lin)
            rem_n = np.linalg.norm(m_val - lin)
            # on unit grids the weighted SVD is the plain one
            zero = 1e-10 * np.linalg.svd(mmap.derivative.entries,
                                         compute_uv=False)[0] * norm(alpha)
            assert cm.in_n == (m_n > zero)
            assert cm.in_nprime == (lin_n > zero)
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

    @staticmethod
    def traced_suite_peak(instances):
        # numpy imports numpy.random on first use, about 0.8 MB; warm it up
        # so that the budget counts the suite alone, in any test order
        np.random.default_rng(0)
        tracemalloc.start()
        try:
            cone_inclusion_suite(instances, 8, rng_seed=20250809)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_suite_memory_stays_within_chunk_budget(self):
        peak = self.traced_suite_peak(10_000)
        assert peak <= 0.6e6

    def test_suite_memory_does_not_grow_with_instances(self):
        # 40,000 instances make 20 blocks of 16 chunks: the suite holds one
        # chunk and one block at a time, however many there are
        peak = self.traced_suite_peak(40_000)
        assert peak <= 0.6e6


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
    rem = np.zeros((2, dim))
    alpha = np.zeros((2, dim))
    m_lin[:, 0, 0] = 1.0, -2.0
    rem[:, 0] = 1.0
    alpha[:, 0] = 1.0
    return ConeChunk(da=np.ones(2, dtype=int), db=np.ones(2, dtype=int),
                     m_lin=m_lin, rem=rem, alpha=alpha,
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


def reference_cone_flags(m_lin, rem, alpha, eta, slack):
    """One instance, with remainder ``rem`` at its deviation, classified
    from the cone-set definitions."""
    lin = m_lin @ alpha
    m_val = lin + rem
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


def broadcast_cone_chunk(rng, n, dim):
    """``draw_cone_chunk`` as it built the live-entry masks before the
    per-dim tables: by broadcasting the instances' sizes, per chunk.
    Returns the chunk, the indices of its aligned instances and every
    instance's k."""
    da = rng.integers(1, dim + 1, size=n)
    db = rng.integers(1, dim + 1, size=n)
    coord = np.arange(dim)
    col = coord < da[:, None]
    row = coord < db[:, None]
    lin_live = row[:, :, None] & col[:, None, :]
    m_lin = np.zeros((n, dim, dim))
    m_lin[lin_live] = rng.standard_normal(int(np.count_nonzero(lin_live)))
    deficient = rng.uniform(size=n) < 0.15
    zeroed = rng.integers(1, db + 1)
    m_lin[deficient[:, None] & (coord < zeroed[:, None])] = 0.0
    rem = np.zeros((n, dim))
    rem[row] = rng.standard_normal(int(np.count_nonzero(row)))
    alpha = np.zeros((n, dim))
    alpha[col] = rng.standard_normal(int(np.count_nonzero(col)))
    alpha *= 10.0 ** rng.uniform(-3, 0.5, size=n)[:, None]
    rem *= np.add.reduce(alpha * alpha, axis=1)[:, None]
    eta = rng.uniform(0.05, 1.5, size=n)
    aligned = np.flatnonzero(rng.uniform(size=n) < 0.1)
    ratio = np.divide(eta, 1.0 - eta, out=np.zeros_like(eta),
                      where=eta < 1.0)
    k = rng.uniform(0.99, 1.0, size=n) * np.where(
        rng.uniform(size=n) < 0.5, ratio, -eta)
    lin = np.matmul(m_lin[aligned], alpha[aligned, :, None])[:, :, 0]
    rem[aligned] = k[aligned, None] * lin
    chunk = ConeChunk(da=da, db=db, m_lin=m_lin, rem=rem, alpha=alpha,
                      eta=eta)
    return chunk, aligned, k


@pytest.mark.parametrize("n", [1, 37, CONE_CHUNK])
@pytest.mark.parametrize("dim", range(1, 9))
def test_cone_chunk_tables_match_broadcast_masks(dim, n):
    # bit for bit, and the generator left in the same state: mask
    # assignment order is a property of the numpy build, so the CI's
    # numpy-floor job runs this too
    rng, ref_rng = (np.random.default_rng(100 * dim + n) for _ in range(2))
    for _ in range(2):
        got = draw_cone_chunk(rng, n, dim)
        want, _, _ = broadcast_cone_chunk(ref_rng, n, dim)
        for name in ("da", "db", "m_lin", "rem", "alpha", "eta"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name
            assert np.array_equal(np.signbit(a), np.signbit(b)), name
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def ks_to_normal(z):
    """The Kolmogorov-Smirnov distance of the sample ``z`` to N(0, 1)."""
    z = np.sort(z)
    cdf = np.array([0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
                    for x in z.tolist()])
    steps = np.arange(z.size + 1) / z.size
    return max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max())


def assert_standard_normal(z, pairs):
    """``z`` reads as an iid N(0, 1) sample, and the two columns of
    ``pairs``, two rows of one instance each, as uncorrelated.  Each bound
    is five standard errors, and the KS bound 1.95/sqrt(N) is Kolmogorov's
    0.1% quantile, so a sample at these fixed seeds passes by a margin."""
    n, m = z.size, len(pairs)
    assert abs(z.mean()) < 5.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 5.0 * math.sqrt(2.0 / n)
    assert abs(np.corrcoef(pairs.T)[0, 1]) < 5.0 / math.sqrt(m)
    assert ks_to_normal(z) < 1.95 / math.sqrt(n)


def test_remainder_draw_has_the_quadratic_parts_law():
    # the old draw: iid (db, da, da) tensors Q at a few fixed alphas, read
    # as alpha'Q_b alpha / |alpha|^2
    rng = np.random.default_rng(31)
    old = []
    for da, scale in [(1, 1e-3), (3, 1.0), (8, 3.0)]:
        alpha = scale * rng.standard_normal(da)
        quads = rng.standard_normal((6000, 3, da, da))
        z = np.einsum("nbij,i,j->nb", quads, alpha, alpha) / (alpha @ alpha)
        assert_standard_normal(z.ravel(), z[:, :2])
        old.append(z.ravel())
    # the new one: rem / |alpha|^2 on the live rows of the instances that
    # are not aligned, found by replaying the stream
    rng, replay = np.random.default_rng(32), np.random.default_rng(32)
    new, pairs = [], []
    for _ in range(40):
        chunk = draw_cone_chunk(rng, CONE_CHUNK, 8)
        _, aligned, k = broadcast_cone_chunk(replay, CONE_CHUNK, 8)
        lin = np.matmul(chunk.m_lin[aligned],
                        chunk.alpha[aligned, :, None])[:, :, 0]
        assert np.array_equal(chunk.rem[aligned], k[aligned, None] * lin)
        free = np.ones(CONE_CHUNK, dtype=bool)
        free[aligned] = False
        z = chunk.rem[free] / (chunk.alpha[free] ** 2).sum(axis=1)[:, None]
        db = chunk.db[free]
        new.append(z[np.arange(8) < db[:, None]])
        pairs.append(z[db >= 2, :2])
    new = np.concatenate(new)
    assert_standard_normal(new, np.concatenate(pairs))
    # and the two draws read alike: a two-sample KS distance at its 0.1%
    # quantile
    old = np.sort(np.concatenate(old))
    grid = np.concatenate([old, new])
    gap = np.abs(np.searchsorted(old, grid, side="right") / old.size
                 - np.searchsorted(np.sort(new), grid, side="right")
                 / new.size).max()
    assert gap < 1.95 * math.sqrt((old.size + new.size)
                                  / (old.size * new.size))


def one_count_per_check(chunk_flags):
    """Each check's hits tallied on its own, chunk by chunk, in report
    order: field -> name -> count."""
    want = {"violations": {}, "premises": {}, "near_bound": {}}

    def tally(field, name, hits):
        counts = want[field]
        counts[name] = counts.get(name, 0) + int(np.count_nonzero(hits))

    for flags in chunk_flags:
        for name, hits in flags.violations.items():
            tally("violations", name, hits)
        for name, hits in flags.premises.items():
            if name.startswith("inclusion_"):
                tally("premises", name, hits)
        tally("premises", "zero_linear_term", flags.linear_norm == 0.0)
        for name, hits in flags.near_bound.items():
            tally("near_bound", name, hits)
    return want


def chunk_sizes(instances):
    return [min(CONE_CHUNK, instances - start)
            for start in range(0, instances, CONE_CHUNK)]


@pytest.mark.parametrize("dim", [6, 8])
def test_suite_counts_match_one_count_per_check(dim):
    # the reference tallies each check's hits on its own, on chunks drawn
    # with the broadcast masks; the counts and their order are the same
    instances, seed = 10_000, 20250809
    rng = np.random.default_rng(seed)
    want = one_count_per_check(
        evaluate_cone_chunk(broadcast_cone_chunk(rng, n, dim)[0], 1e-12)
        for n in chunk_sizes(instances))
    report = cone_inclusion_suite(instances, dim, seed)
    for field, counts in want.items():
        got = getattr(report, field)
        assert list(got.items()) == list(counts.items()), field
        assert all(type(c) is int for c in got.values()), field


def norms_one_call_each(chunk):
    """The three norms of a chunk with one ``np.linalg.norm`` call per
    vector, the reference for ``measure_cone_chunk``'s stacked sums."""
    lin_val = np.matmul(chunk.m_lin, chunk.alpha[:, :, None])[:, :, 0]
    m_val = lin_val + chunk.rem
    return np.stack([np.linalg.norm(v, axis=1)
                     for v in (m_val, lin_val, m_val - lin_val)])


@pytest.mark.parametrize("instances", [
    CONE_BLOCK - 1, CONE_BLOCK, CONE_BLOCK + 1,
    2 * CONE_BLOCK + CONE_CHUNK + 1])
@pytest.mark.parametrize("dim", [1, 6, 8])
def test_block_edges_keep_one_count_per_check_and_chunk_norms(
        dim, instances, monkeypatch):
    # the suite classifies blocks of chunks; the counts must be the
    # per-chunk tallies, and each block column the chunk's own norms
    seed = 20250809
    rng = np.random.default_rng(seed)
    chunks = [draw_cone_chunk(rng, n, dim) for n in chunk_sizes(instances)]
    flags = [evaluate_cone_chunk(chunk, 1e-12) for chunk in chunks]
    want = one_count_per_check(flags)
    blocks = []
    classify = identcore.classify_cones

    def recording(measured, slack):
        blocks.append(measured.copy())
        return classify(measured, slack)

    monkeypatch.setattr(identcore, "classify_cones", recording)
    report = cone_inclusion_suite(instances, dim, seed)
    for field, counts in want.items():
        got = getattr(report, field)
        assert list(got.items()) == list(counts.items()), field
        assert all(type(c) is int for c in got.values()), field

    sizes = [block.shape[1] for block in blocks]
    assert sizes[:-1] == [CONE_BLOCK] * (len(sizes) - 1)
    assert 0 < sizes[-1] <= CONE_BLOCK and sum(sizes) == instances
    measured = np.concatenate(blocks, axis=1)
    per_chunk = np.concatenate(
        [[f.m_norm, f.linear_norm, f.remainder_norm, c.eta]
         for f, c in zip(flags, chunks)], axis=1)
    before = np.concatenate([norms_one_call_each(c) for c in chunks], axis=1)
    assert np.array_equal(measured.view(np.int64), per_chunk.view(np.int64))
    assert np.array_equal(measured[:3].view(np.int64), before.view(np.int64))


def test_chunk_evaluator_matches_per_instance_reference():
    dim = 8
    chunk = draw_cone_chunk(np.random.default_rng(11), CONE_CHUNK, dim)
    flags = evaluate_cone_chunk(chunk, 1e-12)
    deficient = 0
    for i in range(CONE_CHUNK):
        da, db = int(chunk.da[i]), int(chunk.db[i])
        m_lin = chunk.m_lin[i, :db, :da]
        rem = chunk.rem[i, :db]
        alpha = chunk.alpha[i, :da]
        # the padding around the instance's own block is exactly zero
        assert np.count_nonzero(chunk.m_lin[i]) == np.count_nonzero(m_lin)
        assert np.count_nonzero(chunk.rem[i]) == np.count_nonzero(rem)
        assert np.count_nonzero(chunk.alpha[i]) == np.count_nonzero(alpha)
        deficient += not m_lin[0].any()
        # the reference reads the padded instance: a linear term summed
        # over its own block alone may round differently, and where
        # m(alpha) = m'alpha + rem cancels, as at this seed, one rounding
        # of m'alpha moves ||m(alpha)|| by more than 1e-14
        norms, members, violations = reference_cone_flags(
            chunk.m_lin[i], chunk.rem[i], chunk.alpha[i],
            float(chunk.eta[i]), 1e-12)
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


@pytest.mark.parametrize("residual, rejected", [(2e-10, True),
                                                 (0.5e-10, False)])
def test_base_residual_bound_is_1e_10(residual, rejected):
    # a constant offset on a probability grid: its norm is the offset, at
    # twice and half RESIDUAL_TOL
    mu = GridMeasure([0.0, 1.0], [0.5, 0.5])

    def build():
        return MomentMap(base_point=GridFunction.zero(mu),
                         eval_rows=lambda rows: np.full_like(rows, residual),
                         derivative=LinearOperator.identity(mu))

    if rejected:
        with pytest.raises(ValueError, match="m\\(alpha0\\) = 0"):
            build()
    else:
        build()


def test_local_id_report_rows_csv():
    rng = np.random.default_rng(11)
    mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
    mmap = linear_map(rng.standard_normal((4, 4)) + 2 * np.eye(4), mu, mu)
    report = verify_local_id(mmap, NonlinearityBound(L=0.0, r=1.0),
                             random_deviations(rng, mu, 8),
                             dec=svd(mmap.derivative))
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
    # every map, permuted or scaled, is classified by the default zero rule
    # of its own derivative
    rng, mu_a, mu_b, pa, pb = setup
    n_a, n_b = mu_a.size, mu_b.size
    # a zero derivative now and then puts instances outside N'
    matrix = rng.standard_normal((n_b, n_a)) * (rng.uniform() > 0.2)
    quads = rng.standard_normal((n_b, n_a, n_a))
    values = rng.standard_normal(n_a) * 10.0 ** rng.uniform(-3, 0.5)
    eta = float(rng.uniform(0.05, 1.5))

    def classify(mmap, alpha):
        delta = GridFunction(alpha, mmap.base_point.measure)
        cm = cone_classify(mmap, delta, eta)
        zero = zero_threshold(singular_values(mmap.derivative)[0],
                              norm(delta))
        return cm, cone_margin(cm, zero)

    mmap = quadratic_map(matrix, quads, mu_a, mu_b)
    cm, margin = classify(mmap, values)
    mu_pa, mu_pb = permuted(mu_a, pa), permuted(mu_b, pb)
    cm_p, margin_p = classify(
        quadratic_map(matrix[np.ix_(pb, pa)], quads[np.ix_(pb, pa, pa)],
                      mu_pa, mu_pb),
        values[pa])
    cm_c, margin_c = classify(
        quadratic_map(c * matrix, c * quads, mu_a, mu_b), values)
    assume(min(margin, margin_p, margin_c) > MARGIN)
    assert cone_verdict(cm_p) == cone_verdict(cm)
    assert cone_verdict(cm_c) == cone_verdict(cm)


def local_id_margin(report, bound):
    """Smallest relative margin among the three comparisons behind the
    verdicts of a report on a map without ``norm_a``."""
    return min(min(relative_margin(lin, bound.L * dev**bound.r),
                   relative_margin(rem, lin),
                   relative_margin(m_n, report.pos_tol * dev))
               for dev, lin, rem, m_n, _ in report.rows)


@settings(max_examples=80, deadline=None)
@given(setup=grids_and_permutations(), c=st.floats(1e-3, 1e3))
def test_local_id_verdicts_invariant_under_node_order_and_scale(setup, c):
    # m is scaled by c and L with it; each map reads its own zero rule
    rng, mu_a, mu_b, pa, pb = setup
    matrix = rng.standard_normal((mu_b.size, mu_a.size))
    quads = rng.standard_normal((mu_b.size, mu_a.size, mu_a.size))
    values = (rng.standard_normal((12, mu_a.size))
              * 10.0 ** rng.uniform(-3, 0.5, (12, 1)))
    bound = NonlinearityBound(L=float(rng.uniform(0.1, 3.0)),
                              r=float(rng.choice([1.0, 1.5, 2.0, 3.0])))
    mu_pa, mu_pb = permuted(mu_a, pa), permuted(mu_b, pb)
    cases = [
        (quadratic_map(matrix, quads, mu_a, mu_b), bound,
         FunctionStack(values, mu_a)),
        (quadratic_map(matrix[np.ix_(pb, pa)], quads[np.ix_(pb, pa, pa)],
                       mu_pa, mu_pb), bound,
         FunctionStack(values[:, pa], mu_pa)),
        (quadratic_map(c * matrix, c * quads, mu_a, mu_b),
         replace(bound, L=c * bound.L), FunctionStack(values, mu_a)),
    ]
    reports = [(verify_local_id(mmap, b, devs, dec=svd(mmap.derivative)), b)
               for mmap, b, devs in cases]
    assume(min(local_id_margin(rep, b) for rep, b in reports) > MARGIN)
    plain, permuted_nodes, scaled = (rep for rep, _ in reports)
    for rep in (permuted_nodes, scaled):
        assert (rep.passes, rep.failures) == (plain.passes, plain.failures)
        assert [row[4] for row in rep.rows] == [row[4] for row in plain.rows]


@settings(max_examples=80, deadline=None)
@given(setup=grids_and_permutations(), c=st.floats(1e-3, 1e3))
def test_nonlinearity_estimate_scales_with_the_map(setup, c):
    rng, mu_a, mu_b, _, _ = setup
    matrix = rng.standard_normal((mu_b.size, mu_a.size))
    quads = rng.standard_normal((mu_b.size, mu_a.size, mu_a.size))
    values = (rng.standard_normal((12, mu_a.size))
              * 10.0 ** rng.uniform(-1, 0.5, (12, 1)))
    # the remainder m(a) - m'a is formed by cancellation: keep it well
    # above the roundoff of the linear term
    w_b = mu_b.weights
    lin = np.sqrt((values @ matrix.T) ** 2 @ w_b)
    quad = np.sqrt(np.einsum("bij,ni,nj->nb", quads, values, values) ** 2
                   @ w_b)
    assume((quad >= 1e-3 * lin).all())
    devs = FunctionStack(values, mu_a)
    plain = estimate_nonlinearity(quadratic_map(matrix, quads, mu_a, mu_b),
                                  2.0, devs)
    scaled = estimate_nonlinearity(
        quadratic_map(c * matrix, c * quads, mu_a, mu_b), 2.0, devs)
    assert scaled == pytest.approx(c * plain, rel=1e-12)


def test_cone_flags_scale_free_at_zero_derivative():
    # the counterexample hypothesis found against the old rule's absolute
    # floor of 1e-10: one node, m'(a0) = 0 and ||m(a)|| = 1e-8, so that
    # 2^-9 m fell below the floor and out of N
    mu = unit_grid(1)
    alpha = GridFunction([1e-4], mu)
    mmap = quadratic_map(np.zeros((1, 1)), np.ones((1, 1, 1)), mu, mu)
    scaled = quadratic_map(np.zeros((1, 1)), np.full((1, 1, 1), 2.0**-9),
                           mu, mu)
    cm = cone_classify(mmap, alpha, 0.5)
    cm_c = cone_classify(scaled, alpha, 0.5)
    assert cm.m_norm == pytest.approx(1e-8)
    assert cm_c.m_norm == pytest.approx(2.0**-9 * 1e-8)
    # in N, outside N' (zero linear term), and the remainder m is in neither
    # eta-set at eta = 1/2
    assert cone_verdict(cm_c) == cone_verdict(cm) == (True, False, False,
                                                      False)


@pytest.mark.parametrize("ratio, in_n", [(3e-10, True), (3e-11, False)])
def test_zero_rule_sits_at_1e10_sigma_max_times_deviation_norm(ratio, in_n):
    # sigma_max = 1 and ||d|| = t, with a zero linear term along d, so
    # ||m|| / (sigma_max ||d||) = ratio lands on either side of 1e-10
    mu, t = unit_grid(2), 1e-3
    quads = np.zeros((2, 2, 2))
    quads[1, 1, 1] = ratio / t
    mmap = quadratic_map(np.diag([1.0, 0.0]), quads, mu, mu)
    cm = cone_classify(mmap, GridFunction([0.0, t], mu), 0.5)
    assert cm.m_norm == pytest.approx(ratio * t)
    assert cm.in_n == in_n and not cm.in_nprime


@pytest.mark.parametrize("quad_scale", [0.0, 3.0], ids=["linear", "curved"])
def test_local_id_verdicts_scale_free(quad_scale):
    # c = 1e-12 puts every ||c m(alpha)|| far below the old rule's floor
    rng = np.random.default_rng(31)
    mu = GridMeasure(np.arange(4.0), rng.uniform(0.2, 2.0, 4))
    matrix = rng.standard_normal((4, 4)) + 2 * np.eye(4)
    quads = quad_scale * rng.standard_normal((4, 4, 4))

    def report(c):
        mmap = quadratic_map(c * matrix, c * quads, mu, mu)
        return verify_local_id(
            mmap, NonlinearityBound(L=0.0, r=1.0),
            random_deviations(np.random.default_rng(3), mu, 40),
            dec=svd(mmap.derivative))

    plain, scaled = report(1.0), report(1e-12)
    assert plain.passes > 0
    assert [row[4] for row in scaled.rows] == [row[4] for row in plain.rows]
    assert ((scaled.failures == 0) == (plain.failures == 0)
            == (quad_scale == 0.0))
