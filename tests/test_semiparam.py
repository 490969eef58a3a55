import math

import numpy as np
import pytest

import momentid.semiparam
from momentid.errors import EmptyNeighborhoodError
from momentid.fnspace import GridFunction, GridMeasure, inner, norm
from momentid.identcore import NonlinearityBound
from momentid.linop import LinearOperator, apply, svd
from momentid.semiparam import (
    SemiparametricMap,
    SplitDerivative,
    linearity_in_g_check,
    partial_out,
    split_lower_bound_check,
    verify_semiparam_linear,
    verify_semiparam_nonlinear,
)


def two_point():
    return GridMeasure([0.0, 1.0], [0.5, 0.5])


def hand_split():
    """Range of m_g is the constants; single column b = (1, 0)."""
    mu = two_point()
    m_g = LinearOperator(np.ones((2, 2)), mu, mu)
    return SplitDerivative(m_beta=(GridFunction([1.0, 0.0], mu),), m_g=m_g)


def random_split(rng, n=8, p=2):
    cod = GridMeasure(np.arange(float(n)), rng.uniform(0.2, 1.0, n))
    dom = GridMeasure(np.arange(float(n)), rng.uniform(0.2, 1.0, n))
    op = LinearOperator(rng.standard_normal((n, n)), dom, cod)
    cols = tuple(GridFunction(rng.standard_normal(n), cod) for _ in range(p))
    return SplitDerivative(m_beta=cols, m_g=op)


class TestPartialOut:
    def test_hand_example(self):
        report = partial_out(hand_split(), range_tol=1e-12)
        assert report.gram.shape == (1, 1)
        assert report.gram[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert np.allclose(report.zeta_star[0].values, [0.5, 0.5])
        assert report.eps1 == pytest.approx(np.sqrt(0.125), abs=1e-9)
        assert report.c_star == pytest.approx(0.55, abs=1e-12)
        assert report.eps == pytest.approx(np.sqrt(0.125) / 2, abs=1e-9)

    def test_orthogonal_columns_give_plain_gram(self):
        mu = two_point()
        m_g = LinearOperator(np.ones((2, 2)), mu, mu)  # range = constants
        col = GridFunction([1.0, -1.0], mu)  # orthogonal to constants
        split = SplitDerivative(m_beta=(col,), m_g=m_g)
        report = partial_out(split, 1e-12)
        assert norm(report.zeta_star[0]) < 1e-12
        assert report.gram[0, 0] == pytest.approx(inner(col, col))

    def test_absorbed_column_gives_zero_gram(self):
        mu = two_point()
        m_g = LinearOperator(np.ones((2, 2)), mu, mu)
        split = SplitDerivative(m_beta=(GridFunction([2.0, 2.0], mu),),
                                m_g=m_g)
        report = partial_out(split, 1e-12)
        assert report.gram[0, 0] <= 1e-20
        assert report.lambda_min <= 1e-20

    def test_degenerate_operator_flagged(self):
        mu = two_point()
        split = SplitDerivative(
            m_beta=(GridFunction([1.0, 2.0], mu),),
            m_g=LinearOperator.zero(mu, mu),
        )
        report = partial_out(split, 1e-10)
        assert report.degenerate
        assert len(report.range_basis) == 0
        assert report.gram[0, 0] == pytest.approx(
            inner(split.m_beta[0], split.m_beta[0]))

    def test_gram_positive_semidefinite(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            split = random_split(rng, n=int(rng.integers(3, 10)),
                                 p=int(rng.integers(1, 4)))
            report = partial_out(split, 1e-10)
            assert np.linalg.eigvalsh(report.gram)[0] >= -1e-12

    def test_residuals_orthogonal_to_range(self):
        rng = np.random.default_rng(1)
        split = random_split(rng)
        report = partial_out(split, 1e-10)
        for col, zeta in zip(split.m_beta, report.zeta_star):
            resid = col - zeta
            worst = max(abs(inner(resid, u)) for u in report.range_basis)
            assert worst < 1e-9

    def test_carries_the_decomposition_of_m_g(self):
        split = random_split(np.random.default_rng(11))
        report = partial_out(split, 1e-12)
        dec = report.decomposition
        assert np.array_equal(dec.singular_values,
                              svd(split.m_g).singular_values)
        k = len(report.range_basis)
        assert np.array_equal(report.range_basis.matrix(),
                              dec.left_functions.matrix()[:, :k])

    def test_rejects_empty_split(self):
        mu = two_point()
        with pytest.raises(ValueError):
            SplitDerivative(m_beta=(), m_g=LinearOperator(np.ones((2, 2)),
                                                          mu, mu))


class TestLowerBound:
    def test_pure_zeta_ratio_is_one(self):
        split = hand_split()
        report = partial_out(split, 1e-12)
        assert report.eps <= 1.0

    def test_hand_example_min_ratio(self):
        split = hand_split()
        report = partial_out(split, 1e-12)
        ratio = split_lower_bound_check(split, report, 10_000, seed=3)
        assert ratio >= report.eps - 1e-10

    def test_beta_only_direction_respects_gram_bound(self):
        split = hand_split()
        report = partial_out(split, 1e-12)
        # a = 1, zeta = 0: ratio = ||b|| >= eps, and the Gram form gives
        # the sharper sqrt(lambda_min) bound after removing the projection
        b = split.m_beta[0]
        assert norm(b) >= np.sqrt(report.lambda_min)
        assert norm(b) >= report.eps

    def test_beta_only_quadratic_form_oracle(self):
        rng = np.random.default_rng(12)
        split = random_split(rng, n=9, p=3)
        report = partial_out(split, 1e-12)
        bmat = split.beta_matrix()
        w = split.m_g.codomain.weights
        lam_min = np.linalg.eigvalsh(report.gram)[0]  # eigenvalue oracle
        for _ in range(200):
            a = rng.standard_normal(3)
            img_sq = float(w @ (bmat @ a) ** 2)
            quad = float(a @ report.gram @ a)
            assert img_sq >= quad - 1e-10 * (1 + img_sq)
            assert quad >= lam_min * float(a @ a) - 1e-12
            assert np.sqrt(img_sq) >= report.eps * np.linalg.norm(a) - 1e-10

    def test_random_splits_never_violate(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            split = random_split(rng, n=int(rng.integers(4, 17)),
                                 p=int(rng.integers(1, 4)))
            report = partial_out(split, 1e-12)
            ratio = split_lower_bound_check(
                split, report, 5000, seed=int(rng.integers(2**31)))
            assert ratio >= report.eps - 1e-10


def make_semiparam_model(rng, n=10, p=2, nonlinear=0.0):
    """Synthetic map: linear in g, optional curvature in g via `nonlinear`.

    The codomain strictly exceeds the g-direction count, so m_g is injective
    while its range leaves room for the parametric columns to survive the
    partialling out.
    """
    m = n + 4
    cod = GridMeasure(np.arange(float(m)), rng.uniform(0.2, 1.0, m))
    dom = GridMeasure(np.arange(float(n)), rng.uniform(0.2, 1.0, n))
    entries = rng.standard_normal((m, n))
    entries[:n] += 2 * np.eye(n)
    m_g = LinearOperator(entries, dom, cod)
    cols = tuple(GridFunction(rng.standard_normal(m), cod)
                 for _ in range(p))
    beta0 = rng.standard_normal(p)
    g0 = GridFunction(rng.standard_normal(n), dom)
    bmat = np.column_stack([c.values for c in cols])

    def eval_fn(beta, g):
        dg = g - g0
        vals = (
            bmat @ (beta - beta0)
            + 0.5 * bmat @ ((beta - beta0) ** 2)
            + apply(m_g, dg).values
            + nonlinear * norm(dg) ** 2
        )
        return GridFunction(vals, cod)

    split = SplitDerivative(m_beta=cols, m_g=m_g)
    return SemiparametricMap(beta0=beta0, g0=g0, eval_fn=eval_fn, split=split)


class TestHarnesses:
    def test_linearity_check_detects_curvature(self):
        rng = np.random.default_rng(5)
        linear = make_semiparam_model(rng)
        assert linearity_in_g_check(linear, seed=0) < 1e-12
        curved = make_semiparam_model(rng, nonlinear=0.3)
        assert linearity_in_g_check(curved, seed=0) > 1e-6
        with pytest.raises(ValueError, match="nonlinear"):
            verify_semiparam_linear(curved, 0.1, 0.1, 5, seed=0)

    def test_linear_model_all_pass(self):
        rng = np.random.default_rng(6)
        model = make_semiparam_model(rng)
        report = verify_semiparam_linear(model, beta_radius=0.2,
                                         g_radius=0.5, samples=40, seed=1)
        assert report.pi_nonsingular
        assert report.failures == 0
        assert report.g_rank_holds and report.full_local_id

    def test_singular_gram_gate(self):
        rng = np.random.default_rng(7)
        n = 8
        cod = GridMeasure(np.arange(float(n)), np.full(n, 1 / n))
        dom = GridMeasure(np.arange(float(n)), np.full(n, 1 / n))
        m_g = LinearOperator(rng.standard_normal((n, n)) + 2 * np.eye(n),
                             dom, cod)
        # column inside the range of m_g: fully absorbed
        inside = apply(m_g, GridFunction(rng.standard_normal(n), dom))
        split = SplitDerivative(m_beta=(inside,), m_g=m_g)
        beta0 = np.zeros(1)
        g0 = GridFunction(np.zeros(n), dom)

        def eval_fn(beta, g):
            return GridFunction(
                inside.values * beta[0] + apply(m_g, g).values, cod)

        model = SemiparametricMap(beta0=beta0, g0=g0, eval_fn=eval_fn,
                                  split=split)
        report = verify_semiparam_linear(model, 0.1, 0.1, 5, seed=2)
        assert not report.pi_nonsingular
        assert report.samples == 0  # no claim made

    def test_nonlinear_reduces_to_linear_when_l_zero(self):
        rng = np.random.default_rng(8)
        model = make_semiparam_model(rng)
        rep = verify_semiparam_nonlinear(
            model, NonlinearityBound(L=0.0, r=2.0), beta_radius=0.2,
            samples=30, seed=3, g_radius=0.5)
        assert rep.failures == 0

    def test_nonlinear_threshold_can_empty_the_set(self):
        rng = np.random.default_rng(9)
        model = make_semiparam_model(rng)
        giant = NonlinearityBound(L=1e9, r=2.0, radius=1e-3)
        with pytest.raises(EmptyNeighborhoodError):
            verify_semiparam_nonlinear(model, giant, beta_radius=0.1,
                                       samples=10, seed=4, g_radius=1e-3,
                                       budget_factor=20)

    def test_stacked_map_matches_split(self):
        rng = np.random.default_rng(10)
        model = make_semiparam_model(rng)
        mm = model.to_moment_map()
        p = model.split.p
        h = GridFunction(rng.standard_normal(mm.base_point.measure.size),
                         mm.base_point.measure)
        img = apply(mm.derivative, h).values
        direct = (
            model.split.beta_matrix() @ h.values[:p]
            + apply(model.split.m_g,
                    GridFunction(h.values[p:], model.g0.measure)).values
        )
        assert np.abs(img - direct).max() < 1e-12


@pytest.mark.parametrize("harness", ["linear", "nonlinear"])
def test_harnesses_reuse_the_partial_out_svd(harness, monkeypatch):
    model = make_semiparam_model(np.random.default_rng(12))
    calls = []

    def counting_svd(op, *args, **kwargs):
        calls.append(op.shape)
        return svd(op, *args, **kwargs)

    monkeypatch.setattr(momentid.semiparam, "svd", counting_svd)
    if harness == "linear":
        report = verify_semiparam_linear(model, beta_radius=0.2,
                                         g_radius=0.5, samples=10, seed=1)
    else:
        report = verify_semiparam_nonlinear(
            model, NonlinearityBound(L=0.0, r=2.0), beta_radius=0.2,
            samples=10, seed=1, g_radius=0.5)
    assert report.failures == 0
    assert calls == [model.split.m_g.shape]  # partial_out's, nothing more


def test_harnesses_share_the_gram_gate_and_pos_tol():
    from momentid.identcore import positivity_tol

    model = make_semiparam_model(np.random.default_rng(13))
    linear = verify_semiparam_linear(model, beta_radius=0.2, g_radius=0.5,
                                     samples=5, seed=1)
    nonlinear = verify_semiparam_nonlinear(
        model, NonlinearityBound(L=0.0, r=2.0), beta_radius=0.2, samples=5,
        seed=1, g_radius=0.5)
    sigma_max = svd(model.to_moment_map().derivative).sigma_max
    assert linear.pos_tol == nonlinear.pos_tol
    assert linear.pos_tol == pytest.approx(positivity_tol(sigma_max),
                                           rel=1e-12)
    assert linear.partial.lambda_min == nonlinear.partial.lambda_min


def test_nonlinear_harness_makes_no_claim_on_a_singular_gram_matrix():
    rng = np.random.default_rng(7)
    n = 8
    mu = GridMeasure(np.arange(float(n)), np.full(n, 1 / n))
    m_g = LinearOperator(rng.standard_normal((n, n)) + 2 * np.eye(n), mu, mu)
    inside = apply(m_g, GridFunction(rng.standard_normal(n), mu))

    def eval_fn(beta, g):
        return GridFunction(inside.values * beta[0] + apply(m_g, g).values,
                            mu)

    model = SemiparametricMap(
        beta0=np.zeros(1), g0=GridFunction(np.zeros(n), mu), eval_fn=eval_fn,
        split=SplitDerivative(m_beta=(inside,), m_g=m_g))
    report = verify_semiparam_nonlinear(
        model, NonlinearityBound(L=1.0, r=2.0), beta_radius=0.1, samples=5,
        seed=2)
    assert not report.pi_nonsingular
    assert report.samples == report.passes == report.failures == 0
    assert math.isnan(report.pos_tol) and math.isnan(report.min_m_norm)


def test_linear_tally_counts_every_failure():
    model = make_semiparam_model(np.random.default_rng(6))
    report = verify_semiparam_linear(model, beta_radius=0.2, g_radius=0.5,
                                     samples=7, seed=1, pos_tol=1e9)
    assert report.g_rank_holds and not report.full_local_id
    assert (report.samples, report.passes, report.failures) == (14, 0, 14)
    assert 0.0 < report.min_m_norm < 1e9
    assert not report.all_passed
