import math
from dataclasses import replace

import numpy as np
import pytest

from momentid.errors import GridMismatchError
from momentid.fnspace import GridFunction, GridMeasure, inner, norm
from momentid.linop import LinearOperator, apply, svd
from momentid.semiparam import (
    SemiparametricMap,
    SplitDerivative,
    partial_out,
    split_lower_bound_check,
)
from oracles import stacked_derivative, to_moment_map


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
        report = partial_out(hand_split())
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
        report = partial_out(split)
        assert norm(report.zeta_star[0]) < 1e-12
        assert report.gram[0, 0] == pytest.approx(inner(col, col))

    def test_absorbed_column_gives_zero_gram(self):
        mu = two_point()
        m_g = LinearOperator(np.ones((2, 2)), mu, mu)
        split = SplitDerivative(m_beta=(GridFunction([2.0, 2.0], mu),),
                                m_g=m_g)
        report = partial_out(split)
        assert report.gram[0, 0] <= 1e-20
        assert report.lambda_min <= 1e-20

    def test_degenerate_operator_flagged(self):
        mu = two_point()
        split = SplitDerivative(
            m_beta=(GridFunction([1.0, 2.0], mu),),
            m_g=LinearOperator(np.zeros((2, 2)), mu, mu),
        )
        report = partial_out(split)
        assert report.degenerate
        assert len(report.range_basis) == 0
        assert report.gram[0, 0] == pytest.approx(
            inner(split.m_beta[0], split.m_beta[0]))

    def test_gram_positive_semidefinite(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            split = random_split(rng, n=int(rng.integers(3, 10)),
                                 p=int(rng.integers(1, 4)))
            report = partial_out(split)
            assert np.linalg.eigvalsh(report.gram)[0] >= -1e-12

    def test_residuals_orthogonal_to_range(self):
        rng = np.random.default_rng(1)
        split = random_split(rng)
        report = partial_out(split)
        for col, zeta in zip(split.m_beta, report.zeta_star):
            resid = col - zeta
            worst = max(abs(inner(resid, u)) for u in report.range_basis)
            assert worst < 1e-9

    def test_carries_the_decomposition_of_m_g(self):
        split = random_split(np.random.default_rng(11))
        report = partial_out(split)
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
        report = partial_out(split)
        assert report.eps <= 1.0

    def test_hand_example_min_ratio(self):
        split = hand_split()
        report = partial_out(split)
        ratio = split_lower_bound_check(split, report, 10_000, seed=3)
        assert ratio >= report.eps - 1e-10

    def test_beta_only_direction_respects_gram_bound(self):
        split = hand_split()
        report = partial_out(split)
        # a = 1, zeta = 0: ratio = ||b|| >= eps, and the Gram form gives
        # the sharper sqrt(lambda_min) bound after removing the projection
        b = split.m_beta[0]
        assert norm(b) >= np.sqrt(report.lambda_min)
        assert norm(b) >= report.eps

    def test_beta_only_quadratic_form_oracle(self):
        rng = np.random.default_rng(12)
        split = random_split(rng, n=9, p=3)
        report = partial_out(split)
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
            report = partial_out(split)
            ratio = split_lower_bound_check(
                split, report, 5000, seed=int(rng.integers(2**31)))
            assert ratio >= report.eps - 1e-10

    def test_one_trial_checks_nothing_and_says_so(self):
        # the only trial has a = 0 and zeta = 0: no ratio can be formed
        split = random_split(np.random.default_rng(4))
        report = partial_out(split)
        with pytest.raises(ValueError, match="trials = 1"):
            split_lower_bound_check(split, report, 1, seed=3)
        assert split_lower_bound_check(split, report, 2, seed=3) < math.inf


def make_semiparam_model(rng, n=10, p=2):
    """Synthetic map: linear in g, quadratic in beta.

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

    def eval_row(beta, g):
        dg = g - g0
        return (
            bmat @ (beta - beta0)
            + 0.5 * bmat @ ((beta - beta0) ** 2)
            + apply(m_g, dg).values
        )

    def eval_rows(rows):
        # row by row, so each row is bit for bit the same at any stack size
        return np.stack([eval_row(row[:p], GridFunction(row[p:], dom))
                         for row in rows])

    split = SplitDerivative(m_beta=cols, m_g=m_g)
    return SemiparametricMap(beta0=beta0, g0=g0, eval_rows=eval_rows,
                             split=split)


class TestHarnesses:
    def test_stacked_map_matches_split(self):
        rng = np.random.default_rng(10)
        model = make_semiparam_model(rng)
        mm = to_moment_map(model)
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


def test_stacked_derivative_is_the_moment_map_derivative():
    model = make_semiparam_model(np.random.default_rng(14))
    stacked, mm = stacked_derivative(model), to_moment_map(model)
    assert stacked.domain.same_as(mm.derivative.domain)
    assert stacked.codomain.same_as(mm.derivative.codomain)
    assert np.array_equal(stacked.entries, mm.derivative.entries)
    assert mm.base_point.measure.same_as(stacked.domain)


def test_eval_rejects_a_g_on_another_grid_before_evaluating():
    # g0's values on a uniform grid of the same size: the values fit, the
    # nodes and weights are not those of the domain of m_g
    calls = []
    model = recording(ccapm_map(), calls)
    calls.clear()  # the m(beta0, g0) = 0 check of the construction
    g = GridFunction(model.g0.values,
                     GridMeasure.uniform(model.g0.measure.size))
    with pytest.raises(GridMismatchError, match="domain of m_g"):
        model.eval(model.beta0, g)
    assert calls == []


@pytest.mark.parametrize("residual, rejected", [(2e-10, True),
                                                 (0.5e-10, False)])
def test_base_residual_bound_is_1e_10(residual, rejected):
    # a constant offset on a probability grid: its norm is the offset, at
    # twice and half identcore.RESIDUAL_TOL
    split = hand_split()

    def build():
        return SemiparametricMap(
            beta0=np.zeros(1), g0=GridFunction.zero(two_point()),
            eval_rows=lambda rows: np.full((len(rows), 2), residual),
            split=split)

    if rejected:
        with pytest.raises(ValueError, match="m\\(beta0, g0\\) = 0"):
            build()
    else:
        build()


def ccapm_map():
    from momentid.models.ccapm import ccapm_moment_map, lognormal_ccapm_model

    return ccapm_moment_map(lognormal_ccapm_model(n_state=21,
                                                  n_signal=31))


def recording(model, calls):
    """``model`` with an eval_rows that records the stack size of each
    call."""

    def eval_rows(rows):
        calls.append(len(rows))
        return model.eval_rows(rows)

    return replace(model, eval_rows=eval_rows)
