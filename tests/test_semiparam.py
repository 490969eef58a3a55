import functools
import math
from dataclasses import fields, replace

import numpy as np
import pytest

import momentid.semiparam
from momentid.errors import GridMismatchError
from momentid.fnspace import FunctionStack, GridFunction, GridMeasure, inner, norm
from momentid.identcore import (
    EVAL_CHUNK,
    NonlinearityBound,
    verify_local_id,
    zero_threshold,
)
from momentid.linop import LinearOperator, apply, svd
from momentid.semiparam import (
    SemiparametricMap,
    SplitDerivative,
    linearity_in_g_check,
    partial_out,
    split_lower_bound_check,
    verify_semiparam_linear,
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


def apply_rows(op, rows):
    """``apply_values`` of ``op`` to each row of a stack of domain values."""
    return (rows * op.domain.weights) @ op.entries.T


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

    def eval_row(beta, g):
        dg = g - g0
        return (
            bmat @ (beta - beta0)
            + 0.5 * bmat @ ((beta - beta0) ** 2)
            + apply(m_g, dg).values
            + nonlinear * norm(dg) ** 2
        )

    def eval_rows(rows):
        # row by row, so each row is bit for bit the same at any stack size
        return np.stack([eval_row(row[:p], GridFunction(row[p:], dom))
                         for row in rows])

    split = SplitDerivative(m_beta=cols, m_g=m_g)
    return SemiparametricMap(beta0=beta0, g0=g0, eval_rows=eval_rows,
                             split=split)


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

        def eval_rows(rows):
            return rows[:, :1] * inside.values + apply_rows(m_g, rows[:, 1:])

        model = SemiparametricMap(beta0=beta0, g0=g0, eval_rows=eval_rows,
                                  split=split)
        report = verify_semiparam_linear(model, 0.1, 0.1, 5, seed=2)
        assert not report.pi_nonsingular
        # no claim made
        assert report.samples == report.passes == report.failures == 0
        assert math.isnan(report.pos_tol) and math.isnan(report.min_m_norm)

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


@pytest.mark.parametrize("harness", ["linear"])
def test_harnesses_reuse_the_partial_out_svd(harness, monkeypatch):
    model = make_semiparam_model(np.random.default_rng(12))
    calls = []

    def counting_svd(op, *args, **kwargs):
        calls.append(op.shape)
        return svd(op, *args, **kwargs)

    monkeypatch.setattr(momentid.semiparam, "svd", counting_svd)
    report = verify_semiparam_linear(model, beta_radius=0.2, g_radius=0.5,
                                     samples=10, seed=1)
    assert report.failures == 0
    assert calls == [model.split.m_g.shape]  # partial_out's, nothing more
    # the zero rule reads sigma_max from the stacked derivative
    sigma_max = svd(model.stacked_derivative()).sigma_max
    assert report.pos_tol == pytest.approx(zero_threshold(sigma_max, 1.0),
                                           rel=1e-12)


def test_harnesses_share_the_gram_gate_and_pos_tol():
    """The semiparametric harness and verify_local_id on the stacked
    moment map read the same zero rule, and its Gram gate is partial_out's
    under the one rank rule."""
    model = make_semiparam_model(np.random.default_rng(13))
    linear = verify_semiparam_linear(model, beta_radius=0.2, g_radius=0.5,
                                     samples=5, seed=1)
    mm = model.to_moment_map()
    rng = np.random.default_rng(1)
    mu = mm.base_point.measure
    devs = FunctionStack(0.1 * rng.standard_normal((3, mu.size)), mu)
    local = verify_local_id(mm, NonlinearityBound(L=0.0, r=2.0), devs)
    sigma_max = svd(mm.derivative).sigma_max
    assert linear.pos_tol == pytest.approx(local.pos_tol, rel=1e-12)
    assert linear.pos_tol == pytest.approx(zero_threshold(sigma_max, 1.0),
                                           rel=1e-12)
    assert linear.pi_nonsingular
    assert (linear.partial.lambda_min
            == partial_out(model.split).lambda_min)


def test_stacked_derivative_is_the_moment_map_derivative():
    model = make_semiparam_model(np.random.default_rng(14))
    stacked, mm = model.stacked_derivative(), model.to_moment_map()
    assert stacked.domain.same_as(mm.derivative.domain)
    assert stacked.codomain.same_as(mm.derivative.codomain)
    assert np.array_equal(stacked.entries, mm.derivative.entries)
    assert mm.base_point.measure.same_as(stacked.domain)


def test_linear_harness_decomposes_m_g_once(monkeypatch):
    # the rank condition for m_g reads partial_out's decomposition; the
    # only values-only decomposition left is the stacked derivative's
    import momentid.identcore
    from momentid.linop import singular_values

    model = ccapm_map()
    calls = []

    def counted(kind, fn):
        def wrapper(op, *args, **kwargs):
            calls.append((kind, op.shape))
            return fn(op, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(momentid.semiparam, "svd", counted("svd", svd))
    for module in (momentid.semiparam, momentid.identcore):
        monkeypatch.setattr(module, "singular_values",
                            counted("values", singular_values))
    verify_semiparam_linear(model, beta_radius=0.1, g_radius=0.5,
                            samples=10, seed=1)
    n_cod, n_g = model.split.m_g.shape
    assert calls == [("svd", (n_cod, n_g)),
                     ("values", (n_cod, model.split.p + n_g))]


@pytest.mark.parametrize("which, verdict", [
    ("ccapm", False), ("synthetic", True)])
def test_linear_harness_rank_verdicts_match_the_operator(which, verdict):
    # the verdicts read from the decomposition are those of the operator's
    # own values-only rank condition
    from momentid.identcore import rank_condition

    model = SEMIPARAM_MODELS[which]()
    report = verify_semiparam_linear(model, beta_radius=0.1, g_radius=0.5,
                                     samples=20, seed=1)
    assert rank_condition(model.split.m_g).holds == verdict
    assert report.g_rank_holds == report.full_local_id == verdict
    assert report.failures == 0
    assert report.samples == 20 * (2 if verdict else 1)


def test_ccapm_linear_harness_evaluates_no_extra_row():
    # the linearity check's 13 rows, then the 10 samples: the positivity
    # tolerance is read from the stacked derivative without building a
    # MomentMap, whose construction would evaluate m(beta0, g0) again
    calls = []
    model = recording(ccapm_map(), calls, [])
    calls.clear()  # the m(beta0, g0) = 0 check of the construction
    verify_semiparam_linear(model, beta_radius=0.1, g_radius=0.5,
                            samples=10, seed=1)
    assert [rows for rows, _ in calls] == [13, 10]


def test_nonlinear_harness_makes_no_claim_on_a_singular_gram_matrix():
    """No claim on a singular Gram matrix when one measure serves as the
    domain and the codomain of m_g: the sample counts are zero and the
    zero rule and smallest ||m|| are NaN."""
    rng = np.random.default_rng(7)
    n = 8
    mu = GridMeasure(np.arange(float(n)), np.full(n, 1 / n))
    m_g = LinearOperator(rng.standard_normal((n, n)) + 2 * np.eye(n), mu, mu)
    inside = apply(m_g, GridFunction(rng.standard_normal(n), mu))

    def eval_rows(rows):
        return rows[:, :1] * inside.values + apply_rows(m_g, rows[:, 1:])

    model = SemiparametricMap(
        beta0=np.zeros(1), g0=GridFunction(np.zeros(n), mu),
        eval_rows=eval_rows, split=SplitDerivative(m_beta=(inside,), m_g=m_g))
    report = verify_semiparam_linear(model, beta_radius=0.1, g_radius=0.5,
                                     samples=5, seed=2)
    assert not report.pi_nonsingular
    assert report.samples == report.passes == report.failures == 0
    assert math.isnan(report.pos_tol) and math.isnan(report.min_m_norm)


def scaled_model(model, c):
    """``model`` with m and its split derivative both scaled by c."""
    split = SplitDerivative(m_beta=tuple(c * col for col in model.split.m_beta),
                            m_g=model.split.m_g * c)
    return replace(model, eval_rows=lambda rows: c * model.eval_rows(rows),
                   split=split)


@pytest.mark.parametrize("which", ["ccapm", "synthetic"])
def test_linear_harness_verdicts_scale_free(which):
    # c = 1e-12 puts every sampled ||c m|| far below the old rule's floor
    model = SEMIPARAM_MODELS[which]()
    plain = verify_semiparam_linear(model, beta_radius=0.1, g_radius=0.5,
                                    samples=20, seed=1)
    scaled = verify_semiparam_linear(scaled_model(model, 1e-12),
                                     beta_radius=0.1, g_radius=0.5,
                                     samples=20, seed=1)
    assert plain.pi_nonsingular and plain.failures == 0
    assert ((scaled.samples, scaled.passes, scaled.full_local_id)
            == (plain.samples, plain.passes, plain.full_local_id))
    assert scaled.pos_tol == pytest.approx(1e-12 * plain.pos_tol)


def test_linear_harness_checks_a_zero_norm_g_deviation():
    """A g-only draw whose g norm is zero is a checked row, not dropped:
    each of the 20 drawn samples reaches eval_rows and the tally."""
    calls = []
    model = recording(replace(SEMIPARAM_MODELS["synthetic"](),
                              g_norm=lambda g: 0.0), calls, [])
    calls.clear()  # the m(beta0, g0) = 0 check of the construction
    report = verify_semiparam_linear(model, 0.1, 0.5, 10, seed=1)
    assert report.g_rank_holds
    assert report.samples == report.passes + report.failures == 20
    # the linearity check's 13 rows, then the 20 sample rows
    assert [rows for rows, _ in calls] == [13, 20]


def test_linear_tally_counts_every_failure():
    # m scaled by 1e-30 against the unscaled split: every sampled ||m|| is
    # positive but below the zero rule of the split's derivative
    model = make_semiparam_model(np.random.default_rng(6))
    tiny = replace(model, eval_rows=lambda rows: 1e-30 * model.eval_rows(rows))
    report = verify_semiparam_linear(tiny, beta_radius=0.2, g_radius=0.5,
                                     samples=7, seed=1)
    assert report.g_rank_holds and not report.full_local_id
    assert (report.samples, report.passes, report.failures) == (14, 0, 14)
    assert 0.0 < report.min_m_norm < report.pos_tol


@functools.cache
def test_eval_rejects_a_g_on_another_grid_before_evaluating():
    # g0's values on a uniform grid of the same size: the values fit, the
    # nodes and weights are not those of the domain of m_g
    calls = []
    model = recording(ccapm_map(), calls, [])
    calls.clear()  # the m(beta0, g0) = 0 check of the construction
    g = GridFunction(model.g0.values,
                     GridMeasure.uniform(model.g0.measure.size))
    with pytest.raises(GridMismatchError, match="domain of m_g"):
        model.eval(model.beta0, g)
    assert calls == []


def ccapm_map():
    from momentid.models.ccapm import ccapm_moment_map, lognormal_ccapm_model

    return ccapm_moment_map(lognormal_ccapm_model())


SEMIPARAM_MODELS = {
    # a vectorised eval_rows; g is identified only up to scale, so the
    # linear harness draws no g-only deviations
    "ccapm": ccapm_map,
    # g is identified, so the linear harness adds the g-only deviations
    "synthetic": lambda: make_semiparam_model(np.random.default_rng(15)),
}

SEMIPARAM_HARNESSES = {
    "linear": lambda model, n: verify_semiparam_linear(
        model, beta_radius=0.1, g_radius=0.5, samples=n, seed=1),
}


def one_row_per_call(model):
    """The reference: ``model`` with one row per ``eval_rows`` call."""
    return replace(model, eval_rows=lambda rows: np.stack(
        [model.eval_rows(row[None])[0] for row in rows]))


def recording(model, calls, draws):
    """``model`` with an eval_rows that records, per call, the stack size
    and how many draws had been made when it was called."""

    def eval_rows(rows):
        calls.append((len(rows), len(draws)))
        return model.eval_rows(rows)

    return replace(model, eval_rows=eval_rows)


@pytest.mark.parametrize("n", [1, 63, 64, 65])
@pytest.mark.parametrize("harness", SEMIPARAM_HARNESSES)
@pytest.mark.parametrize("which", SEMIPARAM_MODELS)
def test_harnesses_agree_with_one_row_per_call(which, harness, n,
                                               monkeypatch):
    model = SEMIPARAM_MODELS[which]()
    calls, draws = [], []
    for name in ("_sample_beta", "_sample_g_deviation"):
        sampler = getattr(momentid.semiparam, name)

        def counted(*args, sampler=sampler):
            draws.append(None)
            return sampler(*args)

        monkeypatch.setattr(momentid.semiparam, name, counted)
    stacked = recording(model, calls, draws)
    calls.clear()  # the m(beta0, g0) = 0 check of the construction
    got = SEMIPARAM_HARNESSES[harness](stacked, n)
    drawn = len(draws)
    want = SEMIPARAM_HARNESSES[harness](one_row_per_call(model), n)
    for field in fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "partial":
            assert np.array_equal(a.gram, b.gram) and a.eps == b.eps
        else:
            assert a == b, field.name
    assert max(rows for rows, _ in calls) <= EVAL_CHUNK
    # the linear harness's linearity check evaluates before any sample is
    # drawn; every sample is evaluated after the last draw
    assert {seen for _, seen in calls} <= {0, drawn}
    # and in full chunks
    total = got.passes + got.failures
    assert total >= n
    assert [rows for rows, seen in calls if seen == drawn] == [
        min(EVAL_CHUNK, total - k) for k in range(0, total, EVAL_CHUNK)]


@pytest.mark.parametrize("harness", SEMIPARAM_HARNESSES)
def test_harnesses_keep_the_per_point_draw_order(harness):
    """The rows evaluated are those of a loop that evaluated each point as
    soon as it was drawn: per sample, beta then g, then the g-only
    draws."""
    model = SEMIPARAM_MODELS["synthetic"]()
    seen = []

    def eval_rows(rows):
        seen.extend(rows)
        return model.eval_rows(rows)

    SEMIPARAM_HARNESSES[harness](replace(model, eval_rows=eval_rows), 5)
    rng = np.random.default_rng(1)
    dec = partial_out(model.split).decomposition

    def g_dev():
        out = np.empty(model.g0.measure.size)
        return out * momentid.semiparam._sample_g_deviation(
            rng, dec, 0.5, model.g_norm_of, out)

    def beta():
        return momentid.semiparam._sample_beta(rng, model, 0.1)

    points = [(beta(), g_dev()) for _ in range(5)]
    points += [(model.beta0, g_dev()) for _ in range(5)]
    want = [np.concatenate([b, model.g0.values + g]) for b, g in points]
    assert np.array_equal(np.array(seen[-len(want):]), np.array(want))


@pytest.mark.parametrize("which", SEMIPARAM_MODELS)
def test_linearity_check_draws_first_and_agrees_with_one_row_per_call(
        which):
    model = SEMIPARAM_MODELS[which]()
    calls = []
    stacked = recording(model, calls, [])
    calls.clear()
    assert (linearity_in_g_check(stacked, seed=3)
            == linearity_in_g_check(one_row_per_call(model), seed=3))
    assert calls == [(13, 0)]  # m(beta0, g0), then three per draw
