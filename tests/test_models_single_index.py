import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import momentid.identcore as identcore
import momentid.models.single_index as single_index
from momentid.cli import load_config, run_experiment
from momentid.fnspace import (GridFunction, GridMeasure, norm,
                              trapezoid_weights)
from momentid.linop import apply, conditional_expectation
from momentid.models.single_index import (
    SingleIndexModel,
    _index_grids,
    diagnose_single_index,
    gaussian_index_design,
    index_split,
)
from momentid.semiparam import (GRAM_SINGULAR, SplitDerivative, gram_singular,
                                partial_out)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the grid sizes and rho values of the shipped single-index run
SHIPPED_SIZES = {1: {}, 2: {"n_v": 49, "n_w": 15}}
SHIPPED_RHOS = np.linspace(0.4, 0.7, 10)


@pytest.fixture(scope="module")
def scalar_model():
    return gaussian_index_design(rho=0.5, w_dim=1, link="softplus")


@pytest.fixture(scope="module")
def twodim_model():
    return gaussian_index_design(rho=0.5, w_dim=2, link="softplus",
                                 n_v=49, n_w=15)


@pytest.mark.parametrize("field, value", [
    ("joint_ratio", np.nan), ("x2", np.inf)])
def test_nonfinite_tables_rejected(scalar_model, field, value):
    bad = np.array(getattr(scalar_model, field), dtype=float)
    bad.flat[bad.size // 2] = value
    with pytest.raises(ValueError, match=f"{field} table must be finite"):
        replace(scalar_model, **{field: bad})


def test_linear_link_collapses_to_linear_iv(scalar_model):
    # the link 2 + 3v
    model = replace(scalar_model,
                    g0_prime=np.full(scalar_model.v_measure.size, 3.0))
    split = index_split(model)
    # m_beta_k = -x2_k(w) * slope since E[g0'(V)|W] is the constant slope
    for k, col in enumerate(split.m_beta):
        assert np.allclose(col.values, -3.0 * model.x2[:, k], atol=1e-10)


def test_m_g_matches_direct_conditional_expectation(scalar_model):
    split = index_split(scalar_model)
    rng = np.random.default_rng(0)
    h = GridFunction(rng.standard_normal(scalar_model.v_measure.size),
                     scalar_model.v_measure)
    cond_mass = (scalar_model.v_measure.weights[:, None]
                 * scalar_model.joint_ratio)
    direct = -(cond_mass * h.values[:, None]).sum(axis=0)
    assert np.abs(apply(split.m_g, h).values - direct).max() < 1e-9


def instrument_given_index(model):
    """b(W) -> E[b(W) | V] of the design."""
    return conditional_expectation(model.joint_ratio.T, model.w_measure,
                                   model.v_measure)


class TestDiagnosis:
    def test_scalar_design(self, scalar_model, gram_oracle):
        d = diagnose_single_index(scalar_model)
        assert gram_singular(d.gram_ratio)
        assert gram_oracle(index_split(scalar_model)) < 1e-8

    def test_twodim_design(self, twodim_model, gram_oracle):
        d = diagnose_single_index(twodim_model)
        assert not gram_singular(d.gram_ratio)
        assert gram_oracle(index_split(twodim_model)) > 1e-4

    def test_twodim_instrument_is_incomplete_by_construction(self):
        # the index law sees only w1 + w2, and the grid and its weights are
        # symmetric in the two coordinates: E[w1 - w2 | V] is roundoff
        # (1.6e-17 to 2.6e-17 of ||w1 - w2||), while E[w1 + w2 | V] is
        # sqrt(2) rho V, of norm 0.56 at rho 0.4
        for i, rho in enumerate(SHIPPED_RHOS):
            model = gaussian_index_design(
                rho=float(rho), w_dim=2,
                link="softplus" if i % 2 == 0 else "sin", **SHIPPED_SIZES[2])
            w_to_v = instrument_given_index(model)
            w1, w2 = model.w_measure.points.T
            odd = GridFunction(w1 - w2, model.w_measure)
            even = GridFunction(w1 + w2, model.w_measure)
            assert norm(apply(w_to_v, odd)) <= 1e-14 * norm(odd), rho
            assert norm(apply(w_to_v, even)) >= 0.5, rho

    @pytest.mark.parametrize("link", ["softplus", "sin"])
    def test_absorbed_columns_read_singular_on_a_finer_index_grid(self, link):
        # at n_v=49, n_w=15 m_g absorbs the columns down to roundoff: the
        # partialled Gram matrix and its own trace are about 1e-30, so only
        # the unpartialled columns can tell that it is singular
        model = gaussian_index_design(rho=0.7, w_dim=1, link=link, n_v=49,
                                      n_w=15)
        d = diagnose_single_index(model)
        assert np.trace(d.gram) < 1e-25
        # the value the single-index run reports for this design, where
        # lambda_min over the partialled trace read 0.0080 (softplus) and
        # 0.0089 (sin)
        assert d.gram_ratio <= GRAM_SINGULAR

    def test_run_reads_absorbed_columns_on_a_finer_index_grid(
            self, monkeypatch):
        # the shipped run with its scalar designs built at n_v=49, n_w=15,
        # both links among them
        real = single_index.gaussian_index_design

        def finer(**kwargs):
            sizes = {"n_v": 49, "n_w": 15} if kwargs["w_dim"] == 1 else {}
            return real(**{**kwargs, **sizes})

        monkeypatch.setattr(single_index, "gaussian_index_design", finer)
        report, _ = run_experiment(
            load_config(str(CONFIGS / "single-index.json")))
        assert report["summary"]["pass"]
        absorbs = report["checks"][0]
        assert absorbs["name"] == (
            "scalar instrument absorbs the parametric columns")
        assert absorbs["value"] <= GRAM_SINGULAR

    def test_independent_instrument_not_complete(self):
        model = gaussian_index_design(rho=0.5, w_dim=1, link="softplus")
        # break the dependence: E[b(W) | V] is the mean of b at every
        # index node, so every centred b maps to zero, and the closure of
        # {E[h(V) | W]} is the constants
        indep = replace(model, joint_ratio=np.ones_like(model.joint_ratio))
        b = GridFunction(model.x2[:, 0], model.w_measure)  # mean zero
        assert norm(apply(instrument_given_index(indep), b)) <= (
            1e-14 * norm(b))
        assert len(diagnose_single_index(indep).range_basis) == 1

    def test_consistency_across_designs(self):
        # the Gram matrix is singular exactly on the designs whose
        # instrument is complete given the index, the scalar ones
        rhos = np.linspace(0.4, 0.7, 5)
        for i, rho in enumerate(rhos):
            link = "softplus" if i % 2 == 0 else "sin"
            for w_dim, kwargs in ((1, {}), (2, {"n_v": 49, "n_w": 13})):
                model = gaussian_index_design(rho=float(rho), w_dim=w_dim,
                                              link=link, **kwargs)
                assert gram_singular(
                    diagnose_single_index(model).gram_ratio) == (w_dim == 1)


def test_partialled_gram_scale_free_of_loading_constant(gram_oracle):
    # proportional second column keeps the Gram matrix exactly rank one
    model = gaussian_index_design(rho=0.55, w_dim=1, link="softplus")
    w = model.x2[:, 0]
    model = replace(model, x2=np.column_stack([w, 0.3 * w]))
    split = index_split(model)
    assert gram_oracle(split) <= 1e-10
    assert gram_singular(partial_out(split).gram_ratio)


@pytest.mark.parametrize("cutoff", [identcore.RANK_CUTOFF, 1e-12])
def test_shipped_verdicts_agree_with_the_least_squares_oracle(
        cutoff, gram_oracle, monkeypatch):
    # m_g's range cut four decades finer: roundoff on the absorbed designs
    # then enters the partialled Gram matrix, and no verdict may move
    monkeypatch.setattr(identcore, "RANK_CUTOFF", cutoff)
    for i, rho in enumerate(SHIPPED_RHOS):
        link = "softplus" if i % 2 == 0 else "sin"
        for w_dim, sizes in SHIPPED_SIZES.items():
            model = gaussian_index_design(rho=float(rho), w_dim=w_dim,
                                          link=link, **sizes)
            oracle = gram_singular(gram_oracle(index_split(model)))
            assert gram_singular(
                diagnose_single_index(model).gram_ratio) == oracle, (
                rho, w_dim)


def old_gaussian_index_design(rho, w_dim, link, n_v=41, n_w=21):
    """``gaussian_index_design`` built from scratch: every call builds and
    checks its own grids."""

    def phi(z):
        return np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    vg = np.linspace(-3.5, 3.5, n_v)
    v_measure = GridMeasure.from_density(vg, phi(vg))
    quad_v = trapezoid_weights(vg)
    wg = np.linspace(-3.5, 3.5, n_w)
    if w_dim == 1:
        w_measure = GridMeasure.from_density(wg, phi(wg))
        index_of_w = wg
        x2 = np.column_stack([wg, 0.7 * wg])
    else:
        axis = GridMeasure.from_density(wg, phi(wg))
        w_measure = GridMeasure.tensor(axis, axis)
        w1 = w_measure.points[:, 0]
        w2 = w_measure.points[:, 1]
        index_of_w = (w1 + w2) / math.sqrt(2.0)
        x2 = np.column_stack([w1, w2**2 - 1.0])
    s = math.sqrt(1 - rho * rho)
    cond = phi((vg[:, None] - rho * index_of_w[None, :]) / s) / s
    cond_mass = quad_v[:, None] * cond
    cond_mass /= cond_mass.sum(axis=0, keepdims=True)
    joint_ratio = cond_mass / v_measure.weights[:, None]
    if link == "softplus":
        g0_prime = 1.0 / (1.0 + np.exp(-vg))
    else:
        g0_prime = 1.0 + 0.5 * np.cos(vg)
    return SingleIndexModel(
        v_measure=v_measure, w_measure=w_measure, joint_ratio=joint_ratio,
        x2=x2, g0_prime=g0_prime)


def old_diagnosis(model):
    """``diagnose_single_index`` with E[g0'(V) | W] read through the
    negative of m_g."""
    mv, mw = model.v_measure, model.w_measure
    m_g = -1.0 * conditional_expectation(model.joint_ratio, mv, mw)
    u = apply(-1.0 * m_g, GridFunction(model.g0_prime, mv)).values
    m_beta = tuple(GridFunction(-model.x2[:, k] * u, mw)
                   for k in range(model.p))
    return partial_out(SplitDerivative(m_beta=m_beta, m_g=m_g))


def assert_same_design(got, want):
    assert got.v_measure.same_as(want.v_measure)
    assert got.w_measure.same_as(want.w_measure)
    for name in ("joint_ratio", "x2", "g0_prime"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("w_dim", [1, 2])
@pytest.mark.parametrize("link", ["softplus", "sin"])
def test_shared_grids_keep_every_diagnosis_bit(w_dim, link):
    sizes = SHIPPED_SIZES[w_dim]
    for rho in SHIPPED_RHOS:
        model = gaussian_index_design(rho=float(rho), w_dim=w_dim, link=link,
                                      **sizes)
        fresh = old_gaussian_index_design(float(rho), w_dim, link, **sizes)
        assert_same_design(model, fresh)
        got, want = diagnose_single_index(model), old_diagnosis(fresh)
        assert np.array_equal(got.gram, want.gram), rho
        assert got.gram_ratio == want.gram_ratio, rho


def test_one_run_builds_each_grid_once(monkeypatch):
    built = []
    post_init = GridMeasure.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    config = load_config(str(CONFIGS / "single-index.json"))
    _index_grids.cache_clear()
    monkeypatch.setattr(GridMeasure, "__post_init__", counted)
    report, _ = run_experiment(config)
    assert report["summary"]["pass"]
    # per w_dim: the index grid and the instrument grid, and for w_dim 2
    # the instrument's axis
    assert len(built) == 5


def test_designs_share_read_only_grids():
    for w_dim, sizes in SHIPPED_SIZES.items():
        a = gaussian_index_design(rho=0.4, w_dim=w_dim, link="softplus",
                                  **sizes)
        b = gaussian_index_design(rho=0.7, w_dim=w_dim, link="sin", **sizes)
        assert a.v_measure is b.v_measure and a.w_measure is b.w_measure
        assert a.x2 is b.x2
        vg, quad_v, _, _, index_of_w, _ = _index_grids(
            w_dim, sizes.get("n_v", 41), sizes.get("n_w", 21))
        shared = (a.x2, a.v_measure.coords(), a.v_measure.points,
                  a.v_measure.weights, a.w_measure.points, a.w_measure.weights,
                  vg, quad_v, index_of_w)
        for arr in shared:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


@pytest.mark.parametrize("w_dim", [1, 2])
@pytest.mark.parametrize("change", [{"n_v": 45}, {"n_w": 17}])
def test_a_changed_grid_argument_builds_afresh(w_dim, change):
    sizes = SHIPPED_SIZES[w_dim]
    gaussian_index_design(rho=0.5, w_dim=w_dim, link="softplus",
                          **sizes)  # now cached
    args = {**sizes, **change}
    assert_same_design(gaussian_index_design(rho=0.5, w_dim=w_dim,
                                             link="softplus", **args),
                       old_gaussian_index_design(0.5, w_dim, "softplus",
                                                 **args))
