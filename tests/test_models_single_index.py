import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import momentid.identcore as identcore
import momentid.models.single_index as single_index
from momentid.cli import load_config, run_experiment
from momentid.fnspace import GridFunction, GridMeasure, trapezoid_weights
from momentid.identcore import rank_condition
from momentid.linop import apply, conditional_expectation
from momentid.models.single_index import (
    IndexDiagnosis,
    SingleIndexModel,
    _index_grids,
    _subsample_indices,
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
    return gaussian_index_design(rho=0.5, w_dim=1)


@pytest.fixture(scope="module")
def twodim_model():
    return gaussian_index_design(rho=0.5, w_dim=2, n_v=49, n_w=15)


@pytest.mark.parametrize("field, value", [
    ("joint_ratio", np.nan), ("x2", np.inf)])
def test_nonfinite_tables_rejected(scalar_model, field, value):
    bad = np.array(getattr(scalar_model, field), dtype=float)
    bad.flat[bad.size // 2] = value
    with pytest.raises(ValueError, match=f"{field} table must be finite"):
        replace(scalar_model, **{field: bad})


def test_linear_link_collapses_to_linear_iv(scalar_model):
    model = SingleIndexModel(
        beta0=scalar_model.beta0,
        v_measure=scalar_model.v_measure,
        w_measure=scalar_model.w_measure,
        joint_ratio=scalar_model.joint_ratio,
        x2=scalar_model.x2,
        g0=lambda v: 2.0 + 3.0 * v,
        g0_prime=lambda v: np.full_like(np.asarray(v, dtype=float), 3.0),
    )
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


class TestDiagnosis:
    def test_scalar_design(self, scalar_model, gram_oracle):
        d = diagnose_single_index(scalar_model)
        assert d.w_given_v_complete
        assert d.pi_singular
        assert d.consistent
        assert gram_oracle(index_split(scalar_model)) < 1e-8

    def test_twodim_design(self, twodim_model, gram_oracle):
        d = diagnose_single_index(twodim_model)
        assert not d.w_given_v_complete
        assert not d.pi_singular
        assert d.consistent
        assert gram_oracle(index_split(twodim_model)) > 1e-4

    def test_twodim_ratio_is_zero_by_dimension_count(self, twodim_model):
        # the proxy keeps 144 instrument nodes and 12 index nodes, so the
        # operator has a null space and rank_condition reports sigma_min 0
        d = diagnose_single_index(twodim_model)
        assert d.sigma_min_ratio == 0.0
        assert not d.w_given_v_complete

    def test_scalar_ratio_is_positive_and_above_tol(self, scalar_model,
                                                    monkeypatch):
        d = diagnose_single_index(scalar_model)
        assert identcore.RANK_CUTOFF < d.sigma_min_ratio < 1.0
        # the rank rule's cutoff just above the measured ratio
        monkeypatch.setattr(identcore, "RANK_CUTOFF",
                            d.sigma_min_ratio * 1.01)
        assert not diagnose_single_index(scalar_model).w_given_v_complete

    def test_shipped_scalar_ratios_clear_the_rank_cutoff(self):
        # the proxy reads the same ratio for both links; the thinnest of
        # the shipped run, at rho 0.4, is 4.76e-8
        for rho in SHIPPED_RHOS:
            d = diagnose_single_index(gaussian_index_design(rho=float(rho),
                                                            w_dim=1))
            assert d.sigma_min_ratio >= 3 * identcore.RANK_CUTOFF, rho
            assert d.w_given_v_complete

    @pytest.mark.parametrize("link", ["softplus", "sin"])
    def test_absorbed_columns_read_singular_on_a_finer_index_grid(self, link):
        # at n_v=49, n_w=15 m_g absorbs the columns down to roundoff: the
        # partialled Gram matrix and its own trace are about 1e-30, so only
        # the unpartialled columns can tell that it is singular
        model = gaussian_index_design(rho=0.7, w_dim=1, link=link, n_v=49,
                                      n_w=15)
        d = diagnose_single_index(model)
        partialled = partial_out(index_split(model)).gram
        assert np.trace(partialled) < 1e-25
        assert d.w_given_v_complete
        assert d.pi_singular
        assert d.consistent
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
        absorbs = report["checks"][1]
        assert absorbs["name"] == (
            "scalar instrument absorbs the parametric columns")
        assert absorbs["value"] <= GRAM_SINGULAR

    def test_independent_instrument_not_complete(self):
        model = gaussian_index_design(rho=0.5, w_dim=1)
        # break the dependence: the proxy operator becomes rank one
        flat = np.ones_like(model.joint_ratio)
        indep = SingleIndexModel(
            beta0=model.beta0,
            v_measure=model.v_measure,
            w_measure=model.w_measure,
            joint_ratio=flat,
            x2=model.x2,
            g0=model.g0,
            g0_prime=model.g0_prime,
        )
        d = diagnose_single_index(indep)
        assert not d.w_given_v_complete
        assert d.consistent  # no inconsistency is possible here

    def test_consistency_across_designs(self):
        rhos = np.linspace(0.4, 0.7, 5)
        for i, rho in enumerate(rhos):
            link = "softplus" if i % 2 == 0 else "sin"
            for w_dim, kwargs in ((1, {}), (2, {"n_v": 49, "n_w": 13})):
                model = gaussian_index_design(rho=float(rho), w_dim=w_dim,
                                              link=link, **kwargs)
                assert diagnose_single_index(model).consistent


def test_partialled_gram_scale_free_of_loading_constant(gram_oracle):
    # proportional second column keeps the Gram matrix exactly rank one
    model = gaussian_index_design(rho=0.55, w_dim=1, proportional_c=0.3)
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
            assert diagnose_single_index(model).pi_singular == oracle, (
                rho, w_dim)


@pytest.mark.parametrize("target", [1, 2, 7, 12, 144])
def test_subsample_indices_are_the_distinct_rounded_nodes(target):
    for n in range(1, target + 400):
        got = _subsample_indices(n, target)
        want = np.arange(n) if n <= target else np.unique(
            np.linspace(0, n - 1, target).round().astype(int))
        assert got.dtype == want.dtype and np.array_equal(got, want), n


def old_gaussian_index_design(rho, w_dim, link, n_v=41, n_w=21, span=3.5,
                              v_pad=1.0, loading=0.6, proportional_c=0.7):
    """``gaussian_index_design`` as it was: every call builds and checks
    its own grids."""

    def phi(z):
        return np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    vg = np.linspace(-span - v_pad, span + v_pad, n_v)
    v_measure = GridMeasure.from_density(vg, phi(vg))
    quad_v = trapezoid_weights(vg)
    if w_dim == 1:
        wg = np.linspace(-span, span, n_w)
        w_measure = GridMeasure.from_density(wg, phi(wg))
        index_of_w = wg
        x2 = np.column_stack([wg, proportional_c * wg])
    else:
        wg = np.linspace(-span, span, n_w)
        axis = GridMeasure.from_density(wg, phi(wg))
        w_measure = GridMeasure.tensor(axis, axis)
        w1 = w_measure.points[:, 0]
        w2 = w_measure.points[:, 1]
        index_of_w = (w1 + w2) / math.sqrt(2.0)
        x2 = np.column_stack([w1, w2**2 - 1.0])
    s = math.sqrt(1 - rho * rho)
    cond = phi((vg[:, None] - rho * index_of_w[None, :]) / s) / s
    cond[np.abs(vg) > span] = 0.0
    cond_mass = quad_v[:, None] * cond
    cond_mass /= cond_mass.sum(axis=0, keepdims=True)
    joint_ratio = cond_mass / v_measure.weights[:, None]
    if link == "softplus":
        g0 = lambda v: np.logaddexp(0.0, v)  # noqa: E731
        g0p = lambda v: 1.0 / (1.0 + np.exp(-v))  # noqa: E731
    else:
        g0 = lambda v: v + 0.5 * np.sin(v)  # noqa: E731
        g0p = lambda v: 1.0 + 0.5 * np.cos(v)  # noqa: E731
    return SingleIndexModel(
        beta0=np.full(2, loading), v_measure=v_measure, w_measure=w_measure,
        joint_ratio=joint_ratio, x2=x2, g0=g0, g0_prime=g0p)


def old_diagnosis(model):
    """``diagnose_single_index`` as it was: fresh proxy grids on every
    call, and E[g0'(V) | W] read through the negative of m_g."""
    supported = np.flatnonzero(model.joint_ratio.max(axis=1) > 0)
    iv = supported[_subsample_indices(supported.size, 12)]
    iw = _subsample_indices(model.w_measure.size, 12**model.w_measure.dim)
    mv, mw = model.v_measure, model.w_measure
    sub_v = GridMeasure(mv.points[iv], mv.weights[iv] / mv.weights[iv].sum())
    sub_w = GridMeasure(mw.points[iw], mw.weights[iw] / mw.weights[iw].sum())
    sub_joint = model.joint_ratio[np.ix_(iv, iw)]
    sub_joint = sub_joint / (sub_v.weights @ sub_joint)[None, :]
    rank = rank_condition(
        conditional_expectation(sub_joint.T, sub_w, sub_v))
    ratio = rank.sigma_min / rank.sigma_max if rank.sigma_max > 0 else 0.0

    m_g = -1.0 * conditional_expectation(model.joint_ratio, mv, mw)
    g0p = GridFunction(np.asarray(model.g0_prime(mv.coords()), dtype=float),
                       mv)
    u = apply(-1.0 * m_g, g0p).values
    m_beta = tuple(GridFunction(-model.x2[:, k] * u, mw)
                   for k in range(model.p))
    report = partial_out(SplitDerivative(m_beta=m_beta, m_g=m_g))
    pi_singular = gram_singular(report.gram_ratio)
    return IndexDiagnosis(
        w_given_v_complete=rank.holds, pi_singular=pi_singular,
        consistent=not (rank.holds and not pi_singular),
        sigma_min_ratio=ratio, gram_ratio=report.gram_ratio)


def assert_same_design(got, want):
    assert got.v_measure.same_as(want.v_measure)
    assert got.w_measure.same_as(want.w_measure)
    for name in ("beta0", "joint_ratio", "x2"):
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
        assert diagnose_single_index(model) == old_diagnosis(fresh), rho


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
    # per w_dim: the index grid, the instrument grid (and for w_dim 2 its
    # axis), and the two proxy subgrids
    assert len(built) == 9


def test_designs_share_read_only_grids():
    for w_dim, sizes in SHIPPED_SIZES.items():
        a = gaussian_index_design(rho=0.4, w_dim=w_dim, **sizes)
        b = gaussian_index_design(rho=0.7, w_dim=w_dim, link="sin", **sizes)
        assert a.v_measure is b.v_measure and a.w_measure is b.w_measure
        assert a.x2 is b.x2
        vg, quad_v, _, _, index_of_w, _ = _index_grids(
            w_dim, sizes.get("n_v", 41), sizes.get("n_w", 21), 3.5, 1.0, 0.7)
        shared = (a.x2, a.v_measure.coords(), a.v_measure.points,
                  a.v_measure.weights, a.w_measure.points, a.w_measure.weights,
                  vg, quad_v, index_of_w)
        for arr in shared:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


@pytest.mark.parametrize("w_dim", [1, 2])
@pytest.mark.parametrize("change", [
    {"n_v": 45}, {"n_w": 17}, {"span": 3.0}, {"v_pad": 0.75},
    {"proportional_c": 0.4}])
def test_a_changed_grid_argument_builds_afresh(w_dim, change):
    sizes = SHIPPED_SIZES[w_dim]
    gaussian_index_design(rho=0.5, w_dim=w_dim, **sizes)  # now cached
    args = {**sizes, **change}
    assert_same_design(gaussian_index_design(rho=0.5, w_dim=w_dim, **args),
                       old_gaussian_index_design(0.5, w_dim, "softplus",
                                                 **args))
