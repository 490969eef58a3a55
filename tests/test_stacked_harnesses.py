"""The stacked harnesses against the per-row loops they replaced.

``verify_local_id``, ``estimate_nonlinearity``, ``gateaux_check``,
``sample_ellipsoid_deviations`` and the semiparametric
``verify_semiparam_linear`` and ``linearity_in_g_check`` work on whole
stacks: one matrix-vector product and one dot product per row, taken
through batched matmul.  The references below are the loops that took one
``apply``, ``norm`` or ``weighted_norm`` call, one ``norm_a`` call, and one
grid function per row or draw.  Every result must equal its reference bit
for bit, and every generator must end where its reference's does; whether
a batched matmul gives per-row bits is a property of the numpy build, so CI
runs this file on the oldest numpy that pyproject.toml allows as well.
"""

import functools
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import momentid.fnspace as fnspace
import momentid.identcore as identcore
import momentid.semiparam as semiparam
from momentid.cli import load_config, run_experiment
from momentid.fnspace import (
    FunctionStack,
    GridFunction,
    GridMeasure,
    norm,
    weighted_norm,
)
from momentid.identcore import (
    EVAL_CHUNK,
    NonlinearityBound,
    counterexample_map,
    estimate_nonlinearity,
    gateaux_check,
    sample_ellipsoid_deviations,
    verify_local_id,
    rank_condition,
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
from momentid.models.ccapm import (
    ccapm_moment_map,
    check_global_identification,
    lognormal_ccapm_model,
)
from momentid.models.quantile import gaussian_quantile_model, quantile_moment_map
from momentid.semiparam import (
    SemiparametricMap,
    SplitDerivative,
    linearity_in_g_check,
    partial_out,
    verify_semiparam_linear,
)

ROOT = Path(__file__).resolve().parents[1]


def row_norm_a(mmap, delta):
    """The per-row domain norm: weighted L2, or the quartic norm as one dot
    product and one scalar root."""
    if mmap.norm_a is None:
        return norm(delta)
    return float(np.dot(delta.measure.weights, delta.values**4) ** 0.25)


def values_at(eval_rows, rows):
    """m at each row, EVAL_CHUNK rows per eval_rows call, one row out at a
    time."""
    rows = list(rows)
    for i in range(0, len(rows), EVAL_CHUNK):
        yield from eval_rows(np.stack(rows[i:i + EVAL_CHUNK]))


def reference_verify_rows(mmap, bound, devs, dec):
    op, a0 = mmap.derivative, mmap.base_point
    w_b = op.codomain.weights
    deltas = [GridFunction(v, devs.measure) for v in devs.values]
    rows = []
    for delta, m_val in zip(deltas, values_at(
            mmap.eval_rows, (a0.values + d.values for d in deltas))):
        dev_norm = row_norm_a(mmap, delta)
        lin = apply(op, delta)
        lin_n = norm(lin)
        rem = weighted_norm(m_val - lin.values, w_b)
        m_n = weighted_norm(m_val, w_b)
        zero = zero_threshold(
            dec.sigma_max, dev_norm if mmap.norm_a is None else norm(delta))
        rows.append((dev_norm, lin_n, rem, m_n,
                     bound.separates(lin_n, dev_norm) and rem < lin_n
                     and m_n > zero))
    return rows


def reference_nonlinearity(mmap, r, devs):
    a0 = mmap.base_point
    m0 = mmap.eval(a0).values
    w_b = mmap.derivative.codomain.weights
    deltas = [GridFunction(v, devs.measure) for v in devs.values]
    best = 0.0
    for d, m_val in zip(deltas, values_at(
            mmap.eval_rows, (a0.values + d.values for d in deltas))):
        rem = m_val - m0 - apply_values(mmap.derivative, d.values)
        best = max(best, weighted_norm(rem, w_b) / row_norm_a(mmap, d) ** r)
    return best


def reference_gateaux(mmap, dirs, step):
    a0 = mmap.base_point.values
    directions = [GridFunction(v, dirs.measure) for v in dirs.values]
    values = values_at(mmap.eval_rows, (a0 + h.values * float(sign * s)
                                        for h in directions
                                        for s in (step, step / 2.0)
                                        for sign in (1.0, -1.0)))

    def central(t):
        up, dn = next(values), next(values)
        return (up - dn) / (2.0 * t)

    w_b = mmap.derivative.codomain.weights
    worst = 0.0
    for h in directions:
        exact = apply(mmap.derivative, h)
        scale = max(norm(exact), 1e-300)
        fd = central(step)
        fd = (4.0 * central(step / 2.0) - fd) / 3.0
        worst = max(worst, weighted_norm(fd - exact.values, w_b) / scale)
    return worst


def reference_ellipsoid_rows(dec, bound, n, rng):
    mu = dec.singular_values
    mat = dec.right_functions.matrix()
    power = 1.0 / (bound.r - 1.0)
    profile = 0.75 ** np.arange(mu.size)
    l_p = bound.L ** (-power)
    mu_p = mu**power
    out = []
    for _ in range(n):
        raw = rng.standard_normal(mu.size) * profile
        raw /= np.linalg.norm(raw)
        c = raw * 0.7
        c[0] += math.copysign(0.3, raw[0] if raw[0] != 0 else 1.0)
        c /= np.linalg.norm(c)
        b = rng.uniform(0.2, 0.9) * l_p * mu_p * c
        out.append((GridFunction(mat @ b, dec.right_functions.measure).values,
                    b))
    return out


def scaled_normal_rows(rng, mu, n, lo, hi):
    """The quantile runner's deviation draws, one row at a time."""
    return np.array([rng.standard_normal(mu.size) * s
                     for s in rng.uniform(lo, hi, size=n)])


def assert_harnesses_match(mmap, bound, devs, dirs, dec=None):
    dec = svd(mmap.derivative) if dec is None else dec
    report = verify_local_id(mmap, bound, devs, dec=dec)
    assert report.rows == reference_verify_rows(mmap, bound, devs, dec)
    assert all(type(x) is float for row in report.rows for x in row[:4])
    assert all(type(row[4]) is bool for row in report.rows)
    assert (estimate_nonlinearity(mmap, 2.0, devs)
            == reference_nonlinearity(mmap, 2.0, devs))
    assert gateaux_check(mmap, dirs, 1e-4) == reference_gateaux(
        mmap, dirs, 1e-4)


@pytest.mark.parametrize("n_x, n_w, n_y", [(61, 61, 121), (201, 201, 241)])
def test_quantile_harnesses_equal_the_per_row_loop(n_x, n_w, n_y):
    mmap, bound = quantile_moment_map(gaussian_quantile_model(
        n_x=n_x, n_w=n_w, n_y=n_y, rho=0.6, tau=0.5))
    dec = svd(mmap.derivative)
    rng = np.random.default_rng(7)
    inside, coefs = sample_ellipsoid_deviations(dec, bound, 130, rng)
    mu = inside.measure
    devs = FunctionStack(scaled_normal_rows(rng, mu, 150, 0.05, 0.6), mu)
    dirs = FunctionStack(0.3 * rng.standard_normal((10, mu.size)), mu)
    report = verify_local_id(mmap, bound, inside, dec=dec)
    assert report.rows == reference_verify_rows(mmap, bound, inside, dec)
    assert_harnesses_match(mmap, bound, devs, dirs, dec)


def test_counterexample_harnesses_equal_the_per_row_loop():
    # the quartic norm_a, on a stack of rows and one row at a time
    mmap, bound = counterexample_map()
    mu = mmap.base_point.measure
    rng = np.random.default_rng(7)
    cap = 0.9 / bound.L
    devs = FunctionStack(rng.uniform(-cap, cap, (150, mu.size)), mu)
    holes = FunctionStack(
        (np.arange(mu.size) >= np.arange(1, 20)[:, None]).astype(float), mu)
    assert np.array_equal(
        mmap.norm_a(devs),
        [row_norm_a(mmap, GridFunction(v, mu)) for v in devs.values])
    assert_harnesses_match(mmap, bound, devs, FunctionStack(
        devs.values[:10], mu))
    report = verify_local_id(mmap, bound, holes)
    assert report.rows == reference_verify_rows(mmap, bound, holes,
                                                svd(mmap.derivative))


def test_ccapm_stacked_map_harnesses_equal_the_per_row_loop():
    mmap = ccapm_moment_map(lognormal_ccapm_model()).to_moment_map()
    mu = mmap.base_point.measure
    rng = np.random.default_rng(7)
    devs = FunctionStack(0.05 * rng.standard_normal((70, mu.size)), mu)
    dirs = FunctionStack(0.2 * rng.standard_normal((10, mu.size)), mu)
    assert_harnesses_match(mmap, NonlinearityBound(L=1.0, r=2.0), devs, dirs)


def test_ellipsoid_draws_equal_the_per_draw_loop():
    mmap, bound = quantile_moment_map(gaussian_quantile_model(
        n_x=61, n_w=61, n_y=121))
    dec = svd(mmap.derivative)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    inside, coefs = sample_ellipsoid_deviations(dec, bound, 70, rng)
    ref = reference_ellipsoid_rows(dec, bound, 70, ref_rng)
    assert np.array_equal(inside.values, [v for v, _ in ref])
    assert np.array_equal(coefs, [b for _, b in ref])
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_runner_stacked_draws_equal_the_per_row_draws(monkeypatch):
    """The quantile runner draws its deviations and directions as stacks;
    they equal the per-row draws and leave the generator where those do."""
    seen = {}
    real_sampler = identcore.sample_ellipsoid_deviations

    def sampler(dec, bound, n, rng):
        out = real_sampler(dec, bound, n, rng)
        seen["rng"], seen["after_ellipsoid"] = rng, rng.bit_generator.state
        return out

    def capture(name, real):
        def wrapped(mmap, *args):
            seen[name] = next(a for a in args if isinstance(a, FunctionStack))
            return real(mmap, *args)
        return wrapped

    monkeypatch.setattr(identcore, "sample_ellipsoid_deviations", sampler)
    monkeypatch.setattr(identcore, "estimate_nonlinearity", capture(
        "devs", estimate_nonlinearity))
    monkeypatch.setattr(identcore, "gateaux_check", capture(
        "dirs", gateaux_check))
    config = load_config(str(ROOT / "configs" / "quantile.json"))
    config["params"].update({"n_x": 21, "n_w": 21, "n_y": 41,
                             "n_ellipsoid": 5, "n_deviations": 33})
    report, _ = run_experiment(config)
    assert report["summary"]["pass"]

    ref_rng = np.random.default_rng()
    ref_rng.bit_generator.state = seen["after_ellipsoid"]
    mu = seen["devs"].measure
    devs = scaled_normal_rows(ref_rng, mu, 33, 0.05, 0.6)
    dirs = [GridFunction(ref_rng.standard_normal(mu.size) * 0.3, mu).values
            for _ in range(10)]
    assert np.array_equal(seen["devs"].values, devs)
    assert np.array_equal(seen["dirs"].values, dirs)
    assert seen["rng"].bit_generator.state == ref_rng.bit_generator.state


def test_harness_work_does_not_grow_with_the_stack(monkeypatch):
    """No per-row grid function, ``apply`` or ``norm`` call: the grid
    functions the sampler and the harnesses build do not depend on how many
    deviations the stack holds."""
    made = []
    post_init = GridFunction.__post_init__

    def counting(self):
        made.append(self)
        post_init(self)

    def per_row(*args):
        raise AssertionError("per-row call")

    mmap, bound = quantile_moment_map(gaussian_quantile_model(
        n_x=21, n_w=21, n_y=41))
    dec = svd(mmap.derivative)
    monkeypatch.setattr(GridFunction, "__post_init__", counting)
    monkeypatch.setattr(identcore, "apply", per_row)
    monkeypatch.setattr(identcore, "norm", per_row)
    counts = []
    for n in (3, 130):
        made.clear()
        inside, _ = sample_ellipsoid_deviations(
            dec, bound, n, np.random.default_rng(0))
        verify_local_id(mmap, bound, inside, dec=dec)
        estimate_nonlinearity(mmap, 2.0, inside)
        gateaux_check(mmap, inside, 1e-4)
        counts.append(len(made))
    assert counts[0] == counts[1] <= 2


# ---------------------------------------------------------------------------
# The semiparametric harness: the draws stay per draw, the arithmetic after
# them is stacked.
# ---------------------------------------------------------------------------


def synthetic_semiparam_map(curvature=0.0, n=10, p=2):
    """m(beta, g) = B (db + db^2 / 2) + m_g (dg + curvature dg^2), with
    db = beta - beta0 and dg = g - g0, priced a whole stack at a time.  m_g
    is injective, so the linear harness draws g-only rows as well, and g is
    measured in the weighted L2 norm."""
    rng = np.random.default_rng(15)
    cod = GridMeasure(np.arange(n + 4.0), rng.uniform(0.2, 1.0, n + 4))
    dom = GridMeasure(np.arange(float(n)), rng.uniform(0.2, 1.0, n))
    entries = rng.standard_normal((n + 4, n))
    entries[:n] += 2 * np.eye(n)
    m_g = LinearOperator(entries, dom, cod)
    bmat = rng.standard_normal((n + 4, p))
    beta0 = rng.standard_normal(p)
    g0 = GridFunction(rng.standard_normal(n), dom)

    def eval_rows(rows):
        db, dg = rows[:, :p] - beta0, rows[:, p:] - g0.values
        return ((db + 0.5 * db**2) @ bmat.T
                + apply_rows(m_g, dg + curvature * dg**2))

    split = SplitDerivative(
        m_beta=tuple(GridFunction(col, cod) for col in bmat.T), m_g=m_g)
    return SemiparametricMap(beta0=beta0, g0=g0, eval_rows=eval_rows,
                             split=split)


SEMIPARAM = {
    # g is identified only up to scale: no g-only rows; a g_norm of its own
    "ccapm": functools.cache(
        lambda: ccapm_moment_map(lognormal_ccapm_model())),
    # g is identified: g-only rows; the weighted-L2 g norm
    "synthetic": functools.cache(synthetic_semiparam_map),
}


def reference_sample_beta(rng, model, beta_radius):
    direction = rng.standard_normal(model.split.p)
    direction /= np.linalg.norm(direction)
    return model.beta0 + rng.uniform(0.05, 1.0) * beta_radius * direction


def reference_sample_g_deviation(rng, dec, g_radius, g_norm_of):
    mu = dec.right_functions.measure
    raw = rng.standard_normal(mu.size) * 0.7 ** np.arange(mu.size)
    g = GridFunction(dec.right_functions.matrix() @ raw, mu)
    scale = g_norm_of(g)
    if scale == 0.0:
        return g
    return (rng.uniform(0.05, 1.0) * g_radius / scale) * g


def reference_linearity(model, rng):
    g0 = model.g0.values
    coefs, gs = [], [g0]
    for _ in range(4):
        d1, d2 = rng.standard_normal(g0.size), rng.standard_normal(g0.size)
        a, b = rng.uniform(-2, 2, size=2)
        coefs.append((a, b))
        gs += [g0 + d1 * a + d2 * b, g0 + d1, g0 + d2]
    m0, *m = values_at(model.eval_rows,
                       (np.concatenate([model.beta0, g]) for g in gs))
    w = model.split.m_g.codomain.weights
    worst = 0.0
    for (a, b), lhs, r1, r2 in zip(coefs, m[0::3], m[1::3], m[2::3]):
        rhs = (r1 - m0) * a + (r2 - m0) * b
        scale = max(weighted_norm(rhs, w), 1e-12)
        worst = max(worst, weighted_norm(lhs - m0 - rhs, w) / scale)
    return worst


def reference_semiparam_rows(model, beta_radius, g_radius, samples, rng):
    """(||m||, the zero rule's ||d||) per sample row: one grid function
    per draw, one norm per row."""
    dec = partial_out(model.split).decomposition
    points = [(reference_sample_beta(rng, model, beta_radius),
               reference_sample_g_deviation(rng, dec, g_radius,
                                            model.g_norm_of))
              for _ in range(samples)]
    if rank_condition(dec).holds:
        points += [(model.beta0, reference_sample_g_deviation(
            rng, dec, g_radius, model.g_norm_of)) for _ in range(samples)]
    w = model.split.m_g.codomain.weights
    m_vals = values_at(model.eval_rows, (
        np.concatenate([beta, model.g0.values + d.values])
        for beta, d in points))
    return [(weighted_norm(m_val, w),
             math.hypot(float(np.linalg.norm(beta - model.beta0)), norm(d)))
            for (beta, d), m_val in zip(points, m_vals)]


def generators_made(monkeypatch):
    """The generators numpy's ``default_rng`` hands out from now on."""
    made, real = [], np.random.default_rng

    def recording(seed):
        made.append(real(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


def recorded(monkeypatch, module, name):
    """Record the arguments and the result of each call of
    ``module.name``."""
    seen, real = [], getattr(module, name)

    def wrapper(*args):
        seen.append((args, real(*args)))
        return seen[-1][1]

    monkeypatch.setattr(module, name, wrapper)
    return seen


@pytest.mark.parametrize("which", SEMIPARAM)
def test_semiparam_linear_harness_equals_the_per_row_loop(which, monkeypatch):
    model = SEMIPARAM[which]()
    made = generators_made(monkeypatch)
    tallies = recorded(monkeypatch, semiparam, "_m_norms")
    thresholds = recorded(monkeypatch, semiparam, "zero_threshold")
    # 70 samples cross EVAL_CHUNK, as do 140 rows with the g-only draws
    report = verify_semiparam_linear(model, 0.1, 0.5, 70, seed=1)
    monkeypatch.undo()

    lin_rng, rng = np.random.default_rng(1), np.random.default_rng(1)
    assert reference_linearity(model, lin_rng) <= 1e-9
    rows = reference_semiparam_rows(model, 0.1, 0.5, 70, rng)
    assert [g.bit_generator.state for g in made] == [
        lin_rng.bit_generator.state, rng.bit_generator.state]
    sigma_max = float(singular_values(model.stacked_derivative())[0])
    nonzero = [m_n > zero_threshold(sigma_max, dev_n) for m_n, dev_n in rows]
    # the zero rule's ||d||, ||m|| and the verdict of each row
    (_, dev_norms), _ = thresholds[0]
    assert np.array_equal(dev_norms, [dev_n for _, dev_n in rows])
    assert [out for _, out in tallies] == [
        ([m_n for m_n, _ in rows], nonzero)]
    g_rank = rank_condition(partial_out(model.split).decomposition).holds
    assert len(rows) == 70 * (2 if g_rank else 1)
    want = {
        "pi_nonsingular": True, "samples": len(rows),
        "passes": sum(nonzero), "failures": len(rows) - sum(nonzero),
        "min_m_norm": min(m_n for m_n, _ in rows),
        "full_local_id": g_rank and all(nonzero[70:]),
        "g_rank_holds": g_rank,
        "pos_tol": zero_threshold(sigma_max, 1.0),
    }
    partial = partial_out(model.split)
    for field in fields(report):
        got = getattr(report, field.name)
        if field.name == "partial":
            for name in ("gram", "lambda_min", "eps1", "c_star", "eps"):
                assert np.array_equal(getattr(got, name),
                                      getattr(partial, name)), name
        else:
            assert got == want[field.name], field.name
            assert type(got) is type(want[field.name]), field.name


@pytest.mark.parametrize("which", ["ccapm", "synthetic", "curved"])
def test_linearity_check_equals_the_per_row_loop(which, monkeypatch):
    model = (synthetic_semiparam_map(curvature=0.3) if which == "curved"
             else SEMIPARAM[which]())
    made = generators_made(monkeypatch)
    defect = linearity_in_g_check(model, seed=3)
    monkeypatch.undo()
    rng = np.random.default_rng(3)
    assert defect == reference_linearity(model, rng)
    assert (defect > 1e-3) == (which == "curved")
    assert made[0].bit_generator.state == rng.bit_generator.state


def test_global_identification_equals_the_per_row_loop():
    model = lognormal_ccapm_model()
    smap = SEMIPARAM["ccapm"]()
    candidates = [
        (model.delta0, model.gamma0, model.g0 * 2.0),
        (model.delta0, model.gamma0 + 0.5, model.g0),
        (0.9, model.gamma0 - 0.3, model.g0 * 0.5),
    ]
    report = check_global_identification(smap, candidates)
    assert [row["moment_norm"] for row in report.rows] == [
        norm(smap.eval(np.array([delta, gamma]), g))
        for delta, gamma, g in candidates]


@pytest.mark.parametrize("which", SEMIPARAM)
def test_semiparam_harness_work_does_not_grow_with_the_samples(
        which, monkeypatch):
    """One grid function per draw, the one ``g_norm`` reads, and no norm
    of a row after the draws: beyond the draws, the grid functions and the
    weighted norms the harness takes do not depend on the sample count."""
    model = SEMIPARAM[which]()
    made, normed = [], []
    post_init = GridFunction.__post_init__
    real_norm = fnspace.weighted_norm

    def counting(self):
        made.append(self)
        post_init(self)

    def counting_norm(*args):
        normed.append(args)
        return real_norm(*args)

    monkeypatch.setattr(GridFunction, "__post_init__", counting)
    monkeypatch.setattr(fnspace, "weighted_norm", counting_norm)
    extra = []
    for n in (3, 130):
        made.clear()
        normed.clear()
        report = verify_semiparam_linear(model, 0.1, 0.5, n, seed=1)
        draws = n * (2 if report.g_rank_holds else 1)
        assert report.samples == draws
        # g_norm's read: a weighted norm per draw only without a g_norm
        per_draw_norms = draws if model.g_norm is None else 0
        extra.append((len(made) - draws, len(normed) - per_draw_norms))
    assert extra[0] == extra[1]
