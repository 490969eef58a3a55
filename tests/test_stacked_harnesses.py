"""The stacked harnesses against the per-row loops they replaced.

``verify_local_id``, ``estimate_nonlinearity``, ``gateaux_check`` and
``sample_ellipsoid_deviations`` work on whole stacks: one matrix-vector
product and one dot product per row, taken through batched matmul.  The
references below are the loops that took one ``apply``, ``norm`` or
``weighted_norm`` call, one ``norm_a`` call, and one grid function per row
or draw.  Every result must equal its reference bit for bit, and every
generator must end where its reference's does; whether a batched matmul
gives per-row bits is a property of the numpy build, so CI runs this file
on the oldest numpy that pyproject.toml allows as well.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import momentid.identcore as identcore
from momentid.cli import load_config, run_experiment
from momentid.fnspace import (
    FunctionStack,
    GridFunction,
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
    zero_threshold,
)
from momentid.linop import apply, apply_values, svd
from momentid.models.ccapm import (
    ccapm_moment_map,
    check_global_identification,
    lognormal_ccapm_model,
)
from momentid.models.quantile import gaussian_quantile_model, quantile_moment_map
from oracles import to_moment_map

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
    mmap = to_moment_map(ccapm_moment_map(lognormal_ccapm_model()))
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
    # the module holds no per-row apply to call
    assert not hasattr(identcore, "apply")
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


def test_global_identification_equals_the_per_row_loop():
    model = lognormal_ccapm_model()
    smap = ccapm_moment_map(model)
    candidates = [
        (model.delta0, model.gamma0, model.g0 * 2.0),
        (model.delta0, model.gamma0 + 0.5, model.g0),
        (0.9, model.gamma0 - 0.3, model.g0 * 0.5),
    ]
    report = check_global_identification(smap, candidates)
    assert [row["moment_norm"] for row in report.rows] == [
        norm(smap.eval(np.array([delta, gamma]), g))
        for delta, gamma, g in candidates]
