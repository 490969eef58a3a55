"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here, not deferred to configuration.
"""

import time

import numpy as np

from momentid.fnspace import (
    FunctionStack,
    GridFunction,
    GridMeasure,
    cosine_basis,
    inner,
    norm,
)
from momentid.genericity import GeneratorConfig, draw_operator, mc_injectivity
from momentid.identcore import (
    cone_inclusion_suite,
    counterexample,
    estimate_nonlinearity,
    gateaux_check,
    rank_condition,
    sample_ellipsoid_deviations,
)
from momentid.linop import LinearOperator, apply, svd
from momentid.models.ccapm import (
    build_pf_operator,
    ccapm_moment_map,
    check_global_identification,
    fixed_state_completeness_operator,
    lognormal_ccapm_model,
    perron_frobenius,
    positive_eigenpair,
)
from momentid.models.quantile import gaussian_quantile_model, quantile_moment_map
from momentid.models.single_index import (diagnose_single_index,
                                          gaussian_index_design, index_split)
from momentid.semiparam import SplitDerivative, partial_out, split_lower_bound_check
from oracles import to_moment_map


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_counterexample_reproduction():
    start = time.perf_counter()
    worst_m = 0.0
    worst_dev = 0.0
    in_set = False
    L = np.inf
    for k in range(2, 13):
        case = counterexample(k)
        worst_m = max(worst_m, case.m_norm)
        worst_dev = max(worst_dev, abs(case.dev_norm - 2.0 ** (-k / 4.0)))
        in_set = in_set or case.in_n
        L = min(L, case.L)
    elapsed = time.perf_counter() - start
    ok = (worst_m <= 1e-12 and worst_dev <= 1e-12 and not in_set
          and L >= 1.0 and elapsed < 1.0)
    report(1, ok,
           f"max residual {worst_m:.1e}, max norm error {worst_dev:.1e}, "
           f"L = {L:.4f}, {elapsed:.2f} s")


def test_criterion_02_ellipsoid_soundness_on_quantile_model():
    start = time.perf_counter()
    model = gaussian_quantile_model(n_x=101, n_w=101)
    mmap, bound = quantile_moment_map(model)
    rng = np.random.default_rng(20250809)
    dec = svd(mmap.derivative)
    fails = 0
    min_m = np.inf
    inside, _ = sample_ellipsoid_deviations(dec, bound, 200, rng)
    for values in inside.values:
        delta = GridFunction(values, inside.measure)
        alpha = mmap.base_point + delta
        m_val = mmap.eval(alpha)
        lin = apply(mmap.derivative, delta)
        if not (norm(m_val - lin) < norm(lin) and norm(m_val) > 1e-10):
            fails += 1
        min_m = min(min_m, norm(m_val))
    scales = rng.uniform(0.05, 0.6, size=500)
    devs = FunctionStack(
        rng.standard_normal((500, model.x_measure.size)) * scales[:, None],
        model.x_measure)
    l_hat = estimate_nonlinearity(mmap, 2.0, devs)
    elapsed = time.perf_counter() - start
    ok = fails == 0 and l_hat <= 1.05 * bound.L and elapsed < 30.0
    report(2, ok,
           f"{200 - fails}/200 ellipsoid samples, min ||m|| {min_m:.2e}, "
           f"L_hat {l_hat:.3f} vs 1.05 L = {1.05 * bound.L:.3f}, "
           f"{elapsed:.1f} s")


def test_criterion_03_svd_oracle_equivalence():
    rng = np.random.default_rng(3)
    worst_rel = 0.0
    worst_parseval = 0.0
    for _ in range(50):
        n_dom = int(rng.integers(2, 13))
        n_cod = int(rng.integers(2, 13))
        dom = GridMeasure(np.arange(float(n_dom)),
                          rng.uniform(0.2, 2.0, n_dom))
        cod = GridMeasure(np.arange(float(n_cod)),
                          rng.uniform(0.2, 2.0, n_cod))
        op = LinearOperator(rng.standard_normal((n_cod, n_dom)), dom, cod)
        dec = svd(op)
        # independent oracle: dense eigendecomposition of the weighted Gram
        b = (np.sqrt(cod.weights)[:, None] * op.entries
             * np.sqrt(dom.weights)[None, :])
        gram_eigs = np.sort(np.linalg.eigvalsh(b.T @ b))[::-1]
        gram_eigs = gram_eigs[: dec.singular_values.size]
        scale = max(gram_eigs[0], 1e-300)
        worst_rel = max(
            worst_rel,
            float(np.abs(dec.singular_values**2 - gram_eigs).max() / scale),
        )
        f = GridFunction(rng.standard_normal(n_dom), dom)
        coeffs = np.array([inner(f, u) for u in dec.right_functions])
        lhs = norm(apply(op, f)) ** 2
        rhs = float(np.sum(dec.singular_values**2 * coeffs**2))
        worst_parseval = max(worst_parseval, abs(lhs - rhs) / (1 + lhs))
    ok = worst_rel < 1e-9 and worst_parseval < 1e-8
    report(3, ok,
           f"worst spectral deviation {worst_rel:.1e}, worst action "
           f"identity error {worst_parseval:.1e}")


def test_criterion_04_random_operator_monte_carlo():
    start = time.perf_counter()
    grid = GridMeasure.uniform(48)
    basis = cosine_basis(grid, 30)
    sigma = 1.0 / np.arange(1, 31, dtype=float) ** 2
    config = GeneratorConfig(sigma=sigma, kappa=1.0, trunc_n=30)
    mc = mc_injectivity(config, (basis, basis), draws=1000, tol=1e-12,
                        seed=20250809)
    pos_cfg = GeneratorConfig(sigma=sigma, kappa=1.0, trunc_n=30,
                              positive=True)
    dens_cfg = GeneratorConfig(sigma=sigma, kappa=1.0, trunc_n=30,
                               positive=True, density=True)
    min_kernel = np.inf
    worst_row = 0.0
    for seed in range(50):
        pos = draw_operator(pos_cfg, (basis, basis), seed=seed)
        min_kernel = min(min_kernel, float(pos.operator.entries.min()))
        dens = draw_operator(dens_cfg, (basis, basis), seed=seed)
        rows = dens.operator.entries @ grid.weights
        worst_row = max(worst_row, float(np.abs(rows - 1.0).max()))
    elapsed = time.perf_counter() - start
    ok = (mc.fraction_below_tol == 0.0
          and mc.max_spectrum_deviation <= 1e-10
          and min_kernel >= 0.0 and worst_row <= 1e-12 and elapsed < 60.0)
    report(4, ok,
           f"fraction below tol {mc.fraction_below_tol}, spectrum dev "
           f"{mc.max_spectrum_deviation:.1e}, min kernel {min_kernel:.2e}, "
           f"worst row sum dev {worst_row:.1e}, {elapsed:.1f} s")


def test_criterion_05_partialled_lower_bound_suite():
    mu = GridMeasure([0.0, 1.0], [0.5, 0.5])
    split = SplitDerivative(
        m_beta=(GridFunction([1.0, 0.0], mu),),
        m_g=LinearOperator(np.ones((2, 2)), mu, mu),
    )
    hand = partial_out(split)
    hand_ok = (abs(hand.gram[0, 0] - 0.25) <= 1e-9
               and abs(hand.eps1 - np.sqrt(0.125)) <= 1e-9)
    split_lower_bound_check(split, hand, 10_000, seed=0)

    rng = np.random.default_rng(5)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(4, 17))
        p = int(rng.integers(1, 4))
        cod = GridMeasure(np.arange(float(n)), rng.uniform(0.2, 1.0, n))
        dom = GridMeasure(np.arange(float(n)), rng.uniform(0.2, 1.0, n))
        op = LinearOperator(rng.standard_normal((n, n)), dom, cod)
        cols = tuple(GridFunction(rng.standard_normal(n), cod)
                     for _ in range(p))
        split_i = SplitDerivative(m_beta=cols, m_g=op)
        rep = partial_out(split_i)
        try:
            split_lower_bound_check(split_i, rep, 10_000,
                                    seed=int(rng.integers(2**31)))
        except RuntimeError:
            violations += 1
    ok = hand_ok and violations == 0
    report(5, ok,
           f"hand Gram {hand.gram[0, 0]:.6f}, eps1 {hand.eps1:.6f}, "
           f"{violations} violating splits out of 100")


def test_criterion_06_tangential_cone_suite():
    suite = cone_inclusion_suite(10_000, 8, rng_seed=20250809)
    ok = suite.total_violations == 0
    report(6, ok, f"{suite.total_violations} violations in 10000 instances")


def test_criterion_07_index_design_consistency(gram_oracle):
    rhos = np.linspace(0.4, 0.7, 10)
    all_consistent = True
    scalar_worst = 0.0
    twodim_worst = np.inf
    for i, rho in enumerate(rhos):
        link = "softplus" if i % 2 == 0 else "sin"
        m1 = gaussian_index_design(rho=float(rho), w_dim=1, link=link)
        m2 = gaussian_index_design(rho=float(rho), w_dim=2, link=link,
                                   n_v=49, n_w=15)
        d1, d2 = diagnose_single_index(m1), diagnose_single_index(m2)
        all_consistent = all_consistent and d1.consistent and d2.consistent
        scalar_worst = max(scalar_worst, gram_oracle(index_split(m1)))
        twodim_worst = min(twodim_worst, gram_oracle(index_split(m2)))
    ok = all_consistent and scalar_worst < 1e-8 and twodim_worst > 1e-4
    report(7, ok,
           f"20 designs consistent: {all_consistent}, scalar ratio "
           f"{scalar_worst:.1e} < 1e-8, two-dim ratio {twodim_worst:.1e} "
           f"> 1e-4")


def test_criterion_08_positive_eigenpair():
    model = lognormal_ccapm_model(n_state=201, n_signal=9)
    pair = perron_frobenius(model, tol=1e-11)
    amat = build_pf_operator(model).action_matrix()
    eigs, vecs = np.linalg.eig(amat)
    lead = int(np.argmax(np.abs(eigs)))
    v = np.real(vecs[:, lead])
    v /= np.sqrt(np.dot(model.c_measure.weights, v * v))
    v *= np.sign(v[0])
    oracle_ok = (abs(np.real(eigs[lead]) - pair.rho) <= 1e-8 * pair.rho
                 and np.abs(v - pair.g.values).max() <= 1e-8)

    mu2 = GridMeasure([0.0, 1.0], [1.0, 1.0])
    p1 = positive_eigenpair(
        LinearOperator(np.array([[0.6, 0.4], [0.3, 0.7]]), mu2, mu2),
        tol=1e-13)
    p2 = positive_eigenpair(
        LinearOperator(np.array([[2.0, 1.0], [1.0, 2.0]]), mu2, mu2),
        tol=1e-13)
    unit = np.sqrt(0.5)
    hand_ok = (
        abs(p1.rho - 1.0) <= 1e-10
        and np.abs(p1.g.values / np.linalg.norm(p1.g.values)
                   - unit).max() <= 1e-10
        and abs(p2.rho - 3.0) <= 1e-10
        and np.abs(p2.g.values / np.linalg.norm(p2.g.values)
                   - unit).max() <= 1e-10
    )
    ok = (pair.iterations < 10_000 and bool((pair.g.values > 0).all())
          and pair.residual <= 1e-10 and pair.gap < 1.0 and oracle_ok
          and hand_ok)
    report(8, ok,
           f"201-point grid: {pair.iterations} iterations, residual "
           f"{pair.residual:.1e}, gap {pair.gap:.3f}, oracle match "
           f"{oracle_ok}, hand cases {hand_ok}")


def test_criterion_09_pricing_identification_harness(gram_oracle):
    model = lognormal_ccapm_model()
    comp = rank_condition(
        fixed_state_completeness_operator(model, model.c_measure.size // 2))
    smap = ccapm_moment_map(model)
    gram_ratio = gram_oracle(smap.split)
    gid = check_global_identification(
        smap,
        [(model.delta0, model.gamma0, model.g0 * 2.0),
         (model.delta0, model.gamma0 + 0.5, model.g0)],
    )
    accepted = (gid.rows[0]["is_solution"] and gid.rows[0]["scale_ok"]
                and gid.rows[0]["gamma_ok"] and gid.rows[0]["delta_ok"])
    rejected = not gid.rows[1]["is_solution"]
    ok = (comp.holds and gram_ratio > 1e-6
          and accepted and rejected and gid.violations == 0)
    report(9, ok,
           f"completeness sigma_min {comp.sigma_min:.2e} (injective "
           f"{comp.holds}), Gram lambda_min/sum ||col||^2 "
           f"{gram_ratio:.1e}, scaled truth accepted "
           f"{accepted}, shifted curvature rejected {rejected}")


def test_criterion_10_derivative_fidelity():
    rng = np.random.default_rng(10)
    model = gaussian_quantile_model(n_x=61, n_w=61)
    q_map, _ = quantile_moment_map(model)
    q_dirs = FunctionStack(
        rng.standard_normal((10, model.x_measure.size)) * 0.3,
        model.x_measure)
    q_err = gateaux_check(q_map, q_dirs, 1e-4)

    ccapm = lognormal_ccapm_model()
    smap = ccapm_moment_map(ccapm)
    mm = to_moment_map(smap)
    mu = mm.base_point.measure
    c_dirs = FunctionStack(rng.standard_normal((10, mu.size)) * 0.2, mu)
    c_err = gateaux_check(mm, c_dirs, 1e-4)
    ok = q_err < 1e-5 and c_err < 1e-5
    report(10, ok,
           f"quantile max relative error {q_err:.1e}, pricing map "
           f"{c_err:.1e}, both < 1e-5")
