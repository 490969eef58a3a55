"""Negative controls: every check of ``momentid run`` seen failing.

Each row of ``ROWS`` drives one declared check to fail through
``run_experiment``, with a config or with a fault injected by monkeypatch
at a named seam, and names the checks that fail with it.  The pin sweep
re-runs every row with that check's entry in ``cli.EXPERIMENTS`` pinned to
pass: the check must then pass, which shows that the row reads that very
verdict.  A declared check without a row is a sanity check, whose library
guard raises before its comparison can fail, or waits for the work that
will give it a failing case; README ("Command line") lists both.  The rows
follow DeMillo, Lipton & Sayward (1978): a test that no fault can fail
tells nothing.
"""

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import pytest

import momentid.genericity as genericity
import momentid.identcore as identcore
import momentid.models.ccapm as ccapm
import momentid.models.single_index as single_index
import momentid.semiparam as semiparam
from momentid.cli import EXPERIMENTS, run_experiment
from momentid.fnspace import FunctionStack
from momentid.identcore import NonlinearityBound

SEED = 20250809

# check -> the library guard that raises before its comparison can fail
SANITY = {
    "model restriction holds at the quantile curve":
        "MomentMap's residual guard",
    "eigenfunction strictly positive": "positive_eigenpair",
    "curvature constant at least one": "counterexample_map",
    "density construction has unit row sums": "genericity._draw_stack",
}
# check -> the open item of ROADMAP.md that gives it a failing case
WAITING = {
    "sampled curvature within the density bounds":
        "item 7, a certified and sharp curvature constant",
    "lower bound holds on random splits":
        "item 2, a sharp constant for the semiparametric lower bound",
}


def wrap(monkeypatch, owner, name, change):
    """Replace ``owner.name`` by a call of the original through ``change``:
    ``change(real, *args, **kwargs)``."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args, **kwargs: change(real, *args, **kwargs))


def case_field_off(field):
    """A seam that adds 2e-12, twice the check's bound, to ``field`` of
    every case that counterexample_cases returns."""
    def seam(monkeypatch):
        wrap(monkeypatch, identcore, "counterexample_cases",
             lambda real, *args, **kwargs: [
                 replace(case, **{field: getattr(case, field) + 2e-12})
                 for case in real(*args, **kwargs)])
    return seam


def halved_curvature_constant(monkeypatch):
    def halved(real, *args, **kwargs):
        mmap, bound = real(*args, **kwargs)
        return mmap, NonlinearityBound(L=bound.L / 2.0, r=bound.r)
    wrap(monkeypatch, identcore, "counterexample_map", halved)


def zero_ellipsoid_draw(monkeypatch):
    def with_a_zero_draw(real, dec, bound, n, rng):
        devs, coefs = real(dec, bound, n, rng)
        values = devs.values.copy()
        values[0] = 0.0
        return FunctionStack(values, devs.measure), coefs
    wrap(monkeypatch, identcore, "sample_ellipsoid_deviations",
         with_a_zero_draw)


def coarse_difference_step(monkeypatch):
    # ten times the run's step: the error grows with the step, to 2.7e-5
    wrap(monkeypatch, identcore, "gateaux_check",
         lambda real, mmap, dirs, h: real(mmap, dirs, 10 * h))


def proxy_ignores_dimension_count(monkeypatch):
    # a wider instrument grid can never be injective; this proxy says it is
    wrap(monkeypatch, single_index, "rank_condition",
         lambda real, op: replace(real(op), holds=True))


def scalar_instrument_swapped(monkeypatch):
    # the scalar instrument's designs built with the richer one
    wrap(monkeypatch, single_index, "gaussian_index_design",
         lambda real, **kwargs: real(**{**kwargs, "w_dim": 2}))


def richer_instrument_dropped(monkeypatch):
    # the richer instrument's designs built as the scalar one
    wrap(monkeypatch, single_index, "gaussian_index_design",
         lambda real, **kwargs: real(rho=kwargs["rho"], link=kwargs["link"]))


def discount_factor_off(monkeypatch):
    wrap(monkeypatch, ccapm, "perron_frobenius",
         lambda real, model, tol: replace(real(model, tol=tol),
                                          delta=model.delta0 + 2e-8))


def nearly_collinear_columns(monkeypatch):
    # the curvature column moved next to the discount column: the Gram
    # matrix's lambda_min falls from 2.09e-3 to 4.71e-7 of sum ||col||^2,
    # against 1e-6
    def collinear(real, split):
        col_delta, col_gamma = split.m_beta
        return real(replace(split, m_beta=(
            col_delta, col_delta + 0.03 * col_gamma)))
    wrap(monkeypatch, semiparam, "partial_out", collinear)


def rank_cutoff_above_the_midpoint_margin(monkeypatch):
    # the midpoint operator's sigma_min / sigma_max is 5.74e-5
    monkeypatch.setattr(identcore, "RANK_CUTOFF", 1e-4)


def leading_eigenvalue_repeated(monkeypatch):
    # the dense spectrum with its leading eigenvalue listed twice: gap 1.0
    def repeated(real, a):
        eigs = real(a)
        return np.append(eigs, eigs[np.argmax(np.abs(eigs))])
    wrap(monkeypatch, np.linalg, "eigvals", repeated)


def global_tolerance(value):
    def seam(monkeypatch):
        monkeypatch.setattr(ccapm, "GLOBAL_ID_TOL", value)
    return seam


def shifted_candidate_moved_back(monkeypatch):
    def moved(real, smap, cands):
        (delta, gamma, g) = cands[1]
        return real(smap, [cands[0], (delta, gamma - 0.5, g)])
    wrap(monkeypatch, ccapm, "check_global_identification", moved)


def spectrum_off(monkeypatch):
    wrap(monkeypatch, genericity, "singular_values",
         lambda real, ops: real(ops) + 5e-10)


def positivity_construction_skipped(monkeypatch):
    # the positive draw keeps its signed leading coefficient, which is
    # negative at the row's seed
    def unsigned(real, setup, u):
        config = setup.config
        if config.positive and not config.density:
            setup = replace(setup, config=replace(config, positive=False))
        return real(setup, u)
    wrap(monkeypatch, genericity, "_draw_stack", unsigned)


def transfer_bound_halved(monkeypatch):
    wrap(monkeypatch, identcore, "_transfer_ratio",
         lambda real, eta: real(eta) / 2.0)


def hand_gram_off(monkeypatch):
    # each inner product of the two-node hand example off by 2e-9
    wrap(monkeypatch, semiparam, "inner",
         lambda real, f, g: real(f, g) + (2e-9 if f.values.size == 2 else 0))


def smallest_eigenvalue_off(monkeypatch):
    # every Gram eigenvalue off by 4e-9, which moves eps1 by 2.8e-9 and
    # leaves the Gram entry as it was
    wrap(monkeypatch, np.linalg, "eigvalsh", lambda real, a: real(a) + 4e-9)


@dataclass(frozen=True)
class Row:
    check: str
    experiment: str
    params: dict
    seam: Callable | None = None
    co_failing: tuple = ()
    seed: int = SEED


SMALL_QUANTILE = {"n_x": 21, "n_w": 21, "n_y": 41, "n_ellipsoid": 5,
                  "n_deviations": 10}
SMALL_PI = {"n_splits": 2, "trials": 200}

ROWS = [
    Row("zero residual along the sequence", "counterexample", {},
        case_field_off("m_norm")),
    Row("deviation norm equals tail mass to the 1/4", "counterexample", {},
        case_field_off("dev_norm")),
    Row("sequence stays outside the identification set", "counterexample",
        {}, halved_curvature_constant,
        ("curvature constant at least one",)),
    Row("ellipsoid deviations keep the map away from zero", "quantile",
        SMALL_QUANTILE, zero_ellipsoid_draw),
    Row("finite differences match the derivative", "quantile",
        SMALL_QUANTILE, coarse_difference_step),
    Row("completeness and Gram singularity never conflict", "single-index",
        {"n_designs": 2}, proxy_ignores_dimension_count),
    Row("scalar instrument absorbs the parametric columns", "single-index",
        {"n_designs": 2}, scalar_instrument_swapped),
    Row("richer instrument keeps the Gram matrix nonsingular",
        "single-index", {"n_designs": 2}, richer_instrument_dropped),
    Row("power iteration reaches the residual tolerance", "ccapm",
        {"pf_tol": 1e-9}),
    Row("leading eigenvalue simple", "ccapm",
        {"n_state": 257, "n_signal": 3}, None,
        ("conditional expectation injective at the midpoint state",)),
    Row("discount factor recovered", "ccapm", {}, discount_factor_off),
    Row("conditional expectation injective at the midpoint state", "ccapm",
        {"n_signal": 11}),
    Row("partialled Gram matrix nonsingular", "ccapm", {},
        nearly_collinear_columns),
    Row("scaled truth accepted as the same solution", "ccapm", {},
        global_tolerance(0.0)),
    Row("shifted curvature rejected as a non-solution", "ccapm", {},
        shifted_candidate_moved_back),
    Row("no global identification violations", "ccapm", {},
        global_tolerance(0.1),
        ("shifted curvature rejected as a non-solution",)),
    Row("no draw loses injectivity", "genericity", {"tol": 1e-5}),
    Row("spectrum equals the drawn coefficients", "genericity",
        {"draws": 20}, spectrum_off),
    Row("positivity construction keeps the kernel nonnegative",
        "genericity", {"draws": 20}, positivity_construction_skipped,
        seed=SEED + 1),
    Row("all cone-set inclusions hold", "cone-suite",
        {"instances": 2000}, transfer_bound_halved),
    Row("hand example Gram entry", "semiparam-pi", SMALL_PI,
        hand_gram_off, ("hand example eps1",)),
    Row("hand example eps1", "semiparam-pi", SMALL_PI,
        smallest_eigenvalue_off),
]


def failed_checks(row: Row, monkeypatch) -> set:
    """The names of the checks that fail on the row's run, after checking
    that the run completed with every declared check."""
    if row.seam is not None:
        row.seam(monkeypatch)
    params = {**EXPERIMENTS[row.experiment]["defaults"], **row.params}
    report, _ = run_experiment({"experiment": row.experiment,
                                "seed": row.seed, "params": params})
    names = [c["name"] for c in report["checks"]]
    assert names == list(EXPERIMENTS[row.experiment]["checks"])
    return {c["name"] for c in report["checks"] if not c["passed"]}


@pytest.mark.parametrize("row", ROWS, ids=[row.check for row in ROWS])
def test_row_fails_its_check(row, monkeypatch):
    assert failed_checks(row, monkeypatch) == {row.check, *row.co_failing}


@pytest.mark.parametrize("row", ROWS, ids=[row.check for row in ROWS])
def test_pinned_check_passes(row, monkeypatch):
    # the check's table entry pinned to pass, its value kept
    table = EXPERIMENTS[row.experiment]["checks"]
    entry = table[row.check]
    monkeypatch.setitem(table, row.check, lambda m: (True, *entry(m)[1:]))
    assert failed_checks(row, monkeypatch) == set(row.co_failing)


# The midpoint row of ROWS fails its check by dimension count; this one
# fails it at the shipped size, on the rank rule's cutoff alone.
CUTOFF_ROW = Row("conditional expectation injective at the midpoint state",
                 "ccapm", {}, rank_cutoff_above_the_midpoint_margin)


def test_cutoff_row_fails_the_midpoint_check(monkeypatch):
    test_row_fails_its_check(CUTOFF_ROW, monkeypatch)


def test_cutoff_row_pinned_passes(monkeypatch):
    test_pinned_check_passes(CUTOFF_ROW, monkeypatch)


# The gap row of ROWS fails its check by skipping the spectrum for size;
# this one reads the spectrum at the shipped size, where a gap of 1.0
# fails "gap < 1.0" and passes any looser comparison such as "gap < 10".
SPECTRUM_ROW = Row("leading eigenvalue simple", "ccapm", {},
                   leading_eigenvalue_repeated)


def test_spectrum_row_fails_the_gap_check(monkeypatch):
    test_row_fails_its_check(SPECTRUM_ROW, monkeypatch)


def test_spectrum_row_pinned_passes(monkeypatch):
    test_pinned_check_passes(SPECTRUM_ROW, monkeypatch)


def test_every_declared_check_has_a_row_or_a_reason():
    declared = [name for spec in EXPERIMENTS.values()
                for name in spec["checks"]]
    rows = [row.check for row in ROWS]
    assert len(rows) == len(set(rows))
    assert not set(SANITY) & set(WAITING)
    assert sorted(rows + list(SANITY) + list(WAITING)) == sorted(declared)
