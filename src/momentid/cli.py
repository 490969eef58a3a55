"""Config-driven experiment runner.

Each experiment wires a synthetic design to the property checks the library
makes about it and writes a machine-readable report.  Configs are JSON with
a mandatory seed; reports echo the config, embed its hash, and are byte
identical across runs up to the wall-time field.  The process exits zero
exactly when every check passes.

Each ``_run_<experiment>`` imports the library modules it uses in its own
body, so a process compiles only the experiment it runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


class UsageError(ValueError):
    pass


def _plain(value):
    """Recursively convert numpy scalars and arrays to plain Python.

    Also the ``default`` hook of ``json.dump``, so anything it cannot make
    JSON-ready raises TypeError.
    """
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if value is None or isinstance(value, (str, int, float)):
        return value
    raise TypeError(f"not JSON serializable: {type(value)}")


@dataclass
class Check:
    name: str
    passed: bool
    value: object = None
    detail: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": bool(self.passed)}
        if self.value is not None:
            out["value"] = _plain(self.value)
        if self.detail:
            out["detail"] = self.detail
        return out


def _run_counterexample(params: dict, seed: int) -> dict:
    from .identcore import counterexample_cases

    k_min, k_max = params["k_min"], params["k_max"]
    if k_min > k_max:
        raise ValueError(f"k_min {k_min} exceeds k_max {k_max}")
    worst_residual = worst_dev = 0.0
    in_set = 0
    for case in counterexample_cases(range(k_min, k_max + 1),
                                     n_terms=params["n_terms"]):
        worst_residual = max(worst_residual, case.m_norm)
        worst_dev = max(worst_dev,
                        abs(case.dev_norm - 2.0 ** (-case.k / 4.0)))
        in_set += case.in_n
    return {"residual": worst_residual, "dev_error": worst_dev,
            "in_set": in_set, "L": case.L}


def _run_quantile(params: dict, seed: int) -> dict:
    from .fnspace import FunctionStack, norm
    from .identcore import (estimate_nonlinearity, gateaux_check,
                            sample_ellipsoid_deviations, verify_local_id)
    from .linop import svd
    from .models.quantile import gaussian_quantile_model, quantile_moment_map

    rng = np.random.default_rng(seed)
    model = gaussian_quantile_model(
        n_x=params["n_x"], n_w=params["n_w"], n_y=params["n_y"],
        rho=params["rho"], tau=params["tau"],
    )
    mmap, bound = quantile_moment_map(model)
    restriction = norm(mmap.eval(mmap.base_point))
    dec = svd(mmap.derivative)
    inside, _ = sample_ellipsoid_deviations(dec, bound, params["n_ellipsoid"],
                                            rng)
    soundness = verify_local_id(mmap, bound, inside, dec=dec)
    mu = model.x_measure
    # the stream of one uniform scale per deviation, then its row
    scales = rng.uniform(0.05, 0.6, params["n_deviations"])
    devs = rng.standard_normal((scales.size, mu.size))
    devs *= scales[:, None]
    devs = FunctionStack(devs, mu)
    l_hat = estimate_nonlinearity(mmap, 2.0, devs)
    dirs = FunctionStack(rng.standard_normal((10, mu.size)) * 0.3, mu)
    return {"restriction": restriction,
            "soundness": {"fails": soundness.failures,
                          "min_norm": soundness.min_m_norm},
            "curvature": {"l_hat": l_hat, "bound": bound.L},
            "gateaux_error": gateaux_check(mmap, dirs, 1e-4)}


def _run_single_index(params: dict, seed: int) -> dict:
    from .models.single_index import (diagnose_single_index,
                                       gaussian_index_design)

    rhos = np.linspace(0.4, 0.7, params["n_designs"])
    inconsistent = 0
    # the largest Gram ratio of the scalar designs, the smallest of the 2-d
    scalar_gram_ratio, twodim_gram_ratio = 0.0, np.inf
    for i, rho in enumerate(rhos):
        link = "softplus" if i % 2 == 0 else "sin"
        d1 = diagnose_single_index(
            gaussian_index_design(rho=float(rho), w_dim=1, link=link))
        d2 = diagnose_single_index(gaussian_index_design(
            rho=float(rho), w_dim=2, link=link, n_v=49, n_w=15))
        inconsistent += not (d1.consistent and d2.consistent)
        scalar_gram_ratio = max(scalar_gram_ratio, d1.gram_ratio)
        twodim_gram_ratio = min(twodim_gram_ratio, d2.gram_ratio)
    return {"inconsistent": inconsistent,
            "scalar_gram_ratio": scalar_gram_ratio,
            "twodim_gram_ratio": twodim_gram_ratio}


def _run_ccapm(params: dict, seed: int) -> dict:
    from .identcore import rank_condition
    from .models.ccapm import (ccapm_moment_map, check_global_identification,
                               fixed_state_completeness_operator,
                               lognormal_ccapm_model, perron_frobenius)
    from .semiparam import partial_out

    model = lognormal_ccapm_model(
        n_state=params["n_state"], n_signal=params["n_signal"]
    )
    pair = perron_frobenius(model, tol=params["pf_tol"])
    rep = rank_condition(
        fixed_state_completeness_operator(model, model.c_measure.size // 2))
    smap = ccapm_moment_map(model)
    report = partial_out(smap.split)
    cands = [
        (model.delta0, model.gamma0, model.g0 * 2.0),
        (model.delta0, model.gamma0 + 0.5, model.g0),
    ]
    gid = check_global_identification(smap, cands)
    return {"residual": pair.residual, "g_min": float(pair.g.values.min()),
            "gap": pair.gap, "delta": pair.delta, "delta0": model.delta0,
            "completeness": rep, "gram_ratio": report.gram_ratio,
            "scaled": gid.rows[0], "shifted": gid.rows[1],
            "violations": gid.violations}


def _run_genericity(params: dict, seed: int) -> dict:
    from .fnspace import GridMeasure, cosine_basis
    from .genericity import GeneratorConfig, draw_operator, mc_injectivity

    n = params["trunc_n"]
    grid = GridMeasure.uniform(params["grid_n"])
    basis = cosine_basis(grid, n)
    sigma = 1.0 / np.arange(1, n + 1, dtype=float) ** 2
    config = GeneratorConfig(sigma=sigma, kappa=1.0, trunc_n=n, compact=True)
    report = mc_injectivity(config, (basis, basis), params["draws"],
                            params["tol"], seed)
    positive = replace(config, compact=False, positive=True)
    pos = draw_operator(positive, (basis, basis), seed)
    dens = draw_operator(replace(positive, density=True), (basis, basis), seed)
    rows = dens.operator.entries @ grid.weights
    return {"below_tol": report.fraction_below_tol,
            "spectrum_error": report.max_spectrum_deviation,
            "kernel_min": float(pos.operator.entries.min()),
            "row_sum_error": float(np.abs(rows - 1.0).max()),
            "sigma_min": report.sigma_min}


def _run_cone_suite(params: dict, seed: int) -> dict:
    from .identcore import cone_inclusion_suite

    return {"suite": cone_inclusion_suite(params["instances"], params["dim"],
                                          seed)}


def _run_semiparam_pi(params: dict, seed: int) -> dict:
    from .fnspace import GridFunction, GridMeasure
    from .linop import LinearOperator
    from .semiparam import SplitDerivative, partial_out, split_lower_bound_check

    mu = GridMeasure([0.0, 1.0], [0.5, 0.5])
    m_g = LinearOperator(np.ones((2, 2)), mu, mu)
    split = SplitDerivative(
        m_beta=(GridFunction([1.0, 0.0], mu),), m_g=m_g
    )
    hand = partial_out(split)
    rng = np.random.default_rng(seed)
    worst_gap = np.inf
    for _ in range(params["n_splits"]):
        n = int(rng.integers(4, 17))
        p = int(rng.integers(1, 4))
        grid = GridMeasure(np.arange(n, dtype=float),
                           rng.uniform(0.2, 1.0, size=n))
        dom = GridMeasure(np.arange(n, dtype=float),
                          rng.uniform(0.2, 1.0, size=n))
        op = LinearOperator(rng.standard_normal((n, n)), dom, grid)
        cols = tuple(GridFunction(rng.standard_normal(n), grid)
                     for _ in range(p))
        split_i = SplitDerivative(m_beta=cols, m_g=op)
        rep = partial_out(split_i)
        ratio = split_lower_bound_check(split_i, rep, params["trials"],
                                        int(rng.integers(2**31)))
        worst_gap = min(worst_gap, ratio - rep.eps)
    return {"gram": hand.gram[0, 0], "eps1": hand.eps1, "worst_gap": worst_gap}


def _gram_singular(gram_ratio: float) -> bool:
    from .semiparam import gram_singular  # on use, as the runners import
    return gram_singular(gram_ratio)


# The one declaration of each check, in report order: name -> a function of
# the runner's measurements giving (passed, value) or (passed, value, detail)
EXPERIMENTS = {
    "counterexample": {
        "description": "open-ball identification failure of the smooth "
                       "sequence model and its curvature certificate",
        "checks": {
            "zero residual along the sequence":
                lambda m: (m["residual"] <= 1e-12, m["residual"]),
            "deviation norm equals tail mass to the 1/4":
                lambda m: (m["dev_error"] <= 1e-12, m["dev_error"]),
            "sequence stays outside the identification set":
                lambda m: (m["in_set"] == 0, None),
            "curvature constant at least one":
                lambda m: (m["L"] >= 1.0, m["L"]),
        },
        "defaults": {"k_min": 2, "k_max": 12, "n_terms": 64},
        "runner": _run_counterexample,
    },
    "quantile": {
        "description": "endogenous quantile map: curvature bound, source "
                       "ellipsoid soundness, derivative fidelity",
        "checks": {
            "model restriction holds at the quantile curve":
                lambda m: (m["restriction"] <= 1e-10, None),
            "ellipsoid deviations keep the map away from zero":
                lambda m: (m["soundness"]["fails"] == 0, m["soundness"]),
            "sampled curvature within the density bounds": lambda m: (
                m["curvature"]["l_hat"] <= 1.05 * m["curvature"]["bound"],
                m["curvature"]),
            "finite differences match the derivative":
                lambda m: (m["gateaux_error"] < 1e-5, m["gateaux_error"]),
        },
        "defaults": {"n_x": 61, "n_w": 61, "n_y": 121, "rho": 0.6,
                     "tau": 0.5, "n_ellipsoid": 100, "n_deviations": 200},
        "runner": _run_quantile,
    },
    "single-index": {
        "description": "index designs: instrument completeness versus "
                       "partialled Gram singularity",
        "checks": {
            "completeness and Gram singularity never conflict":
                lambda m: (m["inconsistent"] == 0, None),
            "scalar instrument absorbs the parametric columns": lambda m: (
                _gram_singular(m["scalar_gram_ratio"]),
                m["scalar_gram_ratio"]),
            "richer instrument keeps the Gram matrix nonsingular": lambda m: (
                not _gram_singular(m["twodim_gram_ratio"]),
                m["twodim_gram_ratio"]),
        },
        "defaults": {"n_designs": 10},
        "runner": _run_single_index,
    },
    "ccapm": {
        "description": "asset pricing design: positive eigenpair, "
                       "completeness, Gram nonsingularity, global scale "
                       "identification",
        "checks": {
            "power iteration reaches the residual tolerance":
                lambda m: (m["residual"] <= 1e-10, m["residual"]),
            "eigenfunction strictly positive":
                lambda m: (m["g_min"] > 0, None),
            "leading eigenvalue simple": lambda m: (
                (m["gap"] < 1.0, m["gap"]) if not math.isnan(m["gap"]) else
                (False, None, "dense spectrum skipped above 256 states")),
            "discount factor recovered": lambda m: (
                abs(m["delta"] - m["delta0"]) <= 1e-8, m["delta"]),
            "conditional expectation injective at the midpoint state":
                lambda m: (m["completeness"].holds,
                           m["completeness"].sigma_min),
            "partialled Gram matrix nonsingular": lambda m: (
                not _gram_singular(m["gram_ratio"]), m["gram_ratio"]),
            "scaled truth accepted as the same solution": lambda m: (
                bool(m["scaled"].get("is_solution")
                     and m["scaled"].get("scale_ok")), None),
            "shifted curvature rejected as a non-solution":
                lambda m: (not m["shifted"].get("is_solution"), None),
            "no global identification violations":
                lambda m: (m["violations"] == 0, None),
        },
        "defaults": {"n_state": 21, "n_signal": 31, "pf_tol": 1e-12},
        "runner": _run_ccapm,
    },
    "genericity": {
        "description": "random operator draws: injectivity, spectrum, "
                       "positivity and density variants",
        "checks": {
            "no draw loses injectivity":
                lambda m: (m["below_tol"] == 0.0, m["below_tol"]),
            "spectrum equals the drawn coefficients":
                lambda m: (m["spectrum_error"] <= 1e-10, m["spectrum_error"]),
            "positivity construction keeps the kernel nonnegative":
                lambda m: (m["kernel_min"] >= 0.0, m["kernel_min"]),
            "density construction has unit row sums":
                lambda m: (m["row_sum_error"] <= 1e-12, m["row_sum_error"]),
        },
        "defaults": {"trunc_n": 30, "draws": 200, "tol": 1e-12, "grid_n": 48},
        "runner": _run_genericity,
    },
    "cone-suite": {
        "description": "tangential cone sets: inclusions, equalities and "
                       "transfer bounds on random instances",
        "checks": {
            "all cone-set inclusions hold": lambda m: (
                m["suite"].total_violations == 0, m["suite"].violations),
        },
        "defaults": {"instances": 10000, "dim": 6},
        "runner": _run_cone_suite,
    },
    "semiparam-pi": {
        "description": "partialled-out Gram matrix: hand example and the "
                       "sampled lower bound on random splits",
        "checks": {
            "hand example Gram entry":
                lambda m: (abs(m["gram"] - 0.25) <= 1e-9, m["gram"]),
            "hand example eps1": lambda m: (
                abs(m["eps1"] - np.sqrt(0.125)) <= 1e-9, m["eps1"]),
            "lower bound holds on random splits":
                lambda m: (m["worst_gap"] >= -1e-10, m["worst_gap"]),
        },
        "defaults": {"n_splits": 20, "trials": 2000},
        "runner": _run_semiparam_pi,
    },
}


def _is_int(value) -> bool:
    """True for a JSON integer; JSON's true and false load as bools, an int
    subclass, and 21.0 loads as a float, so neither counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_seed(seed) -> int:
    """A config or ``--seed`` seed: numpy's generators take only
    non-negative integers."""
    if not _is_int(seed):
        raise UsageError("seed must be an integer")
    if seed < 0:
        raise UsageError(f"seed must be non-negative, got {seed}")
    return seed


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(
            f"config must be a JSON object, got {type(raw).__name__}")
    allowed_top = {"experiment", "seed", "out_dir", "params"}
    unknown = set(raw) - allowed_top
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    if "experiment" not in raw:
        raise UsageError("config must name an experiment")
    if not isinstance(raw["experiment"], str) or (
            raw["experiment"] not in EXPERIMENTS):
        raise UsageError(
            f"unknown experiment {raw['experiment']!r}; "
            f"choose from {sorted(EXPERIMENTS)}"
        )
    if "seed" not in raw:
        raise UsageError("config must carry an integer seed; wall-clock "
                         "seeding is not supported")
    _check_seed(raw["seed"])
    if not isinstance(raw.get("out_dir", ""), (str, type(None))):
        raise UsageError(f"out_dir must be a string, got {raw['out_dir']!r}")
    spec = EXPERIMENTS[raw["experiment"]]
    params = dict(spec["defaults"])
    extra = raw.get("params", {})
    if not isinstance(extra, dict):
        raise UsageError(f"params must be a JSON object, got {extra!r}")
    unknown = set(extra) - set(params)
    if unknown:
        raise UsageError(
            f"unknown params for {raw['experiment']}: {sorted(unknown)}"
        )
    for key, value in extra.items():
        # every default is an int (a count, at least 1) or a float
        if _is_int(params[key]):
            if not _is_int(value):
                raise UsageError(
                    f"param {key} must be an integer, got {value!r}"
                )
            if value < 1:
                raise UsageError(f"param {key} must be at least 1, got {value}")
        elif not (_is_int(value) or isinstance(value, float)):
            raise UsageError(f"param {key} must be a number, got {value!r}")
        elif isinstance(value, float) and not math.isfinite(value):
            # json.load reads NaN, Infinity and -Infinity as floats
            raise UsageError(f"param {key} must be finite, got {value!r}")
        elif key in ("tol", "pf_tol") and value <= 0:
            raise UsageError(f"tolerance {key} must be positive")
    params.update(extra)
    return {"experiment": raw["experiment"], "seed": raw["seed"],
            "out_dir": raw.get("out_dir"), "params": params}


def config_hash(config: dict) -> str:
    canon = json.dumps(
        {k: config[k] for k in ("experiment", "seed", "params")},
        sort_keys=True,
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def run_experiment(config: dict) -> tuple[dict, np.ndarray | None]:
    """The report of one run, and the genericity runner's sigma_min samples
    (None elsewhere), which ``--format csv`` writes."""
    spec = EXPERIMENTS[config["experiment"]]
    start = time.perf_counter()
    measured = {}
    try:
        measured = spec["runner"](config["params"], config["seed"])
        checks = [Check(name, *check(measured))
                  for name, check in spec["checks"].items()]
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        checks = [Check("experiment completed", False, detail=str(exc))]
    n_pass = int(sum(bool(c.passed) for c in checks))
    report = {
        "experiment": config["experiment"],
        "config": {k: config[k] for k in ("experiment", "seed", "params")},
        "config_sha256": config_hash(config),
        "checks": [c.to_json() for c in checks],
        "summary": {
            "pass": n_pass == len(checks),
            "n_pass": n_pass,
            "n_fail": len(checks) - n_pass,
        },
        "wall_time_s": time.perf_counter() - start,
    }
    return report, measured.get("sigma_min")


def _report_dir(out_dir: str) -> Path:
    """The report directory, made if missing; raises OSError if it cannot
    be written, so that a run fails before its work, not after it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK | os.X_OK):
        raise PermissionError(f"{out} is not writable")
    return out


def _cannot_write(out_dir: str, exc: OSError) -> int:
    print(f"error: cannot write report to {out_dir}: {exc}", file=sys.stderr)
    return 2


def _write_report(report: dict, samples, out: Path, fmt: str) -> Path:
    path = out / f"{report['experiment']}.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=_plain,
                  allow_nan=False)
        fh.write("\n")
    if fmt == "csv":
        import csv as _csv

        with open(out / f"{report['experiment']}.checks.csv", "w",
                  newline="") as fh:
            wr = _csv.writer(fh)
            wr.writerow(["name", "passed", "value"])
            for c in report["checks"]:
                wr.writerow([c["name"], c["passed"], c.get("value", "")])
        if samples is not None:
            np.savetxt(out / f"{report['experiment']}.sigma_min.csv",
                       samples, delimiter=",", header="sigma_min",
                       comments="")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="momentid",
        description="identification diagnostics for conditional moment "
                    "models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("config")
    run_p.add_argument("--out", default=None, help="report directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_parser("list", help="list the available experiments")

    args = parser.parse_args(argv)
    if args.command == "list":
        for name, spec in EXPERIMENTS.items():
            print(f"{name}: {spec['description']}")
            for check in spec["checks"]:
                print(f"    - {check}")
        return 0

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config["seed"] = _check_seed(args.seed)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or config.get("out_dir") or "."
    try:
        out = _report_dir(out_dir)
    except OSError as exc:
        return _cannot_write(out_dir, exc)
    report, samples = run_experiment(config)
    try:
        path = _write_report(report, samples, out, args.format)
    except OSError as exc:
        return _cannot_write(out_dir, exc)
    status = "PASS" if report["summary"]["pass"] else "FAIL"
    for check in report["checks"]:
        mark = "ok" if check["passed"] else "FAIL"
        print(f"[{mark}] {check['name']}")
    print(f"{status}: {report['summary']['n_pass']}/{len(report['checks'])} "
          f"checks passed; report at {path}")
    return 0 if report["summary"]["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
