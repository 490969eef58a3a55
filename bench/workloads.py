"""Benchmark workloads: which experiment configs one pass runs.

Every config starts from the shipped ``configs/<experiment>.json``, goes
through ``momentid.cli.load_config`` (the CLI's own validation), takes the
workload's parameter overrides, and gets the benchmark seed in place of the
shipped one.  The program only ever sees these generated configs.
"""

from __future__ import annotations

from pathlib import Path

DESK_EXPERIMENTS = ("counterexample", "ccapm", "single-index", "semiparam-pi",
                    "quantile", "cone-suite", "genericity")

# Overrides used by the self-test only: every experiment at a size that runs
# in well under a second but still passes all of its checks.
TINY = {
    "counterexample": {"k_max": 5, "n_terms": 32},
    "ccapm": {},
    "single-index": {"n_designs": 2},
    "semiparam-pi": {"n_splits": 2, "trials": 50},
    "quantile": {"n_x": 21, "n_w": 21, "n_y": 41, "n_ellipsoid": 5,
                 "n_deviations": 10},
    "cone-suite": {"instances": 200},
    "genericity": {"draws": 5, "grid_n": 16, "trunc_n": 8},
}

WORKLOADS = {
    # what users run today: small grids, per-call Python overhead
    "desk-suite": [(name, {}) for name in DESK_EXPERIMENTS],
    # 1000 SVDs of 48x48 draws read for their values only
    "genericity-mc": [("genericity", {"draws": 1000, "grid_n": 48,
                                      "trunc_n": 30, "tol": 1e-12})],
    # dense (n_y, n_x, n_w) tables far above the L2 cache, one SVD only
    "quantile-fine": [("quantile", {"n_x": 201, "n_w": 201, "n_y": 241,
                                    "rho": 0.6, "tau": 0.5,
                                    "n_ellipsoid": 200,
                                    "n_deviations": 400})],
}

# The host-speed probe (``probe.KINDS``) whose work is most like each
# workload's: per-call overhead on small grids, or dense tables.
PROBE = {"desk-suite": "interpreter", "genericity-mc": "interpreter",
         "quantile-fine": "memory"}


def build_configs(root: Path, workload: str, seed: int,
                  tiny: bool = False) -> list[dict]:
    """Validated CLI configs of one pass of ``workload``, in run order."""
    from momentid.cli import EXPERIMENTS, load_config

    configs = []
    for name, overrides in WORKLOADS[workload]:
        config = load_config(str(root / "configs" / f"{name}.json"))
        params = dict(overrides, **TINY[name]) if tiny else overrides
        unknown = set(params) - set(EXPERIMENTS[name]["defaults"])
        if unknown:
            raise ValueError(f"unknown params for {name}: {sorted(unknown)}")
        config["params"].update(params)
        config["seed"] = seed
        configs.append(config)
    return configs

