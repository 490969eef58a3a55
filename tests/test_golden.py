"""Golden reports: each shipped config at its shipped seed, and the quantile
experiment at the benchmark's quantile-fine size, must reproduce the report
committed under ``tests/golden/`` byte for byte, apart from ``wall_time_s``.

Regenerate the files with ``PYTHONPATH=src python tests/test_golden.py``,
and only from a commit whose reports are known to be right: a regenerated
file accepts whatever the current code prints.
"""

import json
import sys
from pathlib import Path

import pytest

from momentid.cli import _plain, load_config, run_experiment

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

SHIPPED = ("counterexample", "ccapm", "single-index", "semiparam-pi",
           "quantile", "cone-suite", "genericity")
# the quantile-fine workload of the benchmark, at the shipped seed
QUANTILE_FINE = {"n_x": 201, "n_w": 201, "n_y": 241, "rho": 0.6, "tau": 0.5,
                 "n_ellipsoid": 200, "n_deviations": 400}
CASES = {name: (name, {}) for name in SHIPPED}
CASES["quantile-fine"] = ("quantile", QUANTILE_FINE)


def report_text(case: str) -> str:
    """The case's report as sorted, indented JSON without the wall time."""
    experiment, overrides = CASES[case]
    config = load_config(str(ROOT / "configs" / f"{experiment}.json"))
    config["params"].update(overrides)
    report, _ = run_experiment(config)
    del report["wall_time_s"]
    return json.dumps(report, indent=2, sort_keys=True, default=_plain) + "\n"


def first_difference(expected, actual, path: str = "") -> str:
    """Path of the first key or index, in sorted order, where two decoded
    reports differ."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                return f"{path}/{key}"
            if expected[key] != actual[key]:
                return first_difference(expected[key], actual[key],
                                        f"{path}/{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        for i, (e, a) in enumerate(zip(expected, actual)):
            if e != a:
                return first_difference(e, a, f"{path}/{i}")
        if len(expected) != len(actual):
            return f"{path}/{min(len(expected), len(actual))}"
    return path or "/"


def test_first_difference_names_the_key():
    old = {"checks": [{"name": "a", "value": 1.0}], "summary": {"pass": True}}
    new = {"checks": [{"name": "a", "value": 1.5}], "summary": {"pass": True}}
    assert first_difference(old, new) == "/checks/0/value"
    assert first_difference({"a": 1}, {"a": 1, "b": 2}) == "/b"
    assert first_difference([1], [1, 2]) == "/1"


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    expected = (GOLDEN / f"{case}.json").read_text()
    actual = report_text(case)
    if actual != expected:
        key = first_difference(json.loads(expected), json.loads(actual))
        pytest.fail(f"{case}: report differs from tests/golden/{case}.json; "
                    f"first differing key {key}")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        (GOLDEN / f"{name}.json").write_text(report_text(name))
        print(f"wrote {GOLDEN / name}.json", file=sys.stderr)
