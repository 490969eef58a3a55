import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from momentid.cli import (
    EXPERIMENTS,
    UsageError,
    config_hash,
    load_config,
    main,
    run_experiment,
)
from momentid.fnspace import FunctionStack


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def assert_value_cells_read_back(out, experiment):
    """Each passed and value cell of the checks table, read as JSON, is the
    check's verdict and value in the report; a check without a value has an
    empty value cell."""
    report = json.loads((out / f"{experiment}.json").read_text())
    with open(out / f"{experiment}.checks.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[0] for row in rows] == [c["name"] for c in report["checks"]]
    for (_, passed, cell), check in zip(rows, report["checks"]):
        assert json.loads(passed) is check["passed"]
        if "value" in check:
            assert json.loads(cell) == check["value"]
        else:
            assert cell == ""
    return report


class TestConfigValidation:
    def test_seed_is_mandatory(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "counterexample"})
        with pytest.raises(UsageError, match="seed"):
            load_config(path)

    @pytest.mark.parametrize("seed", [7.0, True])
    def test_seed_must_be_an_integer(self, tmp_path, seed):
        path = write_config(
            tmp_path, {"experiment": "counterexample", "seed": seed})
        with pytest.raises(UsageError, match="seed must be an integer"):
            load_config(path)

    @pytest.mark.parametrize("experiment", [
        "genericity", "quantile", "cone-suite", "semiparam-pi"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys,
                                            experiment):
        path = write_config(tmp_path, {"experiment": experiment, "seed": -1})
        with pytest.raises(UsageError, match="non-negative, got -1"):
            load_config(path)
        assert main(["run", path, "--out", str(tmp_path)]) == 2
        assert "got -1" in capsys.readouterr().err
        assert not (tmp_path / f"{experiment}.json").exists()

    def test_unknown_experiment(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "nope", "seed": 1})
        with pytest.raises(UsageError, match="unknown experiment"):
            load_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(
            tmp_path,
            {"experiment": "counterexample", "seed": 1, "typo": True},
        )
        with pytest.raises(UsageError, match="unknown config keys"):
            load_config(path)

    def test_unknown_param_key(self, tmp_path):
        path = write_config(
            tmp_path,
            {"experiment": "counterexample", "seed": 1,
             "params": {"k_mx": 8}},
        )
        with pytest.raises(UsageError, match="unknown params"):
            load_config(path)

    def test_defaults_filled(self, tmp_path):
        path = write_config(
            tmp_path, {"experiment": "counterexample", "seed": 7})
        config = load_config(path)
        assert config["params"]["k_max"] == 12

    def test_malformed_json_is_usage_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(UsageError):
            load_config(str(path))

    @pytest.mark.parametrize("value", [21.0, True])
    def test_integer_param_rejects_non_integers(self, tmp_path, capsys,
                                                value):
        path = write_config(
            tmp_path, {"experiment": "quantile", "seed": 1,
                       "params": {"n_x": value}})
        with pytest.raises(UsageError, match="n_x must be an integer"):
            load_config(path)
        assert main(["run", path, "--out", str(tmp_path)]) == 2
        assert "n_x" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["0.6", None, True])
    def test_float_param_rejects_non_numbers(self, tmp_path, capsys, value):
        path = write_config(
            tmp_path, {"experiment": "quantile", "seed": 1,
                       "params": {"rho": value}})
        with pytest.raises(UsageError, match="rho must be a number"):
            load_config(path)
        assert main(["run", path, "--out", str(tmp_path)]) == 2
        assert "rho" in capsys.readouterr().err

    def test_float_param_accepts_an_integer(self, tmp_path):
        path = write_config(
            tmp_path, {"experiment": "genericity", "seed": 1,
                       "params": {"tol": 1}})
        assert load_config(path)["params"]["tol"] == 1

    @pytest.mark.parametrize("experiment, params", [
        ("semiparam-pi", {"n_splits": 0}),
        ("single-index", {"n_designs": 0}),
        ("quantile", {"n_ellipsoid": 0, "n_deviations": 0}),
        ("genericity", {"draws": -3}),
    ])
    def test_integer_param_must_be_at_least_one(self, tmp_path, capsys,
                                                experiment, params):
        path = write_config(
            tmp_path, {"experiment": experiment, "seed": 1,
                       "params": params})
        with pytest.raises(UsageError, match="must be at least 1"):
            load_config(path)
        assert main(["run", path, "--out", str(tmp_path)]) == 2
        assert next(iter(params)) in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, key, value", [
        ("genericity", "tol", float("nan")),
        ("ccapm", "pf_tol", float("inf")),
        ("quantile", "rho", float("-inf")),
    ])
    def test_float_param_must_be_finite(self, tmp_path, capsys, experiment,
                                        key, value):
        # NaN made "no draw loses injectivity" pass vacuously
        path = write_config(
            tmp_path, {"experiment": experiment, "seed": 1,
                       "params": {key: value}})
        with pytest.raises(UsageError, match=f"{key} must be finite"):
            load_config(path)
        assert main(["run", path, "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

    def test_nonpositive_tolerance_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"experiment": "ccapm", "seed": 1,
                       "params": {"pf_tol": 0.0}})
        with pytest.raises(UsageError, match="pf_tol must be positive"):
            load_config(path)

    @pytest.mark.parametrize("payload, key", [
        (5, "config must be a JSON object"),
        ({"experiment": "ccapm", "seed": 1, "params": None}, "params"),
        ({"experiment": "ccapm", "seed": 1, "params": 7}, "params"),
        ({"experiment": ["x"], "seed": 1}, "experiment"),
        ({"experiment": "ccapm", "seed": 1, "out_dir": 3}, "out_dir"),
    ])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys,
                                             payload, key):
        path = write_config(tmp_path, payload)
        with pytest.raises(UsageError, match=key):
            load_config(path)
        assert main(["run", path, "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err


class TestCatalog:
    def test_seven_experiments(self):
        assert len(EXPERIMENTS) == 7

    def test_every_entry_documents_its_checks(self):
        for spec in EXPERIMENTS.values():
            assert spec["description"]
            assert len(spec["checks"]) >= 1

    def test_stable_ordering(self, capsys):
        main(["list"])
        first = capsys.readouterr().out
        main(["list"])
        assert capsys.readouterr().out == first

    def test_list_matches_its_golden_text(self, capsys):
        golden = Path(__file__).resolve().parent / "golden" / "list.txt"
        assert main(["list"]) == 0
        assert capsys.readouterr().out == golden.read_text()

    def test_python_dash_m_runs_the_console_script(self, capsys,
                                                   monkeypatch):
        import runpy

        main(["list"])
        expected = capsys.readouterr().out
        monkeypatch.setattr("sys.argv", ["momentid", "list"])
        with pytest.raises(SystemExit) as stop:
            runpy.run_module("momentid", run_name="__main__")
        assert stop.value.code == 0
        assert capsys.readouterr().out == expected


class TestRun:
    def test_counterexample_passes(self, tmp_path):
        path = write_config(
            tmp_path, {"experiment": "counterexample", "seed": 3})
        code = main(["run", path, "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "counterexample.json").read_text())
        assert report["summary"]["pass"]
        assert report["config_sha256"]

    def test_counterexample_scans_f_once_per_run(self, tmp_path,
                                                 monkeypatch):
        import momentid.identcore as identcore

        scans = []
        f = identcore.counterexample_f

        def counting(x):
            if np.size(x) == 24001:
                scans.append(x)
            return f(x)

        monkeypatch.setattr(identcore, "counterexample_f", counting)
        path = write_config(
            tmp_path, {"experiment": "counterexample", "seed": 3})
        assert main(["run", path, "--out", str(tmp_path)]) == 0
        # one scan measures the curvature constant of f
        assert len(scans) == 1

    def test_ccapm_builds_its_pricing_map_once(self, monkeypatch):
        from momentid.semiparam import SemiparametricMap

        built = []
        post_init = SemiparametricMap.__post_init__

        def counting(smap):
            built.append(smap)
            post_init(smap)

        monkeypatch.setattr(SemiparametricMap, "__post_init__", counting)
        report, _ = run_experiment(load_config(str(CONFIGS / "ccapm.json")))
        assert report["summary"]["pass"]
        assert len(built) == 1

    def test_quantile_decomposes_the_derivative_once(self, monkeypatch):
        import momentid.identcore as identcore
        import momentid.linop as linop

        calls = []

        def counted(kind, fn):
            def wrapper(op, *args, **kwargs):
                calls.append((kind, op.shape))
                return fn(op, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(linop, "svd", counted("svd", linop.svd))
        for module in (linop, identcore):
            monkeypatch.setattr(module, "singular_values",
                                counted("values", linop.singular_values))
        config = load_config(str(CONFIGS / "quantile.json"))
        report, _ = run_experiment(config)
        assert report["summary"]["pass"]
        params = config["params"]
        # the derivative maps the x grid to the w grid
        assert calls == [("svd", (params["n_w"], params["n_x"]))]

    def test_semiparam_single_trial_is_a_failed_check(self, tmp_path):
        # the one trial of each split has a = 0 and zeta = 0, so the lower
        # bound used to pass unchecked with the value inf
        path = write_config(
            tmp_path, {"experiment": "semiparam-pi", "seed": 3,
                       "params": {"trials": 1}})
        assert main(["run", path, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "semiparam-pi.json").read_text())
        [check] = report["checks"]
        assert check["name"] == "experiment completed"
        assert "trials = 1" in check["detail"]

    def test_exit_status_tracks_summary(self, tmp_path, monkeypatch):
        path = write_config(
            tmp_path, {"experiment": "cone-suite", "seed": 3,
                       "params": {"instances": 200, "dim": 3}})
        assert main(["run", path, "--out", str(tmp_path)]) == 0

    def test_usage_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "counterexample"})
        assert main(["run", path]) == 2

    def test_seed_override(self, tmp_path):
        path = write_config(
            tmp_path, {"experiment": "cone-suite", "seed": 3,
                       "params": {"instances": 100, "dim": 3}})
        main(["run", path, "--out", str(tmp_path), "--seed", "99"])
        report = json.loads((tmp_path / "cone-suite.json").read_text())
        assert report["config"]["seed"] == 99

    def test_negative_seed_override_is_a_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "ccapm", "seed": 3})
        assert main(["run", path, "--out", str(tmp_path), "--seed", "-3"]) == 2
        assert "seed must be non-negative, got -3" in capsys.readouterr().err
        assert not (tmp_path / "ccapm.json").exists()

    def test_reports_deterministic_modulo_wall_time(self, tmp_path):
        config = load_config(write_config(
            tmp_path, {"experiment": "semiparam-pi", "seed": 5,
                       "params": {"n_splits": 3, "trials": 500}}))
        r1, _ = run_experiment(config)
        r2, _ = run_experiment(config)
        r1.pop("wall_time_s")
        r2.pop("wall_time_s")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2,
                                                            sort_keys=True)

    def test_csv_format_writes_tables(self, tmp_path):
        path = write_config(
            tmp_path,
            {"experiment": "genericity", "seed": 5,
             "params": {"draws": 10, "trunc_n": 10, "grid_n": 16,
                        "tol": 1e-12}},
        )
        assert main(["run", path, "--out", str(tmp_path),
                     "--format", "csv"]) == 0
        checks = (tmp_path / "genericity.checks.csv").read_text()
        assert checks.startswith("name,passed,value")
        samples = np.loadtxt(tmp_path / "genericity.sigma_min.csv",
                             skiprows=1)
        assert samples.shape == (10,)
        assert_value_cells_read_back(tmp_path, "genericity")

    def test_csv_dict_values_are_json(self, tmp_path):
        # the quantile soundness and curvature checks report dicts
        path = write_config(
            tmp_path,
            {"experiment": "quantile", "seed": 5,
             "params": {"n_x": 21, "n_w": 21, "n_y": 41, "n_ellipsoid": 5,
                        "n_deviations": 10}},
        )
        assert main(["run", path, "--out", str(tmp_path),
                     "--format", "csv"]) == 0
        report = assert_value_cells_read_back(tmp_path, "quantile")
        assert any(isinstance(c.get("value"), dict) for c in report["checks"])

    def test_numeric_failure_becomes_failed_check(self, tmp_path):
        # an impossible tolerance makes the eigensolver give up; the runner
        # must report a failed check, not crash
        path = write_config(
            tmp_path,
            {"experiment": "ccapm", "seed": 5,
             "params": {"n_state": 9, "n_signal": 11, "pf_tol": 1e-30}},
        )
        code = main(["run", path, "--out", str(tmp_path)])
        assert code == 1
        report = json.loads((tmp_path / "ccapm.json").read_text())
        assert not report["summary"]["pass"]
        assert any(not c["passed"] for c in report["checks"])


    def test_reversed_counterexample_range_is_a_failed_check(self,
                                                             tmp_path):
        path = write_config(
            tmp_path, {"experiment": "counterexample", "seed": 1,
                       "params": {"k_min": 5, "k_max": 2}})
        assert main(["run", path, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "counterexample.json").read_text())
        assert report["checks"] == [{
            "name": "experiment completed", "passed": False,
            "detail": "k_min 5 exceeds k_max 2"}]

    @pytest.mark.parametrize("params, detail", [
        ({"k_max": 70}, "k = 64 must be below n_terms = 64"),
        ({"n_terms": 1}, "k = 2 must be below n_terms = 1"),
    ], ids=["k_max-past-the-terms", "one-term"])
    def test_counterexample_k_past_the_terms_is_a_failed_check(
            self, tmp_path, params, detail):
        path = write_config(
            tmp_path, {"experiment": "counterexample", "seed": 1,
                       "params": params})
        assert main(["run", path, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "counterexample.json").read_text())
        [check] = report["checks"]
        assert check["name"] == "experiment completed"
        assert check["detail"].startswith(detail)

    @pytest.mark.parametrize("params", [{"k_max": 63}, {"n_terms": 13}],
                             ids=["k_max-63", "n_terms-13"])
    def test_counterexample_last_term_passes(self, tmp_path, params):
        # k = n_terms - 1 sets only the last, tail-folded term
        path = write_config(
            tmp_path, {"experiment": "counterexample", "seed": 1,
                       "params": params})
        assert main(["run", path, "--out", str(tmp_path)]) == 0

    def test_genericity_single_term_names_trunc_n(self, tmp_path, capfd):
        # a slope fit through one point used to warn and make LAPACK
        # complain on stderr before failing with an unrelated message
        path = write_config(
            tmp_path, {"experiment": "genericity", "seed": 1,
                       "params": {"trunc_n": 1}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", path, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "genericity.json").read_text())
        [check] = report["checks"]
        assert check["name"] == "experiment completed"
        assert "trunc_n" in check["detail"]
        assert capfd.readouterr().err == ""

    def test_rejected_ellipsoid_draw_is_a_failed_check(self, tmp_path,
                                                       monkeypatch):
        import momentid.identcore as identcore

        real = identcore.sample_ellipsoid_deviations

        def with_a_zero_draw(dec, bound, n, rng):
            devs, coefs = real(dec, bound, n, rng)
            values = devs.values.copy()
            values[0] = 0.0
            return FunctionStack(values, devs.measure), coefs

        monkeypatch.setattr(identcore, "sample_ellipsoid_deviations",
                            with_a_zero_draw)
        config = load_config(write_config(
            tmp_path, {"experiment": "quantile", "seed": 3,
                       "params": {"n_x": 21, "n_w": 21, "n_y": 41,
                                  "n_ellipsoid": 5, "n_deviations": 10}}))
        report, _ = run_experiment(config)
        assert not report["summary"]["pass"]
        checks = {c["name"]: c for c in report["checks"]}
        check = checks["ellipsoid deviations keep the map away from zero"]
        assert not check["passed"] and check["value"]["fails"] == 1

    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        path = write_config(
            tmp_path, {"experiment": "counterexample", "seed": 1})
        assert main(["run", path, "--out", str(blocker)]) == 2
        captured = capsys.readouterr()
        assert f"error: cannot write report to {blocker}" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("why", ["under a file", "not writable"])
    def test_unwritable_out_fails_before_the_run(self, tmp_path, monkeypatch,
                                                 capsys, why):
        def never(params, seed):
            pytest.fail("the experiment ran before --out was checked")

        monkeypatch.setitem(EXPERIMENTS["counterexample"], "runner", never)
        if why == "under a file":
            blocker = tmp_path / "a-file"
            blocker.write_text("")
            out = blocker / "reports"
        else:
            # a read-only directory is writable for root, so deny access
            out = tmp_path / "reports"
            monkeypatch.setattr(os, "access", lambda path, mode: False)
        path = write_config(
            tmp_path, {"experiment": "counterexample", "seed": 1})
        assert main(["run", path, "--out", str(out)]) == 2
        assert (f"error: cannot write report to {out}"
                in capsys.readouterr().err)

    def test_report_is_strict_json_past_the_dense_spectrum(self, tmp_path):
        # positive_eigenpair skips the dense spectrum above 256 states and
        # leaves the gap NaN, which RFC 8259 JSON cannot hold
        path = write_config(
            tmp_path, {"experiment": "ccapm", "seed": 1,
                       "params": {"n_state": 257, "n_signal": 3}})
        assert main(["run", path, "--out", str(tmp_path)]) == 1

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        report = json.loads((tmp_path / "ccapm.json").read_text(),
                            parse_constant=reject)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["leading eigenvalue simple"] == {
            "name": "leading eigenvalue simple", "passed": False,
            "detail": "dense spectrum skipped above 256 states"}


SHIPPED = sorted(CONFIGS.glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_shipped_config_passes_with_its_declared_checks(path):
    config = load_config(str(path))
    report, _ = run_experiment(config)
    assert report["summary"]["pass"]
    assert [c["name"] for c in report["checks"]] == \
        list(EXPERIMENTS[config["experiment"]]["checks"])


def test_shipped_configs_cover_every_experiment():
    assert sorted(json.loads(p.read_text())["experiment"]
                  for p in SHIPPED) == sorted(EXPERIMENTS)


def test_config_hash_ignores_out_dir(tmp_path):
    base = {"experiment": "counterexample", "seed": 1}
    c1 = load_config(write_config(tmp_path, base, "a.json"))
    c2 = load_config(write_config(tmp_path, {**base, "out_dir": "/tmp/x"},
                                  "b.json"))
    assert config_hash(c1) == config_hash(c2)


IMPORT_SCOPE = """
import json, sys
from momentid.cli import main

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "momentid")

before = loaded()
assert main(["run", sys.argv[1], "--out", sys.argv[2]]) == 0
print(json.dumps([before, loaded()]))
"""


def test_cli_imports_only_the_experiment_that_runs(tmp_path):
    # start-up cost: importing the CLI loads no library module, and a run
    # loads only what its runner uses
    import momentid

    path = write_config(
        tmp_path, {"experiment": "genericity", "seed": 1,
                   "params": {"draws": 5, "grid_n": 16, "trunc_n": 8}})
    src = str(Path(momentid.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_SCOPE, path, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True)
    before, after = json.loads(out.stdout.splitlines()[-1])
    assert before == ["momentid", "momentid.cli"]
    assert sorted(set(after) - set(before)) == [
        "momentid.errors", "momentid.fnspace", "momentid.genericity",
        "momentid.linop"]


NUMPY_MA_SCOPE = """
import sys
from momentid.cli import main

before = "numpy.ma" in sys.modules
assert main(["run", sys.argv[1], "--out", sys.argv[2]]) == 0
print(before, "numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_shipped_config_runs_without_numpy_ma(path, tmp_path):
    # start-up cost: np.unique imports numpy.ma on first use, about 11 ms
    # per process, and no run needs it
    import momentid

    src = str(Path(momentid.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_SCOPE, str(path), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False False"


def test_every_benchmark_span_target_resolves():
    # bench/spans.py wraps these attributes by name; without this test only
    # the benchmark's own self-test would notice a renamed target
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for name, module_name, attr_path in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            assert hasattr(owner, part), f"{name}: no {module_name}.{attr_path}"
            owner = getattr(owner, part)
        assert callable(owner), name
