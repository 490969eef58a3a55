import json
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


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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


class TestRun:
    def test_counterexample_passes(self, tmp_path):
        path = write_config(
            tmp_path, {"experiment": "counterexample", "seed": 3})
        code = main(["run", path, "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "counterexample.json").read_text())
        assert report["summary"]["pass"]
        assert report["config_sha256"]

    def test_counterexample_validates_f_once_per_run(self, tmp_path,
                                                     monkeypatch):
        import momentid.identcore as identcore

        calls = []
        validate = identcore._validate_counterexample_f

        def counting(f, scan):
            calls.append(f)
            validate(f, scan)

        monkeypatch.setattr(identcore, "_validate_counterexample_f", counting)
        path = write_config(
            tmp_path, {"experiment": "counterexample", "seed": 3})
        assert main(["run", path, "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

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

    def test_rejected_ellipsoid_draw_is_a_failed_check(self, tmp_path,
                                                       monkeypatch):
        import momentid.cli as cli

        real = cli.sample_ellipsoid_deviations

        def with_a_zero_draw(dec, bound, n, rng):
            draws = real(dec, bound, n, rng)
            zero = draws[0][0] - draws[0][0]
            return [(zero, draws[0][1])] + draws[1:]

        monkeypatch.setattr(cli, "sample_ellipsoid_deviations",
                            with_a_zero_draw)
        config = load_config(write_config(
            tmp_path, {"experiment": "quantile", "seed": 3,
                       "params": {"n_x": 21, "n_w": 21, "n_y": 41,
                                  "n_ellipsoid": 5, "n_deviations": 10}}))
        report, _ = run_experiment(config)
        assert not report["summary"]["pass"]
        [check] = report["checks"]
        assert check["name"] == "experiment completed"
        assert "accepted only 4/5 deviations after 5 draws" in check["detail"]

    def test_runner_result_count_must_match_the_declaration(self,
                                                            monkeypatch):
        spec = dict(EXPERIMENTS["cone-suite"],
                    runner=lambda params, seed: [(True, None)] * 2)
        monkeypatch.setitem(EXPERIMENTS, "cone-suite", spec)
        config = {"experiment": "cone-suite", "seed": 1,
                  "params": {"instances": 10, "dim": 2}}
        with pytest.raises(RuntimeError, match="2 results for 1 declared"):
            run_experiment(config)


SHIPPED = sorted(
    (Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_shipped_config_passes_with_its_declared_checks(path):
    config = load_config(str(path))
    report, _ = run_experiment(config)
    assert report["summary"]["pass"]
    assert [c["name"] for c in report["checks"]] == \
        EXPERIMENTS[config["experiment"]]["checks"]


def test_shipped_configs_cover_every_experiment():
    assert sorted(json.loads(p.read_text())["experiment"]
                  for p in SHIPPED) == sorted(EXPERIMENTS)


def test_config_hash_ignores_out_dir(tmp_path):
    base = {"experiment": "counterexample", "seed": 1}
    c1 = load_config(write_config(tmp_path, base, "a.json"))
    c2 = load_config(write_config(tmp_path, {**base, "out_dir": "/tmp/x"},
                                  "b.json"))
    assert config_hash(c1) == config_hash(c2)
