"""Self-test of the benchmark, kept out of the tier-1 test suite.

    python3 bench/selftest.py

It runs every workload once at the tiny size, untraced and traced, and
asserts that every metric ``BENCHMARK.json`` names is printed and emitted
with its unit.  It asserts that the correctness gate trips on doctored
reports, and that the benchmark exits non-zero without printing a result
when the momentid sources are missing.  It takes about a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from child import Workload, canonical, gate  # noqa: E402
from workloads import build_configs  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, "--workload", workload["name"], "--seed",
                             "3", "--seconds", "1", "--trace", str(trace),
                             "--size", "tiny")
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == RESULT_KEYS, result.keys()
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, set(got) ^ set(expected)
            for name, unit in expected.items():
                value = result["metrics"][name]["value"]
                assert isinstance(value, (int, float)), (name, value)
                if key == "end_to_end":
                    assert value > 0, (name, value)
                assert any(line.split()[:1] == [name] and
                           line.split()[2] == unit for line in lines[:-1]), name
            assert any(line.split()[:1] == ["check_fail_ratio"]
                       for line in lines[:-1])
            print(f"ok   {workload['name']} trace {trace}: "
                  f"{len(expected)} metrics with units")


def check_gate() -> None:
    import momentid.cli as cli

    configs = build_configs(ROOT, "desk-suite", 3, tiny=True)
    report, _ = cli.run_experiment(configs[0])
    ref = canonical(report)
    assert gate(report, ref) is None
    retimed = dict(report, wall_time_s=report["wall_time_s"] + 1.0,
                   trace={"phase": 1.0})
    assert gate(retimed, ref) is None, "timing fields must not count"
    doctored = copy.deepcopy(report)
    doctored["checks"][0]["value"] = 12345.0
    assert gate(doctored, ref) is not None, "changed value not caught"
    failing = copy.deepcopy(report)
    failing["summary"]["pass"] = False
    assert gate(failing, ref) is not None, "failed summary not caught"

    work = Workload(configs, cli)
    work.run_pass()
    assert not work.failures and all(work.references)
    work.references[-1] = work.references[-1].replace(b'"', b"'", 1)
    work.run_pass()
    assert len(work.failures) == 1, work.failures
    print("ok   gate trips on doctored reports")


def check_refuses_without_sources() -> None:
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "--workload", "desk-suite", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    print("ok   refuses to run without the momentid sources")


if __name__ == "__main__":
    check_gate()
    check_refuses_without_sources()
    check_metrics()
    print("selftest passed")
