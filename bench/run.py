"""momentid benchmark: run workloads in fresh processes, gate, print metrics.

    python3 bench/run.py                       # every workload, both runs
    python3 bench/run.py --workload genericity-mc --seed 7 --seconds 30 \\
        --trace 0                              # one workload, untraced

Each workload is a closed loop with one caller: passes of
``momentid.cli.run_experiment`` over configs generated from ``--seed``, run
back to back by ``child.py`` in fresh interpreters with BLAS pinned to one
thread.  The untraced run (``--trace 0``) splits its time over several child
processes and reports the end-to-end metrics, its times calibrated by the
host-speed probe of ``probe.py``; the traced run (``--trace 1``)
uses one child, wraps the layer boundaries and reports the per-layer
metrics.  Every report is gated: its ``summary.pass`` must be true and,
without its timing fields, it must be byte-identical to the first pass of
its experiment, in this and every other child.

Metrics are printed one per line with their units; the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
full record, with quartiles, raw pass times and the environment, goes to
``bench/out/<workload>.trace<0|1>.json``; the traced run also writes its
spans to ``bench/out/<workload>.spans.npz``.  The exit status is zero
exactly when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from probe import REFERENCE_S, calibrated  # noqa: E402
from spans import TARGETS  # noqa: E402
from workloads import DESK_EXPERIMENTS, PROBE, WORKLOADS  # noqa: E402

DEFAULT_SEED = 20250809
DEFAULT_SECONDS = 30
# Untraced runs spread their time over this many fresh processes, so that
# one slow process cannot move the median and set-up is sampled repeatedly.
PROCESSES = 3
# A run must end within 180 s; children share what is left of this.
RUN_TIMEOUT_S = 170
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_units() -> dict[str, str]:
    units = {}
    for name, _, _ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "linop.svd.overhead_ratio": "ratio",
        "linop.svd.overhead_ratio_values_only": "ratio",
        "linop.svd.flop_computed": "flop",
        "models.quantile.table_mb_computed": "MB",
        "models.ccapm.pf_iterations": "count",
        "cli.unattributed_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    for name in DESK_EXPERIMENTS:
        units[f"cli.run_experiment.{name}_s"] = "s"
    return units


class BenchError(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, trace: int,
              tiny: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_ENV)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(start)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: run exceeded {RUN_TIMEOUT_S} s") \
            from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: child exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q = (statistics.quantiles(values, n=4) if len(values) > 1
         else [values[0]] * 3)
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def gate_children(children: list[dict]) -> tuple[int, list[str]]:
    """Check count and failures over the children, including that every
    child produced the same reference reports."""
    checks = sum(c["checks"] for c in children)
    failures = [f for c in children for f in c["failures"]]
    first = children[0]["digests"]
    for child in children[1:]:
        for name, digest in child["digests"].items():
            checks += 1
            if digest != first[name]:
                failures.append(f"{name}: report differs between processes")
    return checks, failures


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 tiny: bool) -> dict:
    """One run: the metrics of ``workload`` plus everything behind them."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        children = [run_child(workload, seed, seconds, 1, tiny, deadline)]
    else:
        children = [run_child(workload, seed, seconds / PROCESSES, 0, tiny,
                              deadline) for _ in range(PROCESSES)]
    checks, failures = gate_children(children)
    wall = [t for c in children for t in c["pass_s"]]
    kind = PROBE[workload]
    detail = {
        "pass_s": quartiles([
            calibrated(kind, t, c["probe_s"][i], c["probe_s"][i + 1])
            for c in children for i, t in enumerate(c["pass_s"])]),
        "setup_s": quartiles([
            calibrated(kind, c["setup_s"], *c["setup_probe_s"])
            for c in children]),
        "peak_rss_mb": quartiles([c["peak_rss_mb"] for c in children]),
        "pass_wall_s": quartiles(wall),
        "setup_wall_s": quartiles([c["setup_s"] for c in children]),
        "probe_s": quartiles([t for c in children for t in c["probe_s"]]),
        "probe_kind": kind,
    }
    if trace:
        child = children[0]
        values = dict(child["layer"])
        traced = [calibrated(kind, t, child["traced_probe_s"][i],
                             child["traced_probe_s"][i + 1])
                  for i, t in enumerate(child["traced_pass_s"])]
        values["trace.overhead_ratio"] = (statistics.median(traced)
                                          / detail["pass_s"]["median"])
        for name in DESK_EXPERIMENTS:
            times = child["experiment_s"].get(name, [])
            values[f"cli.run_experiment.{name}_s"] = (
                statistics.median(times) if times else 0.0)
        units = layer_units()
        detail["traced_pass_s"] = quartiles(traced)
    else:
        values = {k: detail[k]["median"] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "processes": len(children),
        "checks": checks, "failures": failures,
        "check_fail_ratio": len(failures) / checks,
        "metrics": metrics, "detail": detail,
        "pass_s_raw": [c["pass_s"] for c in children],
        "digests": children[0]["digests"],
        "environment": children[0]["environment"],
    }


def print_run(run: dict) -> None:
    print(f"== {run['workload']}  seed {run['seed']}  trace {run['trace']}  "
          f"{run['processes']} process(es), {run['seconds']:g} s measured")
    for name, m in run["metrics"].items():
        line = f"  {name:48s} {m['value']:.6g} {m['unit']}"
        q = run["detail"].get(name)
        if q and q["n"] > 1:
            line += f"   (q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, n={q['n']})"
        print(line)
    if not run["trace"]:
        for name in ("pass_wall_s", "setup_wall_s", "probe_s"):
            q = run["detail"][name]
            print(f"  ({name:46s} {q['median']:.6g} s   (q1 {q['q1']:.6g}, "
                  f"q3 {q['q3']:.6g}, n={q['n']}))")
        kind = run["detail"]["probe_kind"]
        print(f"  (calibrated times are at the speed where one {kind} probe "
              f"takes {REFERENCE_S[kind]} s)")
    print(f"  {'check_fail_ratio':48s} {run['check_fail_ratio']:.6g} ratio"
          f"   ({len(run['failures'])} of {run['checks']} checks failed)")
    for failure in run["failures"][:10]:
        print(f"  FAILED {failure}")
    env = run["environment"]
    print(f"  env: commit {env['git_commit']}, source {env['source_sha256'][:12]}, "
          f"python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']['name']} {env['blas']['version']}, "
          f"threads {env['thread_vars']}, nproc {env['nproc']}, "
          f"cpu {env['cpu_model']}")
    print(f"  grid sizes: {json.dumps(env['grid_sizes'], sort_keys=True)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per workload and run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced end-to-end run, 1: traced "
                             "per-layer run (default: both)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long sizes for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "momentid" / "cli.py").is_file():
        print(f"error: no momentid sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.trace is None else (args.trace,)
    runs = []
    try:
        for name in names:
            for trace in modes:
                run = run_workload(name, args.seed, args.seconds, trace,
                                   args.size == "tiny")
                OUT.mkdir(exist_ok=True)
                (OUT / f"{name}.trace{trace}.json").write_text(
                    json.dumps(run, indent=1, sort_keys=True) + "\n")
                print_run(run)
                runs.append(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["checks"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    for name in names:
        digests = [r["digests"] for r in runs if r["workload"] == name]
        if len(digests) > 1:
            attempted += 1
            if digests[0] != digests[1]:
                failures.append(f"{name}: traced and untraced reports differ")
                print(f"FAILED {failures[-1]}")
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in runs
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
