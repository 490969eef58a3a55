"""One benchmark process: set up a workload, time its passes, print JSON.

``run.py`` starts this script in a fresh interpreter with BLAS pinned to one
thread.  Set-up is everything from process start to the first timed pass:
imports, config validation and one untimed warm-up pass whose reports become
the reference for the correctness gate.  Timed passes follow until the time
budget is spent.  The workload's host-speed probe (``probe.py``) runs
once as soon as numpy is imported, once at the end of set-up and after every
timed pass; its time counts in neither.  With ``--trace 1`` the budget is split:
untraced passes first, then the layer boundaries of ``spans.TARGETS`` are
wrapped and the same passes run traced.  The last line of stdout is one
JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from statistics import median

import numpy as np

from probe import probe
from spans import PASS_SPAN, TARGETS, Tracer, self_times, svd_flops, to_arrays
from workloads import PROBE, build_configs

ROOT = Path(__file__).resolve().parent.parent
# Report fields outside the byte-identity contract.
VOLATILE_FIELDS = ("wall_time_s", "trace")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def canonical(report: dict) -> bytes:
    """The report as sorted JSON, without its timing and trace fields."""
    body = {k: v for k, v in report.items() if k not in VOLATILE_FIELDS}
    # numpy scalars and arrays serialize through tolist()
    return json.dumps(body, sort_keys=True,
                      default=lambda obj: obj.tolist()).encode()


def gate(report: dict, reference: bytes | None) -> str | None:
    """Why the report fails the correctness gate, or None when it passes."""
    if not report["summary"]["pass"]:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        return f"checks failed: {failed}"
    if reference is not None and canonical(report) != reference:
        return "report differs from the reference pass"
    return None


class Workload:
    """The configs of one pass, their reference reports and the check tally."""

    def __init__(self, configs: list[dict], cli) -> None:
        self.configs = configs
        self.cli = cli
        self.references: list[bytes | None] = [None] * len(configs)
        self.checks = 0
        self.failures: list[str] = []
        # per experiment, seconds in run_experiment on each untraced pass
        self.experiment_s: dict[str, list[float]] = {
            c["experiment"]: [] for c in configs}

    def run_pass(self, record: bool = False) -> None:
        for i, config in enumerate(self.configs):
            name = config["experiment"]
            start = time.perf_counter()
            try:
                report, _ = self.cli.run_experiment(config)
            except Exception:
                report = None
                why = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
            if record:
                self.experiment_s[name].append(elapsed)
            if report is not None:
                why = gate(report, self.references[i])
                if self.references[i] is None and why is None:
                    self.references[i] = canonical(report)
            self.checks += 1
            if why is not None:
                self.failures.append(f"{name}: {why}")

    def digests(self) -> dict[str, str | None]:
        return {c["experiment"]: hashlib.sha256(ref).hexdigest()
                if ref is not None else None
                for c, ref in zip(self.configs, self.references)}


def environment(configs: list[dict]) -> dict:
    config = np.show_config(mode="dicts")["Build Dependencies"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(
            (ROOT / "configs").glob("*.json")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: config["blas"].get(k) for k in ("name", "version")},
        "lapack": {k: config["lapack"].get(k) for k in ("name", "version")},
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "grid_sizes": {c["experiment"]: c["params"] for c in configs},
    }


def timed(budget: float, run, kind: str) -> tuple[list[float], list[float]]:
    """Durations of ``run()`` repeated until ``budget`` seconds have passed,
    and of the host probe of ``kind`` after each; the budget includes the
    probes."""
    times: list[float] = []
    probes: list[float] = []
    deadline = time.perf_counter() + budget
    while not times or time.perf_counter() < deadline:
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
        probes.append(probe(kind))
    return times, probes


def raw_svd_seconds(shapes: list[tuple[int, int]], seed: int) -> tuple:
    """Seconds of raw LAPACK (full, values only) for the given call shapes,
    each shape timed on a Gaussian matrix and scaled by its call count."""
    rng = np.random.default_rng(seed)
    full = values = 0.0
    for shape, count in sorted(Counter(shapes).items()):
        a = rng.standard_normal(shape)
        t_full, t_values = [], []
        for _ in range(min(count, 25) + 1):
            start = time.perf_counter()
            np.linalg.svd(a, full_matrices=False)
            mid = time.perf_counter()
            np.linalg.svd(a, compute_uv=False)
            t_full.append(mid - start)
            t_values.append(time.perf_counter() - mid)
        full += count * median(t_full[1:])
        values += count * median(t_values[1:])
    return full, values


def traced_passes(work: Workload, budget: float, seed: int,
                  spans_out: Path, kind: str) -> dict:
    """Run traced passes, write their spans to ``spans_out`` and return the
    traced pass times, the probe times after each and the per-layer medians
    over passes."""
    tracer = Tracer()
    tracer.install()
    per_pass: list[dict] = []
    pass_s, probe_s, svd_incl = [], [], []
    names: dict[str, int] = {}
    columns = []
    deadline = time.perf_counter() + budget
    while not pass_s or time.perf_counter() < deadline:
        tracer.reset()
        tracer.span(PASS_SPAN, work.run_pass)
        _, start, end, _ = tracer.spans[0]
        pass_s.append(end - start)
        stats = self_times(tracer.spans)
        row = {}
        for name, _, _ in TARGETS:
            calls, self_s = stats.get(name, (0, 0.0))
            row[f"{name}.calls"] = calls
            row[f"{name}.self_s"] = self_s
        row["cli.unattributed_s"] = stats[PASS_SPAN][1]
        row["linop.svd.flop_computed"] = sum(
            svd_flops(*s) for s in tracer.svd_shapes)
        row["models.quantile.table_mb_computed"] = tracer.table_bytes / 1e6
        row["models.ccapm.pf_iterations"] = tracer.pf_iterations
        per_pass.append(row)
        svd_incl.append(sum(e - s for n, s, e, _ in tracer.spans
                            if n == "linop.svd"))
        columns.append(to_arrays(tracer.spans, names))
        probe_s.append(probe(kind))

    layer = {key: median([row[key] for row in per_pass])
             for key in per_pass[0]}
    raw_full, raw_values = raw_svd_seconds(tracer.svd_shapes, seed)
    incl = median(svd_incl)
    layer["linop.svd.overhead_ratio"] = incl / raw_full if raw_full else 0.0
    layer["linop.svd.overhead_ratio_values_only"] = (
        incl / raw_values if raw_values else 0.0)
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    arrays = {f"pass{i}_{k}": v for i, cols in enumerate(columns)
              for k, v in cols.items()}
    arrays["names"] = np.array(sorted(names, key=names.get))
    np.savez(spans_out, **arrays)
    return {"pass_s": pass_s, "probe_s": probe_s, "layer": layer}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    kind = PROBE[args.workload]
    probe_start_s = probe(kind)

    import momentid.cli as cli

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"momentid imported from {cli.__file__}, "
                         f"not from {src}")
    configs = build_configs(ROOT, args.workload, args.seed, args.tiny)
    work = Workload(configs, cli)
    work.run_pass()
    setup_s = time.monotonic() - args.t0 - probe_start_s

    budget = args.seconds / 2 if args.trace else args.seconds
    probe_setup_s = probe(kind)
    pass_s, probe_s = timed(budget, lambda: work.run_pass(record=True), kind)
    result = {
        "setup_s": setup_s,
        "setup_probe_s": [probe_start_s, probe_setup_s],
        "pass_s": pass_s,
        # probe_s[i] follows pass i; the set-up probe precedes pass 0
        "probe_s": [probe_setup_s, *probe_s],
    }
    if args.trace:
        spans_out = ROOT / "bench" / "out" / f"{args.workload}.spans.npz"
        traced = traced_passes(work, budget, args.seed, spans_out, kind)
        result["traced_pass_s"] = traced["pass_s"]
        # the last untraced probe precedes the first traced pass
        result["traced_probe_s"] = [probe_s[-1], *traced["probe_s"]]
        result["layer"] = traced["layer"]
    result.update(
        experiment_s=work.experiment_s,
        checks=work.checks,
        failures=work.failures,
        digests=work.digests(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        environment=environment(configs),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
