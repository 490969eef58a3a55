"""Span tracer that wraps momentid's layer boundaries from outside the package.

``Tracer.install`` replaces each public function, method and constructor in
``TARGETS`` with a wrapper that records a span (name, start, end, parent).
A function imported by name into other modules (``svd`` sits in identcore,
genericity, semiparam, cli and models) is rebound in every loaded momentid
module that holds it; classes keep their identity and get a wrapped
``__init__`` instead, so isinstance checks still work.  Spans stay in memory
until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (span name, module, attribute path).  A class entry times construction,
# validation included.
TARGETS = (
    ("fnspace.GridFunction", "momentid.fnspace", "GridFunction"),
    ("fnspace.GridMeasure", "momentid.fnspace", "GridMeasure"),
    ("fnspace.OrthonormalBasis.matrix", "momentid.fnspace",
     "OrthonormalBasis.matrix"),
    ("linop.svd", "momentid.linop", "svd"),
    ("linop.apply", "momentid.linop", "apply"),
    ("linop.LinearOperator", "momentid.linop", "LinearOperator"),
    ("identcore.cone_inclusion_suite", "momentid.identcore",
     "cone_inclusion_suite"),
    ("identcore.MomentMap.eval", "momentid.identcore", "MomentMap.eval"),
    ("identcore.sample_ellipsoid_deviations", "momentid.identcore",
     "sample_ellipsoid_deviations"),
    ("identcore.estimate_nonlinearity", "momentid.identcore",
     "estimate_nonlinearity"),
    ("identcore.gateaux_check", "momentid.identcore", "gateaux_check"),
    ("identcore.verify_local_id", "momentid.identcore", "verify_local_id"),
    ("genericity.draw_operator", "momentid.genericity", "draw_operator"),
    ("genericity.mc_injectivity", "momentid.genericity", "mc_injectivity"),
    ("semiparam.partial_out", "momentid.semiparam", "partial_out"),
    ("semiparam.split_lower_bound_check", "momentid.semiparam",
     "split_lower_bound_check"),
    ("semiparam.SemiparametricMap.eval", "momentid.semiparam",
     "SemiparametricMap.eval"),
    ("models.quantile.QuantileIvModel", "momentid.models.quantile",
     "QuantileIvModel"),
    ("models.quantile.gaussian_quantile_model", "momentid.models.quantile",
     "gaussian_quantile_model"),
    ("models.quantile.cdf_at", "momentid.models.quantile",
     "QuantileIvModel.cdf_at"),
    ("models.ccapm.perron_frobenius", "momentid.models.ccapm",
     "perron_frobenius"),
    ("models.single_index.diagnose_single_index",
     "momentid.models.single_index", "diagnose_single_index"),
)

PASS_SPAN = "pass"


def svd_flops(m: int, n: int) -> float:
    """Computed flops of a thin SVD of an m x n matrix with both singular
    vector sets, from the Golub & Van Loan R-SVD count 6mn^2 + 20n^3."""
    m, n = max(m, n), min(m, n)
    return 6.0 * m * n * n + 20.0 * n**3


class Tracer:
    """Records spans and counters for the calls made while it is installed."""

    def __init__(self) -> None:
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list = []
        # per-call observations: svd input shapes, quantile table bytes,
        # power-iteration counts
        self.svd_shapes = []
        self.table_bytes = 0
        self.pf_iterations = 0

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span of the benchmark's own."""
        return self.wrap(name, fn)(*args)

    def _observer(self, name: str):
        if name == "linop.svd":
            return lambda args, result: self.svd_shapes.append(
                args[0].entries.shape)
        if name == "models.quantile.QuantileIvModel":
            def tables(args, result):
                self.table_bytes += sum(
                    v.nbytes for v in vars(args[0]).values()
                    if isinstance(v, np.ndarray) and v.ndim >= 2)
            return tables
        if name == "models.ccapm.perron_frobenius":
            def iterations(args, result):
                self.pf_iterations += result.iterations
            return iterations
        return None

    def install(self) -> None:
        """Wrap every target and rebind it wherever momentid imported it."""
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            target = getattr(owner, attr)
            observe = self._observer(name)
            if isinstance(target, type):
                target.__init__ = self.wrap(name, target.__init__, observe)
                continue
            wrapped = self.wrap(name, target, observe)
            setattr(owner, attr, wrapped)
            if outer:
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] != "momentid":
                    continue
                for key, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, key, wrapped)


def self_times(spans: list) -> dict:
    """Per span name: (calls, summed self seconds), where self time is the
    span's duration minus the durations of its direct children."""
    n = len(spans)
    dur = np.fromiter((s[2] - s[1] for s in spans), float, n)
    parent = np.fromiter((s[3] for s in spans), np.int64, n)
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    out: dict = {}
    for (name, _, _, _), t in zip(spans, own):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + float(t))
    return out


def to_arrays(spans: list, names: dict) -> dict:
    """Compact columns of one pass's spans; ``names`` maps name to code."""
    return {
        "name": np.array([names.setdefault(s[0], len(names)) for s in spans],
                         dtype=np.int32),
        "start": np.array([s[1] for s in spans]),
        "end": np.array([s[2] for s in spans]),
        "parent": np.array([s[3] for s in spans], dtype=np.int64),
    }
