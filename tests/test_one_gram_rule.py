"""One Gram-singularity rule for partialling out.

The paper's partialling-out theorem has one hypothesis: the Gram matrix of
m_beta's residuals off the closure of m_g's range is nonsingular.  The
library reads it once, in ``semiparam.gram_singular``, on the scale-free
``gram_ratio`` = lambda_min / sum_j ||m_beta,j||^2 that ``partial_out``
reports; ``partial_out`` cuts m_g's range with the one rank rule, which
``test_one_rank_rule.py`` scans.  The scans read ``src/``, ``demos/`` and
``bench/`` with the standard library's ``ast``, as
``test_settable_values.py`` does.  The metamorphic tests scale m_beta and
m_g together, which must move no verdict and no value above the rule's
threshold beyond roundoff.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import momentid.models.single_index as single_index
import momentid.semiparam as semiparam
from momentid.cli import load_config, run_experiment
from momentid.fnspace import GridFunction, GridMeasure
from momentid.linop import LinearOperator
from momentid.semiparam import (GRAM_SINGULAR, SplitDerivative,
                                gram_singular, partial_out)

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "momentid"
CALLER_DIRS = ("src", "demos", "bench")
# names and report keys that hold a Gram eigenvalue or a ratio of one
GRAM_TOKENS = ("lambda_min", "lam_min", "gram_ratio", "eigvalsh",
               "GRAM_SINGULAR")
# the CLI checks that read whether a partialled Gram matrix is singular
GRAM_CHECKS = {
    "single-index": ("scalar instrument absorbs the parametric columns",
                     "richer instrument keeps the Gram matrix nonsingular"),
    "ccapm": ("partialled Gram matrix nonsingular",),
}


def tokens(node: ast.AST) -> set[str]:
    """The names, attributes and string constants under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def library_trees():
    for path in sorted(LIBRARY.rglob("*.py")):
        module = path.relative_to(LIBRARY).with_suffix("").as_posix()
        yield module, ast.parse(path.read_text())


def gram_comparisons() -> set[str]:
    """"module:function" for each function of the library holding a
    comparison one of whose sides reads a Gram eigenvalue; a lambda counts
    as the function or module that defines it."""
    found = set()

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            if isinstance(child, ast.Compare):
                sides = [child.left, *child.comparators]
                if any(token.endswith(GRAM_TOKENS)
                       for side in sides for token in tokens(side)):
                    found.add(f"{module}:{owner}")
            visit(child, module, name)

    for module, tree in library_trees():
        visit(tree, module, "<module>")
    return found


def calls_of(name: str, dirs=CALLER_DIRS):
    for top in dirs:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and name == getattr(
                        node.func, "attr", getattr(node.func, "id", None)):
                    yield path.relative_to(ROOT).as_posix(), node


def cli_check_lambdas() -> dict[tuple[str, str], ast.Lambda]:
    """(experiment, check name) -> the lambda that declares the check in
    ``cli.EXPERIMENTS``."""
    tree = ast.parse((LIBRARY / "cli.py").read_text())
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "EXPERIMENTS")
    out = {}
    for exp_key, spec in zip(table.keys, table.values):
        for key, value in zip(spec.keys, spec.values):
            if key.value == "checks":
                for name, check in zip(value.keys, value.values):
                    out[exp_key.value, name.value] = check
    return out


def test_one_function_compares_a_gram_value_with_a_threshold():
    assert gram_comparisons() == {"semiparam:gram_singular"}


def test_cli_gram_checks_read_the_one_rule():
    checks = cli_check_lambdas()
    for experiment, names in GRAM_CHECKS.items():
        for name in names:
            body = checks[experiment, name]
            assert "_gram_singular" in tokens(body), name
            assert not any(isinstance(sub, ast.Compare)
                           for sub in ast.walk(body)), name
    # no other check reads a Gram value
    for (experiment, name), body in checks.items():
        if name not in GRAM_CHECKS.get(experiment, ()):
            assert "_gram_singular" not in tokens(body), name


def test_partial_out_takes_no_tolerance():
    definition = next(node for _, tree in library_trees()
                      for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "partial_out")
    assert [arg.arg for arg in definition.args.args] == ["split"]
    calls = list(calls_of("partial_out"))
    assert {path for path, _ in calls} >= {
        "src/momentid/cli.py", "src/momentid/models/single_index.py"}
    for path, call in calls:
        assert (len(call.args), call.keywords) == (1, []), path


def scaled(split: SplitDerivative, c: float) -> SplitDerivative:
    """``split`` with m_beta and m_g both scaled by c."""
    return SplitDerivative(m_beta=tuple(c * col for col in split.m_beta),
                           m_g=split.m_g * c)


def assert_same_gram_value(got: float, want: float):
    """A value above the threshold moves by roundoff only; one at or below
    it stays there."""
    assert gram_singular(got) == gram_singular(want)
    if not gram_singular(want):
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("c", [1e-6, 1e6])
@pytest.mark.parametrize("experiment, owner", [
    ("ccapm", semiparam), ("single-index", single_index)])
def test_gram_checks_are_scale_free(experiment, owner, c, monkeypatch):
    # every split the run partials out, scaled by c: the ccapm split and
    # the ten shipped designs of each instrument, five with each link
    config = load_config(str(ROOT / "configs" / f"{experiment}.json"))
    plain, _ = run_experiment(config)
    real = owner.partial_out
    monkeypatch.setattr(owner, "partial_out",
                        lambda split: real(scaled(split, c)))
    scaled_report, _ = run_experiment(config)
    assert plain["summary"]["pass"]
    got = {check["name"]: check for check in scaled_report["checks"]}
    assert list(got) == [check["name"] for check in plain["checks"]]
    for check in plain["checks"]:
        assert got[check["name"]]["passed"] == check["passed"], check["name"]
        if check["name"] in GRAM_CHECKS[experiment]:
            assert_same_gram_value(got[check["name"]]["value"],
                                   check["value"])
        else:
            assert got[check["name"]] == check, check["name"]


def random_split(rng, rank_deficient: bool) -> SplitDerivative:
    """A split drawn as the semiparam-pi runner draws one, or with m_g of
    rank at most n - p, so that the columns escape its range."""
    n, p = int(rng.integers(4, 17)), int(rng.integers(1, 4))
    grid = GridMeasure(np.arange(n, dtype=float), rng.uniform(0.2, 1.0, n))
    dom = GridMeasure(np.arange(n, dtype=float), rng.uniform(0.2, 1.0, n))
    entries = rng.standard_normal((n, n))
    if rank_deficient:
        k = int(rng.integers(1, n - p + 1))
        entries = entries[:, :k] @ rng.standard_normal((k, n))
    cols = tuple(GridFunction(rng.standard_normal(n), grid) for _ in range(p))
    return SplitDerivative(m_beta=cols, m_g=LinearOperator(entries, dom, grid))


@pytest.mark.parametrize("c", [1e-6, 1e6])
@pytest.mark.parametrize("rank_deficient", [False, True])
def test_random_split_gram_ratios_are_scale_free(rank_deficient, c):
    rng = np.random.default_rng(20250809)
    for _ in range(8):
        split = random_split(rng, rank_deficient)
        want = partial_out(split)
        got = partial_out(scaled(split, c))
        # a full-rank m_g absorbs the columns; a deficient one leaves them
        assert gram_singular(want.gram_ratio) == (not rank_deficient)
        assert len(got.range_basis) == len(want.range_basis)
        assert_same_gram_value(got.gram_ratio, want.gram_ratio)


def test_rule_reads_the_threshold_inclusively():
    assert gram_singular(0.0) and gram_singular(GRAM_SINGULAR)
    assert not gram_singular(np.nextafter(GRAM_SINGULAR, 1.0))
