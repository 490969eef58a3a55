"""One rank rule: every singular-value verdict reads one cutoff.

The paper's identification results turn on rank conditions: m' is
injective, m_g has a closed range, and the conditional expectation is
complete.  The library decides which singular values are numerically zero
once, in ``identcore.resolved``: a value is resolved above
``identcore.RANK_CUTOFF`` times the largest, the relative cutoff of
numerical rank (Golub & Van Loan, *Matrix Computations*, section 5.4).
``rank_condition`` and ``partial_out`` read it, and neither takes a
tolerance.  The scans read ``src/``, ``demos/`` and ``bench/`` with the
standard library's ``ast``, as ``test_one_gram_rule.py`` does.  The
metamorphic tests scale each operator a run decomposes, which must move no
rank verdict.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from momentid.fnspace import GridFunction, GridMeasure
from momentid.identcore import RANK_CUTOFF, rank_condition, resolved
from momentid.linop import LinearOperator, singular_values
from momentid.models.ccapm import (ccapm_moment_map,
                                   fixed_state_completeness_operator,
                                   lognormal_ccapm_model)
from momentid.semiparam import SplitDerivative, partial_out

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "demos", "bench")
GONE = ("positivity_tol", "completeness_check", "CompletenessReport",
        "RANGE_CUTOFF", "range_tol")
# names that hold singular values
SINGULAR_VALUES = ("s", "mu", "singular_values")
# "path:function" -> why it compares singular values with a multiple of
# sigma_max at a cutoff of its own
EXCEPTIONS = {
    "src/momentid/genericity.py:mc_injectivity":
        "the genericity config's tol is echoed in the report and hashed "
        "into config_sha256",
}


def caller_trees():
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path.relative_to(ROOT).as_posix(), path.read_text()


def owners(match) -> set[str]:
    """"path:function" for each node under ``src/``, ``demos/`` and
    ``bench/`` that ``match`` accepts; a node outside any function belongs
    to ``<module>``."""
    found = set()

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            if match(child):
                found.add(f"{path}:{owner}")
            visit(child, path, name)

    for path, text in caller_trees():
        visit(ast.parse(text), path, "<module>")
    return found


def named(node: ast.AST, name: str) -> bool:
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def calls(name: str):
    return lambda node: isinstance(node, ast.Call) and named(node.func, name)


def reads_sigma_max(node: ast.AST) -> bool:
    """``s[0]`` or ``s[:, 0]`` of singular values ``s``, or a name for the
    largest singular value."""
    if isinstance(node, ast.Subscript):
        index = node.slice
        last = index.elts[-1] if isinstance(index, ast.Tuple) else index
        return (isinstance(last, ast.Constant) and last.value == 0
                and any(named(node.value, name) for name in SINGULAR_VALUES))
    return named(node, "sigma_max") or named(node, "smax")


def compares_with_a_multiple_of_sigma_max(node: ast.AST) -> bool:
    return isinstance(node, ast.Compare) and any(
        isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
        and (reads_sigma_max(side.left) or reads_sigma_max(side.right))
        for side in (node.left, *node.comparators))


def test_one_function_compares_a_singular_value_with_the_cutoff():
    found = owners(compares_with_a_multiple_of_sigma_max)
    assert found - set(EXCEPTIONS) == {"src/momentid/identcore.py:resolved"}
    assert set(EXCEPTIONS) <= found


def test_rank_cutoff_is_defined_once_and_read_by_resolved():
    defined = owners(lambda node: isinstance(node, ast.Name)
                     and node.id == "RANK_CUTOFF"
                     and isinstance(node.ctx, ast.Store))
    assert defined == {"src/momentid/identcore.py:<module>"}
    read = owners(lambda node: named(node, "RANK_CUTOFF")
                  and isinstance(node.ctx, ast.Load))
    assert read == {"src/momentid/identcore.py:resolved"}


def test_resolved_is_called_by_the_rank_condition_and_partial_out():
    assert owners(calls("resolved")) == {
        "src/momentid/identcore.py:rank_condition",
        "src/momentid/semiparam.py:partial_out"}


def test_rank_condition_takes_no_tolerance():
    definition = next(
        node for _, text in caller_trees() for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.FunctionDef) and node.name == "rank_condition")
    assert [arg.arg for arg in definition.args.args] == ["op"]
    found = []
    for path, text in caller_trees():
        for node in ast.walk(ast.parse(text)):
            if calls("rank_condition")(node):
                found.append(path)
                assert (len(node.args), node.keywords) == (1, []), path
    assert set(found) >= {
        "src/momentid/cli.py", "demos/demo_asset_pricing_eigenpair.py"}


def test_removed_tolerances_appear_nowhere():
    for path, text in caller_trees():
        for name in GONE:
            assert not re.search(rf"\b{name}\b", text), (path, name)


def test_rule_reads_the_cutoff_strictly():
    s = np.array([2.0, 2.0 * RANK_CUTOFF,
                  np.nextafter(2.0 * RANK_CUTOFF, 1.0), 0.0])
    assert resolved(s).tolist() == [True, False, True, False]
    assert not resolved(np.zeros(3)).any()  # a zero operator resolves none


def resolved_count(op: LinearOperator) -> int:
    return int(resolved(singular_values(op)).sum())


@pytest.fixture(scope="module")
def ccapm_model():
    return lognormal_ccapm_model(n_state=21, n_signal=31)


@pytest.mark.parametrize("c", [1e-6, 1e6])
def test_ccapm_midpoint_verdict_is_scale_free(ccapm_model, c):
    # 31 x 21, sigma_min / sigma_max = 5.74e-5
    op = fixed_state_completeness_operator(ccapm_model,
                                           ccapm_model.c_measure.size // 2)
    want, got = rank_condition(op), rank_condition(op * c)
    assert want.holds and got.holds
    assert resolved_count(op) == resolved_count(op * c) == 21
    assert got.sigma_min / got.sigma_max == pytest.approx(
        want.sigma_min / want.sigma_max, rel=1e-9)


@pytest.mark.parametrize("c", [1e-6, 1e6])
def test_ccapm_range_is_scale_free(ccapm_model, c):
    # m_g resolves 20 of its 21 singular values; the 21st is about 2e-16
    m_g = ccapm_moment_map(ccapm_model).split.m_g
    assert not rank_condition(m_g).holds and not rank_condition(m_g * c).holds
    assert resolved_count(m_g) == resolved_count(m_g * c) == 20


def random_split(rng, rank_deficient: bool):
    """A split drawn as the semiparam-pi runner draws one, or with m_g of
    rank k < n; returns it with m_g's rank."""
    n, p = int(rng.integers(4, 17)), int(rng.integers(1, 4))
    grid = GridMeasure(np.arange(n, dtype=float), rng.uniform(0.2, 1.0, n))
    dom = GridMeasure(np.arange(n, dtype=float), rng.uniform(0.2, 1.0, n))
    entries = rng.standard_normal((n, n))
    k = int(rng.integers(1, n)) if rank_deficient else n
    entries = entries[:, :k] @ rng.standard_normal((k, n)) if k < n else entries
    cols = tuple(GridFunction(rng.standard_normal(n), grid) for _ in range(p))
    return SplitDerivative(m_beta=cols,
                           m_g=LinearOperator(entries, dom, grid)), k


@pytest.mark.parametrize("c", [1e-6, 1e6])
@pytest.mark.parametrize("rank_deficient", [False, True])
def test_random_split_ranges_are_scale_free(rank_deficient, c):
    rng = np.random.default_rng(20250809)
    for _ in range(6):
        split, k = random_split(rng, rank_deficient)
        m_g = split.m_g
        scaled = SplitDerivative(
            m_beta=tuple(c * col for col in split.m_beta), m_g=m_g * c)
        assert len(partial_out(split).range_basis) == k
        assert len(partial_out(scaled).range_basis) == k
        assert (rank_condition(m_g).holds == rank_condition(m_g * c).holds
                == (not rank_deficient))
