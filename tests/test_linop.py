import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentid.errors import DegenerateMarginalError, GridMismatchError
from momentid.fnspace import GridFunction, GridMeasure, inner, norm
from momentid.linop import (
    MAX_AXIS_POINTS,
    LinearOperator,
    OperatorStack,
    adjoint,
    apply,
    apply_rows,
    apply_values,
    conditional_expectation,
    singular_values,
    svd,
)
from oracles import hs_norm


def unit_grid(n):
    return GridMeasure(np.arange(float(n)), np.ones(n))


def random_operator(rng, n_dom, n_cod):
    dom = GridMeasure(np.arange(float(n_dom)), rng.uniform(0.2, 2.0, n_dom))
    cod = GridMeasure(np.arange(float(n_cod)), rng.uniform(0.2, 2.0, n_cod))
    return LinearOperator(rng.standard_normal((n_cod, n_dom)), dom, cod)


class TestApply:
    def test_identity(self):
        mu = GridMeasure([0.0, 1.0, 2.0], [0.2, 0.5, 0.3])
        f = GridFunction([3.0, -1.0, 2.0], mu)
        assert np.allclose(apply(LinearOperator.identity(mu), f).values,
                           f.values)

    def test_zero(self):
        mu = unit_grid(3)
        op = LinearOperator(np.zeros((3, 3)), mu, mu)
        assert norm(apply(op, GridFunction([1.0, 2.0, 3.0], mu))) == 0.0

    def test_unit_kernel_averages(self):
        mu = GridMeasure([0.0, 1.0, 2.0, 3.0], np.full(4, 0.25))
        op = LinearOperator(np.ones((4, 4)), mu, mu)
        f = GridFunction([1.0, 2.0, 3.0, 4.0], mu)
        assert np.allclose(apply(op, f).values, 2.5)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        op = random_operator(rng, 4, 3)
        f = GridFunction(rng.standard_normal(4), op.domain)
        g = GridFunction(rng.standard_normal(4), op.domain)
        lhs = apply(op, 2.0 * f + (-3.0) * g).values
        rhs = 2.0 * apply(op, f).values - 3.0 * apply(op, g).values
        assert np.allclose(lhs, rhs)

    def test_shape_mismatch(self):
        op = random_operator(np.random.default_rng(0), 4, 3)
        with pytest.raises(GridMismatchError):
            apply(op, GridFunction(np.zeros(3), op.codomain))

    @pytest.mark.parametrize("n_dom, n_cod", [(201, 201), (61, 121), (9, 1)])
    def test_apply_rows_is_apply_values_bit_for_bit(self, n_dom, n_cod):
        rng = np.random.default_rng(n_dom + n_cod)
        op = random_operator(rng, n_dom, n_cod)
        rows = rng.standard_normal((70, n_dom))
        assert np.array_equal(apply_rows(op, rows),
                              [apply_values(op, row) for row in rows])


class TestFromKernel:
    def test_discrete_delta_is_identity(self):
        mu = GridMeasure([0.0, 1.0], [0.25, 0.75])
        op = LinearOperator(np.diag(1.0 / mu.weights), mu, mu)
        f = GridFunction([2.0, -5.0], mu)
        assert np.allclose(apply(op, f).values, f.values)

    def test_row_action(self):
        # dom weights (0.5, 0.5): first row acts as 0.5 g1 + 1.0 g2
        mu = GridMeasure([0.0, 1.0], [0.5, 0.5])
        op = LinearOperator(np.array([[1.0, 2.0], [3.0, 4.0]]), mu, mu)
        out = apply(op, GridFunction([1.0, 1.0], mu))
        assert np.allclose(out.values, [1.5, 3.5])
        out = apply(op, GridFunction([1.0, 0.0], mu))
        assert out.values[0] == pytest.approx(0.5)

    def test_nonfinite_rejected(self):
        mu = unit_grid(2)
        with pytest.raises(ValueError):
            LinearOperator(np.array([[1.0, np.inf], [0.0, 0.0]]), mu, mu)


class TestConditionalExpectation:
    def test_hand_probabilities(self):
        mu = unit_grid(2)
        joint = np.array([[0.4, 0.1], [0.1, 0.4]])
        op = conditional_expectation(joint, mu, mu)
        out = apply(op, GridFunction([1.0, 0.0], mu))
        assert np.allclose(out.values, [0.8, 0.2])

    def test_stochasticity(self):
        rng = np.random.default_rng(3)
        dom = GridMeasure(np.arange(5.0), rng.uniform(0.1, 1.0, 5))
        cod = GridMeasure(np.arange(4.0), rng.uniform(0.1, 1.0, 4))
        joint = rng.uniform(0.1, 2.0, (5, 4))
        op = conditional_expectation(joint, dom, cod)
        one = GridFunction.constant(dom, 1.0)
        assert np.abs(apply(op, one).values - 1.0).max() < 1e-12

    def test_independent_joint_is_rank_one_mean(self):
        mu = GridMeasure(np.arange(4.0), np.full(4, 0.25))
        op = conditional_expectation(np.ones((4, 4)), mu, mu)
        f = GridFunction([1.0, 3.0, 5.0, 7.0], mu)
        assert np.allclose(apply(op, f).values, 4.0)
        assert svd(op).singular_values[1] < 1e-12

    def test_degenerate_marginal_names_the_point(self):
        mu = unit_grid(2)
        joint = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateMarginalError, match="index 1"):
            conditional_expectation(joint, mu, mu)


class TestAdjoint:
    def test_self_adjoint_diagonal(self):
        mu = GridMeasure([0.0, 1.0], [0.3, 0.7])
        op = LinearOperator(np.diag([2.0, 5.0]), mu, mu)
        assert np.allclose(adjoint(op).entries, op.entries)

    def test_involution(self):
        rng = np.random.default_rng(1)
        op = random_operator(rng, 3, 5)
        assert np.allclose(adjoint(adjoint(op)).entries, op.entries)

    def test_duality_identity(self):
        rng = np.random.default_rng(2)
        op = random_operator(rng, 2, 3)
        f = GridFunction(rng.standard_normal(2), op.domain)
        g = GridFunction(rng.standard_normal(3), op.codomain)
        lhs = inner(apply(op, f), g)
        rhs = inner(f, apply(adjoint(op), g))
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))

    def test_same_singular_values(self):
        rng = np.random.default_rng(4)
        op = random_operator(rng, 5, 7)
        s1 = svd(op).singular_values
        s2 = svd(adjoint(op)).singular_values
        assert np.abs(s1 - s2).max() < 1e-10 * (1 + s1[0])


def weighted_gram_eigenvalues(op):
    """Independent oracle: symmetrized eigendecomposition of the Gram map."""
    wd, wc = op.domain.weights, op.codomain.weights
    a = op.action_matrix()
    sym = (np.sqrt(wd)[:, None] * np.linalg.solve(np.diag(wd), a.T @ np.diag(wc) @ a)
           * (1.0 / np.sqrt(wd))[None, :])
    return np.sort(np.linalg.eigvalsh(0.5 * (sym + sym.T)))[::-1]


class TestSvd:
    def test_identity_singular_values(self):
        mu = GridMeasure(np.arange(6.0), np.full(6, 1 / 6))
        dec = svd(LinearOperator.identity(mu))
        assert np.allclose(dec.singular_values, 1.0)

    def test_rank_one_averaging(self):
        mu = GridMeasure(np.arange(5.0), np.full(5, 0.2))
        dec = svd(LinearOperator(np.ones((5, 5)), mu, mu))
        assert dec.singular_values[0] == pytest.approx(1.0)
        assert np.all(dec.singular_values[1:] < 1e-12)

    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(5)
        op = random_operator(rng, 8, 8)
        mu2 = svd(op).singular_values ** 2
        oracle = weighted_gram_eigenvalues(op)
        assert np.abs(mu2 - oracle).max() < 1e-9 * (1 + mu2[0])

    def test_action_on_right_functions(self):
        rng = np.random.default_rng(6)
        op = random_operator(rng, 5, 7)
        dec = svd(op)
        for j in range(len(dec.right_functions)):
            img = apply(op, dec.right_functions[j]).values
            target = dec.singular_values[j] * dec.left_functions[j].values
            assert np.abs(img - target).max() < 1e-9 * (1 + dec.sigma_max)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        op = random_operator(rng, 6, 4)
        dec = svd(op)
        recon = (dec.left_functions.matrix() * dec.singular_values) @ \
            dec.right_functions.matrix().T
        assert np.abs(recon - op.entries).max() < 1e-9 * (1 + dec.sigma_max)

    def test_parseval_action(self):
        rng = np.random.default_rng(8)
        op = random_operator(rng, 6, 6)
        dec = svd(op)
        f = GridFunction(rng.standard_normal(6), op.domain)
        coeffs = np.array([inner(f, u) for u in dec.right_functions])
        lhs = norm(apply(op, f)) ** 2
        rhs = float(np.sum(dec.singular_values**2 * coeffs**2))
        assert abs(lhs - rhs) < 1e-8 * (1 + lhs)

    def test_numerically_zero_report(self):
        mu = GridMeasure(np.arange(3.0), np.full(3, 1 / 3))
        dec = svd(LinearOperator(np.ones((3, 3)), mu, mu))
        assert dec.singular_values.size == 3  # retained, not removed

    @pytest.mark.parametrize("n_dom,n_cod", [(5, 9), (9, 5), (7, 7)])
    def test_values_only_matches_full(self, n_dom, n_cod):
        rng = np.random.default_rng(n_dom * 10 + n_cod)
        op = random_operator(rng, n_dom, n_cod)
        full = svd(op).singular_values
        values = singular_values(op)
        assert values.shape == full.shape == (min(n_dom, n_cod),)
        assert np.abs(values - full).max() <= 1e-12 * full[0]

    def test_nan_output_raises(self, monkeypatch):
        op = random_operator(np.random.default_rng(9), 4, 4)
        real_svd = np.linalg.svd

        def nan_values(b, full_matrices=True, compute_uv=True):
            out = real_svd(b, full_matrices=full_matrices,
                           compute_uv=compute_uv)
            if not compute_uv:
                return np.full_like(out, np.nan)
            u, s, vt = out
            return u, np.full_like(s, np.nan), vt

        monkeypatch.setattr(np.linalg, "svd", nan_values)
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            svd(op)
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            singular_values(op)

    def test_nan_singular_functions_raise(self, monkeypatch):
        op = random_operator(np.random.default_rng(10), 4, 4)
        real_svd = np.linalg.svd

        def nan_vectors(b, full_matrices=True, compute_uv=True):
            u, s, vt = real_svd(b, full_matrices=full_matrices)
            u = u.copy()
            u[2, 1] = np.nan
            return u, s, vt

        monkeypatch.setattr(np.linalg, "svd", nan_vectors)
        with pytest.raises(ValueError, match="finite"):
            svd(op)


class TestOperatorStack:
    @pytest.mark.parametrize("n_dom,n_cod", [(5, 9), (9, 5), (7, 7)])
    @pytest.mark.parametrize("count", [1, 6])
    def test_stacked_values_equal_per_operator_values(self, n_dom, n_cod,
                                                      count):
        rng = np.random.default_rng(n_dom * 10 + n_cod + count)
        op = random_operator(rng, n_dom, n_cod)
        entries = rng.standard_normal((count, n_cod, n_dom))
        stacked = singular_values(OperatorStack(entries, op.domain,
                                                op.codomain))
        assert stacked.shape == (count, min(n_dom, n_cod))
        for b in range(count):
            one = LinearOperator(entries[b], op.domain, op.codomain)
            assert np.array_equal(stacked[b], singular_values(one))

    def test_checks_of_a_single_operator_apply_to_the_stack(self):
        mu = unit_grid(3)
        with pytest.raises(GridMismatchError, match="entries shape"):
            OperatorStack(np.zeros((2, 3, 4)), mu, mu)
        with pytest.raises(GridMismatchError, match="entries shape"):
            OperatorStack(np.zeros((3, 3)), mu, mu)
        bad = np.zeros((2, 3, 3))
        bad[1, 2, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            OperatorStack(bad, mu, mu)
        wide = GridMeasure.uniform(MAX_AXIS_POINTS + 1)
        with pytest.raises(ValueError, match="dense-storage cap"):
            OperatorStack(np.zeros((1, 3, wide.size)), wide, mu)

    def test_convergence_failure_message_is_shared(self, monkeypatch):
        op = random_operator(np.random.default_rng(12), 4, 4)
        stack = OperatorStack(op.entries[None], op.domain, op.codomain)

        def no_convergence(b, full_matrices=True, compute_uv=True):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        for target in (op, stack):
            with pytest.raises(np.linalg.LinAlgError,
                               match="entry magnitude ratio"):
                singular_values(target)


class TestHsNorm:
    def test_identity(self):
        mu = GridMeasure(np.arange(7.0), np.random.default_rng(0).uniform(
            0.1, 2.0, 7))
        assert hs_norm(LinearOperator.identity(mu)) == pytest.approx(
            np.sqrt(7.0))

    def test_zero(self):
        mu = unit_grid(3)
        assert hs_norm(LinearOperator(np.zeros((3, 3)), mu, mu)) == 0.0

    def test_frobenius_style_sum(self):
        mu = unit_grid(2)
        op = LinearOperator(np.array([[1.0, 2.0], [3.0, 4.0]]), mu, mu)
        assert hs_norm(op) == pytest.approx(np.sqrt(30.0))

    def test_equals_singular_mass(self):
        rng = np.random.default_rng(9)
        op = random_operator(rng, 5, 9)
        s = svd(op).singular_values
        assert abs(hs_norm(op) ** 2 - np.sum(s**2)) < 1e-9 * (1 + np.sum(s**2))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_adjoint_duality_property(seed):
    rng = np.random.default_rng(seed)
    op = random_operator(rng, 3, 4)
    f = GridFunction(rng.standard_normal(3), op.domain)
    g = GridFunction(rng.standard_normal(4), op.codomain)
    lhs = inner(apply(op, f), g)
    rhs = inner(f, apply(adjoint(op), g))
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs) + abs(rhs))


def test_zero_kernel_is_zero_operator():
    mu = unit_grid(3)
    op = LinearOperator(np.zeros((3, 3)), mu, mu)
    f = GridFunction([1.0, -2.0, 3.0], mu)
    assert norm(apply(op, f)) == 0.0
