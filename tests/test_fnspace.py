from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentid.errors import GridMismatchError
from momentid.fnspace import (
    GridFunction,
    GridMeasure,
    OrthonormalBasis,
    cosine_basis,
    fourier_coeffs,
    gram_schmidt,
    inner,
    norm,
    project,
)


def two_point(w=(0.5, 0.5)):
    return GridMeasure([0.0, 1.0], w)


class TestGridMeasure:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            GridMeasure([0.0, 1.0], [0.5, 0.0])

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            GridMeasure([1.0, 1.0], [0.5, 0.5])

    def test_probability_flag(self):
        assert two_point().is_probability
        assert not GridMeasure([0.0, 1.0], [0.5, 0.6]).is_probability

    def test_trapezoid_weights(self):
        mu = GridMeasure.trapezoid([0.0, 1.0, 3.0])
        assert np.allclose(mu.weights, [0.5, 1.5, 1.0])

    def test_tensor_layout(self):
        mu = GridMeasure.tensor(GridMeasure([0.0, 1.0], [1.0, 2.0]),
                                GridMeasure([5.0, 6.0], [3.0, 4.0]))
        assert mu.dim == 2
        assert np.allclose(mu.weights, [3.0, 4.0, 6.0, 8.0])
        assert mu.axis_sizes == (2, 2)


def test_function_shape_error_names_the_shape():
    with pytest.raises(GridMismatchError, match=r"shape \(5, 1\)"):
        GridFunction(np.zeros((5, 1)), GridMeasure.uniform(5))


class TestInner:
    def test_odd_even_symmetry(self):
        mu = two_point()
        f = GridFunction([1.0, -1.0], mu)
        g = GridFunction([1.0, 1.0], mu)
        assert inner(f, g) == 0.0

    def test_unit_constant(self):
        mu = two_point()
        one = GridFunction.constant(mu, 1.0)
        assert inner(one, one) == 1.0

    def test_weighted_sum(self):
        # 0.25 * 1 * 3 + 0.75 * 2 * 4 = 6.75
        mu = two_point((0.25, 0.75))
        assert inner(GridFunction([1.0, 2.0], mu),
                     GridFunction([3.0, 4.0], mu)) == pytest.approx(6.75)

    def test_measure_mismatch(self):
        f = GridFunction([1.0, 2.0], two_point())
        g = GridFunction([1.0, 2.0], two_point((0.25, 0.75)))
        with pytest.raises(GridMismatchError):
            inner(f, g)


class TestGramSchmidt:
    def test_orthonormal_input_fixed_up_to_sign(self):
        mu = two_point()
        u1 = GridFunction([1.0, 1.0], mu)
        u2 = GridFunction([1.0, -1.0], mu)
        basis, dropped = gram_schmidt([u1, u2], mu)
        assert dropped == []
        for orig, new in zip((u1, u2), basis):
            assert abs(abs(inner(orig, new)) - 1.0) < 1e-12

    def test_hand_case(self):
        mu = two_point()
        basis, dropped = gram_schmidt(
            [GridFunction([1.0, 1.0], mu), GridFunction([1.0, 0.0], mu)], mu
        )
        assert dropped == []
        assert np.allclose(basis[0].values, [1.0, 1.0])
        assert np.allclose(basis[1].values, [1.0, -1.0])

    def test_collinear_input_dropped(self):
        mu = two_point()
        basis, dropped = gram_schmidt(
            [GridFunction([1.0, 1.0], mu), GridFunction([2.0, 2.0], mu)],
            mu, tol=1e-10,
        )
        assert len(basis) == 1
        assert dropped == [1]

    def test_empty_input_is_not_an_error(self):
        basis, dropped = gram_schmidt([], two_point())
        assert len(basis) == 0 and dropped == []


class TestProject:
    def test_projection_identity_on_span(self):
        mu = GridMeasure.uniform(8)
        basis = cosine_basis(mu, 4)
        f = basis[1] + 3.0 * basis[2]
        assert norm(project(f, basis) - f) < 1e-12

    def test_orthogonal_function_maps_to_zero(self):
        mu = GridMeasure.uniform(8)
        basis = cosine_basis(mu, 3)
        f = cosine_basis(mu, 5)[4]
        assert norm(project(f, basis)) < 1e-12

    def test_hand_case(self):
        mu = two_point()
        basis = OrthonormalBasis((GridFunction([1.0, 1.0], mu),))
        proj = project(GridFunction([1.0, 0.0], mu), basis)
        assert np.allclose(proj.values, [0.5, 0.5])

    def test_empty_basis_gives_zero(self):
        mu = two_point()
        basis = OrthonormalBasis((), measure=mu)
        assert norm(project(GridFunction([1.0, 2.0], mu), basis)) == 0.0

    def test_residual_orthogonal_to_basis(self):
        rng = np.random.default_rng(0)
        mu = GridMeasure.uniform(10)
        basis = cosine_basis(mu, 5)
        f = GridFunction(rng.standard_normal(10), mu)
        resid = f - project(f, basis)
        assert max(abs(inner(resid, u)) for u in basis) < 1e-10


class TestFourier:
    def test_basis_element_coefficients(self):
        mu = GridMeasure.uniform(6)
        basis = cosine_basis(mu, 4)
        coeffs = fourier_coeffs(basis[1], basis)
        assert np.allclose(coeffs, [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_zero_function(self):
        mu = GridMeasure.uniform(6)
        basis = cosine_basis(mu, 4)
        assert np.allclose(fourier_coeffs(GridFunction.zero(mu), basis), 0.0)

    def test_hand_case(self):
        mu = two_point()
        basis = OrthonormalBasis(
            (GridFunction([1.0, 1.0], mu), GridFunction([1.0, -1.0], mu))
        )
        coeffs = fourier_coeffs(GridFunction([1.0, 2.0], mu), basis)
        assert np.allclose(coeffs, [1.5, -0.5])

    def test_parseval_on_complete_basis(self):
        rng = np.random.default_rng(1)
        mu = GridMeasure.uniform(12)
        basis = cosine_basis(mu, 12)
        f = GridFunction(rng.standard_normal(12), mu)
        coeffs = fourier_coeffs(f, basis)
        assert abs(np.sum(coeffs**2) - norm(f) ** 2) < 1e-10


finite_vals = st.floats(min_value=-1e3, max_value=1e3)


@settings(max_examples=60, deadline=None)
@given(
    fv=st.lists(finite_vals, min_size=5, max_size=5),
    gv=st.lists(finite_vals, min_size=5, max_size=5),
    wv=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=5,
                max_size=5),
)
def test_cauchy_schwarz(fv, gv, wv):
    mu = GridMeasure(np.arange(5.0), wv)
    f, g = GridFunction(fv, mu), GridFunction(gv, mu)
    assert abs(inner(f, g)) <= norm(f) * norm(g) * (1 + 1e-12) + 1e-12


@settings(max_examples=60, deadline=None)
@given(fv=st.lists(finite_vals, min_size=8, max_size=8))
def test_pythagoras(fv):
    mu = GridMeasure.uniform(8)
    basis = cosine_basis(mu, 3)
    f = GridFunction(fv, mu)
    p = project(f, basis)
    lhs = norm(f) ** 2
    rhs = norm(p) ** 2 + norm(f - p) ** 2
    assert abs(lhs - rhs) <= 1e-10 * (1 + lhs)


def test_orthonormal_basis_rejects_skewed_family():
    mu = two_point()
    with pytest.raises(ValueError):
        OrthonormalBasis((GridFunction([1.0, 1.0], mu),
                          GridFunction([1.0, 0.5], mu)))


class TestOrthonormalBasis:
    def test_matrix_is_stored_once_and_read_only(self):
        basis = cosine_basis(GridMeasure.uniform(9), 4)
        mat = basis.matrix()
        assert basis.matrix() is mat
        assert mat.shape == (9, 4)
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0

    def test_elements_are_the_matrix_columns(self):
        mu = GridMeasure.uniform(7)
        basis = cosine_basis(mu, 3)
        for j, f in enumerate(basis):
            assert f.measure is mu
            assert np.array_equal(f.values, basis.matrix()[:, j])
            assert not f.values.flags.writeable
        assert np.array_equal(basis[-1].values, basis[2].values)
        with pytest.raises(IndexError):
            basis[3]

    def test_from_matrix_validates(self):
        mu = two_point()
        mat = np.array([[1.0, 1.0], [1.0, -1.0]])
        basis = OrthonormalBasis.from_matrix(mat, mu)
        mat[0, 0] = 5.0  # the basis keeps its own copy
        assert np.array_equal(basis[0].values, [1.0, 1.0])
        with pytest.raises(GridMismatchError):
            OrthonormalBasis.from_matrix(np.ones((3, 1)), mu)
        with pytest.raises(ValueError, match="finite"):
            OrthonormalBasis.from_matrix(np.array([[np.nan], [1.0]]), mu,
                                         check=False)
        with pytest.raises(ValueError, match="orthonormal"):
            OrthonormalBasis.from_matrix(np.ones((2, 2)), mu)

    def test_fields_cannot_be_reassigned(self):
        basis = cosine_basis(GridMeasure.uniform(5), 2)
        with pytest.raises(FrozenInstanceError):
            basis.measure = GridMeasure.uniform(5)
        with pytest.raises(FrozenInstanceError):
            basis._mat = np.eye(5)

    def test_cosine_basis_rejects_empty_family(self):
        with pytest.raises(ValueError):
            cosine_basis(GridMeasure.uniform(5), 0)

    def test_empty_basis_matrix(self):
        basis = OrthonormalBasis((), measure=two_point())
        assert len(basis) == 0
        assert basis.matrix().shape == (2, 0)
        assert list(basis) == []
