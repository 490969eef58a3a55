from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentid.errors import GridMismatchError
from momentid.fnspace import (
    FunctionStack,
    GridFunction,
    GridMeasure,
    OrthonormalBasis,
    cosine_basis,
    fourier_coeffs,
    inner,
    norm,
    project,
    trapezoid_weights,
    weighted_norm,
    weighted_norms,
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
        pts = [0.0, 1.0, 3.0]
        mu = GridMeasure(pts, trapezoid_weights(pts))
        assert np.allclose(mu.weights, [0.5, 1.5, 1.0])

    def test_tensor_layout(self):
        mu = GridMeasure.tensor(GridMeasure([0.0, 1.0], [1.0, 2.0]),
                                GridMeasure([5.0, 6.0], [3.0, 4.0]))
        assert mu.dim == 2
        assert np.allclose(mu.weights, [3.0, 4.0, 6.0, 8.0])
        assert mu.axis_sizes == (2, 2)


def reference_trapezoid(points):
    """The trapezoid measure as it was built before ``trapezoid_weights``:
    its own grid checks, its weights, then a whole ``GridMeasure``."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise ValueError("trapezoid rule needs a sorted 1-d grid")
    if np.any(np.diff(pts) <= 0):
        raise ValueError("trapezoid grid must be strictly increasing")
    w = np.empty_like(pts)
    w[1:-1] = (pts[2:] - pts[:-2]) / 2.0
    w[0] = (pts[1] - pts[0]) / 2.0
    w[-1] = (pts[-1] - pts[-2]) / 2.0
    return GridMeasure(pts, w)


TRAPEZOID_GRIDS = {
    "two": [0.0, 1.0],
    "uneven": [0.0, 1.0, 3.0],
    "linspace": np.linspace(-7.5, 7.5, 161),
    "exp": np.exp(np.linspace(-0.2, 0.3, 21)),
    "random": np.sort(np.random.default_rng(5).uniform(-3.0, 2.0, 40)),
    "list": [-1.5, -0.25, 0.125, 4.0],
}


class TestTrapezoidWeights:
    # bit for bit: the weights are a property of the float arithmetic, so
    # the CI's numpy-floor job runs these too

    @pytest.mark.parametrize("grid", TRAPEZOID_GRIDS)
    def test_weights_equal_the_measure_they_replace(self, grid):
        pts = TRAPEZOID_GRIDS[grid]
        want = reference_trapezoid(pts)
        got = trapezoid_weights(pts)
        assert got.dtype == want.weights.dtype
        assert np.array_equal(got, want.weights)
        assert GridMeasure(pts, got).same_as(want)

    @pytest.mark.parametrize("grid", TRAPEZOID_GRIDS)
    def test_from_density_builds_the_same_measure(self, grid):
        pts = np.asarray(TRAPEZOID_GRIDS[grid], dtype=float)
        density = np.exp(-0.5 * pts**2) + 0.1
        base = reference_trapezoid(pts)
        w = base.weights * density
        want = GridMeasure(base.points[:, 0], w / w.sum())
        assert GridMeasure.from_density(pts, density).same_as(want)

    @pytest.mark.parametrize("pts", [
        [1.0], [], [[0.0, 1.0], [1.0, 2.0]], [0.0, 2.0, 1.0],
        [0.0, 0.0, 1.0], [0.0, np.nan, 1.0], [0.0, np.inf],
        [-np.inf, 0.0, 1.0], [0.0, np.inf, 1.0],
    ], ids=["one-point", "empty", "2-d", "unsorted", "repeated", "nan",
            "inf-last", "inf-first", "inf-inside"])
    def test_rejects_what_the_measure_rejected(self, pts):
        with pytest.raises(ValueError) as want:
            reference_trapezoid(pts)
        with pytest.raises(ValueError) as got:
            trapezoid_weights(pts)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("pts", [
    np.zeros((0, 1)), [[0.0]], [[-0.0, 1.0], [0.0, 2.0], [1.0, 2.0]],
    np.round(np.random.default_rng(2).uniform(0, 4, (30, 2))).astype(float)
    + np.arange(30)[:, None] * [0.0, 1e-3],
])
def test_axis_sizes_count_distinct_values(pts):
    pts = np.asarray(pts, dtype=float)
    mu = GridMeasure(pts, np.ones(len(pts)))
    assert mu.axis_sizes == tuple(
        np.unique(pts[:, k]).size for k in range(pts.shape[1]))
    assert all(type(n) is int for n in mu.axis_sizes)


def test_function_shape_error_names_the_shape():
    with pytest.raises(GridMismatchError, match=r"shape \(5, 1\)"):
        GridFunction(np.zeros((5, 1)), GridMeasure.uniform(5))


class TestFunctionStack:
    @pytest.mark.parametrize("values, error, match", [
        (np.zeros(3), GridMismatchError, r"2-d .* got shape \(3,\)"),
        (np.zeros((0, 3)), ValueError, "at least one function"),
        (np.zeros((2, 4)), GridMismatchError,
         r"shape \(2, 4\) does not match a 3-point measure"),
        ([[0.0, np.nan, 1.0]], ValueError, "must be finite"),
        ([[0.0, 1.0, 2.0], [np.inf, 0.0, 0.0]], ValueError, "must be finite"),
    ], ids=["1-d", "no rows", "width", "nan", "inf"])
    def test_rejects_a_bad_stack(self, values, error, match):
        with pytest.raises(error, match=match):
            FunctionStack(values, GridMeasure.uniform(3))

    def test_values_are_a_read_only_copy(self):
        raw = np.arange(6.0).reshape(2, 3)
        stack = FunctionStack(raw, GridMeasure.uniform(3))
        raw[0, 0] = 7.0
        assert stack.values[0, 0] == 0.0 and len(stack) == 2
        assert not stack.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stack.values[1, 1] = 1.0
        with pytest.raises(FrozenInstanceError):
            stack.values = raw

    def test_row_norms_are_weighted_norm_bit_for_bit(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(0.1, 2.0, 201)
        rows = rng.standard_normal((70, 201)) * 10.0 ** rng.uniform(
            -3, 3, (70, 1))
        assert np.array_equal(weighted_norms(rows, w),
                              [weighted_norm(row, w) for row in rows])


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
        basis = OrthonormalBasis([[1.0], [1.0]], mu)
        proj = project(GridFunction([1.0, 0.0], mu), basis)
        assert np.allclose(proj.values, [0.5, 0.5])

    def test_empty_basis_gives_zero(self):
        mu = two_point()
        basis = OrthonormalBasis(np.empty((2, 0)), mu)
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
        basis = OrthonormalBasis([[1.0, 1.0], [1.0, -1.0]], mu)
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
        OrthonormalBasis([[1.0, 1.0], [1.0, 0.5]], mu)


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
        basis = OrthonormalBasis(mat, mu)
        mat[0, 0] = 5.0  # the basis keeps its own copy
        assert np.array_equal(basis[0].values, [1.0, 1.0])
        with pytest.raises(GridMismatchError):
            OrthonormalBasis(np.ones((3, 1)), mu)
        with pytest.raises(ValueError, match="finite"):
            OrthonormalBasis(np.array([[np.nan], [1.0]]), mu, check=False)
        with pytest.raises(ValueError, match="orthonormal"):
            OrthonormalBasis(np.ones((2, 2)), mu)

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
        basis = OrthonormalBasis(np.empty((2, 0)), two_point())
        assert len(basis) == 0
        assert basis.matrix().shape == (2, 0)
        assert list(basis) == []
