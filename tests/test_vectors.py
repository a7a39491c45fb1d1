import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bend.errors import DimensionMismatch, MalformedResponse, NonFiniteValue, ZeroVector
from bend.vectors import (
    gram_schmidt,
    normalize,
    number_vector,
    project_out,
)
from cosine import cosine_distance

finite_coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def nonzero_vectors(dim):
    return (
        st.lists(finite_coords, min_size=dim, max_size=dim)
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-6)
    )


@pytest.mark.parametrize("values", ["", "12", {}, {"0": 1.0}, None, 3.0])
def test_number_vector_rejects_what_is_not_an_array(values):
    with pytest.raises(MalformedResponse):
        number_vector(values, "row", MalformedResponse, NonFiniteValue)


class TestNormalize:
    def test_three_four_five(self):
        assert np.allclose(normalize([3.0, 4.0]), [0.6, 0.8])

    def test_already_unit(self):
        assert np.allclose(normalize([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            normalize([0.0, 0.0])

    @given(nonzero_vectors(5))
    def test_unit_norm_and_direction(self, v):
        unit = normalize(v)
        assert abs(np.linalg.norm(unit) - 1.0) < 1e-9
        assert np.dot(unit, v) > 0


class TestCosineDistance:
    @pytest.mark.parametrize(
        "u, v, expected",
        [
            ([1.0, 0.0], [1.0, 0.0], 0.0),
            ([1.0, 0.0], [0.0, 1.0], 1.0),
            ([1.0, 0.0], [-1.0, 0.0], 2.0),
        ],
    )
    def test_anchor_values(self, u, v, expected):
        assert cosine_distance(u, v) == pytest.approx(expected, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            cosine_distance([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine_distance([1.0, 0.0], [1.0, 0.0, 0.0])

    @given(nonzero_vectors(4), nonzero_vectors(4))
    def test_scale_invariance(self, u, v):
        direct = cosine_distance(u, v)
        normalized = cosine_distance(normalize(u), normalize(v))
        assert abs(direct - normalized) < 1e-9

    @given(nonzero_vectors(4), nonzero_vectors(4))
    def test_symmetry(self, u, v):
        assert cosine_distance(u, v) == pytest.approx(cosine_distance(v, u), abs=1e-12)


class TestProjectOut:
    def test_single_axis(self):
        out = project_out([1.0, 1.0, 0.0], [[0.0, 1.0, 0.0]])
        assert np.allclose(out, [1.0, 0.0, 0.0])

    def test_already_orthogonal(self):
        out = project_out([0.0, 0.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.allclose(out, [0.0, 0.0, 1.0])

    def test_full_collapse(self):
        out = project_out([1.0, 0.0], [[1.0, 0.0]])
        assert np.allclose(out, [0.0, 0.0], atol=1e-12)

    def test_one_vector_basis(self):
        out = project_out([1.0, 1.0, 0.0], [0.0, 1.0, 0.0])
        assert np.allclose(out, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("basis", [[1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]])
    def test_dimension_mismatch_rejected(self, basis):
        with pytest.raises(DimensionMismatch):
            project_out([1.0, 0.0, 0.0], basis)

    def test_empty_basis_is_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.allclose(project_out(v, np.empty((0, 3))), v)

    @given(nonzero_vectors(6))
    def test_result_orthogonal_to_basis(self, v):
        basis, _ = gram_schmidt(np.eye(6)[:3] + 0.1)
        out = project_out(v, basis)
        for b in basis:
            assert abs(np.dot(out, b)) < 1e-8

    @given(nonzero_vectors(6))
    def test_idempotent(self, v):
        basis, _ = gram_schmidt([np.arange(6.0) + 1, np.ones(6)])
        once = project_out(v, basis)
        twice = project_out(once, basis)
        assert np.max(np.abs(twice - once)) < 1e-8


class TestGramSchmidt:
    def test_orthonormal_against_qr(self, rng):
        cols = rng.standard_normal((5, 12))
        basis, dropped = gram_schmidt(cols)
        assert dropped == 0
        assert basis.shape == (5, 12)
        gram = basis @ basis.T
        assert np.allclose(gram, np.eye(5), atol=1e-10)
        # same span as LAPACK QR: compare the two projectors
        q, _ = np.linalg.qr(cols.T)
        mine = basis.T @ basis
        theirs = q @ q.T
        assert np.allclose(mine, theirs, atol=1e-8)

    def test_dependent_column_dropped(self, rng):
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        basis, dropped = gram_schmidt([a, b, 2.0 * a - 0.5 * b])
        assert basis.shape[0] == 2
        assert dropped == 1

    def test_zero_column_dropped(self):
        basis, dropped = gram_schmidt([[1.0, 0.0], [0.0, 0.0]])
        assert basis.shape[0] == 1
        assert dropped == 1

    def test_all_zero_gives_empty_basis(self):
        basis, dropped = gram_schmidt([np.zeros(3), np.zeros(3)])
        assert basis.shape[0] == 0
        assert dropped == 2

    def test_rank_matches_matrix_rank(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 6))
            raw = rng.standard_normal((k, 10))
            # randomly duplicate some columns to force rank deficiency
            cols = list(raw) + [raw[0] * 0.3]
            basis, dropped = gram_schmidt(cols)
            expected = np.linalg.matrix_rank(np.stack(cols))
            assert basis.shape[0] == expected
            assert basis.shape[0] + dropped == len(cols)
