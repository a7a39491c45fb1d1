import math

import numpy as np
import pytest

from bend.errors import ConfigError, DegenerateSubspace, QueryInsideSubspace
from bend.subspace import build_attribute_matrix, orthogonalize
from bend.vectors import normalize


def _unit(rng, dim):
    return normalize(rng.standard_normal(dim))


class TestBuildAttributeMatrix:
    def test_thirty_degree_pair(self):
        # Hand-derived: columns are (+-sin30, 0, cos30 - 1); rank 2.
        theta = math.radians(30.0)
        query = np.array([0.0, 0.0, 1.0])
        augmented = {
            "a1": np.array([math.sin(theta), 0.0, math.cos(theta)]),
            "a2": np.array([-math.sin(theta), 0.0, math.cos(theta)]),
        }
        matrix = build_attribute_matrix(query, augmented)
        expected_cols = np.array(
            [
                [0.5, 0.0, math.cos(theta) - 1.0],
                [-0.5, 0.0, math.cos(theta) - 1.0],
            ]
        )
        assert np.allclose(
            [augmented[v] - query for v in augmented], expected_cols, atol=1e-12
        )
        assert matrix.retained_basis.shape[0] == 2
        assert matrix.dropped_count == 0
        # independent rank oracle
        assert np.linalg.matrix_rank(expected_cols) == 2
        # same span as a QR factorization of the columns
        q, _ = np.linalg.qr(expected_cols.T)
        theirs = q @ q.T
        mine = matrix.retained_basis.T @ matrix.retained_basis
        assert np.allclose(mine, theirs, atol=1e-8)

    def test_degenerate_when_augmented_equals_query(self):
        query = np.array([0.0, 1.0, 0.0])
        with pytest.raises(DegenerateSubspace):
            build_attribute_matrix(query, {"a": query.copy(), "b": query.copy()})

    def test_duplicate_column_dropped_rank_unchanged(self, rng):
        query = _unit(rng, 6)
        augmented = {
            "a": _unit(rng, 6),
            "b": _unit(rng, 6),
            "dup": None,
        }
        augmented["dup"] = augmented["a"]
        matrix = build_attribute_matrix(query, augmented)
        without_dup = build_attribute_matrix(
            query, {"a": augmented["a"], "b": augmented["b"]}
        )
        assert matrix.retained_basis.shape[0] == without_dup.retained_basis.shape[0]
        assert matrix.dropped_count == without_dup.dropped_count + 1

    def test_generic_columns_are_differences(self, rng):
        query = _unit(rng, 8)
        augmented = {"a": _unit(rng, 8), "b": _unit(rng, 8)}
        generic = {"a": _unit(rng, 8), "b": _unit(rng, 8)}
        matrix = build_attribute_matrix(query, augmented, generic)
        # 2 aug columns + 1 generic difference against the first value
        columns = np.stack([
            augmented["a"] - query, augmented["b"] - query, generic["b"] - generic["a"]
        ])
        assert matrix.retained_basis.shape[0] == 3
        q, _ = np.linalg.qr(columns.T)
        mine = matrix.retained_basis.T @ matrix.retained_basis
        assert np.allclose(mine, q @ q.T, atol=1e-8)

    def test_mismatched_value_sets_rejected(self, rng):
        query = _unit(rng, 4)
        with pytest.raises(ConfigError):
            build_attribute_matrix(
                query,
                {"a": _unit(rng, 4), "b": _unit(rng, 4)},
                {"a": _unit(rng, 4)},
            )


class TestOrthogonalize:
    def test_axis_projection_with_renormalize(self):
        query = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        matrix = build_attribute_matrix(
            np.array([0.0, 0.0, 1.0]),
            {"a": np.array([0.0, 1.0, 1.0]), "b": np.array([0.0, -1.0, 1.0])},
        )
        # matrix basis spans the y axis (columns are (0, +-1, 0))
        out = orthogonalize(query, matrix)
        assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-12)

    def test_fixed_point_when_already_orthogonal(self, rng):
        query = np.array([0.0, 0.0, 0.0, 1.0])
        matrix = build_attribute_matrix(
            np.zeros(4),
            {"a": np.array([1.0, 0.0, 0.0, 0.0]), "b": np.array([0.0, 1.0, 0.0, 0.0])},
        )
        out = orthogonalize(query, matrix)
        assert np.allclose(out, query, atol=1e-12)

    def test_query_inside_subspace(self):
        query = np.array([0.0, 1.0, 0.0])
        matrix = build_attribute_matrix(
            np.zeros(3), {"a": np.array([0.0, 1.0, 0.0]), "b": np.array([0.0, 2.0, 0.0])}
        )
        with pytest.raises(QueryInsideSubspace):
            orthogonalize(query, matrix)

    @pytest.mark.parametrize("dim", [8, 512])
    def test_orthogonality_and_unit_norm_random(self, dim):
        rng = np.random.default_rng(99 + dim)
        for _ in range(100):
            query = _unit(rng, dim)
            k = int(rng.integers(2, 5))
            augmented = {f"v{i}": _unit(rng, dim) for i in range(k)}
            generic = {f"v{i}": _unit(rng, dim) for i in range(k)}
            matrix = build_attribute_matrix(query, augmented, generic)
            out = orthogonalize(query, matrix)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-9
            columns = [augmented[v] - query for v in augmented] + [
                generic[v] - generic["v0"] for v in list(generic)[1:]
            ]
            for col in columns:
                norm = np.linalg.norm(col)
                if norm > 1e-12:
                    assert abs(np.dot(out, col / norm)) < 1e-6

    def test_idempotent(self, rng):
        for _ in range(25):
            query = _unit(rng, 16)
            augmented = {"a": _unit(rng, 16), "b": _unit(rng, 16)}
            matrix = build_attribute_matrix(query, augmented)
            once = orthogonalize(query, matrix)
            twice = orthogonalize(once, matrix)
            assert np.max(np.abs(twice - once)) < 1e-8
