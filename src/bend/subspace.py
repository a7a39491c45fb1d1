"""Query-local attribute subspace construction and removal (debias step 1).

The subspace is spanned by per-value differences between attribute-specific
query embeddings and the query itself, optionally reinforced with generic
attribute-prompt directions. The projector is never materialized: the query
is orthogonalized against a rank-filtered Gram-Schmidt basis, which costs
O(d*k) instead of O(d^2) and avoids inverting an ill-conditioned Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError, DegenerateSubspace, DimensionMismatch, QueryInsideSubspace
from .vectors import Vector, as_vector, gram_schmidt, normalize, project_out

RESIDUAL_EPS = 1e-8


@dataclass(frozen=True)
class AttributeMatrix:
    """The retained basis of the local attribute subspace's columns."""

    retained_basis: np.ndarray  # (r, d), mutually orthonormal
    dropped_count: int


def build_attribute_matrix(
    query_emb,
    augmented_embs: Mapping[str, Vector],
    generic_embs: Mapping[str, Vector] | None = None,
) -> AttributeMatrix:
    """Assemble the local attribute matrix for one query.

    Column order is deterministic: augmented-minus-query differences in the
    order of ``augmented_embs``, then generic directions: the generic
    embeddings enter as pairwise differences against the first value.
    """
    query = as_vector(query_emb)
    if not augmented_embs:
        raise ConfigError("augmented_embs must be non-empty")
    values = list(augmented_embs)
    if generic_embs and set(generic_embs) != set(values):
        raise ConfigError("augmented and generic maps must cover the same value set")

    columns = []
    for value in values:
        aug = as_vector(augmented_embs[value])
        if aug.shape != query.shape:
            raise DimensionMismatch("augmented embedding dimension differs from query")
        columns.append(aug - query)
    if generic_embs:
        generics = [as_vector(generic_embs[value]) for value in values]
        for g in generics:
            if g.shape != query.shape:
                raise DimensionMismatch("generic embedding dimension differs from query")
        columns.extend(g - generics[0] for g in generics[1:])

    basis, dropped = gram_schmidt(columns)
    if basis.shape[0] == 0:
        raise DegenerateSubspace("every attribute column was rank-deficient or zero")
    return AttributeMatrix(retained_basis=basis, dropped_count=dropped)


def orthogonalize(query_emb, matrix: AttributeMatrix) -> Vector:
    """Remove the attribute-subspace component of the query and renormalize.

    Raises ``QueryInsideSubspace`` when the residual is numerically zero,
    i.e. the query carries no information outside the attribute directions.
    """
    query = as_vector(query_emb)
    residual = project_out(query, matrix.retained_basis)
    if float(np.linalg.norm(residual)) < RESIDUAL_EPS:
        raise QueryInsideSubspace("query lies inside the attribute subspace")
    return normalize(residual)
