"""Cosine similarity and distance between two arbitrary vectors.

These normalize both sides first, so tests can compare directions of
un-normalized results.
"""

from __future__ import annotations

import numpy as np

from bend.errors import DimensionMismatch, ZeroVector
from bend.vectors import ZERO_NORM_EPS, as_vector


def cosine_similarity(u, v) -> float:
    a = as_vector(u)
    b = as_vector(v)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na <= ZERO_NORM_EPS or nb <= ZERO_NORM_EPS:
        raise ZeroVector("cosine similarity is undefined for zero vectors")
    return float(np.clip((a @ b) / (na * nb), -1.0, 1.0))


def cosine_distance(u, v) -> float:
    """1 - cosine similarity: 0 for identical directions, 2 for antipodal."""
    return 1.0 - cosine_similarity(u, v)
