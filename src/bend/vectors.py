"""Dense embedding-vector arithmetic shared by every pipeline stage.

All math runs in float64 regardless of the 32-bit storage format, and every
function treats its inputs as immutable.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import BendError, DimensionMismatch, ZeroVector

# Norms at or below this are treated as zero vectors.
ZERO_NORM_EPS = 1e-12
# Relative residual below which a candidate column adds no new rank.
RANK_REL_TOL = 1e-8

Vector = np.ndarray


def as_vector(values: Sequence[float] | np.ndarray) -> Vector:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d vector, got shape {arr.shape}")
    return arr


def is_number(value) -> bool:
    """A JSON number as ``json.loads`` returns it: an int or a float, never a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def number_vector(
    values, what: str, invalid: type[BendError], non_finite: type[BendError]
) -> Vector:
    """The decoded JSON array ``values`` as a finite float64 vector. Anything
    but a list, an element that fails ``is_number`` (numpy reads ``"1"`` and
    ``true`` as 1.0) or one too large for a float64 raises ``invalid``; a NaN or
    infinity ``non_finite``."""
    try:
        is_array = isinstance(values, list) and all(map(is_number, values))
        vector = as_vector(values) if is_array else None
    except OverflowError:  # an integer too large for a float64
        vector = None
    if vector is None:
        raise invalid(f"{what} is not a list of numbers")
    if not np.all(np.isfinite(vector)):
        raise non_finite(f"{what} holds a non-finite value")
    return vector


def normalize(v) -> Vector:
    """Scale ``v`` to unit Euclidean norm, preserving direction."""
    arr = as_vector(v)
    norm = float(np.linalg.norm(arr))
    if norm <= ZERO_NORM_EPS:
        raise ZeroVector("cannot normalize a (near-)zero vector")
    return arr / norm


def project_out(v, basis) -> Vector:
    """Residual of ``v`` after removing its components along an orthonormal basis.

    ``basis`` is a (r, d) array (or sequence of vectors) assumed mutually
    orthonormal. May return a near-zero vector; callers decide whether that
    is degenerate.
    """
    arr = as_vector(v)
    b = np.asarray(basis, dtype=np.float64)
    if b.ndim == 1:
        b = b.reshape(1, -1)
    if b.size == 0:
        return arr.copy()
    if b.shape[1] != arr.shape[0]:
        raise DimensionMismatch(f"dimension mismatch: {arr.shape[0]} vs {b.shape[1]}")
    residual = arr - b.T @ (b @ arr)
    # Second pass scrubs reintroduced components when v nearly lies in the span.
    residual = residual - b.T @ (b @ residual)
    return residual


def gram_schmidt(columns: Iterable) -> tuple[np.ndarray, int]:
    """Sequential Gram-Schmidt with rank filtering.

    Columns whose residual norm after projection onto the accepted basis
    falls below ``RANK_REL_TOL`` times their original norm are dropped (zero
    columns always are). Returns the orthonormal basis as an (r, d) array,
    in acceptance order, plus the dropped-column count.
    """
    basis: list[np.ndarray] = []
    dropped = 0
    dim = None
    for col in columns:
        vec = as_vector(col)
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise DimensionMismatch("columns must share one dimension")
        original = float(np.linalg.norm(vec))
        if original <= ZERO_NORM_EPS:
            dropped += 1
            continue
        residual = vec.copy()
        for b in basis:
            residual -= (residual @ b) * b
        for b in basis:
            residual -= (residual @ b) * b
        norm = float(np.linalg.norm(residual))
        if norm < RANK_REL_TOL * original:
            dropped += 1
            continue
        basis.append(residual / norm)
    if not basis:
        return np.empty((0, 0 if dim is None else dim)), dropped
    return np.stack(basis), dropped
