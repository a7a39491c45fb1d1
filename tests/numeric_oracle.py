"""Independent references for ``bend.equalize``, not production paths: a
projected-ascent equalization solver and the stand-alone binary closed form."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from bend.equalize import RESULT_EPS
from bend.errors import ZeroResult
from bend.vectors import as_vector, normalize


@dataclass(frozen=True)
class OracleSolution:
    z_star: np.ndarray
    residuals: tuple[float, ...]  # |mu_i . z* - mu_1 . z*| for i >= 2
    iterations: int


def closed_form_binary(z, mu1, mu2):
    """Binary equalization solved for its multiplier directly:
    lam = gap / (2 mu1.mu2 - ||mu2||^2 - ||mu1||^2), z* = normalize(z - lam (mu2 - mu1))."""
    gap = float(mu1 @ z) - float(mu2 @ z)
    lam = gap / (2.0 * float(mu1 @ mu2) - float(mu2 @ mu2) - float(mu1 @ mu1))
    return lam, normalize(z - lam * mu2 + lam * mu1)


def _span_basis_svd(deltas: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row span via SVD (independent of gram_schmidt)."""
    _, singular, vt = np.linalg.svd(deltas, full_matrices=False)
    keep = singular > 1e-12 * (singular[0] if singular.size else 1.0)
    return vt[keep]


def solve_numeric_oracle(
    z_prime,
    means: Sequence,
    tol: float = 1e-10,
    max_iterations: int = 10000,
) -> OracleSolution:
    """Projected-ascent maximizer of z.z' on the constrained unit sphere.

    Alternates a tangent gradient step toward z', projection onto the
    complement of the constraint span, and renormalization.
    """
    z_ref = as_vector(z_prime)
    mus = [as_vector(m) for m in means]
    assert len(mus) >= 2, "equalization needs at least two group means"
    span = _span_basis_svd(np.stack([m - mus[0] for m in mus[1:]]))

    def project(x: np.ndarray) -> np.ndarray:
        return x - span.T @ (span @ x)

    start = project(z_ref)
    start_norm = float(np.linalg.norm(start))
    if start_norm < RESULT_EPS:
        raise ZeroResult("query lies inside the span of the constraint directions")
    z = start / start_norm
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        gradient = z_ref - float(z @ z_ref) * z
        stepped = project(z + gradient)
        norm = float(np.linalg.norm(stepped))
        if norm < RESULT_EPS:
            raise ZeroResult("ascent step collapsed to zero")
        z_new = stepped / norm
        change = float(np.linalg.norm(z_new - z))
        z = z_new
        if change < tol:
            converged = True
            break
    base = float(mus[0] @ z)
    residuals = tuple(abs(float(m @ z) - base) for m in mus[1:])
    assert converged or max(residuals) <= 1e-6, (
        f"no convergence after {max_iterations} iterations; "
        f"max residual {max(residuals):.3e}"
    )
    return OracleSolution(z, residuals, iterations)
