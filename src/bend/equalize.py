"""Debias step 2: minimally rotate an embedding so that its mean similarity
is equal across attribute groups.

The constraints "mean similarity to group i equals mean similarity to group
1" are homogeneous linear in the embedding, so the closest unit vector to the
input that satisfies them is the normalized projection of the input onto the
constraint null-space. One solver serves every number of groups; with two it
also reads off the Lagrange multiplier of the single-constraint problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateMeans, ZeroResult
from .metrics import group_distance_gap
from .subspace import AttributeMatrix, orthogonalize
from .vectors import Vector, as_vector, gram_schmidt, normalize, project_out

MEANS_EQUAL_EPS = 1e-10
GAP_EPS = 1e-12
RESULT_EPS = 1e-10

MODES = ("baseline", "step1-only", "step2-only", "full")


@dataclass(frozen=True)
class EqualizationSolution:
    z_star: Vector
    lam: float | None             # Lagrange multiplier, two groups only
    residuals: tuple[float, ...]  # |mu_i . z* - mu_1 . z*| for i >= 2


def _residuals(z: Vector, means: Sequence[Vector]) -> tuple[float, ...]:
    base = float(means[0] @ z)
    return tuple(abs(float(m @ z) - base) for m in means[1:])


def equalize(z_prime, means: Sequence) -> EqualizationSolution:
    """Equalization for any number of groups via null-space projection.

    The constraints (mu_k - mu_1).z = 0 are homogeneous linear, so the
    constrained maximizer of z.z' on the unit sphere is the normalized
    projection of z' onto their orthogonal complement. With two raw means
    and d = mu2 - mu1 that is normalize(z' - lam*d), lam = d.z' / ||d||^2.
    """
    z = as_vector(z_prime)
    mus = [as_vector(m) for m in means]
    if len(mus) < 2:
        raise ConfigError("equalization needs at least two group means")
    sims = [float(m @ z) for m in mus]
    if max(sims) - min(sims) <= GAP_EPS:
        # Already equal, or identical means satisfy the constraints for every z.
        lam = 0.0 if len(mus) == 2 else None
        return EqualizationSolution(z.copy(), lam, _residuals(z, mus))
    deltas = [m - mus[0] for m in mus[1:]]
    if all(float(np.linalg.norm(d)) <= MEANS_EQUAL_EPS for d in deltas):
        raise DegenerateMeans(
            "group means coincide but mean similarities differ; input is inconsistent"
        )
    residual = project_out(z, gram_schmidt(deltas)[0])
    if float(np.linalg.norm(residual)) < RESULT_EPS:
        raise ZeroResult("equalized vector collapsed to zero")
    z_star = normalize(residual)
    d = deltas[0]
    lam = float(d @ z) / float(d @ d) if len(mus) == 2 else None
    return EqualizationSolution(z_star, lam, _residuals(z_star, mus))


@dataclass(frozen=True)
class DebiasReport:
    """Everything one debias run produced, for diagnostics and serialization."""

    baseline: Vector
    step1: Vector | None
    final: Vector
    lam: float | None
    residuals: tuple[float, ...]
    dropped_columns: int
    distance_gap: dict[str, float | None]  # per-stage group distance gaps


def debias(query_emb, matrix: AttributeMatrix | None, subsets, mode: str) -> DebiasReport:
    """Run one ablation mode of the two-step debiasing pipeline.

    ``subsets`` supplies the per-value raw means of the relevant reference
    records, which define the equalization constraints; the report records
    the group-distance gap over those records at every stage it produces.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    query = normalize(query_emb)
    means = subsets.means
    gap_by_stage: dict[str, float | None] = {
        "baseline": group_distance_gap(query, means),
        "step1": None,
    }
    step1 = None
    if mode in ("step1-only", "full"):
        step1 = orthogonalize(query, matrix)
        gap_by_stage["step1"] = group_distance_gap(step1, means)
    final = query if step1 is None else step1
    lam = None
    residuals: tuple[float, ...] = ()
    if mode in ("step2-only", "full"):
        solution = equalize(final, [means[v] for v in subsets.indices])
        final, lam, residuals = solution.z_star, solution.lam, solution.residuals
    gap_by_stage["final"] = group_distance_gap(final, means)
    return DebiasReport(
        baseline=query,
        step1=step1,
        final=final,
        lam=lam,
        residuals=residuals,
        dropped_columns=matrix.dropped_count if matrix is not None else 0,
        distance_gap=gap_by_stage,
    )
