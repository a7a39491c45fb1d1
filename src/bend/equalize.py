"""Debias step 2: minimally rotate an embedding so that its mean similarity
is equal across attribute groups.

The constraints "mean similarity to group i equals mean similarity to group
1" are homogeneous linear in the embedding, so the closest unit vector to the
input that satisfies them is the normalized projection of the input onto the
constraint null-space. The binary case additionally reads off the Lagrange
multiplier of the equivalent single-constraint problem.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateMeans,
    QueryInsideConstraintSpan,
    ZeroResult,
)
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
    lam: float | None             # Lagrange multiplier, binary closed form only
    residuals: tuple[float, ...]  # |mu_i . z* - mu_1 . z*| for i >= 2


def _residuals(z: Vector, means: Sequence[Vector]) -> tuple[float, ...]:
    base = float(means[0] @ z)
    return tuple(abs(float(m @ z) - base) for m in means[1:])


def solve_binary(z_prime, mu1, mu2) -> EqualizationSolution:
    """Equalization for a binary attribute, with its Lagrange multiplier.

    With raw (unnormalized) group means mu1, mu2, d = mu2 - mu1 and a
    unit-norm input z', the minimizer is normalize(z' - lam*d) with
    lam = d.z' / ||d||^2: the null-space projection of ``solve_general``.
    """
    z = as_vector(z_prime)
    m1 = as_vector(mu1)
    m2 = as_vector(mu2)
    d = m2 - m1
    gap = float(m1 @ z) - float(m2 @ z)
    if abs(gap) <= GAP_EPS:
        # Already equal, or identical means satisfy the constraint for every z.
        return EqualizationSolution(z.copy(), 0.0, _residuals(z, (m1, m2)))
    if float(np.linalg.norm(d)) <= MEANS_EQUAL_EPS:
        raise DegenerateMeans(
            "group means coincide but mean similarities differ; input is inconsistent"
        )
    try:
        solution = solve_general(z, (m1, m2))
    except QueryInsideConstraintSpan:
        raise ZeroResult("equalized vector collapsed to zero") from None
    return replace(solution, lam=float(d @ z) / float(d @ d))


def solve_general(z_prime, means: Sequence) -> EqualizationSolution:
    """Equalization for any number of groups via null-space projection.

    The constraints (mu_k - mu_1).z = 0 are homogeneous linear, so the
    constrained maximizer of z.z' on the unit sphere is the normalized
    projection of z' onto their orthogonal complement. Identical means make
    the constraints vacuous and return z' unchanged.
    """
    z = as_vector(z_prime)
    mus = [as_vector(m) for m in means]
    if len(mus) < 2:
        raise ConfigError("equalization needs at least two group means")
    deltas = [m - mus[0] for m in mus[1:]]
    if all(float(np.linalg.norm(d)) <= MEANS_EQUAL_EPS for d in deltas):
        return EqualizationSolution(z.copy(), None, _residuals(z, mus))
    residual = project_out(z, gram_schmidt(deltas)[0])
    if float(np.linalg.norm(residual)) < RESULT_EPS:
        raise QueryInsideConstraintSpan(
            "query lies inside the span of the constraint directions"
        )
    z_star = normalize(residual)
    return EqualizationSolution(z_star, None, _residuals(z_star, mus))


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


def _equalize(z: Vector, subsets) -> EqualizationSolution:
    means = [subsets.means[value] for value in subsets.indices]
    if len(means) == 2:
        return solve_binary(z, means[0], means[1])
    return solve_general(z, means)


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
        solution = _equalize(final, subsets)
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
