"""Bias metrics: group-conditional distance gaps, retrieval skew, worst-group AUC.

KL divergence and skew use the natural logarithm throughout; reports record
that so the numbers stay interpretable.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateGroup,
    EmptyGroup,
    EmptyRetrieval,
    SupportViolation,
)
from .vectors import as_vector, normalize

PROB_EPS = 1e-12


def group_distance_gap(z, means: Mapping[str, Sequence[float]]) -> float:
    """Largest gap between per-group mean cosine distances from ``z``.

    Each group is given by the raw mean of its unit-norm members. The mean
    cosine distance from unit z to the members is then 1 - z.mean, so the
    gap is the spread of z.mean over groups: the absolute difference for two
    groups, the maximum over unordered group pairs for more.
    """
    if not means:
        raise EmptyGroup("no groups supplied")
    q = normalize(z)
    similarities = []
    for value, mean in means.items():
        mu = as_vector(mean)
        if mu.size == 0:
            raise EmptyGroup(f"group {value!r} is empty")
        similarities.append(float(q @ mu))
    return max(similarities) - min(similarities)


def _check_support(retrieved: Mapping[str, float], prior: Mapping[str, float]) -> None:
    for value, p in retrieved.items():
        if p > PROB_EPS and prior.get(value, 0.0) <= PROB_EPS:
            raise SupportViolation(
                f"retrieved mass {p:g} on {value!r} which has zero prior probability"
            )


def kl_divergence(retrieved: Mapping[str, float], prior: Mapping[str, float]) -> float:
    """KL(retrieved || prior) in nats, with 0*ln(0) taken as 0."""
    _check_support(retrieved, prior)
    total = 0.0
    for value, p in retrieved.items():
        if p > PROB_EPS:
            total += p * math.log(p / prior[value])
    return total


def max_skew(retrieved: Mapping[str, float], prior: Mapping[str, float]) -> float:
    """Largest log-ratio of retrieved frequency to prior frequency.

    Values with zero retrieved mass are excluded (their skew is -inf and the
    metric targets the most over-represented group).
    """
    _check_support(retrieved, prior)
    ratios = [
        math.log(p / prior[value])
        for value, p in retrieved.items()
        if p > PROB_EPS
    ]
    if not ratios:
        raise EmptyRetrieval("retrieved distribution has no support")
    return max(ratios)


def sorted_group_auc(hits: np.ndarray, misses: np.ndarray) -> float:
    """ROC AUC via the Mann-Whitney statistic, ties credited 0.5, from a group's
    ascending positive scores and ascending negative scores."""
    if hits.shape[0] == 0 or misses.shape[0] == 0:
        raise DegenerateGroup("AUC needs at least one positive and one negative")
    # Twice each positive's count of lower negatives plus its ties, summed as
    # integers, so the statistic is exact. Ascending keys search faster: each
    # search starts where the last ended.
    twice = np.searchsorted(misses, hits, "left") + np.searchsorted(misses, hits, "right")
    return int(twice.sum()) / 2.0 / (hits.shape[0] * misses.shape[0])


def worst_group_auc(groups: Mapping[str, tuple[np.ndarray, np.ndarray]]) -> float:
    """Minimum over groups of the similarity-score ROC AUC.

    Each group supplies a (scores, positive) pair of equal-length arrays,
    where ``positive`` is boolean. Raises ``DegenerateGroup`` if any group
    is empty or single-class.
    """
    if not groups:
        raise EmptyGroup("no groups supplied")
    worst = None
    for value, (scores, positive) in groups.items():
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape[0] == 0:
            raise DegenerateGroup(f"group {value!r} has no scores")
        try:
            positive = np.asarray(positive, dtype=bool)
            auc = sorted_group_auc(np.sort(scores[positive]), np.sort(scores[~positive]))
        except DegenerateGroup as exc:
            raise DegenerateGroup(f"group {value!r}: {exc}") from None
        worst = auc if worst is None else min(worst, auc)
    return worst


def empirical_distribution(counts: Sequence[int], space) -> dict[str, float]:
    """Per-value frequency from per-value ``counts`` in ``space.values`` order."""
    total = int(sum(counts))
    if total == 0:
        raise EmptyRetrieval("cannot build a distribution from an empty retrieval")
    return {value: int(c) / total for value, c in zip(space.values, counts, strict=True)}
