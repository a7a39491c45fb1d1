"""Exact cosine retrieval over labeled embedding tables.

A deliberate linear scan: desk-scale corpora make exactness cheap, and
auditable fairness math is worth more than approximate speed. Ties always
break by ascending record id so runs are reproducible across platforms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .augment import AttributeSpace
from .dataset import UNIT_NORM_TOL, LabeledEmbeddingTable
from .errors import ConfigError, DimensionMismatch, EmptyGroup, UnknownLabel
from .vectors import Vector, as_vector, normalize

# Rows gathered per step when averaging a group, so a mean never copies a
# whole group out of the table.
MEAN_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class RelevantSubsets:
    """Per-attribute-value relevant records: row indices and raw row means."""

    indices: dict[str, tuple[int, ...]]
    means: dict[str, Vector]

    @property
    def n_used(self) -> dict[str, int]:
        return {value: len(ix) for value, ix in self.indices.items()}


class Retrieved(NamedTuple):
    row: int
    id: str
    similarity: float


class ReferenceIndex:
    """Immutable index over a table's unit rows, with group means kept per attribute."""

    def __init__(self, table: LabeledEmbeddingTable):
        self.table = table
        self._means: dict[str, dict[str, Vector]] = {}

    def partition(self, attribute: str) -> dict[str, np.ndarray]:
        """Ascending row indices of every declared value, members or not."""
        space = self.table.spaces.get(attribute)
        if space is None:
            raise UnknownLabel(f"attribute {attribute!r} is not declared in the table")
        codes = self.table.codes[attribute]
        return {value: np.flatnonzero(codes == i) for i, value in enumerate(space.values)}

    def group_means(self, attribute: str) -> dict[str, Vector]:
        """Raw mean of the unit rows for every value with members.

        Averaged on first use and kept, read-only, for the life of the index;
        the returned dict is always a fresh one.
        """
        means = self._means.get(attribute)
        if means is None:
            means = {}
            for value, idx in self.partition(attribute).items():
                if idx.size == 0:
                    raise EmptyGroup(f"attribute value {value!r} has no records")
                means[value] = _mean_rows(self.table.vectors, idx)
                means[value].flags.writeable = False
            self._means[attribute] = means
        return dict(means)


def _mean_rows(vectors: np.ndarray, idx: np.ndarray) -> Vector:
    """``vectors[idx].mean(axis=0)`` bit for bit, gathering one block at a time.

    An axis-0 sum adds rows in order into one running row, so putting that
    row first in the next block continues the same sum.
    """
    total = np.zeros(vectors.shape[1])
    for start in range(0, idx.size, MEAN_BLOCK_ROWS):
        rows = vectors[idx[start : start + MEAN_BLOCK_ROWS]]
        total = np.add.reduce(np.vstack([total[None], rows]), axis=0)
    return total / idx.size


def build_index(table: LabeledEmbeddingTable) -> ReferenceIndex:
    return ReferenceIndex(table)


def top_rows(
    table: LabeledEmbeddingTable, scores: np.ndarray, rows: np.ndarray, limit: int
) -> np.ndarray:
    """The ``limit`` best of ``rows`` by ``scores``: descending score, then ascending id.

    Only rows scoring at or above the ``limit``-th best score are sorted. That
    keeps the whole tie run at the cutoff, so the tie rule is unchanged; scores
    are finite, so ``>=`` selects exactly those rows.
    """
    candidates = scores[rows]
    if limit < rows.size:
        keep = np.flatnonzero(candidates >= np.partition(candidates, -limit)[-limit])
        rows, candidates = rows[keep], candidates[keep]
    return rows[np.lexsort((table.id_rank[rows], -candidates))[:limit]]


@functools.cache
def _score_error_bound(dim: int) -> float:
    """The most two float64 evaluations of one score can differ by: 2γ·‖t‖·‖q‖
    (README, "Evaluation protocol"), widened for norm tolerance, rounding and underflow."""
    u = np.finfo(np.float64).eps / 2
    gamma = dim * u / (1 - dim * u)
    norms = math.sqrt(1 + UNIT_NORM_TOL) * (1 + 4 * gamma + 16 * u)
    return 2 * gamma * norms + 2 * dim * np.finfo(np.float64).smallest_subnormal


def order_certified(ascending: np.ndarray, dim: int) -> bool:
    """Whether every evaluation of these ascending scores orders them this way:
    each gap exceeds twice ``_score_error_bound``."""
    return bool(np.all(ascending[1:] - ascending[:-1] > 2 * _score_error_bound(dim)))


def relevant_subsets(
    table: LabeledEmbeddingTable, partition: dict[str, np.ndarray], scores: np.ndarray, n: int
) -> tuple[RelevantSubsets, bool]:
    """Each value's n best ``partition`` rows by ``scores``, and whether each value's
    top n + 1 (whole group when smaller) is order-certified, as any evaluation of
    the scores must then pick the same rows in the same order."""
    tops = {}
    for value, members in partition.items():
        if members.size == 0:
            raise EmptyGroup(f"attribute value {value!r} has no reference records")
        tops[value] = top_rows(table, scores, members, n + 1)
    subsets = RelevantSubsets(
        indices={value: tuple(top[:n].tolist()) for value, top in tops.items()},
        means={value: table.vectors[top[:n]].mean(axis=0) for value, top in tops.items()},
    )
    return subsets, all(order_certified(scores[top[::-1]], table.dim) for top in tops.values())


def top_n_by_attribute(
    index: ReferenceIndex, query, space: AttributeSpace, n: int
) -> RelevantSubsets:
    """The n records per attribute value most similar to the query, by GEMV.

    Groups smaller than n are used whole. Raises ``EmptyGroup`` when a value
    has no records at all, since equalization then has nothing to balance.
    """
    if n < 1:
        raise ConfigError("n must be at least 1")
    partition = index.partition(space.name)
    return relevant_subsets(index.table, partition, index.table.vectors @ normalize(query), n)[0]


def retrieve_top_k(table: LabeledEmbeddingTable, query, k: int) -> list[Retrieved]:
    """The k most similar records (all of them when k exceeds the table)."""
    if k < 1:
        raise ConfigError("k must be at least 1")
    query = as_vector(query)
    if query.shape[0] != table.dim:
        raise DimensionMismatch(
            f"query has dimension {query.shape[0]}, table {table.dim}"
        )
    similarities = table.vectors @ normalize(query)
    rows = top_rows(table, similarities, np.arange(table.count), k)
    return [
        Retrieved(row, table.ids[row], similarity)
        for row, similarity in zip(rows.tolist(), similarities[rows].tolist())
    ]
