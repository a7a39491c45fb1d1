"""Exact cosine retrieval over labeled embedding tables.

A deliberate linear scan: desk-scale corpora make exactness cheap, and
auditable fairness math is worth more than approximate speed. Ties always
break by ascending record id so runs are reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .augment import AttributeSpace
from .dataset import LabeledEmbeddingTable
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
        keep = candidates >= np.partition(candidates, -limit)[-limit]
        rows, candidates = rows[keep], candidates[keep]
    return rows[np.lexsort((table.id_rank[rows], -candidates))[:limit]]


def top_n_by_attribute(
    index: ReferenceIndex, query, space: AttributeSpace, n: int
) -> RelevantSubsets:
    """The n records per attribute value most similar to the query.

    Groups smaller than n are used whole. Raises ``EmptyGroup`` when a value
    has no records at all, since equalization then has nothing to balance.
    """
    if n < 1:
        raise ConfigError("n must be at least 1")
    partition = index.partition(space.name)
    rows = index.table.vectors
    scores = rows @ normalize(query)
    indices: dict[str, tuple[int, ...]] = {}
    means: dict[str, Vector] = {}
    for value, members in partition.items():
        if members.size == 0:
            raise EmptyGroup(f"attribute value {value!r} has no reference records")
        chosen = top_rows(index.table, scores, members, n)
        indices[value] = tuple(chosen.tolist())
        means[value] = rows[chosen].mean(axis=0)
    return RelevantSubsets(indices=indices, means=means)


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
