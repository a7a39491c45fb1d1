"""Exact cosine retrieval over labeled embedding tables.

A deliberate linear scan: desk-scale corpora make exactness cheap, and
auditable fairness math is worth more than approximate speed. A score is one
fixed-order float64 sum that no BLAS computes, and ties always break by
ascending record id, so ranks do not depend on the platform or thread count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .augment import AttributeSpace
from .dataset import BLOCK_ROWS, LabeledEmbeddingTable
from .errors import ConfigError, DimensionMismatch, EmptyGroup, UnknownLabel
from .metrics import sorted_group_auc
from .vectors import Vector, as_vector, normalize

# The norms a float32 screen is bounded for: above, a float32 sum could
# overflow, so those rows are rescored; below, underflow could outweigh the
# bound, but a table holds no row of norm ZERO_NORM_EPS = 1e-12 or less.
SCREEN_NORMS = (2.0**-40, 2.0**100)


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
                means[value] = _mean_rows(self.table, idx)
                means[value].flags.writeable = False
            self._means[attribute] = means
        return dict(means)


def _mean_rows(table: LabeledEmbeddingTable, idx: np.ndarray) -> Vector:
    """``unit_rows(idx).mean(axis=0)`` bit for bit, gathering one block at a time,
    so a mean never copies a whole group. An axis-0 sum adds rows in order into
    one running row, so putting that row first in the next block continues it.
    """
    total = np.zeros(table.dim)
    for start in range(0, idx.size, BLOCK_ROWS):
        rows = table.unit_rows(idx[start : start + BLOCK_ROWS])
        total = np.add.reduce(np.vstack([total[None], rows]), axis=0)
    return total / idx.size


def build_index(table: LabeledEmbeddingTable) -> ReferenceIndex:
    return ReferenceIndex(table)


@functools.cache
def screen_error_bound(dim: int) -> float:
    """The most a row's screen can differ from its score (README, "Evaluation
    protocol"): the query's float32 cast, the float32 sum in any order, the
    score's own float64 rounding and the scale by 1/norm, plus underflow."""
    u32, u64 = np.finfo(np.float32).eps / 2, np.finfo(np.float64).eps / 2
    g32, g64 = dim * u32 / (1 - dim * u32), dim * u64 / (1 - dim * u64)
    underflow = 4 * dim * float(np.finfo(np.float32).tiny) / SCREEN_NORMS[0]
    return ((u32 + g32) * (1 + 2 * g32) + 3 * g64) * (1 + 4 * g64) + underflow


class Scores:
    """One unit query's scores over a table's rows (built by ``score_block``),
    and every rule that ranks by them. A score is the float64
    ``np.add.reduce(unit_row * query)``, numpy's fixed-order pairwise sum. The
    ``screen`` (float64, one per row, kept as given) is each row's float32 BLAS
    product over its norm, and lies within ``eps`` of the score (is it, above
    ``SCREEN_NORMS``), so rows whose screens are over ``band`` apart (2eps, plus
    16u for rounding in comparisons) order as their screens do; only the others
    are rescored."""

    def __init__(self, table: LabeledEmbeddingTable, query: Vector, screen: np.ndarray):
        self.table, self.query, self.screen = table, query, screen
        self.eps = screen_error_bound(table.dim)
        self.band = 2 * self.eps + 16 * np.finfo(np.float64).eps / 2

    def exact(self, rows: np.ndarray) -> np.ndarray:
        """The scores of ``rows``, rescored a block of rows at a time."""
        out = np.empty(rows.size)
        for start in range(0, rows.size, BLOCK_ROWS):
            unit = self.table.unit_rows(rows[start : start + BLOCK_ROWS])
            unit *= self.query
            out[start : start + unit.shape[0]] = np.add.reduce(unit, axis=1)
        return out

    def best(self, rows: np.ndarray, limit: int) -> np.ndarray:
        """The ``limit`` best of ``rows`` by descending score, then ascending
        id, in no order (all of them when fewer). With t the ``limit``-th best
        screen, a row screening over t + band is outscored only by rows that
        screen over t, fewer than ``limit``, so it is in; one under t - band is
        outscored by the ``limit`` rows screening t or more, so it is out. The
        rows between are rescored, and fill the rest."""
        if limit >= rows.size:
            return rows
        screen = self.screen[rows]
        cut = np.partition(screen, -limit)[-limit]
        low, high = cut - self.band, cut + self.band
        sure = rows[screen > high]
        band = rows[(screen >= low) & (screen <= high)]
        if band.size > limit - sure.size:
            band = band[np.lexsort((self.table.id_rank[band], -self.exact(band)))]
        return np.concatenate([sure, band[: limit - sure.size]])

    def top(self, rows: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``limit`` best of ``rows``, best first, and their scores."""
        chosen = self.best(rows, limit)
        scores = self.exact(chosen)
        order = np.lexsort((self.table.id_rank[chosen], -scores))
        return chosen[order], scores[order]

    def fold_tops(self, fold_of: np.ndarray, fold_count: int, k: int) -> list[np.ndarray]:
        """Every fold's top-k over the rows outside it, as a set, off one ranking:
        the rows screening at or above the ``limit``-th best. Once each fold's k-th
        best ranked row screens ``band`` above that cut, no row left out can enter
        its top-k, so ``best`` over the ranked rows is exact; ``limit`` doubles
        until then, or until the ranking covers the table."""
        screen, limit = self.screen, 2 * k
        while True:
            cut = np.partition(screen, -limit)[-limit] if limit < screen.size else -np.inf
            ranked = np.flatnonzero(screen >= cut)
            owner = fold_of[ranked]
            pools = [ranked[owner != f] for f in range(fold_count)]
            if cut == -np.inf or all(
                pool.size >= k and np.partition(screen[pool], -k)[-k] - self.band >= cut
                for pool in pools
            ):
                return [self.best(pool, k) for pool in pools]
            limit *= 2

    def group_auc(self, hit_rows: np.ndarray, miss_rows: np.ndarray) -> float:
        """The AUC of a group's hit rows against its miss rows off their screens,
        with every row of a hit-miss pair within ``band`` rescored: only such a
        pair can order differently, so the statistic is the scores' own."""
        hits, misses = self.screen[hit_rows], self.screen[miss_rows]
        ascending = np.sort(misses)
        near = _within(hits, ascending, self.band)
        if near.any():
            # A miss near any hit is near one of ``near``.
            close = _within(misses, np.sort(hits[near]), self.band)
            hits[near] = self.exact(hit_rows[near])
            misses[close] = self.exact(miss_rows[close])
            ascending = np.sort(misses)
        return sorted_group_auc(np.sort(hits), ascending)


def _within(values: np.ndarray, ascending: np.ndarray, band: float) -> np.ndarray:
    """Whether each of ``values`` lies within ``band`` of one of ``ascending``."""
    below = np.searchsorted(ascending, values - band, "left")
    return below < np.searchsorted(ascending, values + band, "right")


def checked_query(table: LabeledEmbeddingTable, query) -> Vector:
    """``query`` as a vector; one of another width than the table's raises
    ``DimensionMismatch``."""
    query = as_vector(query)
    if query.shape[0] != table.dim:
        raise DimensionMismatch(f"query has dimension {query.shape[0]}, table {table.dim}")
    return query


def score_block(table: LabeledEmbeddingTable, queries: Sequence) -> list[Scores]:
    """Each query's ``Scores``, over the query normalized (``checked_query``
    first). The screens are one (queries, rows) float64 block, filled a tile
    of rows at a time: the float32 product of the tile with every query,
    divided by those rows' norms into the tile's columns. A block of one is
    one tile, a GEMV over the whole table. Rows above ``SCREEN_NORMS`` are
    rescored."""
    units = [normalize(checked_query(table, query)) for query in queries]
    if not units:
        return []
    block = np.stack(units).astype(np.float32)
    screens = np.empty((len(units), table.count))
    # A GEMM packs its tile of rows into BLAS's buffer, whose pages stay
    # resident: an eighth of a block (1 MiB of rows at d=512) keeps that small,
    # at no cost in speed. A GEMV packs nothing and runs fastest as one call
    # over the whole table, whose float32 product is then a single row.
    step = table.count if len(units) == 1 else BLOCK_ROWS // 8
    with np.errstate(over="ignore", invalid="ignore"):  # rows above SCREEN_NORMS
        for start in range(0, table.count, step):
            stop = min(start + step, table.count)
            tile = table.rows[start:stop] @ block.T
            np.divide(tile.T, table.norms[start:stop], out=screens[:, start:stop])
    scores = [Scores(table, unit, screen) for unit, screen in zip(units, screens)]
    if table.norms.max() > SCREEN_NORMS[1]:  # rows the bound does not cover
        rows = np.flatnonzero(table.norms > SCREEN_NORMS[1])
        for one in scores:
            one.screen[rows] = one.exact(rows)
    return scores


def relevant_subsets(partition: dict[str, np.ndarray], scores: Scores, n: int) -> RelevantSubsets:
    """Each value's n best ``partition`` rows by ``scores``, in rank order."""
    tops = {}
    for value, members in partition.items():
        if members.size == 0:
            raise EmptyGroup(f"attribute value {value!r} has no reference records")
        tops[value] = scores.top(members, n)[0]
    return RelevantSubsets(
        indices={value: tuple(top.tolist()) for value, top in tops.items()},
        means={value: _mean_rows(scores.table, top) for value, top in tops.items()},
    )


def top_n_by_attribute(
    index: ReferenceIndex, queries: Sequence, space: AttributeSpace, n: int
) -> list[RelevantSubsets]:
    """Per query, the n records per attribute value most similar to it, off
    one ``score_block`` over the reference for all of them.

    Groups smaller than n are used whole. Raises ``EmptyGroup`` when a value
    has no records at all, since equalization then has nothing to balance.
    """
    if n < 1:
        raise ConfigError("n must be at least 1")
    partition = index.partition(space.name)
    return [relevant_subsets(partition, scores, n) for scores in score_block(index.table, queries)]


def retrieve_top_k(table: LabeledEmbeddingTable, query, k: int) -> list[Retrieved]:
    """The k most similar records (all of them when k exceeds the table)."""
    if k < 1:
        raise ConfigError("k must be at least 1")
    rows, similarities = score_block(table, [query])[0].top(np.arange(table.count), k)
    rows = rows.tolist()
    return list(map(Retrieved, rows, map(table.ids.__getitem__, rows), similarities.tolist()))
