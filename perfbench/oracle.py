"""The benchmark's own float64 reference for what the program returns.

Tables are read straight from the generated files (not through ``bend``),
upcast to float64 and unit-normalized. Rankings are by descending score,
then ascending record id; AUC is the Mann-Whitney statistic over mid-ranks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Tolerances: finals are unit vectors, equalization holds to rounding, and
# report floats are recomputed from integers the report carries.
NORM_TOL = 1e-9
RESIDUAL_TOL = 1e-9
FLOAT_TOL = 1e-9
STEP1_TOL = 1e-8


@dataclass
class OracleTable:
    vectors: np.ndarray      # (N, d) float64, unit rows
    ids: list[str]
    id_rank: np.ndarray      # position of each row's id in sorted id order
    labels: np.ndarray       # attribute value per row (str)
    classes: np.ndarray      # class label per row (str)


def load_table(manifest_path: Path, attribute: str) -> OracleTable:
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    base = Path(manifest_path).parent
    raw = np.fromfile(base / manifest["vectors_file"], dtype="<f4")
    vectors = raw.astype(np.float64).reshape(manifest["count"], manifest["dim"])
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    ids, labels, classes = [], [], []
    with (base / manifest["meta_file"]).open(encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            ids.append(record["id"])
            labels.append(record["attributes"][attribute])
            classes.append(record.get("class"))
    id_rank = np.empty(len(ids), dtype=np.int64)
    id_rank[np.argsort(np.array(ids), kind="stable")] = np.arange(len(ids))
    return OracleTable(vectors, ids, id_rank, np.array(labels), np.array(classes))


def scores(table: OracleTable, query: np.ndarray) -> np.ndarray:
    """Cosine similarity of every row to ``query``."""
    return table.vectors @ (query / np.linalg.norm(query))


def top(table: OracleTable, sims: np.ndarray, limit: int, rows: np.ndarray) -> np.ndarray:
    """The ``limit`` best of ``rows``: descending score, then ascending id."""
    return rows[np.lexsort((table.id_rank[rows], -sims[rows]))[:limit]]


def label_counts(table: OracleTable, rows: np.ndarray, values) -> dict[str, int]:
    labels = table.labels[rows]
    return {v: int(np.count_nonzero(labels == v)) for v in values}


def midrank_auc(scores: np.ndarray, positive: np.ndarray) -> float | None:
    n_pos = int(positive.sum())
    n_neg = positive.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], sorted_scores.shape[0]]
    ranks = np.empty(scores.shape[0])
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return (float(ranks[positive].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def worst_group_auc(table: OracleTable, rows: np.ndarray, sims: np.ndarray, query_class: str, values) -> float | None:
    """Smallest per-group AUC of ``sims`` over ``rows`` for the query's class;
    None when a group holds a single class."""
    worst = None
    for value in values:
        members = rows[table.labels[rows] == value]
        if members.size == 0:
            continue
        auc = midrank_auc(sims[members], table.classes[members] == query_class)
        if auc is None:
            return None
        worst = auc if worst is None else min(worst, auc)
    return worst


def kl_and_skew(counts: dict[str, int], prior: dict[str, float]) -> tuple[float, float]:
    total = sum(counts.values())
    kl, skew = 0.0, -math.inf
    for value, count in counts.items():
        if count:
            p = count / total
            kl += p * math.log(p / prior[value])
            skew = max(skew, math.log(p / prior[value]))
    return kl, skew


def make_folds(count: int, fold_count: int, seed: int) -> list[np.ndarray]:
    """The evaluation protocol's fold partition: a seeded permutation split
    into near-equal chunks."""
    order = np.random.default_rng(seed).permutation(count)
    return np.array_split(order, fold_count)


def jaccard(a, b) -> float:
    a, b = set(a), set(b)
    return len(a & b) / len(a | b) if a | b else 1.0


def multiset_jaccard(a: dict[str, int], b: dict[str, int]) -> float:
    keys = set(a) | set(b)
    union = sum(max(a.get(k, 0), b.get(k, 0)) for k in keys)
    return sum(min(a.get(k, 0), b.get(k, 0)) for k in keys) / union if union else 1.0


def residual(final: np.ndarray, reference: OracleTable, subset_rows: dict[str, list[int]]) -> float:
    """Largest |mu_i . z - mu_1 . z| over the relevant-subset group means."""
    sims = [float(reference.vectors[rows].mean(axis=0) @ final) for rows in subset_rows.values()]
    return max(abs(s - sims[0]) for s in sims[1:])
