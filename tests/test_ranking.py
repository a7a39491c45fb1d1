"""Differential tests: every ranking in the package against plain Python.

Rows are drawn from a handful of distinct integer-grid directions, so many
rows coincide and score ties are the rule, not the exception. The reference
scores every row by the definition (``definition``), ranks with ``sorted`` by
(descending score, ascending id) and scores AUC by counting pairs, which is
the documented contract of all three rankings.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bend import pipeline
from bend.augment import GENDER
from bend.dataset import LabeledEmbeddingTable, make_folds
from bend.equalize import debias
from bend.errors import EmptyGroup
from bend.pipeline import (
    RunConfig,
    evaluate,
    parse_query_row,
    resolve_query,
    run_query_reports,
)
from bend.reference_index import (
    build_index,
    retrieve_top_k,
    score_block,
    top_n_by_attribute,
)
from bend.subspace import orthogonalize
from bend.vectors import normalize
from test_metrics import brute_force_auc

DIM = 4
CLASSES = ("c0", "c1")

grid_vectors = st.lists(st.integers(-2, 2), min_size=DIM, max_size=DIM).map(
    lambda v: v if any(v) else [1] + v[1:]
)


@st.composite
def tables(draw, min_count=2, max_count=40, min_directions=1):
    directions = draw(st.lists(grid_vectors, min_size=min_directions, max_size=6))
    count = draw(st.integers(min_count, max_count))
    picks = draw(st.lists(st.sampled_from(directions), min_size=count, max_size=count))
    rows = np.array(picks, dtype=np.float64)
    # Unpadded ids, shuffled: id order is neither row order nor numeric order.
    ids = draw(st.permutations([f"r{i}" for i in range(count)]))
    labels = draw(
        st.lists(st.sampled_from(GENDER.values), min_size=count, max_size=count)
    )
    classes = draw(st.lists(st.sampled_from(CLASSES), min_size=count, max_size=count))
    return LabeledEmbeddingTable(
        rows=rows / np.linalg.norm(rows, axis=1, keepdims=True),
        ids=tuple(ids),
        attributes={"gender": tuple(labels)},
        classes=tuple(classes),
        spaces={"gender": GENDER},
    )


def unit(table):
    """All of a table's float64 unit rows (test tables are small)."""
    return table.unit_rows(slice(None))


def definition(table, query):
    """Every row's score by the definition: the float64 sum, in numpy's fixed
    pairwise order, of the unit row times the unit query."""
    return np.add.reduce(unit(table) * normalize(query), axis=1)


def reference_top(table, scores, rows, limit):
    return sorted(rows, key=lambda i: (-scores[i], table.ids[i]))[:limit]


def reference_worst_auc(table, scores, fold, query_class):
    labels = table.attributes["gender"]
    worst = None
    for value in GENDER.values:
        pairs = [
            (scores[i], table.classes[i] == query_class)
            for i in fold
            if labels[i] == value
        ]
        if not pairs:
            continue
        if all(p for _, p in pairs) or not any(p for _, p in pairs):
            return None
        auc = brute_force_auc(pairs)
        worst = auc if worst is None else min(worst, auc)
    return worst


@given(tables(), grid_vectors, st.data())
def test_top_matches_sorted(table, query, data):
    scores = definition(table, query)
    rows = data.draw(
        st.lists(st.integers(0, table.count - 1), min_size=1, unique=True)
    )
    limit = data.draw(st.integers(1, table.count + 2))
    got, similarities = score_block(table, [query])[0].top(np.array(rows), limit)
    assert got.tolist() == reference_top(table, scores, rows, limit)
    assert similarities.tolist() == scores[got].tolist()


def tied_table(scores):
    """A table whose rows score ``scores``, rounded to float32, against the first axis."""
    scores = np.asarray(scores, dtype=np.float64)
    count = scores.size
    rows = np.stack([scores, np.sqrt(1.0 - scores**2)], axis=1)
    return LabeledEmbeddingTable(
        rows=rows,
        # Ids run against row order, so row order cannot stand in for them.
        ids=tuple(f"r{count - i:02d}" for i in range(count)),
        attributes={"gender": ("male", "female") * (count // 2)},
        classes=(None,) * count,
        spaces={"gender": GENDER},
    )


@pytest.mark.parametrize(
    "scores, limit",
    [
        pytest.param([0.5] * 8, 3, id="all-tied"),
        pytest.param([0.5] * 8, 8, id="all-tied-limit-is-size"),
        pytest.param([0.5] * 8, 7, id="all-tied-limit-is-size-less-one"),
        pytest.param([0.9, 0.5, 0.5, 0.5, 0.5, 0.1], 3, id="run-straddles-limit"),
        pytest.param([0.1, 0.5, 0.9, 0.5, 0.1, 0.5], 5, id="two-runs-straddle"),
        pytest.param([0.1, 0.5, 0.9, 0.5, 0.1, 0.5], 6, id="limit-is-size"),
        pytest.param([0.1, 0.5, 0.9, 0.5, 0.1, 0.5], 4, id="run-ends-at-limit"),
    ],
)
def test_top_keeps_the_tie_run_at_the_cutoff(scores, limit):
    table = tied_table(scores)
    column = definition(table, [1.0, 0.0])
    ranking = score_block(table, [np.array([1.0, 0.0])])[0]
    rows = np.arange(table.count)
    got = ranking.top(rows, limit)[0]
    assert got.tolist() == reference_top(table, column, rows.tolist(), limit)
    reversed_rows = rows[::-1]
    got = ranking.top(reversed_rows, limit)[0]
    assert got.tolist() == reference_top(table, column, reversed_rows.tolist(), limit)


@given(tables(), grid_vectors, st.integers(1, 45))
def test_retrieve_top_k_matches_sorted(table, query, k):
    scores = definition(table, query)
    expected = reference_top(table, scores, range(table.count), k)
    retrieved = retrieve_top_k(table, query, k)
    assert [r.id for r in retrieved] == [table.ids[i] for i in expected]
    assert [r.similarity for r in retrieved] == [float(scores[i]) for i in expected]


@given(tables(), grid_vectors, st.integers(1, 45))
def test_top_n_by_attribute_matches_sorted(table, query, n):
    index = build_index(table)
    scores = definition(table, query)
    labels = table.attributes["gender"]
    members = {
        v: [i for i in range(table.count) if labels[i] == v] for v in GENDER.values
    }
    if not all(members.values()):
        try:
            top_n_by_attribute(index, [query], GENDER, n)[0]
        except EmptyGroup:
            return
        raise AssertionError("a value without records must raise EmptyGroup")
    subsets = top_n_by_attribute(index, [query], GENDER, n)[0]
    for value in GENDER.values:
        expected = reference_top(table, scores, members[value], n)
        assert list(subsets.indices[value]) == expected
        expected_mean = table.unit_rows(expected).mean(axis=0)
        assert np.array_equal(subsets.means[value], expected_mean)


@settings(max_examples=60)
@given(tables(), st.lists(grid_vectors, min_size=1, max_size=4), st.integers(1, 12), st.data())
def test_evaluate_subsets_match_top_n_by_attribute(table, queries, n, data):
    # Repeated grid rows tie exactly at every rank, the n / n + 1 boundary
    # included, and n runs past small groups. Tilting rows by a few steps off
    # the grid parts most copies, so near ties occur too.
    tilt = data.draw(st.lists(st.integers(0, 3), min_size=table.count, max_size=table.count))
    tilted = unit(table) + np.outer(tilt, np.arange(1, DIM + 1)) / 64
    table = dataclasses.replace(
        table, rows=tilted / np.linalg.norm(tilted, axis=1, keepdims=True)
    )
    seen = []

    def recording(query_emb, matrix, subsets, mode):
        seen.append((query_emb, matrix, subsets))
        return debias(query_emb, matrix, subsets, mode)

    rows = [parse_query_row({"id": f"q{i}", "vector": v}) for i, v in enumerate(queries)]
    cfg = RunConfig(attribute="gender", n=n, k=5, modes=("full",), fold_count=2)
    with mock.patch.object(pipeline, "debias", recording):
        evaluate(rows, table, table, cfg)
    index = build_index(table)
    for query_emb, matrix, got in seen:
        want = top_n_by_attribute(index, [orthogonalize(query_emb, matrix)], GENDER, n)[0]
        assert got.indices == want.indices
        for value in GENDER.values:
            assert got.means[value].tobytes() == want.means[value].tobytes()


@settings(max_examples=40)
@given(
    tables(min_count=8, min_directions=3),
    tables(min_count=8, min_directions=3),
    st.lists(grid_vectors, min_size=1, max_size=3),
    st.sampled_from(CLASSES + (None,)),
    st.integers(2, 4),
    st.integers(1, 45),
    st.integers(1, 10),
    st.integers(0, 3),
)
def test_evaluate_folds_match_sorted(
    reference, target, query_vectors, query_class, fold_count, k, n, seed
):
    queries = [
        parse_query_row({"id": f"q{i}", "vector": v, "class": query_class})
        for i, v in enumerate(query_vectors)
    ]
    cfg = RunConfig(attribute="gender", n=n, k=k, seed=seed, fold_count=fold_count)
    assert_evaluate_matches_sorted(queries, reference, target, cfg)


def assert_evaluate_matches_sorted(queries, reference, target, cfg):
    """Every fold's pool size, top-k counts and worst-group AUC in the
    ``evaluate`` report equal the brute-force ones."""
    report = evaluate(queries, reference, target, cfg)
    index = build_index(reference)
    folds = make_folds(target.count, cfg.fold_count, cfg.seed)
    labels = target.attributes["gender"]
    for row, entry in zip(queries, report["queries"]):
        if "error" in entry:
            continue
        resolved = resolve_query(row, GENDER, index, cfg)
        reports, _ = run_query_reports(resolved, index, GENDER, cfg)
        for mode in cfg.modes:
            scores = definition(target, reports[mode].final)
            for fold, got in zip(folds, entry["modes"][mode]["folds"]):
                pool = sorted(set(range(target.count)) - set(fold))
                top = reference_top(target, scores, pool, cfg.k)
                assert got["pool_size"] == len(pool)
                assert got["retrieved"] == len(top)
                assert got["retrieved_counts"] == {
                    v: sum(labels[i] == v for i in top) for v in GENDER.values
                }
                assert got["worst_group_auc"] == reference_worst_auc(
                    target, scores, fold, row.class_label
                )
