"""The fold kernels of ``evaluate`` in isolation, and whole-run properties.

``_fold_tops`` reads every fold's top-k off one ranking of a score column and
must equal a separate ``top_rows`` over each fold's own pool;
``sorted_group_auc`` ranks by searching the sorted scores and must equal
counting pairs. ``_fold_metrics`` keeps a GEMM column only where the orders the
fold metrics read are certified: the top ``limit + 1`` rows of the ranking,
and each held-out (fold, value) group whose AUC is defined. A kept column must
give the metrics its GEMV gives, a gap of twice the error bound in either
place must reject it, and one elsewhere must not. ``evaluate`` reads relevant
subsets off one reference GEMM per block where certified, and its report must
not change when every query is ranked by ``top_n_by_attribute``'s GEMV
instead, or when every GEMM column is rejected, reference and target alike,
on continuous and on tie-heavy tables. An ``evaluate`` entry must not depend
on which other queries or modes ran, and its counts and metrics must survive
a rotation of every vector.
"""

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bend import pipeline, reference_index
from bend.augment import GENDER
from bend.dataset import LabeledEmbeddingTable
from bend.equalize import MODES
from bend.metrics import sorted_group_auc
from bend.pipeline import (
    SCORE_BLOCK_COLUMNS,
    RunConfig,
    _auc_reads,
    _fold_layout,
    _fold_metrics,
    _fold_tops,
    evaluate,
    parse_query_row,
)
from bend.reference_index import (
    _score_error_bound,
    order_certified,
    relevant_subsets,
    top_n_by_attribute,
    top_rows,
)
from bend.reporting import dumps
from bend.vectors import normalize
from test_metrics import brute_force_auc
from test_ranking import CLASSES, grid_vectors, tables, tied_table


def per_fold_tops(table, scores, fold_of, fold_count, k):
    rows = np.arange(table.count)
    return [
        top_rows(
            table, scores,
            np.setdiff1d(rows, np.flatnonzero(fold_of == f), assume_unique=True), k,
        )
        for f in range(fold_count)
    ]


@pytest.mark.parametrize(
    "scores, fold_of, k",
    [
        pytest.param(
            [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0],
            [0, 0, 0, 0, 1, 1, 1, 1, 1, 1], 2, id="one-fold-holds-the-2k-best",
        ),
        pytest.param(
            [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.1, 0.1],
            [1, 1, 1, 1, 1, 1, 0, 0, 0, 1], 3, id="tied-best-run-in-one-fold",
        ),
        pytest.param(
            [0.1, 0.5, 0.9, 0.5, 0.1, 0.5],
            [0, 0, 0, 0, 0, 1], 3, id="k-exceeds-pool",
        ),
        pytest.param(
            [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0],
            [0, 0, 0, 0, 0, 0, 0, 0, 1, 2], 3, id="limit-reaches-count",
        ),
    ],
)
def test_fold_tops_match_per_fold_pools(scores, fold_of, k):
    table = tied_table(scores)
    column = table.vectors @ np.array([1.0, 0.0])
    fold_of = np.array(fold_of)
    fold_count = int(fold_of.max()) + 1
    got = _fold_tops(table, column, fold_of, fold_count, k)
    expected = per_fold_tops(table, column, fold_of, fold_count, k)
    assert [top.tolist() for top in got] == [top.tolist() for top in expected]


@settings(max_examples=40)
@given(tables(), grid_vectors, st.data())
def test_fold_tops_match_per_fold_pools_on_tied_tables(table, query, data):
    fold_count = data.draw(st.integers(1, 4))
    fold_of = np.array(
        data.draw(st.lists(st.integers(0, fold_count - 1), min_size=table.count,
                           max_size=table.count))
    )
    k = data.draw(st.integers(1, table.count + 2))
    scores = table.vectors @ normalize(query)
    got = _fold_tops(table, scores, fold_of, fold_count, k)
    expected = per_fold_tops(table, scores, fold_of, fold_count, k)
    assert [top.tolist() for top in got] == [top.tolist() for top in expected]


@given(
    st.lists(
        st.tuples(st.sampled_from([-0.5, -0.0, 0.0, 0.25, 1.0]), st.booleans()),
        min_size=2, max_size=30,
    ).filter(lambda pairs: 0 < sum(p for _, p in pairs) < len(pairs))
)
def test_group_auc_equals_pair_count_exactly(pairs):
    scores = np.array([s for s, _ in pairs])
    positive = np.array([p for _, p in pairs])
    assert sorted_group_auc(np.sort(scores), scores[positive]) == brute_force_auc(pairs)


@settings(max_examples=25, deadline=None)
@given(
    tables(min_count=8, min_directions=3),
    tables(min_count=8, min_directions=3),
    st.lists(
        st.tuples(grid_vectors, st.sampled_from(CLASSES + (None,))),
        min_size=1, max_size=4,
    ),
    st.data(),
)
def test_evaluate_entry_is_batch_and_mode_set_independent(
    reference, target, drawn, data
):
    queries = [
        parse_query_row({"id": f"q{i}", "vector": v, "class": c})
        for i, (v, c) in enumerate(drawn)
    ]
    modes = tuple(data.draw(st.lists(st.sampled_from(MODES), min_size=1, unique=True)))
    cfg = dict(attribute="gender", n=data.draw(st.integers(1, 6)),
               k=data.draw(st.integers(1, 30)), seed=data.draw(st.integers(0, 3)),
               fold_count=data.draw(st.integers(2, 4)))
    together = evaluate(queries, reference, target, RunConfig(**cfg))["queries"]
    subset = evaluate(queries, reference, target, RunConfig(**cfg, modes=modes))
    for query, entry, narrow in zip(queries, together, subset["queries"]):
        alone = evaluate([query], reference, target, RunConfig(**cfg))["queries"]
        assert dumps(alone) == dumps([entry])
        if "error" in entry:
            assert dumps(narrow) == dumps(entry)
            continue
        restricted = {**entry, "modes": {m: entry["modes"][m] for m in modes}}
        assert dumps(narrow) == dumps(restricted)


def unit_rows(rng, count, dim, spread=0):
    """Seeded random unit rows; components vary in scale by up to 10**spread."""
    scales = 10.0 ** -rng.integers(0, spread + 1, (count, dim))
    rows = rng.standard_normal((count, dim)) * scales
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def fold_metrics(table, fold_of, positive, scores, k, certify):
    """``_fold_metrics`` over explicit folds, with the tops as lists."""
    folds = [np.flatnonzero(fold_of == f) for f in range(int(fold_of.max()) + 1)]
    layout = _fold_layout(folds, table.codes["gender"], len(GENDER.values))
    no_class = np.zeros(table.count, dtype=bool)
    reads = _auc_reads(layout, no_class if positive is None else positive)
    metrics = _fold_metrics(table, layout, reads, scores, k, certify=certify)
    return metrics and ([top.tolist() for top in metrics[0]], metrics[1])


@settings(max_examples=60)
@given(tables(), st.lists(grid_vectors, min_size=1, max_size=SCORE_BLOCK_COLUMNS), st.data())
def test_certified_fold_metrics_equal_the_gemvs_on_tied_tables(table, queries, data):
    finals = [normalize(q) for q in queries]
    fold_count = data.draw(st.integers(1, 4))
    fold_of = np.array(
        data.draw(st.lists(st.integers(0, fold_count - 1), min_size=table.count,
                           max_size=table.count))
    )
    positive = data.draw(st.sampled_from(
        [None, np.array([c == CLASSES[0] for c in table.classes])]
    ))
    k = data.draw(st.integers(1, table.count + 2))
    for final, column in zip(finals, np.stack(finals) @ table.vectors.T):
        kept = fold_metrics(table, fold_of, positive, column, k, certify=True)
        if kept is not None:
            gemv = table.vectors @ final
            assert kept == fold_metrics(table, fold_of, positive, gemv, k, certify=False)


@settings(max_examples=60)
@given(st.integers(1, 64), st.integers(1, 60), st.integers(1, SCORE_BLOCK_COLUMNS),
       st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_gemm_and_gemv_scores_differ_by_at_most_the_error_bound(
    dim, count, width, spread, seed
):
    rng = np.random.default_rng(seed)
    vectors = unit_rows(rng, count, dim, spread)
    finals = unit_rows(rng, width, dim, spread)
    bound = _score_error_bound(dim)
    for final, column in zip(finals, finals @ vectors.T):
        assert np.all(np.abs(column - vectors @ final) <= bound)


def test_a_gap_of_twice_the_error_bound_is_not_certified():
    # At exactly twice the bound, both scores can move to one value: a tie.
    gap = 2 * _score_error_bound(8)
    assert not order_certified(np.array([0.0, gap, 1.0]), 8)
    assert order_certified(np.array([0.0, np.nextafter(gap, 1.0), 1.0]), 8)
    assert not order_certified(np.array([0.25, 0.25, 0.5]), 8)


# Twelve rows in two folds of pairs; gender alternates by row, so each
# (fold, value) group holds three rows: (0, male) is rows 0, 4 and 8, (0,
# female) 1, 5, 9, (1, male) 2, 6, 10 and (1, female) 3, 7, 11. Rows 0-3 are
# the positives, one per group, and the best four, two per fold: with k = 2
# the ranking reads the top limit + 1 = 5 rows, and never grows.
GAP_FOLDS = np.array([0, 0, 1, 1] * 3)
GAP_POSITIVE = np.arange(12) < 4
GAP_SCORES = np.array([0.9, 0.7, 0.8, 0.6, 0.5, -0.1, -0.2, -0.3, -0.4, -0.5, -0.6, -0.7])


def gap_metrics(rows, scores, certify=True, positive=GAP_POSITIVE):
    """``fold_metrics`` on ``GAP_SCORES`` with ``rows`` set to ``scores``."""
    column = GAP_SCORES.copy()
    column[list(rows)] = scores
    table = tied_table(np.zeros(12))
    return fold_metrics(table, GAP_FOLDS, positive, column, 2, certify)


GAP = 2 * _score_error_bound(2)


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param((6, 10), id="inside-a-held-out-group"),
        pytest.param((3, 4), id="between-ranked-rows-limit-and-limit-plus-one"),
    ],
)
def test_a_gap_of_twice_the_bound_where_the_metrics_read_falls_back(rows):
    assert gap_metrics(rows, [GAP, 0.0]) is None
    assert gap_metrics(rows, [np.nextafter(GAP, 1.0), 0.0]) is not None


def test_a_gap_of_twice_the_bound_the_metrics_do_not_read_keeps_the_gemm():
    # Rows 6 and 7 sit in different groups, both below the ranked prefix, so
    # no evaluation within the bound changes a metric, a tie included.
    kept = gap_metrics((6, 7), [GAP, 0.0])
    assert kept is not None
    assert kept == gap_metrics((6, 7), [GAP / 2, GAP / 2], certify=False)
    assert kept == gap_metrics((6, 7), [0.0, GAP], certify=False)


def test_a_query_without_a_class_certifies_no_group():
    assert gap_metrics((6, 10), [GAP, 0.0]) is None
    kept = gap_metrics((6, 10), [GAP, 0.0], positive=None)
    assert kept is not None and kept[1] == [None, None]
    assert kept == gap_metrics((6, 10), [0.0, 0.0], certify=False, positive=None)
    # Fold 1's groups are single-class here, so it has no AUC and no group of
    # it is read.
    one_class = GAP_POSITIVE & (GAP_FOLDS == 0)
    kept = gap_metrics((6, 10), [GAP, 0.0], positive=one_class)
    assert kept is not None and kept[1] == [1.0, None]


def test_fold_metrics_keep_every_gemm_column_of_a_continuous_table():
    rng = np.random.default_rng(7)
    table = continuous_table(rng, 2000, 64, "tgt")
    finals = list(unit_rows(rng, SCORE_BLOCK_COLUMNS, 64))
    fold_of = rng.integers(0, 5, table.count)
    positive = np.array([c == CLASSES[0] for c in table.classes])
    for k in (50, 2000):
        for final, column in zip(finals, np.stack(finals) @ table.vectors.T):
            kept = fold_metrics(table, fold_of, positive, column, k, certify=True)
            assert kept is not None
            gemv = table.vectors @ final
            assert kept == fold_metrics(table, fold_of, positive, gemv, k, certify=False)


def continuous_table(rng, count, dim, prefix):
    return LabeledEmbeddingTable(
        vectors=unit_rows(rng, count, dim),
        ids=tuple(f"{prefix}{i}" for i in range(count)),
        attributes={"gender": tuple(rng.choice(GENDER.values, count).tolist())},
        classes=tuple(rng.choice(CLASSES, count).tolist()),
        spaces={"gender": GENDER},
    )


def block_queries(rng, dim):
    """Six queries, the third of the wrong width: 24 finals, two score blocks."""
    return [
        parse_query_row({
            "id": f"q{i}",
            "class": CLASSES[i % 2],
            "vector": rng.standard_normal(dim + (i == 2)).tolist(),
        })
        for i in range(6)
    ]


def assert_entries_stand_alone(queries, reference, target, cfg):
    together = evaluate(queries, reference, target, cfg)["queries"]
    assert "error" in together[2] and "error" not in together[4]
    for query, entry in zip(queries, together):
        alone = evaluate([query], reference, target, cfg)["queries"]
        assert dumps(alone) == dumps([entry])


def count_kept_columns(monkeypatch):
    """Record, for every GEMM column ``evaluate`` scores, whether it is kept."""
    calls = []

    def counted(*args, certify):
        metrics = _fold_metrics(*args, certify=certify)
        if certify:
            calls.append(metrics is not None)
        return metrics

    monkeypatch.setattr(pipeline, "_fold_metrics", counted)
    return calls


def test_evaluate_entries_do_not_depend_on_their_score_block():
    rng = np.random.default_rng(11)
    reference = continuous_table(rng, 60, 8, "ref")
    target = continuous_table(rng, 70, 8, "tgt")
    queries = block_queries(rng, 8)
    assert len(queries) * len(MODES) > SCORE_BLOCK_COLUMNS
    cfg = RunConfig(attribute="gender", n=8, k=15, seed=3, fold_count=3)
    assert_entries_stand_alone(queries, reference, target, cfg)


def test_a_block_of_failed_queries_keeps_the_gemm(monkeypatch):
    rng = np.random.default_rng(13)
    reference = continuous_table(rng, 60, 8, "ref")
    target = continuous_table(rng, 70, 8, "tgt")
    queries = [
        parse_query_row({"id": f"q{i}", "vector": rng.standard_normal(dim).tolist()})
        for i, dim in enumerate([9, 9, 9, 9, 8, 8])
    ]
    calls = count_kept_columns(monkeypatch)
    cfg = RunConfig(attribute="gender", n=8, k=15, seed=3, fold_count=3)
    entries = evaluate(queries, reference, target, cfg)["queries"]
    assert ["error" in entry for entry in entries] == [True] * 4 + [False] * 2
    # The first block scores no final; the second keeps all eight columns.
    assert calls == [True] * 8


def test_a_target_of_duplicate_rows_is_rescored_by_the_gemv_in_every_block(
    monkeypatch,
):
    rng = np.random.default_rng(12)
    reference = continuous_table(rng, 60, 8, "ref")
    half = continuous_table(rng, 35, 8, "tgt")
    target = dataclasses.replace(
        half,
        vectors=np.concatenate([half.vectors, half.vectors]),
        ids=half.ids + tuple(f"dup-{i}" for i in half.ids),
        attributes={"gender": half.attributes["gender"] * 2},
        classes=half.classes * 2,
    )
    calls = count_kept_columns(monkeypatch)
    cfg = RunConfig(attribute="gender", n=8, k=15, seed=3, fold_count=3)
    queries = block_queries(rng, 8)
    evaluate(queries, reference, target, cfg)
    # Every row ties with its duplicate, the best row too, so each block
    # rescores all of its finals: 12 in the first (one of its queries failed)
    # and 8 in the second.
    assert calls == [False] * 20
    assert_entries_stand_alone(queries, reference, target, cfg)


def count_gemv_rankings(monkeypatch):
    """Record ``n`` for every reference ranking ``evaluate`` leaves to the GEMV."""
    calls = []

    def counted(index, query, space, n):
        calls.append(n)
        return top_n_by_attribute(index, query, space, n)

    monkeypatch.setattr(pipeline, "top_n_by_attribute", counted)
    return calls


def gemv_report(monkeypatch, *args):
    """``evaluate`` with every relevant subset ranked by the GEMV."""
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "relevant_subsets",
                      lambda *a: (relevant_subsets(*a)[0], False))
        return dumps(evaluate(*args))


def duplicated(table):
    """``table`` with every row twice: each pair ties under any evaluation."""
    return dataclasses.replace(
        table,
        vectors=np.concatenate([table.vectors, table.vectors]),
        ids=table.ids + tuple(f"dup-{i}" for i in table.ids),
        attributes={"gender": table.attributes["gender"] * 2},
        classes=table.classes * 2,
    )


def test_evaluate_picks_relevant_subsets_off_the_reference_gemm(monkeypatch):
    rng = np.random.default_rng(17)
    reference = continuous_table(rng, 60, 8, "ref")
    target = continuous_table(rng, 70, 8, "tgt")
    queries = block_queries(rng, 8)
    cfg = RunConfig(attribute="gender", n=8, k=15, seed=3, fold_count=3)
    calls = count_gemv_rankings(monkeypatch)
    report = dumps(evaluate(queries, reference, target, cfg))
    assert calls == []
    assert report == gemv_report(monkeypatch, queries, reference, target, cfg)
    assert calls == [8] * 5


@pytest.mark.parametrize("n", [8, 40], ids=["top-n", "whole-groups"])
def test_a_reference_of_duplicate_rows_is_ranked_by_the_gemv(monkeypatch, n):
    rng = np.random.default_rng(19)
    reference = duplicated(continuous_table(rng, 30, 8, "ref"))
    target = continuous_table(rng, 70, 8, "tgt")
    queries = block_queries(rng, 8)
    cfg = RunConfig(attribute="gender", n=n, k=15, seed=3, fold_count=3)
    calls = count_gemv_rankings(monkeypatch)
    report = dumps(evaluate(queries, reference, target, cfg))
    # Each of the five queries that resolve falls back once, in its own block.
    assert calls == [n] * 5
    assert report == gemv_report(monkeypatch, queries, reference, target, cfg)
    assert_entries_stand_alone(queries, reference, target, cfg)


def test_evaluate_report_is_unchanged_when_every_gemm_column_is_rejected(monkeypatch):
    rng = np.random.default_rng(23)
    reference = continuous_table(rng, 60, 8, "ref")
    target = continuous_table(rng, 70, 8, "tgt")
    queries = block_queries(rng, 8)
    assert len(queries) * len(MODES) > SCORE_BLOCK_COLUMNS
    cfg = RunConfig(attribute="gender", n=8, k=15, seed=3, fold_count=3)
    report = dumps(evaluate(queries, reference, target, cfg))
    calls = count_gemv_rankings(monkeypatch)
    kept = count_kept_columns(monkeypatch)
    with rejecting_every_gemm_column():
        assert dumps(evaluate(queries, reference, target, cfg)) == report
    assert calls == [8] * 5
    assert kept == [False] * 20


@contextlib.contextmanager
def rejecting_every_gemm_column():
    """Patch the certificate to reject every column, reference and target."""
    def reject(ordered, dim):
        return False

    with mock.patch.object(reference_index, "order_certified", reject), \
            mock.patch.object(pipeline, "order_certified", reject):
        yield


@settings(max_examples=25, deadline=None)
@given(
    tables(min_count=8, min_directions=3),
    tables(min_count=8, min_directions=3),
    st.lists(
        st.tuples(grid_vectors, st.sampled_from(CLASSES + (None,))),
        min_size=1, max_size=5,
    ),
    st.integers(1, 45),
    st.integers(2, 4),
)
def test_evaluate_report_is_unchanged_when_every_gemm_column_is_rejected_on_tied_tables(
    reference, target, drawn, k, fold_count
):
    queries = [
        parse_query_row({"id": f"q{i}", "vector": v, "class": c})
        for i, (v, c) in enumerate(drawn)
    ]
    cfg = RunConfig(attribute="gender", n=5, k=k, seed=1, fold_count=fold_count)
    report = dumps(evaluate(queries, reference, target, cfg))
    with rejecting_every_gemm_column():
        assert dumps(evaluate(queries, reference, target, cfg)) == report


def rotated(query, rotation):
    def turn(vector):
        return (rotation @ np.asarray(vector)).tolist()

    return {
        **query,
        "vector": turn(query["vector"]),
        "augmented": {value: turn(v) for value, v in query["augmented"].items()},
        "generic": {value: turn(v) for value, v in query["generic"].items()},
    }


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_evaluate_metrics_are_rotation_invariant(seed):
    rng = np.random.default_rng(seed)
    dim = 12
    reference = continuous_table(rng, 80, dim, "ref")
    target = continuous_table(rng, 90, dim, "tgt")
    queries = [
        {
            "id": f"q{i}",
            "class": CLASSES[i % 2],
            "vector": rng.standard_normal(dim).tolist(),
            "augmented": {v: rng.standard_normal(dim).tolist() for v in GENDER.values},
            "generic": {v: rng.standard_normal(dim).tolist() for v in GENDER.values},
        }
        for i in range(2)
    ]
    rotation, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    cfg = RunConfig(attribute="gender", n=10, k=20, seed=seed % 4, fold_count=3)
    plain = evaluate([parse_query_row(q) for q in queries], reference, target, cfg)
    spun = evaluate(
        [parse_query_row(rotated(q, rotation)) for q in queries],
        *(dataclasses.replace(t, vectors=t.vectors @ rotation.T) for t in (reference, target)),
        cfg,
    )
    for want, got in zip(plain["queries"], spun["queries"]):
        assert "error" not in want and "error" not in got
        assert got["n_used"] == want["n_used"]
        for mode in MODES:
            want_mode, got_mode = want["modes"][mode], got["modes"][mode]
            assert got_mode["distance_gap"] == pytest.approx(
                want_mode["distance_gap"], abs=1e-12
            )
            for want_fold, got_fold in zip(want_mode["folds"], got_mode["folds"]):
                for key in ("retrieved_counts", "kl", "max_skew"):
                    assert got_fold[key] == want_fold[key]
                assert got_fold["worst_group_auc"] == pytest.approx(
                    want_fold["worst_group_auc"], abs=1e-12
                )
