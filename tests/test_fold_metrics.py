"""The fold kernels of ``evaluate`` in isolation, and whole-run properties.

``Scores.fold_tops`` reads every fold's top-k off one ranking of a query's
float32 screen and must equal a brute-force ranking of each fold's own pool by
the score definition; ``sorted_group_auc`` counts by searching the sorted
negatives and must equal counting pairs. ``_fold_metrics`` rescores only the
rows its metrics read whose screens sit within a band (twice the bound) of a
top-k cut or of a row of the other label; it must give the brute-force
metrics whatever the screen says within the bound, and must not rescore rows
further apart.
``evaluate`` debiases each block of queries as ``resolve_query`` and
``run_query_reports`` do, screening the reference for the block's step-1
queries at once and the target for its finals at once; its report must not change when the bound covers every row so
that every row is rescored, on continuous and on tie-heavy tables. An ``evaluate`` entry must not depend on which other queries
or modes ran, and its counts and metrics must survive a rotation of every
vector.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bend import pipeline, reference_index
from bend.augment import GENDER
from bend.client import EmbeddingEndpoint
from bend.dataset import LabeledEmbeddingTable
from bend.equalize import MODES
from bend.errors import BendError
from bend.metrics import sorted_group_auc
from bend.pipeline import (
    SCORE_BLOCK_COLUMNS,
    RunConfig,
    _auc_reads,
    _fold_layout,
    _fold_metrics,
    evaluate,
    parse_query_row,
)
from bend.reference_index import Scores, build_index, score_block
from bend.reporting import dumps
from test_metrics import brute_force_auc
from test_ranking import CLASSES, grid_vectors, reference_top, tables, tied_table


def per_fold_tops(table, scores, fold_of, fold_count, k):
    """Each fold's top-k by brute force over its pool, as a sorted list."""
    return [
        sorted(reference_top(table, scores, np.flatnonzero(fold_of != f).tolist(), k))
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
    ranking = score_block(table, [np.array([1.0, 0.0])])[0]
    exact = ranking.exact(np.arange(table.count))
    fold_of = np.array(fold_of)
    fold_count = int(fold_of.max()) + 1
    got = ranking.fold_tops(fold_of, fold_count, k)
    assert [sorted(top.tolist()) for top in got] == per_fold_tops(
        table, exact, fold_of, fold_count, k
    )


@settings(max_examples=40)
@given(tables(), grid_vectors, st.data())
def test_fold_tops_match_per_fold_pools_on_tied_tables(table, query, data):
    fold_count = data.draw(st.integers(1, 4))
    fold_of = np.array(
        data.draw(st.lists(st.integers(0, fold_count - 1), min_size=table.count,
                           max_size=table.count))
    )
    k = data.draw(st.integers(1, table.count + 2))
    ranking = score_block(table, [query])[0]
    exact = ranking.exact(np.arange(table.count))
    got = ranking.fold_tops(fold_of, fold_count, k)
    assert [sorted(top.tolist()) for top in got] == per_fold_tops(
        table, exact, fold_of, fold_count, k
    )


@given(
    st.lists(
        st.tuples(st.sampled_from([-0.5, -0.0, 0.0, 0.25, 1.0]), st.booleans()),
        min_size=2, max_size=30,
    ).filter(lambda pairs: 0 < sum(p for _, p in pairs) < len(pairs))
)
def test_group_auc_equals_pair_count_exactly(pairs):
    scores = np.array([s for s, _ in pairs])
    positive = np.array([p for _, p in pairs])
    hits, misses = np.sort(scores[positive]), np.sort(scores[~positive])
    assert sorted_group_auc(hits, misses) == brute_force_auc(pairs)


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


def fold_metrics(table, fold_of, positive, scores, k):
    """``_fold_metrics`` over explicit folds, each top-k as a sorted list."""
    folds = [np.flatnonzero(fold_of == f) for f in range(int(fold_of.max()) + 1)]
    layout = _fold_layout(folds, table.codes["gender"], len(GENDER.values))
    no_class = np.zeros(table.count, dtype=bool)
    reads = _auc_reads(layout, no_class if positive is None else positive)
    tops, aucs = _fold_metrics(layout, reads, scores, k)
    return [sorted(top.tolist()) for top in tops], aucs


def brute_fold_metrics(table, fold_of, positive, exact, k):
    """``fold_metrics`` by brute force: each fold's pool sorted by (score, id),
    and each held-out group's AUC by counting pairs; None where a non-empty
    group of the fold is single-class, or the query has no class."""
    fold_count = int(fold_of.max()) + 1
    labels = table.attributes["gender"]
    aucs = []
    for f in range(fold_count):
        groups = [
            [(exact[i], bool(positive[i])) for i in np.flatnonzero(fold_of == f) if labels[i] == v]
            for v in GENDER.values
        ] if positive is not None else []
        groups = [pairs for pairs in groups if pairs]
        defined = groups and all(len({p for _, p in pairs}) == 2 for pairs in groups)
        aucs.append(min(brute_force_auc(pairs) for pairs in groups) if defined else None)
    return per_fold_tops(table, exact, fold_of, fold_count, k), aucs


def rescored(monkeypatch):
    """Record every row ``Scores.exact`` rescores."""
    rows = []
    exact = Scores.exact

    def recording(self, which):
        rows.extend(np.asarray(which).tolist())
        return exact(self, which)

    monkeypatch.setattr(Scores, "exact", recording)
    return rows


@settings(max_examples=60)
@given(tables(), st.lists(grid_vectors, min_size=1, max_size=SCORE_BLOCK_COLUMNS), st.data())
def test_fold_metrics_off_the_gemm_screen_equal_brute_force_on_tied_tables(
    table, queries, data
):
    fold_count = data.draw(st.integers(1, 4))
    fold_of = np.array(
        data.draw(st.lists(st.integers(0, fold_count - 1), min_size=table.count,
                           max_size=table.count))
    )
    positive = data.draw(st.sampled_from(
        [None, np.array([c == CLASSES[0] for c in table.classes])]
    ))
    k = data.draw(st.integers(1, table.count + 2))
    for scores in score_block(table, queries):
        exact = scores.exact(np.arange(table.count))
        assert fold_metrics(table, fold_of, positive, scores, k) == brute_fold_metrics(
            table, fold_of, positive, exact, k
        )


# Twelve rows in two folds of pairs; gender alternates by row, so each
# (fold, value) group holds three rows: (0, male) is rows 0, 4 and 8, (0,
# female) 1, 5, 9, (1, male) 2, 6, 10 and (1, female) 3, 7, 11. Rows 0-3 are
# the positives, one per group. The first table row of each pair below is
# one float32 step above the second, so a screen off by the bound can put
# the second first.
PAIR_FOLDS = np.array([0, 0, 1, 1] * 3)
PAIR_POSITIVE = np.arange(12) < 4
STEP = 2.0**-24
PAIR_SCORES = np.array([0.9, 0.7, 0.8, 0.6, 0.5, -0.1, -0.2, -0.3, -0.4, -0.5, -0.6, -0.7])


def pair_metrics(monkeypatch, rows, positive=PAIR_POSITIVE, k=2):
    """``fold_metrics`` with row ``rows[0]`` one float32 step above ``rows[1]``
    at the other's score, and a screen that puts ``rows[1]`` first by twice the
    bound; returns the metrics, the brute-force metrics and the rescored rows."""
    exact_scores = PAIR_SCORES.copy()
    exact_scores[rows[0]] = exact_scores[rows[1]] + STEP
    table = tied_table(exact_scores)
    scores = score_block(table, [np.array([1.0, 0.0])])[0]
    exact = scores.exact(np.arange(table.count))
    screen = exact.copy()
    screen[rows[0]] -= scores.eps
    screen[rows[1]] += scores.eps
    recorded = rescored(monkeypatch)
    worst = Scores(table, scores.query, screen)
    got = fold_metrics(table, PAIR_FOLDS, positive, worst, k)
    return got, brute_fold_metrics(table, PAIR_FOLDS, positive, exact, k), set(recorded)


@pytest.mark.parametrize(
    "rows, k",
    [
        # With k = 1 fold 0's cut is row 2, well above rows 3 and 7.
        pytest.param((7, 3), 1, id="positive-and-negative-in-a-held-out-group"),
        # Fold 1's pool is fold 0's rows; with k = 3 its cut falls between
        # rows 4 (male) and 5 (female), whose screens cross.
        pytest.param((4, 5), 3, id="two-value-band-at-fold-1s-top-k-cut"),
    ],
)
def test_a_pair_within_twice_the_bound_where_the_metrics_read_is_rescored(
    monkeypatch, rows, k
):
    got, brute, recorded = pair_metrics(monkeypatch, rows, k=k)
    assert got == brute
    assert set(rows) <= recorded


def test_rows_the_metrics_do_not_read_are_not_rescored(monkeypatch):
    # Rows 6 and 7 sit in different groups, below every top-k: crossing
    # screens there cannot move a metric, and neither row is rescored.
    got, brute, recorded = pair_metrics(monkeypatch, (6, 7))
    assert got == brute
    assert not {6, 7} & recorded


def test_an_auc_pair_within_twice_the_bound_is_rescored_and_one_outside_is_not(monkeypatch):
    eps = score_block(tied_table([0.0, 0.0]), [np.array([1.0, 0.0])])[0].eps
    # Rows 0 and 1 tie, yet their screens sit a band apart; rows 2 and 3 sit
    # one step further apart, and their scores are within eps of that.
    band = score_block(tied_table([0.0, 0.0]), [np.array([1.0, 0.0])])[0].band
    table = tied_table([0.5, 0.5, 0.25, 0.25 - band, 0.0, 0.0])
    scores = score_block(table, [np.array([1.0, 0.0])])[0]
    exact = scores.exact(np.arange(table.count))
    positive = np.array([True, False, True, False, True, False])
    screen = exact.copy()
    screen[0] += eps
    screen[1] = screen[0] - band
    screen[3] = np.nextafter(screen[2] - band, -1.0)
    # Rows 2-5 are not rescored, so the AUC reads their screens.
    assert np.all(np.abs(screen - exact)[2:] <= eps)
    recorded = rescored(monkeypatch)
    hits, misses = np.flatnonzero(positive), np.flatnonzero(~positive)
    auc = Scores(table, scores.query, screen).group_auc(hits, misses)
    assert set(recorded) == {0, 1, 4, 5}
    assert auc == brute_force_auc(list(zip(exact.tolist(), positive.tolist())))


def test_a_query_without_a_class_rescores_no_group(monkeypatch):
    got, brute, recorded = pair_metrics(monkeypatch, (7, 3), positive=None, k=1)
    assert got == brute and got[1] == [None, None]
    assert not {7, 3} & recorded
    # Fold 1's groups are single-class here, so it has no AUC and no group of
    # it is read.
    one_class = PAIR_POSITIVE & (PAIR_FOLDS == 0)
    got, brute, recorded = pair_metrics(monkeypatch, (7, 3), positive=one_class, k=1)
    assert got == brute and got[1] == [1.0, None]
    assert not {7, 3} & recorded


def test_fold_metrics_of_a_continuous_table_rescore_few_rows(monkeypatch):
    rng = np.random.default_rng(7)
    table = continuous_table(rng, 2000, 64, "tgt")
    finals = list(unit_rows(rng, SCORE_BLOCK_COLUMNS, 64))
    fold_of = rng.integers(0, 5, table.count)
    positive = np.array([c == CLASSES[0] for c in table.classes])
    for k in (50, 2000):
        for scores in score_block(table, finals):
            exact = scores.exact(np.arange(table.count))
            recorded = rescored(monkeypatch)
            got = fold_metrics(table, fold_of, positive, scores, k)
            monkeypatch.undo()
            assert got == brute_fold_metrics(table, fold_of, positive, exact, k)
            # Each fold's band at its cut, and the few AUC pairs within a band.
            assert len(recorded) < table.count // 20


def continuous_table(rng, count, dim, prefix):
    return LabeledEmbeddingTable(
        rows=unit_rows(rng, count, dim),
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


def count_screened_columns(monkeypatch):
    """Record, for each screen ``evaluate`` runs over the target or (through
    ``top_n_by_attribute``) the reference, its table's prefix and width."""
    calls = []

    def counted(table, queries):
        calls.append((table.ids[0][:3], len(queries)))
        return score_block(table, queries)

    monkeypatch.setattr(pipeline, "score_block", counted)
    monkeypatch.setattr(reference_index, "score_block", counted)
    return calls


def test_evaluate_entries_do_not_depend_on_their_score_block():
    rng = np.random.default_rng(11)
    reference = continuous_table(rng, 60, 8, "ref")
    target = continuous_table(rng, 70, 8, "tgt")
    queries = block_queries(rng, 8)
    assert len(queries) * len(MODES) > SCORE_BLOCK_COLUMNS
    cfg = RunConfig(attribute="gender", n=8, k=15, seed=3, fold_count=3)
    assert_entries_stand_alone(queries, reference, target, cfg)


def test_a_block_of_failed_queries_screens_no_final(monkeypatch):
    rng = np.random.default_rng(13)
    reference = continuous_table(rng, 60, 8, "ref")
    target = continuous_table(rng, 70, 8, "tgt")
    queries = [
        parse_query_row({"id": f"q{i}", "vector": rng.standard_normal(dim).tolist()})
        for i, dim in enumerate([9, 9, 9, 9, 8, 8])
    ]
    calls = count_screened_columns(monkeypatch)
    cfg = RunConfig(attribute="gender", n=8, k=15, seed=3, fold_count=3)
    entries = evaluate(queries, reference, target, cfg)["queries"]
    assert ["error" in entry for entry in entries] == [True] * 4 + [False] * 2
    # The first block screens no final and no step-1 query; the second screens
    # the reference for its two step-1 queries at once, then all eight finals.
    assert calls == [("tgt", 0), ("ref", 2), ("tgt", 8)]


def duplicated(table):
    """``table`` with every row twice: each pair ties under any evaluation."""
    return dataclasses.replace(
        table,
        rows=np.concatenate([table.rows, table.rows]),
        ids=table.ids + tuple(f"dup-{i}" for i in table.ids),
        attributes={"gender": table.attributes["gender"] * 2},
        classes=table.classes * 2,
    )


def test_a_target_of_duplicate_rows_rescores_only_its_bands(monkeypatch):
    rng = np.random.default_rng(12)
    reference = continuous_table(rng, 60, 8, "ref")
    target = duplicated(continuous_table(rng, 35, 8, "tgt"))
    cfg = RunConfig(attribute="gender", n=8, k=15, seed=3, fold_count=3)
    queries = block_queries(rng, 8)
    recorded = rescored(monkeypatch)
    report = dumps(evaluate(queries, reference, target, cfg))
    # Every row ties with its duplicate, the best row too, yet only rows near
    # a cut or a pair are rescored: far fewer than the 20 finals' 70 rows each.
    assert len(recorded) < 20 * target.count // 4
    monkeypatch.undo()
    assert report == every_row_rescored_report(monkeypatch, queries, reference, target, cfg)
    assert_entries_stand_alone(queries, reference, target, cfg)


def every_row_rescored_report(monkeypatch, *args):
    """``evaluate`` with a bound so wide that every ranking and AUC rescores
    every row it reads."""
    with monkeypatch.context() as patch:
        patch.setattr(reference_index, "screen_error_bound", lambda dim: 4.0)
        return dumps(evaluate(*args))


def test_evaluate_entries_carry_the_debias_path_reports(embed_stub):
    rng = np.random.default_rng(17)
    reference = continuous_table(rng, 60, 8, "ref")
    target = continuous_table(rng, 70, 8, "tgt")

    def vector(dim=8):
        return rng.standard_normal(dim).tolist()

    queries = [parse_query_row(record) for record in [
        {"id": "bundled", "class": CLASSES[0], "vector": vector(),
         "augmented": {v: vector() for v in GENDER.values},
         "generic": {v: vector() for v in GENDER.values}},
        {"id": "bare", "class": CLASSES[1], "vector": vector()},
        {"id": "text", "text": "a photo of a nurse"},
        {"id": "skipped", "text": "a photo of a male nurse"},
        {"id": "wide", "vector": vector(9)},
    ]]
    endpoint = EmbeddingEndpoint(url=embed_stub(8), expected_dim=8)
    cfg = RunConfig(attribute="gender", n=8, k=15, seed=3, fold_count=3, embed_endpoint=endpoint)
    entries = evaluate(queries, reference, target, cfg)["queries"]
    index = build_index(reference)
    for row, entry in zip(queries, entries):
        try:
            resolved = pipeline.resolve_query(row, GENDER, index, cfg)
            reports, subsets = pipeline.run_query_reports(resolved, index, GENDER, cfg)
        except BendError as exc:
            assert entry == {"id": row.id, "error": f"{type(exc).__name__}: {exc}"}
            continue
        assert entry["skipped"] == (row.id == "skipped")
        assert entry["n_used"] == (None if subsets is None else subsets.n_used)
        for mode, report in reports.items():
            got = entry["modes"][mode]
            assert got["distance_gap"] == report.distance_gap
            assert got["lambda"] == report.lam
            assert got["dropped_columns"] == report.dropped_columns
            assert got["max_equalization_residual"] == max(report.residuals, default=None)
    assert ["error" in entry for entry in entries] == [False] * 4 + [True]


@pytest.mark.parametrize("n", [8, 40], ids=["top-n", "whole-groups"])
def test_a_reference_of_duplicate_rows_gives_the_every_row_rescored_report(monkeypatch, n):
    rng = np.random.default_rng(19)
    reference = duplicated(continuous_table(rng, 30, 8, "ref"))
    target = continuous_table(rng, 70, 8, "tgt")
    queries = block_queries(rng, 8)
    cfg = RunConfig(attribute="gender", n=n, k=15, seed=3, fold_count=3)
    report = dumps(evaluate(queries, reference, target, cfg))
    assert report == every_row_rescored_report(monkeypatch, queries, reference, target, cfg)
    assert_entries_stand_alone(queries, reference, target, cfg)


def test_evaluate_report_is_unchanged_when_every_row_is_rescored(monkeypatch):
    rng = np.random.default_rng(23)
    reference = continuous_table(rng, 60, 8, "ref")
    target = continuous_table(rng, 70, 8, "tgt")
    queries = block_queries(rng, 8)
    assert len(queries) * len(MODES) > SCORE_BLOCK_COLUMNS
    cfg = RunConfig(attribute="gender", n=8, k=15, seed=3, fold_count=3)
    report = dumps(evaluate(queries, reference, target, cfg))
    assert report == every_row_rescored_report(monkeypatch, queries, reference, target, cfg)


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
def test_evaluate_report_is_unchanged_when_every_row_is_rescored_on_tied_tables(
    reference, target, drawn, k, fold_count
):
    queries = [
        parse_query_row({"id": f"q{i}", "vector": v, "class": c})
        for i, (v, c) in enumerate(drawn)
    ]
    cfg = RunConfig(attribute="gender", n=5, k=k, seed=1, fold_count=fold_count)
    report = dumps(evaluate(queries, reference, target, cfg))
    with mock.patch.object(reference_index, "screen_error_bound", lambda dim: 4.0):
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


def integer_table(rng, count, dim, prefix):
    """Rows of small integers, stored as they are."""
    table = continuous_table(rng, count, dim, prefix)
    rows = rng.integers(-1000, 1001, (count, dim)).astype(np.float32)
    return dataclasses.replace(table, rows=rows)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_evaluate_metrics_are_rotation_invariant(seed):
    rng = np.random.default_rng(seed)
    dim = 16
    reference = integer_table(rng, 80, dim, "ref")
    target = integer_table(rng, 90, dim, "tgt")
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
    # A Hadamard matrix over 4, its rows permuted and signs flipped: a
    # rotation that maps integer rows to exact float32 rows, so both tables
    # store the same vectors up to the rounding of their norms.
    hadamard = np.ones((1, 1))
    while hadamard.shape[0] < dim:
        hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
    signs = rng.choice([-1.0, 1.0], dim)
    rotation = (hadamard * signs)[rng.permutation(dim)] / 4
    cfg = RunConfig(attribute="gender", n=10, k=20, seed=seed % 4, fold_count=3)
    plain = evaluate([parse_query_row(q) for q in queries], reference, target, cfg)
    spun = evaluate(
        [parse_query_row(rotated(q, rotation)) for q in queries],
        *(
            dataclasses.replace(t, rows=(t.rows @ rotation.T).astype(np.float32))
            for t in (reference, target)
        ),
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
