"""The fold kernels of ``evaluate`` in isolation, and whole-run independence.

``_fold_tops`` reads every fold's top-k off one ranking of a score column and
must equal a separate ``top_rows`` over each fold's own pool; ``_group_auc``
ranks by searching the sorted scores and must equal counting pairs. An
``evaluate`` entry must not depend on which other queries or modes ran.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bend.equalize import MODES
from bend.metrics import _group_auc
from bend.pipeline import RunConfig, _fold_tops, evaluate, parse_query_row
from bend.reference_index import top_rows
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
    assert _group_auc(scores, positive) == brute_force_auc(pairs)


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
