"""Label codes against plain Python: every count and distribution in a report.

The 3-value attribute is declared out of sorted order and one of its values
may have no records, so a code in sorted order, or a count that drops a
trailing empty value, shows up as a wrong report.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bend.augment import GENDER, attribute_space
from bend.dataset import LabeledEmbeddingTable, make_folds
from bend.pipeline import (
    RunConfig,
    evaluate,
    parse_query_row,
    resolve_query,
    retrieval_report_json,
    run_query_reports,
)
from bend.reference_index import build_index, retrieve_top_k
from test_ranking import CLASSES, definition, grid_vectors, reference_top

AGE = attribute_space("age", ("young", "old", "adult"))


def labeled_table(rows, ids, genders, ages, classes):
    rows = np.array(rows, dtype=np.float64)
    return LabeledEmbeddingTable(
        rows=rows / np.linalg.norm(rows, axis=1, keepdims=True),
        ids=tuple(ids),
        attributes={"gender": tuple(genders), "age": tuple(ages)},
        classes=tuple(classes),
        spaces={"gender": GENDER, "age": AGE},
    )


@st.composite
def tables(draw, min_count=2, max_count=30, all_ages=False):
    """Tied grid rows with a gender and an age label; one age may be absent."""
    directions = draw(st.lists(grid_vectors, min_size=1, max_size=5))
    count = draw(st.integers(min_count, max_count))

    def column(values):
        return draw(st.lists(st.sampled_from(values), min_size=count, max_size=count))

    if all_ages:
        ages = list(AGE.values) + column(AGE.values)[3:]
    else:
        missing = draw(st.sampled_from((None,) + AGE.values))
        ages = column(tuple(v for v in AGE.values if v != missing))
    return labeled_table(
        column(directions),
        draw(st.permutations([f"r{i}" for i in range(count)])),
        column(GENDER.values),
        ages,
        column(CLASSES),
    )


def plain_counts(labels, rows, space):
    return {v: sum(labels[i] == v for i in rows) for v in space.values}


def test_codes_follow_declared_value_order():
    table = labeled_table(
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        ("a", "b", "c"),
        ("female", "male", "female"),
        ("adult", "young", "old"),
        (None, None, None),
    )
    assert GENDER.values == ("male", "female")
    assert table.codes["gender"].tolist() == [1, 0, 1]
    assert table.codes["age"].tolist() == [2, 0, 1]


@given(tables(min_count=1), st.data())
def test_subset_codes_are_the_parent_codes_at_its_rows(table, data):
    rows = data.draw(st.lists(st.integers(0, table.count - 1), min_size=1, unique=True))
    subset = table.subset(rows)
    for name in table.spaces:
        assert subset.codes[name].tolist() == table.codes[name][rows].tolist()


@given(tables(), grid_vectors, st.integers(1, 35))
def test_retrieval_report_counts_match_plain_python(table, query, k):
    prior = {v: 1 / 3 for v in AGE.values}
    retrieved = retrieve_top_k(table, query, k)
    report = retrieval_report_json(table, retrieved, k, metric_space=AGE, prior=prior)
    scores = definition(table, query)
    top = reference_top(table, scores, range(table.count), k)
    for name, space in table.spaces.items():
        counts = plain_counts(table.attributes[name], top, space)
        assert report["counts"][name] == counts
        assert report["distributions"][name] == {
            v: c / len(top) for v, c in counts.items()
        }
    assert [r["id"] for r in report["results"]] == [table.ids[i] for i in top]
    assert [r["labels"] for r in report["results"]] == [
        {"gender": table.attributes["gender"][i], "age": table.attributes["age"][i]}
        for i in top
    ]
    assert [r["class"] for r in report["results"]] == [table.classes[i] for i in top]


@settings(max_examples=30)
@given(
    tables(min_count=6, all_ages=True),
    tables(min_count=6),
    grid_vectors,
    st.integers(2, 3),
    st.integers(1, 35),
    st.integers(0, 3),
)
def test_evaluate_counts_match_plain_python(reference, target, query, folds, k, seed):
    row = parse_query_row({"id": "q", "vector": query, "class": "c0"})
    cfg = RunConfig(attribute="age", n=3, k=k, modes=("full",), seed=seed,
                    fold_count=folds)
    report = evaluate([row], reference, target, cfg)
    labels = target.attributes["age"]
    assert report["prior"] == {
        v: c / target.count for v, c in plain_counts(labels, range(target.count), AGE).items()
    }
    entry = report["queries"][0]
    if "error" in entry:
        return
    index = build_index(reference)
    reports, _ = run_query_reports(resolve_query(row, AGE, index, cfg), index, AGE, cfg)
    scores = definition(target, reports["full"].final)
    for fold, got in zip(make_folds(target.count, folds, seed), entry["modes"]["full"]["folds"]):
        pool = sorted(set(range(target.count)) - set(fold))
        top = reference_top(target, scores, pool, k)
        assert got["retrieved_counts"] == plain_counts(labels, top, AGE)
