"""A block of queries screened together must rank as each query does alone.

``score_block`` fills one float64 block of screens a tile of rows at a time,
and ``top_n_by_attribute`` and ``evaluate`` screen a whole block of queries at
once. Tables here hold more than ``BLOCK_ROWS`` rows, drawn from a few grid
directions so that tie runs cross every tile boundary, and one row far above
``SCREEN_NORMS`` sits past row ``BLOCK_ROWS``, outside the first tile. Each query's relevant subsets
must be the sorted oracle's and those it gets alone; every screen must lie
within the bound; an ``evaluate`` entry must not depend on its block, and a
query that fails inside a block must fail there as it does alone.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bend.augment import GENDER
from bend.client import EmbeddingEndpoint
from bend.dataset import BLOCK_ROWS, LabeledEmbeddingTable
from bend.pipeline import SCORE_BLOCK_COLUMNS, RunConfig, evaluate, parse_query_row
from bend.reference_index import SCREEN_NORMS, build_index, score_block, top_n_by_attribute
from bend.reporting import dumps
from test_ranking import CLASSES, definition, grid_vectors, reference_top


@st.composite
def tiled_tables(draw, prefix, min_directions=1):
    """More than ``BLOCK_ROWS`` rows of few directions, one of them scaled far
    above ``SCREEN_NORMS`` beyond the first tile; ids run against row order."""
    directions = np.array(
        draw(st.lists(grid_vectors, min_size=min_directions, max_size=4)), dtype=np.float64
    )
    count = draw(st.integers(BLOCK_ROWS + 1, BLOCK_ROWS + 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = directions[rng.integers(0, len(directions), count)]
    rows /= np.abs(rows).max(axis=1, keepdims=True)
    rows[draw(st.integers(BLOCK_ROWS, count - 1))] *= 3e38
    labels = rng.choice(GENDER.values, count)
    labels[:2] = GENDER.values
    return LabeledEmbeddingTable(
        rows=rows,
        ids=tuple(f"{prefix}{count - i}" for i in range(count)),
        attributes={"gender": tuple(labels.tolist())},
        classes=tuple(rng.choice(CLASSES, count).tolist()),
        spaces={"gender": GENDER},
    )


@settings(max_examples=15, deadline=None)
@given(tiled_tables("ref"), st.lists(grid_vectors, min_size=1, max_size=5), st.integers(1, 60))
def test_a_block_of_step1_queries_ranks_as_each_query_alone(reference, queries, n):
    assert reference.norms.max() > SCREEN_NORMS[1]
    index = build_index(reference)
    together = top_n_by_attribute(index, queries, GENDER, n)
    partition = index.partition("gender")
    for query, subsets in zip(queries, together):
        alone = top_n_by_attribute(index, [query], GENDER, n)[0]
        assert subsets.indices == alone.indices
        assert all(subsets.means[v].tobytes() == alone.means[v].tobytes() for v in GENDER.values)
        scores = definition(reference, query)
        for value, members in partition.items():
            assert list(subsets.indices[value]) == reference_top(reference, scores, members.tolist(), n)
    # Blocks of one and of several tile the rows differently; every screen the
    # bound covers lies within it, and a row above it screens its exact score.
    big = np.flatnonzero(reference.norms > SCREEN_NORMS[1])
    rows = np.arange(reference.count)
    for scores in score_block(reference, queries) + [score_block(reference, [q])[0] for q in queries]:
        exact = scores.exact(rows)
        assert np.all(np.abs(scores.screen - exact) <= scores.eps)
        assert scores.screen[big].tobytes() == exact[big].tobytes()


@settings(max_examples=8, deadline=None)
@given(
    tiled_tables("ref", min_directions=3),
    tiled_tables("tgt"),
    st.lists(st.tuples(grid_vectors, st.sampled_from(CLASSES)), min_size=2, max_size=5),
    st.integers(1, 40),
    st.integers(1, 600),
)
def test_every_evaluate_entry_of_a_tiled_block_is_the_one_its_query_gets_alone(
    reference, target, drawn, n, k
):
    queries = [
        parse_query_row({"id": f"q{i}", "vector": v, "class": c}) for i, (v, c) in enumerate(drawn)
    ]
    cfg = RunConfig(attribute="gender", n=n, k=k, seed=2, fold_count=3)
    together = evaluate(queries, reference, target, cfg)["queries"]
    for query, entry in zip(queries, together):
        assert dumps(evaluate([query], reference, target, cfg)["queries"]) == dumps([entry])


def test_a_query_that_fails_inside_a_block_fails_as_it_does_alone(embed_stub):
    rng = np.random.default_rng(29)
    dim = 8
    count = 80
    table = LabeledEmbeddingTable(
        rows=rng.standard_normal((count, dim)),
        ids=tuple(f"r{i}" for i in range(count)),
        attributes={"gender": tuple(GENDER.values[i % 2] for i in range(count))},
        classes=tuple(CLASSES[i % 2] for i in range(count)),
        spaces={"gender": GENDER},
    )
    axis = np.eye(dim)
    queries = [parse_query_row(record) for record in [
        {"id": "good-0", "class": CLASSES[0], "vector": rng.standard_normal(dim).tolist()},
        # The attribute columns e0 and e1 span the query e0 itself.
        {"id": "inside", "class": CLASSES[0], "vector": axis[0].tolist(),
         "augmented": {"male": (2 * axis[0]).tolist(), "female": (axis[0] + axis[1]).tolist()}},
        # The endpoint embeds at width 9, so step 1 runs and the screen refuses it.
        {"id": "wide-text", "text": "a photo of a nurse"},
        {"id": "good-1", "class": CLASSES[1], "vector": rng.standard_normal(dim).tolist()},
    ]]
    endpoint = EmbeddingEndpoint(url=embed_stub(dim + 1), expected_dim=dim + 1)
    cfg = RunConfig(attribute="gender", n=10, k=20, seed=1, fold_count=3, embed_endpoint=endpoint)
    assert len(queries) * len(cfg.modes) <= SCORE_BLOCK_COLUMNS  # one block
    entries = evaluate(queries, table, table, cfg)["queries"]
    assert entries[1] == {"id": "inside", "error": "QueryInsideSubspace: query lies inside the attribute subspace"}
    assert entries[2] == {"id": "wide-text", "error": "DimensionMismatch: query has dimension 9, table 8"}
    for query, entry in zip(queries, entries):
        alone = evaluate([query], table, table, cfg)["queries"]
        assert dumps(alone) == dumps([entry])
