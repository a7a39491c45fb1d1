"""The score definition, and the float32 screen that ranks by it.

A score is ``np.add.reduce(unit_row * unit_query)`` in float64: numpy's
pairwise sum, pinned here bit for bit against a plain-Python transcription
and checked not to depend on the SIMD target numpy dispatches to. A float32
screen, GEMV or GEMM, must lie within ``screen_error_bound`` of the score for
every row whose norm is not above ``SCREEN_NORMS``, and the bound must cover
each error it is derived from. Every ranking must be exact whatever the screen
says within the bound, and on rows of any magnitude; a ``retrieve`` report
must not depend on the order of the target's rows, nor a ``debias`` report
with bundled directions on the order of the reference's.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bend.augment import GENDER
from bend.dataset import LabeledEmbeddingTable
from bend.errors import BendError, EmptyGroup, MetadataError
from bend.pipeline import (
    RunConfig,
    debias_report_json,
    parse_query_row,
    resolve_query,
    retrieval_report_json,
    run_query_reports,
)
from bend.reference_index import (
    SCREEN_NORMS,
    Scores,
    build_index,
    relevant_subsets,
    retrieve_top_k,
    score_block,
    screen_error_bound,
    top_n_by_attribute,
)
from bend.reporting import dumps
from bend.vectors import ZERO_NORM_EPS, normalize
from test_ranking import (
    CLASSES,
    assert_evaluate_matches_sorted,
    definition,
    grid_vectors,
    reference_top,
    tables,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def pairwise_sum(values):
    """numpy's float64 add reduction along a contiguous axis, written out:
    0.0 plus the pairwise sum, which adds runs of up to 128 values with eight
    accumulators and splits longer runs in two at a multiple of eight."""

    def pairwise(a):
        if len(a) < 8:
            total = 0.0
            for x in a:
                total += x
            return total
        if len(a) <= 128:
            r = list(a[:8])
            i = 8
            while i < len(a) - len(a) % 8:
                for j in range(8):
                    r[j] += a[i + j]
                i += 8
            total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            for x in a[i:]:
                total += x
            return total
        half = len(a) // 2
        half -= half % 8
        return pairwise(a[:half]) + pairwise(a[half:])

    return 0.0 + pairwise([float(x) for x in values])


def raw_table(rows, labels=None, classes=None):
    """A table of float32 rows as stored."""
    rows = np.asarray(rows, dtype=np.float32)
    count = rows.shape[0]
    labels = labels or [GENDER.values[i % 2] for i in range(count)]
    return LabeledEmbeddingTable(
        rows=rows,
        ids=tuple(f"r{i:04d}" for i in range(count)),
        attributes={"gender": tuple(labels)},
        classes=tuple(classes or [CLASSES[i % 2] for i in range(count)]),
        spaces={"gender": GENDER},
    )


def spread_rows(rng, count, dim, spread):
    """Seeded rows whose components vary in scale by up to 10**spread."""
    return rng.standard_normal((count, dim)) * 10.0 ** -rng.integers(0, spread + 1, (count, dim))


@pytest.mark.parametrize("dim", [2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 136, 257, 512, 1000])
def test_the_definition_sums_in_numpys_pairwise_order(dim):
    rng = np.random.default_rng(dim)
    table = raw_table(spread_rows(rng, 20, dim, 4))
    scores = score_block(table, [spread_rows(rng, 1, dim, 4)[0]])[0]
    got = scores.exact(np.arange(table.count))
    unit = table.unit_rows(slice(None))
    want = [pairwise_sum(row * scores.query) for row in unit]
    assert got.tobytes() == np.array(want).tobytes()


DISPATCH_PROBE = """
import hashlib, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from bend.reference_index import score_block
from test_screen import raw_table, spread_rows
digest = hashlib.sha256()
for dim in (2, 9, 64, 129, 512):
    rng = np.random.default_rng(dim)
    table = raw_table(spread_rows(rng, 300, dim, 3))
    query = spread_rows(rng, 1, dim, 3)[0]
    digest.update(score_block(table, [query])[0].exact(np.arange(300)).tobytes())
print(digest.hexdigest())
"""


def test_the_definition_does_not_depend_on_cpu_dispatch():
    found = np.__config__.CONFIG.get("SIMD Extensions", {}).get("found") or []
    if not found:
        pytest.skip("numpy dispatches to no target above its baseline here")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent)}

    def digest(disabled):
        run = subprocess.run(
            [sys.executable, "-c", DISPATCH_PROBE, str(SRC)],
            env={**env, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)},
            capture_output=True, text=True, check=True,
        )
        return run.stdout.strip()

    assert digest([]) == digest(found)


@settings(max_examples=60)
@given(st.integers(2, 300), st.integers(1, 60), st.integers(1, 16), st.integers(0, 6),
       st.integers(-10, 29), st.integers(0, 2**32 - 1))
def test_screens_differ_from_the_definition_by_at_most_the_bound(
    dim, count, width, spread, scale, seed
):
    rng = np.random.default_rng(seed)
    drawn = spread_rows(rng, count, dim, spread) * 10.0**scale
    # The table's norms, of the float32 rows in float64: one of ZERO_NORM_EPS
    # or less is a zero row, rejected before any screen.
    norms = np.linalg.norm(drawn.astype(np.float32).astype(np.float64), axis=1)
    if np.any(norms <= ZERO_NORM_EPS):
        with pytest.raises(MetadataError, match="has a zero vector"):
            raw_table(drawn)
        return
    table = raw_table(drawn)
    queries = list(spread_rows(rng, width, dim, spread))
    rows = np.arange(count)
    for scores in score_block(table, queries) + [score_block(table, [q])[0] for q in queries]:
        assert np.all(np.abs(scores.screen - scores.exact(rows)) <= scores.eps)


@pytest.mark.parametrize("scale", [3.0, 1e-3])
def test_score_block_scores_each_query_normalized(scale):
    rng = np.random.default_rng(5)
    table = raw_table(spread_rows(rng, 30, 9, 2))
    vector = scale * spread_rows(rng, 1, 9, 2)[0]
    scores = score_block(table, [vector])[0]
    assert scores.query.tobytes() == normalize(vector).tobytes()
    exact = scores.exact(np.arange(table.count))
    assert exact.tobytes() == definition(table, vector).tobytes()
    assert np.all(np.abs(scores.screen - exact) <= scores.eps)


@pytest.mark.parametrize("dim", [2, 8, 64, 512, 4096])
def test_the_bound_covers_each_error_it_is_derived_from(dim):
    u32, u64 = 2.0**-24, 2.0**-53
    gamma32, gamma64 = dim * u32 / (1 - dim * u32), dim * u64 / (1 - dim * u64)
    # The query's cast to float32, the float32 sum, the float64 score's own
    # sum and the scale by 1/norm, each at its worst, for unit norms.
    assert screen_error_bound(dim) >= u32 + gamma32 + gamma64 + u64


@settings(max_examples=100)
@given(tables(), grid_vectors, st.data())
def test_any_screen_within_the_bound_ranks_exactly(table, query, data):
    scores = score_block(table, [query])[0]
    exact = scores.exact(np.arange(table.count))
    # Each screen off by the bound at most, the bound itself included.
    shift = data.draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                               min_size=table.count, max_size=table.count))
    worst = Scores(table, scores.query, exact + np.array(shift) * scores.eps)
    rows = np.array(data.draw(
        st.lists(st.integers(0, table.count - 1), min_size=1, unique=True)
    ))
    limit = data.draw(st.integers(1, table.count + 2))
    got, similarities = worst.top(rows, limit)
    assert got.tolist() == reference_top(table, exact, rows.tolist(), limit)
    assert similarities.tolist() == exact[got].tolist()
    fold_count = data.draw(st.integers(1, 3))
    fold_of = np.array(data.draw(st.lists(st.integers(0, fold_count - 1),
                                          min_size=table.count, max_size=table.count)))
    for f, top in enumerate(worst.fold_tops(fold_of, fold_count, limit)):
        pool = np.flatnonzero(fold_of != f).tolist()
        assert sorted(top.tolist()) == sorted(reference_top(table, exact, pool, limit))
    partition = build_index(table).partition("gender")
    if all(members.size for members in partition.values()):
        subsets = relevant_subsets(partition, worst, limit)
        for value, members in partition.items():
            want = reference_top(table, exact, members.tolist(), limit)
            assert list(subsets.indices[value]) == want


# Per row, the power of ten its largest component is scaled to: 3e38 is near
# float32's largest value, where a float32 dot overflows to inf, so it is
# above SCREEN_NORMS and always rescored; 3e-12 is just above the smallest
# norm a table accepts.
MAGNITUDES = [-12, 0, 12, 29, 38]


def magnified(table, exponents):
    """``table``'s rows scaled so the largest component of each is 3 * 10**e."""
    unit = table.unit_rows(slice(None))
    scale = 3.0 * 10.0 ** np.array(exponents, dtype=np.float64)
    rows = unit / np.abs(unit).max(axis=1, keepdims=True) * scale[:, None]
    return raw_table(rows, list(table.attributes["gender"]), list(table.classes))


@settings(max_examples=40)
@given(tables(min_count=8, min_directions=3), tables(min_count=8, min_directions=3),
       st.lists(grid_vectors, min_size=1, max_size=2), st.integers(1, 45), st.data())
def test_rows_of_any_magnitude_rank_exactly(reference, target, vectors, k, data):
    def draw_magnitudes(table):
        magnitudes = data.draw(st.lists(st.sampled_from(MAGNITUDES), min_size=table.count,
                                        max_size=table.count))
        magnitudes[data.draw(st.integers(0, table.count - 1))] = 38
        return magnitudes

    # A row of norm ZERO_NORM_EPS = 1e-12 or less is rejected, as it is from a file.
    with pytest.raises(MetadataError, match="has a zero vector"):
        magnified(reference, [0] * (reference.count - 1) + [-30])
    reference = magnified(reference, draw_magnitudes(reference))
    target = magnified(target, draw_magnitudes(target))
    assert np.any(reference.norms > SCREEN_NORMS[1])
    for vector in vectors:
        scores = definition(target, vector)
        expected = reference_top(target, scores, range(target.count), k)
        retrieved = retrieve_top_k(target, vector, k)
        assert [r.row for r in retrieved] == expected
        assert [r.similarity for r in retrieved] == scores[expected].tolist()
        index = build_index(reference)
        partition = index.partition("gender")
        try:
            subsets = top_n_by_attribute(index, [vector], GENDER, k)[0]
        except EmptyGroup:
            assert not all(members.size for members in partition.values())
            continue
        ranking = definition(reference, vector)
        for value, members in partition.items():
            assert list(subsets.indices[value]) == reference_top(
                reference, ranking, members.tolist(), k
            )
    queries = [
        parse_query_row({"id": f"q{i}", "vector": v, "class": CLASSES[i % 2]})
        for i, v in enumerate(vectors)
    ]
    cfg = RunConfig(attribute="gender", n=3, k=k, seed=1, fold_count=2)
    assert_evaluate_matches_sorted(queries, reference, target, cfg)


@settings(max_examples=40)
@given(tables(), grid_vectors, st.integers(1, 45), st.data())
def test_a_retrieve_report_does_not_depend_on_row_order(table, query, k, data):
    permutation = data.draw(st.permutations(range(table.count)))
    shuffled = table.subset(permutation)
    prior = {"male": 0.5, "female": 0.5}

    def report(t):
        retrieved = retrieve_top_k(t, query, k)
        return dumps(retrieval_report_json(t, retrieved, k, metric_space=GENDER, prior=prior))

    assert report(shuffled) == report(table)


@settings(max_examples=30)
@given(tables(), st.lists(grid_vectors, min_size=5, max_size=5), st.integers(1, 12), st.data())
def test_a_debias_report_does_not_depend_on_reference_row_order(table, vectors, n, data):
    # Bundled directions only: reference-means directions sum the group's
    # rows in table order, so their last bits may move with it.
    permutation = data.draw(st.permutations(range(table.count)))
    row = parse_query_row({
        "id": "q",
        "vector": vectors[0],
        "augmented": dict(zip(GENDER.values, vectors[1:3])),
        "generic": dict(zip(GENDER.values, vectors[3:])),
    })
    cfg = RunConfig(attribute="gender", n=n)

    def report(t):
        index = build_index(t)
        try:
            resolved = resolve_query(row, GENDER, index, cfg)
            reports, subsets = run_query_reports(resolved, index, GENDER, cfg)
        except BendError as exc:
            return f"{type(exc).__name__}: {exc}"
        return dumps(debias_report_json(resolved, reports, subsets, index, GENDER, cfg))

    assert report(table.subset(permutation)) == report(table)
