import numpy as np
import pytest

from bend import reference_index
from bend.augment import GENDER, attribute_space
from bend.dataset import LabeledEmbeddingTable, SynthCell, SynthSpec, synth_generate
from bend.errors import ConfigError, EmptyGroup, UnknownLabel
from bend.reference_index import (
    build_index,
    retrieve_top_k,
    top_n_by_attribute,
)
from bend.vectors import normalize


def table_from_rows(rows, labels, ids=None, classes=None):
    rows = np.asarray(rows, dtype=np.float64)
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    n = rows.shape[0]
    return LabeledEmbeddingTable(
        vectors=rows,
        ids=tuple(ids) if ids else tuple(f"r{i:04d}" for i in range(n)),
        attributes={"gender": tuple(labels)},
        classes=tuple(classes) if classes else tuple(None for _ in range(n)),
        spaces={"gender": GENDER},
    )


@pytest.fixture
def four_record_index():
    table = table_from_rows(
        [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]],
        ["male", "male", "female", "female"],
    )
    return build_index(table)


class TestBuildIndex:
    def test_partitions(self, four_record_index):
        partition = four_record_index.partition("gender")
        assert partition["male"].tolist() == [0, 1]
        assert partition["female"].tolist() == [2, 3]

    def test_unknown_attribute(self, four_record_index):
        with pytest.raises(UnknownLabel):
            four_record_index.partition("age")

    def test_single_record_table(self):
        space = attribute_space("g", ("x", "y"))
        table = LabeledEmbeddingTable(
            vectors=np.array([[1.0, 0.0]]),
            ids=("only",),
            attributes={"g": ("x",)},
            classes=(None,),
            spaces={"g": space},
        )
        index = build_index(table)
        assert index.partition("g")["x"].tolist() == [0]
        assert index.partition("g")["y"].size == 0

    def test_group_means_are_means_of_normalized_rows(self, four_record_index):
        means = four_record_index.group_means("gender")
        manual = four_record_index.table.vectors[:2].mean(axis=0)
        assert np.allclose(means["male"], manual)


class TestGroupMeansCache:
    def test_cached_means_are_bit_equal_to_a_fresh_mean(self, rng):
        table = table_from_rows(rng.standard_normal((30, 5)), ["male", "female"] * 15)
        index = build_index(table)
        index.group_means("gender")
        means = index.group_means("gender")
        for value, idx in index.partition("gender").items():
            assert np.array_equal(means[value], table.vectors[idx].mean(axis=0))

    @pytest.mark.parametrize("size", [1, 3, 4, 5, 11])
    @pytest.mark.parametrize("quantized", [False, True], ids=["random", "quantized"])
    def test_blocked_mean_is_bit_equal_to_one_mean(
        self, rng, monkeypatch, size, quantized
    ):
        # Groups of 1, block - 1, block, block + 1 and several blocks.
        monkeypatch.setattr(reference_index, "MEAN_BLOCK_ROWS", 4)
        count = 2 * size + 3
        if quantized:
            # Few directions, so rows repeat exactly; -0.0 components keep
            # the sign of zero under test too.
            directions = np.array(
                [[1.0, -1.0, -0.0, 2.0], [-0.0, 1.0, 1.0, -0.0], [-2.0, -0.0, 1.0, 1.0]]
            )
            rows = directions[rng.integers(0, len(directions), count)]
        else:
            rows = rng.standard_normal((count, 4))
        labels = np.array(["female"] * count, dtype=object)
        labels[rng.choice(count, size, replace=False)] = "male"
        table = table_from_rows(rows, labels.tolist())
        index = build_index(table)
        means = index.group_means("gender")
        for value, idx in index.partition("gender").items():
            expected = table.vectors[idx].mean(axis=0)
            assert means[value].tobytes() == expected.tobytes()

    def test_cached_means_are_read_only(self, four_record_index):
        means = four_record_index.group_means("gender")
        with pytest.raises(ValueError):
            means["male"][0] = 0.0

    def test_each_call_returns_a_fresh_dict(self, four_record_index):
        first = four_record_index.group_means("gender")
        expected = {v: m.copy() for v, m in first.items()}
        first["male"] = np.zeros(2)
        del first["female"]
        second = four_record_index.group_means("gender")
        assert second is not first
        assert set(second) == {"male", "female"}
        for value, mean in expected.items():
            assert np.array_equal(second[value], mean)

    def test_empty_group_raises_on_every_call(self):
        table = table_from_rows([[1.0, 0.0], [0.9, 0.1]], ["male", "male"])
        index = build_index(table)
        for _ in range(2):
            with pytest.raises(EmptyGroup):
                index.group_means("gender")


class TestTopNByAttribute:
    def test_ordering(self, four_record_index):
        query = np.array([1.0, 0.0])
        subsets = top_n_by_attribute(four_record_index, query, GENDER, 1)
        assert subsets.indices == {"male": (0,), "female": (3,)}
        assert subsets.n_used == {"male": 1, "female": 1}

    def test_clamps_to_group_size(self, four_record_index):
        subsets = top_n_by_attribute(four_record_index, np.array([1.0, 0.0]), GENDER, 100)
        assert subsets.n_used == {"male": 2, "female": 2}

    def test_tie_breaks_by_ascending_id(self):
        table = table_from_rows(
            [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
            ["male", "male", "female", "female"],
            ids=["zz", "aa", "bb", "cc"],
        )
        index = build_index(table)
        subsets = top_n_by_attribute(index, np.array([1.0, 0.0]), GENDER, 1)
        assert index.table.ids[subsets.indices["male"][0]] == "aa"

    def test_empty_group_rejected(self):
        table = table_from_rows([[1.0, 0.0], [0.9, 0.1]], ["male", "male"])
        index = build_index(table)
        with pytest.raises(EmptyGroup):
            top_n_by_attribute(index, np.array([1.0, 0.0]), GENDER, 1)

    def test_means_cover_exactly_the_selected_records(self, four_record_index):
        query = normalize([0.7, 0.3])
        subsets = top_n_by_attribute(four_record_index, query, GENDER, 2)
        for value, idx in subsets.indices.items():
            manual = four_record_index.table.vectors[list(idx)].mean(axis=0)
            assert np.allclose(subsets.means[value], manual)

    def test_union_bounded_and_labels_match(self, rng):
        spec = SynthSpec(
            dim=8,
            seed=3,
            noise=0.5,
            space=GENDER,
            cells=(
                SynthCell("c0", "male", 0.3, 60),
                SynthCell("c0", "female", -0.3, 40),
            ),
        )
        table = synth_generate(spec)
        index = build_index(table)
        for _ in range(20):
            query = normalize(rng.standard_normal(8))
            subsets = top_n_by_attribute(index, query, GENDER, int(rng.integers(1, 80)))
            all_indices = [i for ix in subsets.indices.values() for i in ix]
            assert len(all_indices) == len(set(all_indices))
            assert len(all_indices) <= table.count
            for value, ix in subsets.indices.items():
                for i in ix:
                    assert table.attributes["gender"][i] == value

    def test_matches_brute_force_oracle(self):
        spec = SynthSpec(
            dim=12,
            seed=23,
            noise=0.7,
            space=GENDER,
            cells=(
                SynthCell("c0", "male", 0.4, 500),
                SynthCell("c0", "female", -0.4, 500),
            ),
        )
        table = synth_generate(spec)
        index = build_index(table)
        rng = np.random.default_rng(77)
        labels = np.array(table.attributes["gender"])
        for _ in range(100):
            query = normalize(rng.standard_normal(12))
            n = int(rng.integers(1, 40))
            subsets = top_n_by_attribute(index, query, GENDER, n)
            sims = table.vectors @ query
            for value in GENDER.values:
                members = np.flatnonzero(labels == value)
                ranked = sorted(
                    members, key=lambda i: (-sims[i], table.ids[i])
                )[:n]
                assert list(subsets.indices[value]) == ranked


class TestRetrieveTopK:
    def test_exact_match_first(self, four_record_index):
        table = four_record_index.table
        results = retrieve_top_k(table, table.vectors[2], 1)
        assert results[0].id == "r0002"
        assert results[0].similarity == pytest.approx(1.0)

    def test_k_larger_than_table(self, four_record_index):
        results = retrieve_top_k(four_record_index.table, np.array([1.0, 0.0]), 10)
        assert len(results) == 4

    def test_orthogonal_query_orders_by_id(self):
        table = table_from_rows(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]],
            ["male", "female", "male"],
            ids=["c", "a", "b"],
        )
        results = retrieve_top_k(table, np.array([0.0, 0.0, 1.0]), 3)
        assert [r.id for r in results] == ["a", "b", "c"]
        assert all(abs(r.similarity) < 1e-12 for r in results)

    def test_similarity_non_increasing(self, rng):
        table = table_from_rows(
            rng.standard_normal((50, 6)), ["male", "female"] * 25
        )
        results = retrieve_top_k(table, rng.standard_normal(6), 50)
        sims = [r.similarity for r in results]
        assert all(a >= b for a, b in zip(sims, sims[1:]))

    def test_bad_k_rejected(self, four_record_index):
        with pytest.raises(ConfigError):
            retrieve_top_k(four_record_index.table, np.array([1.0, 0.0]), 0)

