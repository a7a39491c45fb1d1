import dataclasses
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bend import dataset
from bend.augment import GENDER
from bend.dataset import (
    LabeledEmbeddingTable,
    MANIFEST_NAME,
    SplitSpec,
    SynthCell,
    SynthQuerySpec,
    SynthSpec,
    load_synth_spec,
    make_folds,
    read_dataset,
    read_json_lines,
    split_reference_target,
    synth_generate,
    synth_query_rows,
    write_dataset,
)
from bend.errors import (
    ConfigError,
    DatasetIOError,
    EmptyTable,
    ManifestError,
    MetadataError,
    NonUnitRow,
    SizeMismatch,
    SynthSpecError,
    TooSmall,
    UnknownLabel,
)
from bend.metrics import empirical_distribution, max_skew
from bend.reference_index import retrieve_top_k
from bend.vectors import normalize


def small_table(rng, count=12, dim=4):
    vectors = rng.standard_normal((count, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    labels = tuple("male" if i % 2 == 0 else "female" for i in range(count))
    return LabeledEmbeddingTable(
        rows=vectors,
        ids=tuple(f"r{i:04d}" for i in range(count)),
        attributes={"gender": labels},
        classes=tuple(None for _ in range(count)),
        spaces={"gender": GENDER},
    )


def synth_spec(**overrides):
    base = dict(
        dim=16,
        seed=11,
        noise=0.05,
        space=GENDER,
        cells=(
            SynthCell("c0", "male", 0.8, 40),
            SynthCell("c0", "female", -0.8, 40),
        ),
    )
    base.update(overrides)
    return SynthSpec(**base)


class TestTableValidation:
    def test_duplicate_ids_rejected(self, rng):
        vectors = rng.standard_normal((2, 4))
        with pytest.raises(MetadataError):
            LabeledEmbeddingTable(
                rows=vectors,
                ids=("a", "a"),
                attributes={"gender": ("male", "female")},
                classes=(None, None),
                spaces={"gender": GENDER},
            )

    def test_unknown_label_rejected(self, rng):
        with pytest.raises(UnknownLabel):
            LabeledEmbeddingTable(
                rows=rng.standard_normal((2, 4)),
                ids=("a", "b"),
                attributes={"gender": ("male", "robot")},
                classes=(None, None),
                spaces={"gender": GENDER},
            )

    @pytest.mark.parametrize("row", [[0.0, 2.0], [0.6, 0.79]])
    def test_non_unit_row_accepted(self, row):
        table = LabeledEmbeddingTable(
            rows=np.array([[1.0, 0.0], row]),
            ids=("a", "b"),
            attributes={"gender": ("male", "female")},
            classes=(None, None),
            spaces={"gender": GENDER},
        )
        rows = np.array([[1.0, 0.0], row], dtype=np.float32).astype(np.float64)
        unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        assert table.unit_rows(slice(None)).tobytes() == unit.tobytes()

    def test_non_finite_row_rejected_before_the_ids(self):
        with pytest.raises(NonUnitRow) as excinfo:
            LabeledEmbeddingTable(
                rows=np.array([[1.0, 0.0], [np.nan, 1.0]]),
                ids=("a", "a"),
                attributes={"gender": ("male", "female")},
                classes=(None, None),
                spaces={"gender": GENDER},
            )
        assert excinfo.value.exit_code == 5
        assert str(excinfo.value) == "dataset record 1 has a non-finite component"

    def test_empty_rejected(self):
        with pytest.raises(EmptyTable):
            LabeledEmbeddingTable(
                rows=np.empty((0, 4)),
                ids=(),
                attributes={"gender": ()},
                classes=(),
                spaces={"gender": GENDER},
            )


class TestRoundTrip:
    def test_read_write_identity(self, rng, tmp_path):
        table = small_table(rng, count=25)
        write_dataset(table, tmp_path / "ds")
        back = read_dataset(tmp_path / "ds" / MANIFEST_NAME)
        assert back.ids == table.ids
        assert back.attributes == table.attributes
        assert back.classes == table.classes
        assert back.spaces["gender"].generic_prompts == GENDER.generic_prompts
        # float32 storage: componentwise within the quantization bound
        assert np.allclose(
            back.unit_rows(slice(None)), table.unit_rows(slice(None)), rtol=1.2e-7, atol=1.2e-7
        )

    def test_rows_of_any_norm_round_trip_bit_for_bit(self, rng, tmp_path):
        table = small_table(rng, count=25)
        scale = np.where(np.arange(table.count) % 2 == 0, 3.0, 1e-3)
        rows = (table.rows * scale[:, None]).astype(np.float32)
        table = dataclasses.replace(table, rows=rows)
        back = read_dataset(write_dataset(table, tmp_path / "ds"))
        assert back.rows.tobytes() == table.rows.tobytes()
        assert back.norms.tobytes() == table.norms.tobytes()

    def test_refuses_nonempty_dir_without_force(self, rng, tmp_path):
        table = small_table(rng)
        write_dataset(table, tmp_path / "ds")
        with pytest.raises(DatasetIOError):
            write_dataset(table, tmp_path / "ds")
        write_dataset(table, tmp_path / "ds", force=True)

    def test_size_mismatch_detected(self, rng, tmp_path):
        table = small_table(rng)
        write_dataset(table, tmp_path / "ds")
        vec_path = tmp_path / "ds" / "vectors.f32"
        vec_path.write_bytes(vec_path.read_bytes()[:-1])
        with pytest.raises(SizeMismatch):
            read_dataset(tmp_path / "ds" / MANIFEST_NAME)

    def test_missing_attribute_line_detected(self, rng, tmp_path):
        table = small_table(rng)
        write_dataset(table, tmp_path / "ds")
        meta_path = tmp_path / "ds" / "meta.jsonl"
        lines = meta_path.read_text().splitlines()
        first = json.loads(lines[0])
        del first["attributes"]["gender"]
        lines[0] = json.dumps(first)
        meta_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MetadataError):
            read_dataset(tmp_path / "ds" / MANIFEST_NAME)

    @pytest.mark.parametrize("line", [
        "[1, 2]",
        '"r0000"',
        '{"id": "r0000", "attributes": ["gender"]}',
        '{"id": "r0000", "attributes": {"gender": ["male"]}}',
    ])
    def test_malformed_metadata_record_detected(self, rng, tmp_path, line):
        write_dataset(small_table(rng), tmp_path / "ds")
        meta_path = tmp_path / "ds" / "meta.jsonl"
        lines = meta_path.read_text().splitlines()
        lines[3] = line
        meta_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MetadataError):
            read_dataset(tmp_path / "ds" / MANIFEST_NAME)

    def test_nan_vector_rejected(self, rng, tmp_path):
        write_dataset(small_table(rng), tmp_path / "ds")
        vec_path = tmp_path / "ds" / "vectors.f32"
        raw = np.frombuffer(vec_path.read_bytes(), dtype="<f4").copy()
        raw[5] = np.nan
        vec_path.write_bytes(raw.tobytes())
        with pytest.raises(NonUnitRow):
            read_dataset(tmp_path / "ds" / MANIFEST_NAME)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_vector_rejected_without_warning(self, rng, tmp_path, bad):
        write_dataset(small_table(rng), tmp_path / "ds")
        vec_path = tmp_path / "ds" / "vectors.f32"
        raw = np.frombuffer(vec_path.read_bytes(), dtype="<f4").copy()
        raw[5] = bad
        vec_path.write_bytes(raw.tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonUnitRow, match="non-finite"):
                read_dataset(tmp_path / "ds" / MANIFEST_NAME)

    def test_write_returns_manifest_path(self, rng, tmp_path):
        assert write_dataset(small_table(rng), tmp_path / "ds") == tmp_path / "ds" / MANIFEST_NAME

    def test_malformed_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError):
            read_dataset(path)

    @pytest.mark.parametrize(
        "field, value, error",
        [
            pytest.param("attributes", 5, ManifestError, id="attributes-number"),
            pytest.param("values", 5, ConfigError, id="values-number"),
            pytest.param(
                "insertion_terms", {"male": 5, "female": "female"}, ConfigError,
                id="insertion-term-number",
            ),
            pytest.param("generic_prompts", ["a", "b"], ConfigError, id="prompts-list"),
            # Only an absent map takes the defaults.
            pytest.param("insertion_terms", {}, ConfigError, id="insertion-terms-empty"),
            pytest.param("generic_prompts", {}, ConfigError, id="prompts-empty"),
        ],
    )
    def test_attribute_declaration_types(self, rng, tmp_path, field, value, error):
        path = write_dataset(small_table(rng), tmp_path / "ds")
        manifest = json.loads(path.read_text())
        if field == "attributes":
            manifest["attributes"] = value
        else:
            manifest["attributes"][0][field] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(error):
            read_dataset(path)


def write_raw(rng, tmp_path, raw):
    """A dataset whose vector file holds exactly the float32 rows ``raw``."""
    count, dim = raw.shape
    path = write_dataset(small_table(rng, count=count, dim=dim), tmp_path / "ds")
    (tmp_path / "ds" / "vectors.f32").write_bytes(raw.astype("<f4").tobytes())
    return path


def read_failing(path, error):
    """Read a bad dataset, asserting ``error`` and that no warning fires first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as excinfo:
            read_dataset(path)
    assert excinfo.value.exit_code == 5
    return str(excinfo.value)


class TestStreamedIngest:
    """Vectors stream in blocks of ``BLOCK_ROWS``; four rows here, so that
    small files span several blocks."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(dataset, "BLOCK_ROWS", 4)

    @pytest.mark.parametrize("count", [1, 3, 4, 8, 9, 11])
    def test_bit_equal_to_normalizing_the_whole_file(self, rng, tmp_path, count):
        path = write_raw(rng, tmp_path, rng.standard_normal((count, 5)))
        blob = (tmp_path / "ds" / "vectors.f32").read_bytes()
        whole = np.frombuffer(blob, dtype="<f4").astype(np.float64).reshape(count, 5)
        expected = whole / np.linalg.norm(whole, axis=1)[:, None]
        assert read_dataset(path).unit_rows(slice(None)).tobytes() == expected.tobytes()

    def test_zero_row_names_its_record(self, rng, tmp_path):
        raw = rng.standard_normal((11, 5))
        raw[6] = 0.0
        message = read_failing(write_raw(rng, tmp_path, raw), MetadataError)
        assert message == "dataset record 6 has a zero vector"

    def test_later_non_finite_row_beats_earlier_zero_row(self, rng, tmp_path):
        raw = rng.standard_normal((11, 5))
        raw[1] = 0.0
        raw[9, 2] = np.nan
        message = read_failing(write_raw(rng, tmp_path, raw), NonUnitRow)
        assert message == "dataset record 9 has a non-finite component"

    def test_bad_metadata_beats_non_finite_vector(self, rng, tmp_path):
        raw = rng.standard_normal((11, 5))
        raw[0, 0] = np.inf
        path = write_raw(rng, tmp_path, raw)
        meta_path = tmp_path / "ds" / "meta.jsonl"
        lines = meta_path.read_text().splitlines()
        lines[5] = "{not json"
        meta_path.write_text("\n".join(lines) + "\n")
        message = read_failing(path, MetadataError)
        assert message == "metadata line 5 is not valid JSON"

    def test_file_shrinking_after_the_size_check_is_a_size_mismatch(
        self, rng, tmp_path, monkeypatch
    ):
        path = write_raw(rng, tmp_path, rng.standard_normal((9, 5)))
        vec_path = tmp_path / "ds" / "vectors.f32"
        read_meta = dataset._read_meta

        def shrink_then_read(*args):
            vec_path.write_bytes(vec_path.read_bytes()[:-4])
            return read_meta(*args)

        monkeypatch.setattr(dataset, "_read_meta", shrink_then_read)
        with pytest.raises(SizeMismatch, match="ended after 176 bytes, expected 180"):
            read_dataset(path)

    @pytest.mark.parametrize("count", [3, 4, 9])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_write_matches_one_contiguous_copy(self, rng, tmp_path, count, order):
        table = small_table(rng, count=count, dim=5)
        table = LabeledEmbeddingTable(
            rows=np.asarray(table.rows, order=order),
            ids=table.ids,
            attributes=table.attributes,
            classes=table.classes,
            spaces=table.spaces,
        )
        write_dataset(table, tmp_path / "ds")
        written = (tmp_path / "ds" / "vectors.f32").read_bytes()
        assert written == np.ascontiguousarray(table.rows, dtype="<f4").tobytes()


class TestNormScratch:
    """Rows are squared for their norms into a float64 scratch of
    ``SQUARE_BYTES``, patched here to hold ``B`` rows, so that small tables
    cross its edges."""

    B = 4

    @pytest.mark.parametrize("dim", [2, 64, 513])
    @pytest.mark.parametrize("count", [1, B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_norms_are_each_rows_own_sum_of_squares(
        self, rng, monkeypatch, dim, count, order
    ):
        monkeypatch.setattr(dataset, "SQUARE_BYTES", 8 * dim * self.B)
        rows = rng.standard_normal((count, dim)) * 10.0 ** rng.integers(-3, 4, (count, 1))
        rows = np.asarray(rows, dtype=np.float32, order=order)
        table = dataclasses.replace(small_table(rng, count=count, dim=dim), rows=rows)
        # Whatever the layout it was given in, a table's norms are its C copy's.
        squares = np.square(np.ascontiguousarray(rows), dtype=np.float64)
        assert table.norms.tobytes() == np.sqrt(np.add.reduce(squares, axis=1)).tobytes()

    @pytest.mark.parametrize(
        "zero, non_finite",
        [
            ([B - 1], []), ([B], []), ([B, 2 * B], []),
            ([], [B - 1]), ([], [B]), ([], [B, 2 * B]),
            ([B - 1], [B]), ([B], [B - 1]), ([0], [2 * B]), ([2 * B], [0]),
        ],
    )
    def test_bad_rows_are_reported_alike_across_an_edge(self, rng, monkeypatch, zero, non_finite):
        monkeypatch.setattr(dataset, "SQUARE_BYTES", 8 * 5 * self.B)
        rows = rng.standard_normal((2 * self.B + 1, 5))
        rows[zero] = 0.0
        rows[non_finite, 1] = [np.inf, np.nan][: len(non_finite)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((NonUnitRow, MetadataError)) as excinfo:
                dataclasses.replace(small_table(rng, count=rows.shape[0], dim=5), rows=rows)
        if non_finite:  # anywhere, even after a zero row
            assert type(excinfo.value) is NonUnitRow
            assert str(excinfo.value) == f"dataset record {min(non_finite)} has a non-finite component"
        else:
            assert type(excinfo.value) is MetadataError
            assert str(excinfo.value) == f"dataset record {min(zero)} has a zero vector"


def test_metadata_is_parsed_line_by_line(rng, tmp_path):
    # Joined into one JSON array these lines parse as three records; on its
    # own, each line is invalid JSON.
    lines = [
        '{"id": "a", "attributes": {"gender": "male"}, "x": [{}',
        "{}]}",
        '{"id": "b", "attributes": {"gender": "female"}}, '
        '{"id": "c", "attributes": {"gender": "male"}}',
    ]
    assert len(json.loads("[" + ",".join(lines) + "]")) == 3
    path = write_dataset(small_table(rng, count=3), tmp_path / "ds")
    (tmp_path / "ds" / "meta.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(MetadataError, match="metadata line 0 is not valid JSON") as excinfo:
        read_dataset(path)
    assert excinfo.value.exit_code == 5


TEXT = st.text(alphabet="ab{}[]\",:\\ \t\u2028\u0085\ufeff\xe9", max_size=5)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)
# A canonical record, its strings raw (a } { or U+2028 unescaped) or escaped.
RECORDS = st.builds(
    json.dumps, st.dictionaries(TEXT, JSON_VALUES, max_size=4), ensure_ascii=st.booleans()
)
PADDING = st.text(alphabet=" \t\r", max_size=3)
LINES = st.one_of(
    RECORDS,
    st.tuples(PADDING, RECORDS, PADDING).map("".join),
    st.tuples(RECORDS, st.sampled_from([" ", "", "x", ", "]), RECORDS).map("".join),
    RECORDS.flatmap(lambda r: st.integers(0, len(r)).map(lambda i: f"{r[:i]}\n{r[i:]}")),
    RECORDS.map("\ufeff".__add__),
    st.sampled_from(["[]", "1", '"s"', "null", "", " ", "\t", "{", "}"]),
    st.sampled_from([10, 100_000]).map(lambda n: '{"x": ' + "[" * n + "]" * n + "}"),
)


def json_loads_line_by_line(text: str):
    """What reading ``text`` with ``json.loads`` on each line gives: the
    records, and the error that stops them (or None)."""
    records = []
    for lineno, line in enumerate(text.split("\n")):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError):
            return records, f"query line {lineno} is not valid JSON"
        if not isinstance(record, dict):
            return records, f"query line {lineno} is not a JSON object"
        records.append((lineno, record))
    return records, None


@given(
    lines=st.lists(LINES, max_size=6),
    ending=st.sampled_from(["\n", "\r\n", "\r"]),
)
@example(lines=["{} {}"], ending="\n")
@example(lines=["{}x"], ending="\n")
@example(lines=['{"a": 1}, {"b": 2}'], ending="\n")
@example(lines=['{"a":', "1}"], ending="\n")
@example(lines=[' {"a": "}{\u2028"}\t', '\t{"b": "{"} '], ending="\r\n")
@example(lines=["\ufeff{}"], ending="\n")
@example(lines=["[]", "1", '"s"', "null"], ending="\n")
@example(lines=['{"x": ' + "[" * 100_000 + "]" * 100_000 + "}"], ending="\n")
def test_json_lines_read_as_json_loads_reads_each_line(lines, ending):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "queries.jsonl"
        path.write_bytes(ending.join(lines).encode("utf-8") + ending.encode())
        text = path.read_text(encoding="utf-8")  # universal newlines, as a reader sees it
        expected, expected_error = json_loads_line_by_line(text)
        count, records = read_json_lines(path, "query")
        got, error = [], None
        try:
            got.extend(records)
        except MetadataError as exc:
            error = str(exc)
    assert count == sum(1 for line in text.split("\n") if line.strip())
    assert (got, error) == (expected, expected_error)


class TestSplit:
    def test_shapes_and_fold_sizes(self, rng):
        table = small_table(rng, count=100)
        reference, target = split_reference_target(
            table, SplitSpec(reference_fraction=0.5, fold_count=5, seed=3)
        )
        assert reference.count == 50
        assert target.count == 50

    def test_deterministic_under_seed(self, rng):
        table = small_table(rng, count=60)
        first = split_reference_target(table, SplitSpec(seed=9))
        second = split_reference_target(table, SplitSpec(seed=9))
        assert first[0].ids == second[0].ids
        assert first[1].ids == second[1].ids
        different = split_reference_target(table, SplitSpec(seed=10))
        assert different[0].ids != first[0].ids

    def test_disjoint_and_exhaustive(self, rng):
        table = small_table(rng, count=31)
        reference, target = split_reference_target(table, SplitSpec(seed=2))
        assert set(reference.ids).isdisjoint(target.ids)
        assert set(reference.ids) | set(target.ids) == set(table.ids)

    def test_too_small_rejected(self, rng):
        table = small_table(rng, count=9)
        with pytest.raises(TooSmall):
            split_reference_target(table, SplitSpec(fold_count=5))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError):
            SplitSpec(reference_fraction=1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            SplitSpec(seed=-1)

    def test_make_folds_partition(self):
        folds = make_folds(23, 5, seed=1)
        flat = sorted(i for fold in folds for i in fold)
        assert flat == list(range(23))
        again = make_folds(23, 5, seed=1)
        assert [fold.tolist() for fold in again] == [fold.tolist() for fold in folds]


class TestSynthGenerate:
    def test_deterministic_under_seed(self):
        first = synth_generate(synth_spec())
        second = synth_generate(synth_spec())
        assert np.array_equal(first.rows, second.rows)
        assert first.ids == second.ids

    def test_counts_and_labels(self):
        table = synth_generate(synth_spec())
        assert table.count == 80
        labels = table.attributes["gender"]
        dist = empirical_distribution([labels.count(v) for v in GENDER.values], GENDER)
        assert dist == {"male": 0.5, "female": 0.5}
        assert set(table.classes) == {"c0"}

    def test_single_record_cell(self):
        spec = synth_spec(
            cells=(SynthCell("c0", "male", 0.5, 1), SynthCell("c0", "female", -0.5, 3))
        )
        table = synth_generate(spec)
        assert table.count == 4
        assert table.attributes["gender"].count("male") == 1

    def test_unbiased_cells_have_equal_mean_similarity(self):
        spec = synth_spec(
            noise=0.3,
            cells=(SynthCell("c0", "male", 0.0, 400), SynthCell("c0", "female", 0.0, 400)),
        )
        table = synth_generate(spec)
        labels = np.array(table.attributes["gender"])
        # compare mean similarity to the overall class direction proxy
        unit = table.unit_rows(slice(None))
        center = normalize(unit.mean(axis=0))
        male = unit[labels == "male"] @ center
        female = unit[labels == "female"] @ center
        pooled = math.hypot(male.std() / math.sqrt(male.size),
                            female.std() / math.sqrt(female.size))
        assert abs(male.mean() - female.mean()) < 3.0 * pooled

    def test_biased_query_retrieves_aligned_group(self):
        spec = synth_spec(
            cells=(SynthCell("c0", "male", 0.8, 500), SynthCell("c0", "female", -0.8, 500)),
            queries=(SynthQuerySpec("q", "c0", "male"),),
        )
        table = synth_generate(spec)
        query = np.array(synth_query_rows(spec)[0]["vector"])
        retrieved = retrieve_top_k(table, query, 500)
        labels = [table.attributes["gender"][r.row] for r in retrieved]
        dist = empirical_distribution([labels.count(v) for v in GENDER.values], GENDER)
        assert dist["male"] > 0.9

    def test_bias_monotonically_raises_max_skew(self):
        skews = []
        for beta in (0.0, 0.4, 0.8):
            spec = synth_spec(
                noise=0.6,
                seed=5,
                cells=(
                    SynthCell("c0", "male", beta, 500),
                    SynthCell("c0", "female", -beta, 500),
                ),
                queries=(SynthQuerySpec("q", "c0", "male"),),
            )
            table = synth_generate(spec)
            query = np.array(synth_query_rows(spec)[0]["vector"])
            retrieved = retrieve_top_k(table, query, 500)
            labels = [table.attributes["gender"][r.row] for r in retrieved]
            dist = empirical_distribution(
                [labels.count(v) for v in GENDER.values], GENDER
            )
            skews.append(max_skew(dist, {"male": 0.5, "female": 0.5}))
        assert skews[0] < skews[1] < skews[2]

    def test_query_rows_deterministic_and_shaped(self):
        spec = synth_spec(
            queries=(SynthQuerySpec("q", "c0", "male", aug_noise=0.1),),
        )
        rows = synth_query_rows(spec)
        again = synth_query_rows(spec)
        assert rows == again
        row = rows[0]
        assert set(row["augmented"]) == {"male", "female"}
        assert set(row["generic"]) == {"male", "female"}
        assert len(row["vector"]) == spec.dim

    def test_bad_cells_rejected(self):
        with pytest.raises(SynthSpecError):
            synth_spec(cells=(SynthCell("c0", "robot", 0.1, 5),))
        with pytest.raises(SynthSpecError):
            synth_spec(cells=(SynthCell("c0", "male", 0.1, 0),))
        with pytest.raises(SynthSpecError):
            synth_spec(noise=-0.1)


class TestLoadSynthSpec:
    def test_round_trip_from_json(self, tmp_path):
        body = {
            "dim": 8,
            "seed": 3,
            "noise": 0.1,
            "attribute": {"name": "gender", "values": ["male", "female"]},
            "cells": [
                {"class": "c0", "value": "male", "bias": 0.5, "count": 4},
                {"class": "c0", "value": "female", "bias": -0.5, "count": 4},
            ],
            "queries": [{"id": "q", "class": "c0", "align": "male"}],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(body))
        spec = load_synth_spec(path)
        assert spec.dim == 8
        assert spec.queries[0].align_value == "male"
        table = synth_generate(spec)
        assert table.count == 8

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{oops")
        with pytest.raises(SynthSpecError):
            load_synth_spec(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(DatasetIOError):
            load_synth_spec(tmp_path / "absent.json")
