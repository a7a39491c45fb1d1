"""Every JSON input file fails the same way at its boundary.

The manifest, ``meta.jsonl``, a generator spec, a queries file and a prior
file are all read by ``read_json`` or ``read_json_lines``: an unreadable file
exits 3, and text that is not UTF-8 or not JSON exits with the file's own
class. These cases are the seed corpus for a format fuzz.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bend.augment import GENDER
from bend.cli import main
from bend.dataset import (
    LabeledEmbeddingTable,
    load_synth_spec,
    read_dataset,
    read_json,
    read_json_lines,
    write_dataset,
)
from bend.errors import (
    BendError,
    ConfigError,
    DatasetIOError,
    ManifestError,
    MetadataError,
    NonFiniteValue,
    NonUnitRow,
    SizeMismatch,
    SynthSpecError,
)
from bend.pipeline import load_queries, validate_prior
from bend.vectors import number_vector

COUNT = 3
DIM = 4


def load_prior(path, space):
    """A prior file as the CLI reads it: its JSON first, then its values."""
    return validate_prior(read_json(path, "prior file", ConfigError), space)


def small_table():
    vectors = np.eye(COUNT, DIM)
    return LabeledEmbeddingTable(
        rows=vectors,
        ids=tuple(f"r{i}" for i in range(COUNT)),
        attributes={"gender": ("male", "female", "male")},
        classes=(None,) * COUNT,
        spaces={"gender": GENDER},
    )


def spec_body():
    return {
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


def _dataset(tmp_path):
    return write_dataset(small_table(), tmp_path / "ds")


def _setup(kind, tmp_path):
    """A valid input file of ``kind``, and a call that reads it."""
    if kind == "manifest":
        manifest = _dataset(tmp_path)
        return manifest, lambda: read_dataset(manifest)
    if kind == "meta":
        manifest = _dataset(tmp_path)
        return manifest.parent / "meta.jsonl", lambda: read_dataset(manifest)
    if kind == "spec":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_body()))
        return path, lambda: load_synth_spec(path)
    if kind == "queries":
        path = tmp_path / "queries.jsonl"
        path.write_text(json.dumps({"id": "q", "vector": [1.0, 0.0, 0.0, 0.0]}) + "\n")
        return path, lambda: load_queries(path)
    path = tmp_path / "prior.json"
    path.write_text(json.dumps({"male": 0.5, "female": 0.5}))
    return path, lambda: load_prior(path, GENDER)


# What each file's content fault raises; an unreadable file is always exit 3.
INVALID = {
    "manifest": (ManifestError, 5),
    "meta": (MetadataError, 5),
    "spec": (SynthSpecError, 2),
    "queries": (MetadataError, 5),
    "prior": (ConfigError, 2),
}
JSONL = ("meta", "queries")
# What replaces the file, or the first line of a JSON-lines file.
BAD = {
    "not-utf8": b'{"id": "\xff"}',
    "not-json": b"{oops",
    "too-deep": b"[" * 100_000,
    "not-object": b'["not", "an", "object"]',
}
CASES = [
    (kind, fault)
    for kind in INVALID
    for fault in ["unreadable", *BAD]
    if fault != "not-object" or kind in JSONL
]


@pytest.mark.parametrize("kind, fault", CASES)
def test_input_file_fault_exits_with_the_file_class(tmp_path, kind, fault):
    path, read = _setup(kind, tmp_path)
    read()  # the unbroken file loads
    if fault == "unreadable":
        path.unlink()
        path.mkdir()
    elif kind in JSONL:
        rest = path.read_bytes().splitlines(keepends=True)[1:]
        path.write_bytes(BAD[fault] + b"\n" + b"".join(rest))
    else:
        path.write_bytes(BAD[fault])
    error, code = (DatasetIOError, 3) if fault == "unreadable" else INVALID[kind]
    with pytest.raises(error) as excinfo:
        read()
    assert type(excinfo.value) is error
    assert excinfo.value.exit_code == code
    if kind in JSONL and fault not in ("unreadable", "not-utf8"):
        assert "line 0 " in str(excinfo.value)


@pytest.mark.parametrize(
    "bad_line, message",
    [
        pytest.param("{oops", "metadata line 4 is not valid JSON", id="not-json"),
        pytest.param('{"id": "r2"}', "metadata line 4 needs a string label", id="no-label"),
        pytest.param(
            '{"id": "r2", "class": 5, "attributes": {"gender": "male"}}',
            "metadata line 4 has a 'class' that is not a string", id="class-not-a-string",
        ),
    ],
)
def test_metadata_error_after_blank_lines_names_the_physical_line(tmp_path, bad_line, message):
    manifest = _dataset(tmp_path)
    meta = manifest.parent / "meta.jsonl"
    first, second, _ = meta.read_text().splitlines()
    meta.write_text("\n".join([first, "", "   ", second, bad_line]) + "\n")
    with pytest.raises(MetadataError, match=message):
        read_dataset(manifest)


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_unicode_line_separators_stay_inside_json_strings(tmp_path, separator):
    # JSON allows these raw inside a string; only a line feed ends a record.
    text = f"x{separator}y"
    manifest = _dataset(tmp_path)
    meta = manifest.parent / "meta.jsonl"
    records = [json.loads(line) for line in meta.read_text().splitlines()]
    records[1]["class"] = text
    meta.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )
    assert separator in meta.read_text(encoding="utf-8")
    assert read_dataset(manifest).classes == (None, text, None)
    queries = tmp_path / "queries.jsonl"
    queries.write_text(
        json.dumps({"id": text, "text": text}, ensure_ascii=False) + "\n"
        + json.dumps({"id": "v", "vector": [1.0, 0.0], "class": text}, ensure_ascii=False)
        + "\n",
        encoding="utf-8",
    )
    rows = load_queries(queries)
    assert [(r.id, r.text, r.class_label) for r in rows] == [
        (text, text, None), ("v", None, text)
    ]


def test_metadata_count_is_checked_before_any_line(tmp_path):
    manifest = _dataset(tmp_path)
    meta = manifest.parent / "meta.jsonl"
    meta.write_text("{oops\n" + meta.read_text())
    with pytest.raises(MetadataError, match="metadata has 4 records, manifest says 3"):
        read_dataset(manifest)


@pytest.mark.parametrize(
    "field, value",
    [
        ("dim", str(DIM)),
        ("count", str(COUNT)),
        ("dim", DIM + 0.9),
        ("count", COUNT + 0.7),
        ("count", True),
        # A file name that is not a string is not a path.
        ("vectors_file", 5),
        ("vectors_file", None),
        ("vectors_file", ["x"]),
        ("meta_file", 5),
        ("meta_file", None),
        ("meta_file", ["x"]),
        # A path that leaves the dataset directory is not opened, even when it
        # names a readable file.
        ("vectors_file", "../ds/vectors.f32"),
        ("meta_file", "../ds/meta.jsonl"),
        pytest.param("vectors_file", str(Path(__file__).resolve()), id="vectors_file-absolute"),
        pytest.param("meta_file", str(Path(__file__).resolve()), id="meta_file-absolute"),
        pytest.param(
            "attributes", [{"name": "gender", "values": ["male", "female"]}] * 2,
            id="attribute-declared-twice",
        ),
        ("schema", "bend/9"),
        ("schema", 1),
    ],
)
def test_manifest_fields_are_checked_not_coerced(tmp_path, field, value):
    manifest = _dataset(tmp_path)
    body = json.loads(manifest.read_text())
    body[field] = value
    manifest.write_text(json.dumps(body))
    with pytest.raises(ManifestError) as excinfo:
        read_dataset(manifest)
    assert excinfo.value.exit_code == 5


def test_a_manifest_without_a_schema_loads(tmp_path):
    manifest = _dataset(tmp_path)
    body = json.loads(manifest.read_text())
    assert body.pop("schema") == "bend/1"
    manifest.write_text(json.dumps(body))
    assert read_dataset(manifest).count == COUNT


def test_manifest_integral_floats_are_counts(tmp_path):
    manifest = _dataset(tmp_path)
    body = json.loads(manifest.read_text())
    body.update(dim=float(DIM), count=float(COUNT))
    manifest.write_text(json.dumps(body))
    assert read_dataset(manifest).rows.shape == (COUNT, DIM)
    body["count"] = 1e300
    manifest.write_text(json.dumps(body))
    with pytest.raises(SizeMismatch):
        read_dataset(manifest)


@pytest.mark.parametrize(
    "where, field, value",
    [
        ("spec", "dim", "8"),
        ("spec", "seed", True),
        ("spec", "noise", "0.1"),
        ("cell", "bias", "0.5"),
        ("cell", "count", 3.9),
        ("cell", "count", True),
        ("query", "scale", "2"),
        ("spec", "noise", float("nan")),
        ("cell", "bias", float("inf")),
        ("query", "scale", float("-inf")),
        ("query", "aug_noise", float("nan")),
    ],
)
def test_spec_numbers_are_checked_not_coerced(tmp_path, where, field, value):
    assert_spec_rejected(tmp_path, where, field, value)


@pytest.mark.parametrize(
    "where, field, value",
    [
        ("cell", "class", None),
        ("cell", "class", ["x"]),
        ("cell", "value", 1),
        ("query", "id", 7),
        ("query", "class", None),
        ("query", "align", ["male"]),
    ],
)
def test_spec_strings_are_checked_not_coerced(tmp_path, where, field, value):
    # Their printed forms could fail later checks too; the message names why.
    assert_spec_rejected(tmp_path, where, field, value, f"spec {where} '{field}' must be a string")


@pytest.mark.parametrize(
    "ids, message",
    [
        pytest.param(["q", "q"], "duplicate query id 'q'", id="repeated"),
        pytest.param([""], "spec query 'id' must not be empty", id="empty"),
    ],
)
def test_spec_query_ids_are_unique_and_non_empty(tmp_path, ids, message):
    # Either spec would write a queries file that load_queries refuses.
    body = spec_body()
    body["queries"] = [{**body["queries"][0], "id": query_id} for query_id in ids]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(body))
    with pytest.raises(SynthSpecError, match=f"^{message}$") as excinfo:
        load_synth_spec(path)
    assert excinfo.value.exit_code == 2


def assert_spec_rejected(tmp_path, where, field, value, message=None):
    body = spec_body()
    target = {"spec": body, "cell": body["cells"][0], "query": body["queries"][0]}[where]
    target[field] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(body))
    with pytest.raises(SynthSpecError, match=message) as excinfo:
        load_synth_spec(path)
    assert excinfo.value.exit_code == 2


@pytest.mark.parametrize("field", ["insertion_terms", "generic_prompts"])
def test_an_empty_spec_attribute_map_exits_2(tmp_path, field):
    # Only an absent map takes the defaults, in a spec as in a manifest.
    body = spec_body()
    body["attribute"][field] = {}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(body))
    with pytest.raises(ConfigError, match="every value needs exactly one") as excinfo:
        load_synth_spec(path)
    assert excinfo.value.exit_code == 2


@pytest.mark.parametrize(
    "male",
    [
        pytest.param(-0.5, id="negative"),
        pytest.param(float("inf"), id="infinite"),
        pytest.param([0.5], id="nested"),
    ],
)
def test_prior_numbers_are_checked(tmp_path, male):
    # NaN, huge integers, strings and booleans are cases of test_bad_prior_rejected.
    path = tmp_path / "prior.json"
    path.write_text(json.dumps({"male": male, "female": 0.5}))
    with pytest.raises(ConfigError) as excinfo:
        load_prior(path, GENDER)
    assert excinfo.value.exit_code == 2


@pytest.mark.parametrize(
    "vector",
    [
        pytest.param("[1, 0, 0, 0", id="not-json"),
        pytest.param("[" * 100_000, id="too-deep"),
        pytest.param("@{tmp}/missing.json", id="missing-file"),
        pytest.param("@{tmp}", id="unreadable-file"),
    ],
)
def test_vector_flag_faults_are_usage_errors(tmp_path, vector):
    # --vector takes inline JSON or a path, so a bad path is a usage error too.
    manifest = _dataset(tmp_path)
    vector = vector.format(tmp=tmp_path)
    assert main(["retrieve", "--vector", vector, "--target", str(manifest)]) == 2


# The file-format fuzz: each boundary reader, on any bytes, either loads or
# raises a BendError of its documented class and exit code, never a bare one.
FUZZ_ERRORS = {
    "json": {ConfigError: 2},  # read_json, as a prior file is read
    "jsonl": {MetadataError: 5},  # read_json_lines, every line drawn
    "vector": {ConfigError: 2, NonFiniteValue: 5},  # read_json, then number_vector
    "vectors.f32": {SizeMismatch: 5, NonUnitRow: 5, MetadataError: 5},  # read_dataset
}
FLOAT32_ROWS = st.lists(
    st.floats(width=32), min_size=COUNT * DIM, max_size=COUNT * DIM
).map(lambda values: np.asarray(values, dtype="<f4").tobytes())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=12,
)


def _fuzz_read(kind: str, raw: bytes, tmp: Path):
    if kind == "vectors.f32":
        manifest = write_dataset(small_table(), tmp / "ds")
        (manifest.parent / "vectors.f32").write_bytes(raw)
        table = read_dataset(manifest)  # loads only the file's own rows, normalized
        rows = np.frombuffer(raw, "<f4").astype(np.float64).reshape(COUNT, DIM)
        unit = table.unit_rows(slice(None))
        assert np.allclose(unit * np.linalg.norm(rows, axis=1)[:, None], rows)
        return
    path = tmp / "input"
    path.write_bytes(raw)
    if kind == "jsonl":
        count, records = read_json_lines(path, "query")
        assert sum(isinstance(record, dict) for _, record in records) == count
        return
    values = read_json(path, "input", ConfigError)
    if kind == "vector":
        assert np.isfinite(number_vector(values, "vector", ConfigError, NonFiniteValue)).all()


def _seeded(test):
    """Every fault of ``BAD`` is an explicit example for every kind."""
    for kind in FUZZ_ERRORS:
        for raw in [*BAD.values(), b"\r\n{}\r\n"]:
            test = example(kind=kind, raw=raw)(test)
    return test


@settings(max_examples=150)
@given(
    kind=st.sampled_from(sorted(FUZZ_ERRORS)),
    raw=st.one_of(
        st.binary(max_size=64),
        JSON_VALUES.map(lambda value: json.dumps(value).encode()),
        st.lists(JSON_VALUES.map(json.dumps), max_size=4).map(lambda ls: "\n".join(ls).encode()),
        FLOAT32_ROWS,
    ),
)
@_seeded
@example(kind="vector", raw=b"[1e400]")
@example(kind="vector", raw=b"[" + b"9" * 400 + b"]")
@example(kind="vector", raw=b'["1", true]')
@example(kind="vector", raw=b"[NaN]")
@example(kind="vectors.f32", raw=np.full(COUNT * DIM, np.nan, "<f4").tobytes())
@example(kind="vectors.f32", raw=bytes(COUNT * DIM * 4))
@example(kind="vectors.f32", raw=bytes(COUNT * DIM * 4 - 1))
def test_input_bytes_load_or_raise_their_documented_error(kind, raw):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            _fuzz_read(kind, raw, Path(tmp))
        except BendError as exc:
            assert FUZZ_ERRORS[kind].get(type(exc)) == exc.exit_code, exc
