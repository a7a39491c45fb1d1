"""Dataset persistence, splitting, and a seeded biased-data generator.

On-disk layout is one directory per dataset: ``manifest.json`` describing the
shape and declared attributes, a raw little-endian float32 vector file with
no header or padding, and a JSON-lines metadata file joined by line order.
A table keeps the float32 rows as read plus each row's float64 norm; its unit
rows exist in float64 only a block at a time (``unit_rows``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .augment import AttributeSpace, attribute_space
from .errors import (
    BendError,
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
from .reporting import SCHEMA
from .vectors import ZERO_NORM_EPS, gram_schmidt, is_number

DTYPE = "f32le"
MANIFEST_NAME = "manifest.json"
VECTORS_NAME = "vectors.f32"
META_NAME = "meta.jsonl"
QUERIES_NAME = "queries.jsonl"
# Rows per block when vectors stream from disk, or pass through float64:
# reading a table holds the float32 table plus one block, never a second copy.
BLOCK_ROWS = 4096
# Bytes of the float64 scratch that rows are squared into for their norms:
# with the float32 rows it squares, small enough to stay in a core's L2 cache
# between the square and the sum.
SQUARE_BYTES = 1 << 20
# The decoder json.loads uses, called directly: a line that is one object then
# skips json.loads's whitespace scans and its two call layers.
_raw_decode = json.JSONDecoder().raw_decode


@dataclass(frozen=True)
class LabeledEmbeddingTable:
    """Attribute-labeled embeddings: (N, d) float32 rows, each row's float64
    norm, and per-record metadata. Given rows are rounded to float32 once;
    the norms are always derived from the float32 rows, wherever they came from."""

    rows: np.ndarray                         # (N, d) float32, as stored
    ids: tuple[str, ...]
    attributes: dict[str, tuple[str, ...]]   # attribute name -> per-record labels
    classes: tuple[str | None, ...]
    spaces: dict[str, AttributeSpace]
    norms: np.ndarray = field(init=False)    # (N,) float64, derived

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float32)
        object.__setattr__(self, "rows", rows)
        n = rows.shape[0] if rows.ndim == 2 else 0
        if n < 1:
            raise EmptyTable("a table needs at least one record")
        if rows.ndim != 2 or rows.shape[1] < 2:
            raise ConfigError("vectors must be (N, d) with d >= 2")
        norms = np.empty(n)
        step = max(1, SQUARE_BYTES // (8 * rows.shape[1]))
        scratch = np.empty((min(step, n), rows.shape[1]))
        for start in range(0, n, step):
            # np.linalg.norm's sum of squares, squared in float64 without a copy
            # first. Summed from a C-ordered scratch row, each row's sum is the
            # same whatever the block size or the layout of the given rows.
            block = rows[start : start + step]
            squares = np.square(block, out=scratch[: block.shape[0]], dtype=np.float64)
            np.add.reduce(squares, axis=1, out=norms[start : start + step])
        np.sqrt(norms, out=norms)
        finite = np.isfinite(norms)
        if not finite.all():  # anywhere, even after a zero row
            raise NonUnitRow(f"dataset record {int(np.argmin(finite))} has a non-finite component")
        zero = norms <= ZERO_NORM_EPS
        if zero.any():
            raise MetadataError(f"dataset record {int(np.argmax(zero))} has a zero vector")
        object.__setattr__(self, "norms", norms)
        if len(self.ids) != n or len(self.classes) != n:
            raise MetadataError("ids/classes length does not match the vector count")
        if len(set(self.ids)) != n:
            raise MetadataError("record ids must be unique")
        for name, space in self.spaces.items():
            labels = self.attributes.get(name)
            if labels is None or len(labels) != n:
                raise MetadataError(f"attribute {name!r} must label every record")
            unknown = set(labels) - set(space.values)
            if unknown:
                raise UnknownLabel(
                    f"labels {', '.join(sorted(map(repr, unknown)))} outside "
                    f"attribute {name!r} values"
                )
        for name in self.attributes:
            if name not in self.spaces:
                raise MetadataError(f"labels present for undeclared attribute {name!r}")

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def unit_rows(self, idx) -> np.ndarray:
        """The float64 unit rows at ``idx`` (indices or a slice): each float32
        row upcast and divided by its norm, the bits ingest has always given."""
        return np.divide(self.rows[idx], self.norms[idx, None])

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Each row's position in ascending id order: the integer tie-break key."""
        rank = np.empty(self.count, dtype=np.int64)
        rank[np.argsort(np.array(self.ids), kind="stable")] = np.arange(self.count)
        return rank

    @cached_property
    def codes(self) -> dict[str, np.ndarray]:
        """Each attribute's labels as positions in its declared ``space.values``:
        the one label encoding every partition, count and distribution uses."""
        codes = {}
        for name, space in self.spaces.items():
            position = {value: i for i, value in enumerate(space.values)}
            codes[name] = np.array([position[label] for label in self.attributes[name]])
            codes[name].flags.writeable = False
        return codes

    @cached_property
    def class_codes(self) -> tuple[dict[str | None, int], np.ndarray]:
        """An integer code for every class present, and each row's class code."""
        position: dict[str | None, int] = {}
        codes = np.array([position.setdefault(c, len(position)) for c in self.classes])
        codes.flags.writeable = False
        return position, codes

    def subset(self, indices: Sequence[int]) -> "LabeledEmbeddingTable":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledEmbeddingTable(
            rows=self.rows[idx],
            ids=tuple(self.ids[i] for i in idx),
            attributes={
                name: tuple(labels[i] for i in idx)
                for name, labels in self.attributes.items()
            },
            classes=tuple(self.classes[i] for i in idx),
            spaces=dict(self.spaces),
        )


@dataclass(frozen=True)
class SplitSpec:
    reference_fraction: float = 0.5
    fold_count: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.reference_fraction < 1.0:
            raise ConfigError("reference_fraction must be strictly between 0 and 1")
        if self.fold_count < 1:
            raise ConfigError("fold_count must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def _space_to_json(space: AttributeSpace) -> dict:
    return {
        "name": space.name,
        "values": list(space.values),
        "insertion_terms": dict(space.insertion_terms),
        "generic_prompts": dict(space.generic_prompts),
    }


def _space_from_json(obj) -> AttributeSpace:
    if not isinstance(obj, dict) or "name" not in obj or "values" not in obj:
        raise ManifestError("attribute declarations need 'name' and 'values'")
    return attribute_space(
        obj["name"],
        obj["values"],
        insertion_terms=obj.get("insertion_terms"),
        generic_prompts=obj.get("generic_prompts"),
    )


def _read_vectors(handle: BinaryIO, path: Path, count: int, dim: int) -> np.ndarray:
    """Stream ``count`` float32 rows into one table, a block at a time."""
    table = np.empty((count, dim), dtype="<f4")
    for start in range(0, count, BLOCK_ROWS):
        block = table[start : start + BLOCK_ROWS]
        try:
            got = handle.readinto(block)
        except OSError as exc:
            raise DatasetIOError(f"cannot read vector file {path}: {exc}") from None
        if got != block.nbytes:
            raise SizeMismatch(
                f"vector file ended after {start * dim * 4 + got} bytes, "
                f"expected {count * dim * 4} ({count} x {dim} float32)"
            )
    return table


def _read_text(path: Path, what: str, invalid: type[BendError]) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetIOError(f"cannot read {what} {path}: {exc}") from None
    except UnicodeDecodeError:
        raise invalid(f"{what} {path} is not UTF-8") from None


def read_json(path: Path, what: str, invalid: type[BendError]):
    """The JSON document in ``path``. An unreadable file raises ``DatasetIOError``;
    text that is not UTF-8 or not JSON (or nests too deep) raises ``invalid``."""
    text = _read_text(path, what, invalid)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise invalid(f"{what} {path} is not valid JSON: {exc}") from None


def read_json_lines(path: Path, what: str) -> tuple[int, Iterator[tuple[int, dict]]]:
    """The count of non-blank lines in a JSON-lines file, and a generator of
    ``(0-based line number, object)`` over them. Each line is parsed on its own
    when drawn and then dropped, so no record outlives its use. Only a line feed
    ends a line (text mode has already turned CR LF and CR into one), so a raw
    U+2028 or U+0085 inside a JSON string stays in its record. Every line gets
    ``json.loads``'s verdict: a line that is one object from its first to its
    last character is decoded by one reused decoder, and any other line by
    ``json.loads`` itself. An unreadable file raises ``DatasetIOError``; bad
    UTF-8, JSON or objects ``MetadataError``."""
    lines = _read_text(path, f"{what} file", MetadataError).split("\n")
    return sum(1 for line in lines if line.strip()), _json_objects(lines, what)


def _json_objects(lines: list[str], what: str) -> Iterator[tuple[int, dict]]:
    lines.reverse()  # popped in file order, so each line is freed once parsed
    for lineno in range(len(lines)):
        line = lines.pop()
        if not line.strip():
            continue
        try:
            # An object that fills its line is what json.loads would return; any
            # other line (padded, trailing text, not an object) is its to judge.
            record, end = _raw_decode(line) if line[:1] == "{" else (None, 0)
            if end != len(line):
                record = json.loads(line)
        except (ValueError, RecursionError):
            raise MetadataError(f"{what} line {lineno} is not valid JSON") from None
        if not isinstance(record, dict):
            raise MetadataError(f"{what} line {lineno} is not a JSON object")
        yield lineno, record


def _json_int(value, what: str, invalid: type[BendError]) -> int:
    """``value`` if it is a JSON number with no fraction; ``int()`` alone would
    read ``"3"`` and ``true`` as counts and cut ``3.9`` to 3."""
    if is_number(value) and (isinstance(value, int) or value.is_integer()):
        return int(value)
    raise invalid(f"{what} must be an integer, got {value!r}")


def _read_meta(
    meta_path: Path, count: int, spaces: dict[str, AttributeSpace]
) -> tuple[list[str], list[str | None], dict[str, list[str]]]:
    """Parse ``meta.jsonl`` into ids, classes and labels, counting records first."""
    found, records = read_json_lines(meta_path, "metadata")
    if found != count:
        raise MetadataError(f"metadata has {found} records, manifest says {count}")

    ids: list[str] = []
    classes: list[str | None] = []
    labels: dict[str, list[str]] = {name: [] for name in spaces}
    for lineno, record in records:
        record_id = record.get("id")
        if not isinstance(record_id, str) or not record_id:
            raise MetadataError(f"metadata line {lineno} is missing a string 'id'")
        ids.append(record_id)
        class_label = record.get("class")
        if class_label is not None and not isinstance(class_label, str):
            raise MetadataError(f"metadata line {lineno} has a 'class' that is not a string")
        classes.append(class_label)
        attrs = record.get("attributes") or {}
        if not isinstance(attrs, dict):
            raise MetadataError(f"metadata line {lineno} 'attributes' is not an object")
        for name in spaces:
            label = attrs.get(name)
            if not isinstance(label, str):
                raise MetadataError(
                    f"metadata line {lineno} needs a string label for attribute {name!r}"
                )
            labels[name].append(label)
    return ids, classes, labels


def read_dataset(manifest_path: str | Path) -> LabeledEmbeddingTable:
    """Load a dataset directory into a validated table of its rows as stored."""
    manifest_path = Path(manifest_path)
    manifest = read_json(manifest_path, "manifest", ManifestError)
    if not isinstance(manifest, dict):
        raise ManifestError("manifest must be a JSON object")
    schema = manifest.get("schema")
    if schema is not None and schema != SCHEMA:
        raise ManifestError(f"manifest has unknown schema {schema!r}; expected {SCHEMA!r}")
    try:
        dim = _json_int(manifest["dim"], "manifest 'dim'", ManifestError)
        count = _json_int(manifest["count"], "manifest 'count'", ManifestError)
        dtype = manifest["dtype"]
        vectors_file = manifest["vectors_file"]
        meta_file = manifest["meta_file"]
        attr_decls = manifest["attributes"]
    except KeyError as exc:
        raise ManifestError(f"manifest missing field: {exc}") from None
    if not isinstance(attr_decls, list):
        raise ManifestError("manifest 'attributes' must be a list of declarations")
    if not isinstance(vectors_file, str) or not isinstance(meta_file, str):
        raise ManifestError("manifest 'vectors_file' and 'meta_file' must be strings")
    for name in (vectors_file, meta_file):
        if Path(name).is_absolute() or ".." in Path(name).parts:
            raise ManifestError(f"manifest path {name!r} leaves the dataset directory")
    if dtype != DTYPE:
        raise ManifestError(f"unsupported dtype {dtype!r}; expected {DTYPE!r}")
    if dim < 2 or count < 1:
        raise ManifestError("manifest requires dim >= 2 and count >= 1")
    spaces = {}
    for decl in attr_decls:
        space = _space_from_json(decl)
        if space.name in spaces:
            raise ManifestError(f"manifest declares attribute {space.name!r} twice")
        spaces[space.name] = space

    base = manifest_path.parent
    vec_path = base / vectors_file
    try:
        handle = vec_path.open("rb")
    except OSError as exc:
        raise DatasetIOError(f"cannot read vector file {vec_path}: {exc}") from None
    with handle:
        size = os.fstat(handle.fileno()).st_size
        expected = count * dim * 4
        if size != expected:
            raise SizeMismatch(
                f"vector file holds {size} bytes, expected {expected} "
                f"({count} x {dim} float32)"
            )
        # Metadata errors come before vector errors, so parse it first.
        ids, classes, labels = _read_meta(base / meta_file, count, spaces)
        rows = _read_vectors(handle, vec_path, count, dim)

    return LabeledEmbeddingTable(
        rows=rows,
        ids=tuple(ids),
        attributes={name: tuple(vals) for name, vals in labels.items()},
        classes=tuple(classes),
        spaces=spaces,
    )


def write_dataset(
    table: LabeledEmbeddingTable, out_dir: str | Path, force: bool = False
) -> Path:
    """Persist a table and return its manifest path; refuses to overwrite a
    non-empty directory without force."""
    out_dir = Path(out_dir)
    try:
        if out_dir.exists() and any(out_dir.iterdir()) and not force:
            raise DatasetIOError(
                f"output directory {out_dir} exists and is not empty (use force)"
            )
        out_dir.mkdir(parents=True, exist_ok=True)
        with (out_dir / VECTORS_NAME).open("wb") as handle:
            handle.write(np.ascontiguousarray(table.rows, dtype="<f4"))
        with (out_dir / META_NAME).open("w", encoding="utf-8") as handle:
            for i, record_id in enumerate(table.ids):
                record = {
                    "id": record_id,
                    "attributes": {
                        name: table.attributes[name][i] for name in table.spaces
                    },
                }
                if table.classes[i] is not None:
                    record["class"] = table.classes[i]
                handle.write(json.dumps(record) + "\n")
        manifest = {
            "schema": SCHEMA,
            "dim": table.dim,
            "count": table.count,
            "dtype": DTYPE,
            "vectors_file": VECTORS_NAME,
            "meta_file": META_NAME,
            "attributes": [_space_to_json(s) for s in table.spaces.values()],
        }
        manifest_path = out_dir / MANIFEST_NAME
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise DatasetIOError(f"failed writing dataset to {out_dir}: {exc}") from None
    return manifest_path


def make_folds(count: int, fold_count: int, seed: int) -> list[np.ndarray]:
    """Deterministic partition of record positions into near-equal folds."""
    if fold_count < 1:
        raise ConfigError("fold_count must be at least 1")
    if count < fold_count:
        raise TooSmall(f"{count} records cannot form {fold_count} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(count)
    return np.array_split(order, fold_count)


def split_reference_target(
    table: LabeledEmbeddingTable, spec: SplitSpec
) -> tuple[LabeledEmbeddingTable, LabeledEmbeddingTable]:
    """Seeded disjoint reference/target split.

    The target keeps at least ``spec.fold_count`` records so that evaluation
    (which draws its own folds with ``make_folds``) can partition it.
    """
    if table.count < spec.fold_count * 2:
        raise TooSmall(
            f"{table.count} records are too few for a split with "
            f"{spec.fold_count} folds"
        )
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(table.count)
    n_ref = int(round(table.count * spec.reference_fraction))
    n_ref = min(max(n_ref, 1), table.count - spec.fold_count)
    return table.subset(order[:n_ref]), table.subset(order[n_ref:])


# -- synthetic generation -----------------------------------------------------


@dataclass(frozen=True)
class SynthCell:
    class_name: str
    value: str
    bias: float
    count: int


@dataclass(frozen=True)
class SynthQuerySpec:
    query_id: str
    class_name: str
    align_value: str
    scale: float = 1.0
    aug_noise: float = 0.0


@dataclass(frozen=True)
class SynthSpec:
    """Seeded generator config: one attribute, per-(class, value) cells.

    Every record in cell (c, a) is drawn as normalize(w_c + bias*u + noise*g)
    where u is the attribute direction, w_c the class direction (all seeded
    unit vectors, mutually orthogonalized) and g a standard normal draw.
    """

    dim: int
    seed: int
    noise: float
    space: AttributeSpace
    cells: tuple[SynthCell, ...]
    queries: tuple[SynthQuerySpec, ...] = field(default=())

    def __post_init__(self):
        if self.dim < 2:
            raise SynthSpecError("dim must be at least 2")
        if self.noise < 0:
            raise SynthSpecError("noise scale must be non-negative")
        if self.seed < 0:
            raise SynthSpecError("seed must be non-negative")
        if not self.cells:
            raise SynthSpecError("at least one cell is required")
        values = set(self.space.values)
        seen = set()
        total = 0
        for cell in self.cells:
            if cell.value not in values:
                raise SynthSpecError(
                    f"cell value {cell.value!r} outside attribute values"
                )
            if cell.count < 0:
                raise SynthSpecError("cell counts must be non-negative")
            key = (cell.class_name, cell.value)
            if key in seen:
                raise SynthSpecError(f"duplicate cell {key}")
            seen.add(key)
            total += cell.count
        if total < 1:
            raise SynthSpecError("at least one cell must be non-empty")
        classes = self.class_names()
        if self.dim < 2 + len(classes):
            raise SynthSpecError("dim too small for orthogonal class directions")
        bias_by = {(c.class_name, c.value): c.bias for c in self.cells}
        ids = set()
        for query in self.queries:
            # load_queries refuses what bend synth would otherwise write.
            if not query.query_id:
                raise SynthSpecError("spec query 'id' must not be empty")
            if query.query_id in ids:
                raise SynthSpecError(f"duplicate query id {query.query_id!r}")
            ids.add(query.query_id)
            if (query.class_name, query.align_value) not in bias_by:
                raise SynthSpecError(
                    f"query {query.query_id!r} references unknown cell "
                    f"({query.class_name!r}, {query.align_value!r})"
                )
            if query.aug_noise < 0:
                raise SynthSpecError("aug_noise must be non-negative")

    def class_names(self) -> tuple[str, ...]:
        names = []
        for cell in self.cells:
            if cell.class_name not in names:
                names.append(cell.class_name)
        return tuple(names)

    def bias_for(self, class_name: str, value: str) -> float:
        for cell in self.cells:
            if cell.class_name == class_name and cell.value == value:
                return cell.bias
        raise SynthSpecError(f"no cell for ({class_name!r}, {value!r})")


def load_synth_spec(path: str | Path) -> SynthSpec:
    """Parse a generator spec JSON file."""
    body = read_json(Path(path), "spec file", SynthSpecError)
    if not isinstance(body, dict):
        raise SynthSpecError("spec must be a JSON object")
    try:
        attr = body["attribute"]
        space = attribute_space(
            attr["name"],
            attr["values"],
            insertion_terms=attr.get("insertion_terms"),
            generic_prompts=attr.get("generic_prompts"),
        )
        cells = tuple(
            SynthCell(
                class_name=_spec_string(cell["class"], "cell 'class'"),
                value=_spec_string(cell["value"], "cell 'value'"),
                bias=_spec_number(cell["bias"], "cell 'bias'"),
                count=_json_int(cell["count"], "spec cell 'count'", SynthSpecError),
            )
            for cell in body["cells"]
        )
        queries = tuple(
            SynthQuerySpec(
                query_id=_spec_string(q["id"], "query 'id'"),
                class_name=_spec_string(q["class"], "query 'class'"),
                align_value=_spec_string(q["align"], "query 'align'"),
                scale=_spec_number(q.get("scale", 1.0), "query 'scale'"),
                aug_noise=_spec_number(q.get("aug_noise", 0.0), "query 'aug_noise'"),
            )
            for q in body.get("queries", [])
        )
        return SynthSpec(
            dim=_json_int(body["dim"], "spec 'dim'", SynthSpecError),
            seed=_json_int(body["seed"], "spec 'seed'", SynthSpecError),
            noise=_spec_number(body["noise"], "'noise'"),
            space=space,
            cells=cells,
            queries=queries,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SynthSpecError(f"malformed spec field: {exc}") from None


def _spec_string(value, what: str) -> str:
    if isinstance(value, str):
        return value
    raise SynthSpecError(f"spec {what} must be a string, got {value!r}")


def _spec_number(value, what: str) -> float:
    # float() alone reads "0.1" and true, and json.loads reads NaN and Infinity.
    if is_number(value) and math.isfinite(value):
        return float(value)
    raise SynthSpecError(f"spec {what} must be a finite number, got {value!r}")


def _synth_directions(spec: SynthSpec) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """Seeded unit directions: attribute u, one w per class, one spare (for
    generic-prompt analogues), all mutually orthonormalized."""
    classes = spec.class_names()
    rng = np.random.default_rng([spec.seed, 0])
    raw = rng.standard_normal((2 + len(classes), spec.dim))
    basis, dropped = gram_schmidt(list(raw))
    if dropped or basis.shape[0] != 2 + len(classes):
        raise SynthSpecError("could not draw independent directions; raise dim")
    u = basis[0]
    spare = basis[1]
    class_dirs = {name: basis[2 + i] for i, name in enumerate(classes)}
    return u, class_dirs, spare


def synth_generate(spec: SynthSpec) -> LabeledEmbeddingTable:
    """Deterministically generate the biased table described by ``spec``."""
    u, class_dirs, _ = _synth_directions(spec)
    rng = np.random.default_rng([spec.seed, 1])
    blocks: list[np.ndarray] = []
    labels: list[str] = []
    classes: list[str] = []
    for cell in spec.cells:
        center = class_dirs[cell.class_name] + cell.bias * u
        noise = rng.standard_normal((cell.count, spec.dim))
        blocks.append(center[None, :] + spec.noise * noise)
        labels += [cell.value] * cell.count
        classes += [cell.class_name] * cell.count
    vectors = np.concatenate(blocks)
    return LabeledEmbeddingTable(
        rows=vectors / np.linalg.norm(vectors, axis=1, keepdims=True),
        ids=tuple(f"r{index:06d}" for index in range(len(labels))),
        attributes={spec.space.name: tuple(labels)},
        classes=tuple(classes),
        spaces={spec.space.name: spec.space},
    )


def synth_query_rows(spec: SynthSpec) -> list[dict]:
    """Aligned query rows (with optional noisy augmentation vectors) for the
    generator's geometry, ready to serialize as a queries JSONL file.

    The per-value augmented vectors mimic imperfect text augmentation: each
    one pushes the query along the attribute direction tilted by seeded noise
    of scale ``aug_noise``, so step 1 removes an approximate subspace rather
    than the exact attribute direction.
    """
    u, class_dirs, spare = _synth_directions(spec)
    rng = np.random.default_rng([spec.seed, 2])
    rows = []
    for query in spec.queries:
        w = class_dirs[query.class_name]
        align_bias = spec.bias_for(query.class_name, query.align_value)
        base = w + align_bias * query.scale * u
        base = base / np.linalg.norm(base)
        row = {
            "schema": SCHEMA,
            "id": query.query_id,
            "vector": base.tolist(),
            "class": query.class_name,
        }
        if query.aug_noise > 0:
            augmented = {}
            generic = {}
            for value in spec.space.values:
                bias = spec.bias_for(query.class_name, value)
                tilt = u + query.aug_noise * rng.standard_normal(spec.dim)
                tilt = tilt / np.linalg.norm(tilt)
                aug = base + bias * tilt
                augmented[value] = (aug / np.linalg.norm(aug)).tolist()
                tilt_g = u + query.aug_noise * rng.standard_normal(spec.dim)
                tilt_g = tilt_g / np.linalg.norm(tilt_g)
                gen = spare + bias * tilt_g
                generic[value] = (gen / np.linalg.norm(gen)).tolist()
            row["augmented"] = augmented
            row["generic"] = generic
        rows.append(row)
    return rows


def write_query_rows(rows: Iterable[dict], path: str | Path) -> Path:
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
    except OSError as exc:
        raise DatasetIOError(f"failed writing queries to {path}: {exc}") from None
    return path
