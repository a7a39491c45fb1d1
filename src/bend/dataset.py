"""Dataset persistence, splitting, and a seeded biased-data generator.

On-disk layout is one directory per dataset: ``manifest.json`` describing the
shape and declared attributes, a raw little-endian float32 vector file with
no header or padding, and a JSON-lines metadata file joined by line order.
Vectors are upcast to float64 and unit-normalized on ingest, so similarity
is a plain dot product everywhere downstream.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .augment import AttributeSpace, attribute_space
from .errors import (
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
from .vectors import ZERO_NORM_EPS, gram_schmidt

DTYPE = "f32le"
MANIFEST_NAME = "manifest.json"
VECTORS_NAME = "vectors.f32"
META_NAME = "meta.jsonl"
QUERIES_NAME = "queries.jsonl"
# Largest |squared row norm - 1| a table accepts.
UNIT_NORM_TOL = 1e-6
# Rows per block when vectors stream to or from disk: reading a table holds
# the float64 table plus one float32 block, never a copy of the whole file.
BLOCK_ROWS = 4096


@dataclass(frozen=True)
class LabeledEmbeddingTable:
    """Attribute-labeled embeddings: an (N, d) matrix plus per-record metadata."""

    vectors: np.ndarray                      # (N, d) float64, unit rows
    ids: tuple[str, ...]
    attributes: dict[str, tuple[str, ...]]   # attribute name -> per-record labels
    classes: tuple[str | None, ...]
    spaces: dict[str, AttributeSpace]

    def __post_init__(self):
        n = self.vectors.shape[0] if self.vectors.ndim == 2 else 0
        if n < 1:
            raise EmptyTable("a table needs at least one record")
        if self.vectors.ndim != 2 or self.vectors.shape[1] < 2:
            raise ConfigError("vectors must be (N, d) with d >= 2")
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
        # Similarity is a plain dot product downstream, so rows must be unit.
        squared_norms = np.einsum("ij,ij->i", self.vectors, self.vectors)
        bad = np.flatnonzero(~(np.abs(squared_norms - 1.0) <= UNIT_NORM_TOL))
        if bad.size:
            raise NonUnitRow(
                f"record {self.ids[bad[0]]!r} has squared norm "
                f"{float(squared_norms[bad[0]])!r}; rows must be unit-normalized"
            )

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Each row's position in ascending id order: the integer tie-break key."""
        rank = np.empty(self.count, dtype=np.int64)
        rank[np.argsort(np.array(self.ids), kind="stable")] = np.arange(self.count)
        return rank

    def subset(self, indices: Sequence[int]) -> "LabeledEmbeddingTable":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledEmbeddingTable(
            vectors=self.vectors[idx],
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


def _normalize_rows(rows: np.ndarray, first: int, what: str) -> int | None:
    """Unit-normalize ``rows``, records ``first`` onward, in place.

    A non-finite row raises ``NonUnitRow``. If a row is zero, nothing is
    divided and the first zero record is returned, so a reader streaming
    blocks can still report a later non-finite row first.
    """
    norms = np.linalg.norm(rows, axis=1)
    finite = np.isfinite(norms)
    if not finite.all():
        bad = first + int(np.argmin(finite))
        raise NonUnitRow(f"{what} record {bad} has a non-finite component")
    zero = norms <= ZERO_NORM_EPS
    if zero.any():
        return first + int(np.argmax(zero))
    rows /= norms[:, None]
    return None


def _read_vectors(handle: BinaryIO, path: Path, count: int, dim: int) -> np.ndarray:
    """Stream ``count`` float32 rows into one float64 table, normalizing by block.

    Only the table and one float32 block are ever held. A zero row is
    reported after the last block, since a non-finite row anywhere comes first.
    """
    table = np.empty((count, dim), dtype=np.float64)
    buffer = np.empty((min(BLOCK_ROWS, count), dim), dtype="<f4")
    zero = None
    for start in range(0, count, BLOCK_ROWS):
        block = buffer[: min(BLOCK_ROWS, count - start)]
        try:
            got = handle.readinto(block)
        except OSError as exc:
            raise DatasetIOError(f"cannot read vector file {path}: {exc}") from None
        if got != block.nbytes:
            raise SizeMismatch(
                f"vector file ended after {start * dim * 4 + got} bytes, "
                f"expected {count * dim * 4} ({count} x {dim} float32)"
            )
        rows = table[start : start + block.shape[0]]
        rows[...] = block
        found = _normalize_rows(rows, start, "dataset")
        if zero is None:
            zero = found
    if zero is not None:
        raise MetadataError(f"dataset record {zero} has a zero vector")
    return table


def _read_meta(
    meta_path: Path, count: int, spaces: dict[str, AttributeSpace]
) -> tuple[list[str], list[str | None], dict[str, list[str]]]:
    """Parse ``meta.jsonl`` line by line into ids, classes and labels.

    Each line is its own JSON document: joining lines into one array would
    accept a record split across lines, or two records on one line.
    """
    try:
        lines = meta_path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DatasetIOError(f"cannot read metadata file {meta_path}: {exc}") from None
    lines = [line for line in lines if line.strip()]
    if len(lines) != count:
        raise MetadataError(f"metadata has {len(lines)} records, manifest says {count}")

    ids: list[str] = []
    classes: list[str | None] = []
    labels: dict[str, list[str]] = {name: [] for name in spaces}
    for lineno, line in enumerate(lines):
        try:
            record = json.loads(line)
        except ValueError:
            raise MetadataError(f"metadata line {lineno} is not valid JSON") from None
        if not isinstance(record, dict):
            raise MetadataError(f"metadata line {lineno} is not a JSON object")
        record_id = record.get("id")
        if not isinstance(record_id, str) or not record_id:
            raise MetadataError(f"metadata line {lineno} is missing a string 'id'")
        ids.append(record_id)
        classes.append(record.get("class"))
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
    """Load a dataset directory into a validated, normalized table."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DatasetIOError(f"manifest not found: {manifest_path}") from None
    except (OSError, ValueError) as exc:
        raise ManifestError(f"unreadable manifest {manifest_path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise ManifestError("manifest must be a JSON object")
    try:
        dim = int(manifest["dim"])
        count = int(manifest["count"])
        dtype = manifest["dtype"]
        vectors_file = manifest["vectors_file"]
        meta_file = manifest["meta_file"]
        attr_decls = manifest["attributes"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ManifestError(f"manifest missing or malformed field: {exc}") from None
    if not isinstance(attr_decls, list):
        raise ManifestError("manifest 'attributes' must be a list of declarations")
    if dtype != DTYPE:
        raise ManifestError(f"unsupported dtype {dtype!r}; expected {DTYPE!r}")
    if dim < 2 or count < 1:
        raise ManifestError("manifest requires dim >= 2 and count >= 1")
    spaces = {}
    for decl in attr_decls:
        space = _space_from_json(decl)
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
        vectors = _read_vectors(handle, vec_path, count, dim)

    return LabeledEmbeddingTable(
        vectors=vectors,
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
    if out_dir.exists() and any(out_dir.iterdir()) and not force:
        raise DatasetIOError(
            f"output directory {out_dir} exists and is not empty (use force)"
        )
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with (out_dir / VECTORS_NAME).open("wb") as handle:
            for start in range(0, table.count, BLOCK_ROWS):
                block = table.vectors[start : start + BLOCK_ROWS]
                handle.write(np.ascontiguousarray(block, dtype="<f4"))
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
            "schema": "bend/1",
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


def make_folds(count: int, fold_count: int, seed: int) -> list[list[int]]:
    """Deterministic partition of record positions into near-equal folds."""
    if fold_count < 1:
        raise ConfigError("fold_count must be at least 1")
    if count < fold_count:
        raise TooSmall(f"{count} records cannot form {fold_count} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(count)
    return [chunk.tolist() for chunk in np.array_split(order, fold_count)]


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
        for query in self.queries:
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
    path = Path(path)
    try:
        body = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DatasetIOError(f"spec file not found: {path}") from None
    except (OSError, ValueError) as exc:
        raise SynthSpecError(f"unreadable spec {path}: {exc}") from None
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
                class_name=str(cell["class"]),
                value=str(cell["value"]),
                bias=float(cell["bias"]),
                count=int(cell["count"]),
            )
            for cell in body["cells"]
        )
        queries = tuple(
            SynthQuerySpec(
                query_id=str(q["id"]),
                class_name=str(q["class"]),
                align_value=str(q["align"]),
                scale=float(q.get("scale", 1.0)),
                aug_noise=float(q.get("aug_noise", 0.0)),
            )
            for q in body.get("queries", [])
        )
        return SynthSpec(
            dim=int(body["dim"]),
            seed=int(body["seed"]),
            noise=float(body["noise"]),
            space=space,
            cells=cells,
            queries=queries,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SynthSpecError(f"malformed spec field: {exc}") from None


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
    zero = _normalize_rows(vectors, 0, "synthetic")
    if zero is not None:
        raise MetadataError(f"synthetic record {zero} has a zero vector")
    return LabeledEmbeddingTable(
        vectors=vectors,
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
            "schema": "bend/1",
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
