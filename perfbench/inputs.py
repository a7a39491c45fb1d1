"""Seeded, cached benchmark inputs, generated without calling into ``bend``.

Every workload's inputs are a pure function of (shape, seed). They are
written once in the dataset layout the program reads (``manifest.json``, a
raw little-endian float32 ``vectors.f32`` and a ``meta.jsonl`` joined by line
order) under ``.bench_cache/<key>/`` in the checkout, and reused by later
runs with the same key. The geometry is the one ``bend synth`` documents:
every record of cell (class c, value a) is normalize(w_c + bias_a*u +
noise*g), with the attribute direction u, one spare direction and one
direction per class drawn seeded and mutually orthonormal.

Online query perturbations and the text-query vocabulary are drawn from the
same seed at run time, one request at a time, so a run never runs out of
fresh requests.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Bump when the generated bytes change, so stale caches are never reused.
GENERATOR_VERSION = 1
# Corpora kept on disk at once; the oldest are evicted beyond this.
CACHE_KEEP = 4

# The quick-start geometry: bias +-0.8 along the attribute direction, record
# noise 0.05 per component, augmentation tilt noise 0.3, a 50/50 split.
BIAS = 0.8
NOISE = 0.05
AUG_NOISE = 0.3
REFERENCE_FRACTION = 0.5
# Norm of the random offset added to a base query for each online request.
PERTURBATION = 0.1

ATTRIBUTE = "gender"
VALUES = ("male", "female")
GENERIC_PROMPTS = {"male": "a photo of a man", "female": "a photo of a woman"}


@dataclass(frozen=True)
class CorpusShape:
    records: int
    dim: int
    classes: int

    def key(self, seed: int) -> str:
        return f"v{GENERATOR_VERSION}-n{self.records}-d{self.dim}-c{self.classes}-s{seed}"


def _directions(shape: CorpusShape, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal attribute direction u, spare direction, class directions."""
    rng = np.random.default_rng([seed, 0])
    raw = rng.standard_normal((shape.dim, 2 + shape.classes))
    q, _ = np.linalg.qr(raw)
    basis = q.T
    return basis[0], basis[1], basis[2:]


def _bias(value: str) -> float:
    return BIAS if value == VALUES[0] else -BIAS


def _space_json() -> dict:
    return {
        "name": ATTRIBUTE,
        "values": list(VALUES),
        "insertion_terms": {v: v for v in VALUES},
        "generic_prompts": dict(GENERIC_PROMPTS),
    }


def _write_table(out: Path, vectors: np.ndarray, ids, labels, classes) -> None:
    out.mkdir(parents=True)
    (out / "vectors.f32").write_bytes(np.ascontiguousarray(vectors, dtype="<f4").tobytes())
    with (out / "meta.jsonl").open("w", encoding="utf-8") as handle:
        for record_id, label, class_name in zip(ids, labels, classes):
            handle.write(json.dumps(
                {"id": record_id, "attributes": {ATTRIBUTE: label}, "class": class_name}
            ) + "\n")
    manifest = {
        "schema": "bend/1",
        "dim": int(vectors.shape[1]),
        "count": int(vectors.shape[0]),
        "dtype": "f32le",
        "vectors_file": "vectors.f32",
        "meta_file": "meta.jsonl",
        "attributes": [_space_json()],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def base_queries(shape: CorpusShape, seed: int) -> list[dict]:
    """One class-aligned query per class, with bundled augmented/generic
    directions tilted by seeded noise of scale ``aug_noise``."""
    u, spare, class_dirs = _directions(shape, seed)
    rng = np.random.default_rng([seed, 2])
    rows = []
    for c in range(shape.classes):
        base = class_dirs[c] + BIAS * u
        base = base / np.linalg.norm(base)
        augmented, generic = {}, {}
        for value in VALUES:
            bias = _bias(value)
            tilt = u + AUG_NOISE * rng.standard_normal(shape.dim)
            aug = base + bias * tilt / np.linalg.norm(tilt)
            augmented[value] = (aug / np.linalg.norm(aug)).tolist()
            tilt_g = u + AUG_NOISE * rng.standard_normal(shape.dim)
            gen = spare + bias * tilt_g / np.linalg.norm(tilt_g)
            generic[value] = (gen / np.linalg.norm(gen)).tolist()
        rows.append({
            "schema": "bend/1",
            "id": f"q-c{c}",
            "vector": base.tolist(),
            "class": f"c{c}",
            "augmented": augmented,
            "generic": generic,
        })
    return rows


def _generate(shape: CorpusShape, seed: int, out: Path) -> None:
    u, _, class_dirs = _directions(shape, seed)
    rng = np.random.default_rng([seed, 1])
    cells = [(c, v) for c in range(shape.classes) for v in VALUES]
    per_cell, extra = divmod(shape.records, len(cells))
    blocks, labels, classes = [], [], []
    for i, (c, value) in enumerate(cells):
        count = per_cell + (1 if i < extra else 0)
        center = class_dirs[c] + _bias(value) * u
        block = center[None, :].astype(np.float32) + np.float32(NOISE) * rng.standard_normal(
            (count, shape.dim), dtype=np.float32
        )
        blocks.append(block / np.linalg.norm(block, axis=1, keepdims=True))
        labels += [value] * count
        classes += [f"c{c}"] * count
    vectors = np.concatenate(blocks)
    ids = [f"r{i:06d}" for i in range(shape.records)]
    order = np.random.default_rng([seed, 3]).permutation(shape.records)
    n_ref = int(round(shape.records * REFERENCE_FRACTION))
    for name, rows in (("reference", order[:n_ref]), ("target", order[n_ref:])):
        _write_table(
            out / name,
            vectors[rows],
            [ids[r] for r in rows],
            [labels[r] for r in rows],
            [classes[r] for r in rows],
        )
    with (out / "queries.jsonl").open("w", encoding="utf-8") as handle:
        for row in base_queries(shape, seed):
            handle.write(json.dumps(row) + "\n")


def _evict(cache: Path, keep: str) -> None:
    corpora = sorted(
        (p for p in cache.iterdir() if p.is_dir() and p.name != keep and not p.name.startswith(".")),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in corpora[: max(0, len(corpora) - (CACHE_KEEP - 1))]:
        shutil.rmtree(stale, ignore_errors=True)


def corpus(cache: Path, shape: CorpusShape, seed: int) -> Path:
    """The cached corpus directory for (shape, seed), generated on first use:
    ``reference/`` and ``target/`` datasets plus ``queries.jsonl``, one
    class-aligned query per class with bundled directions."""
    root = cache / shape.key(seed)
    if not (root / "done").exists():
        cache.mkdir(parents=True, exist_ok=True)
        _evict(cache, keep=root.name)
        staging = cache / f".staging-{root.name}-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        _generate(shape, seed, staging)
        (staging / "done").write_text("ok\n")
        shutil.rmtree(root, ignore_errors=True)
        try:
            os.rename(staging, root)
        except OSError:  # a concurrent run finished the same corpus first
            shutil.rmtree(staging, ignore_errors=True)
    os.utime(root)
    return root


def perturbed_query(base: np.ndarray, seed: int, request: int) -> np.ndarray:
    """A fresh unit-norm perturbation of ``base`` for online request ``request``."""
    g = np.random.default_rng([seed, 4, request]).standard_normal(base.shape[0])
    v = base + PERTURBATION * g / np.linalg.norm(g)
    return v / np.linalg.norm(v)


# Seeded vocabulary for text queries. No word names the protected attribute
# (male/female/man/woman), so no query is skipped as attribute-explicit.
_ADJECTIVES = (
    "tired smiling young elderly busy quiet focused cheerful serious curious "
    "calm proud careful friendly patient thoughtful confident relaxed"
).split()
_SUBJECTS = (
    "nurse doctor engineer teacher chef pilot farmer lawyer scientist "
    "firefighter painter mechanic librarian dancer carpenter programmer "
    "plumber cashier surgeon architect baker athlete writer student"
).split()
_SCENES = (
    "in a hospital|at a desk|in a kitchen|on a street|in a classroom|"
    "at an airport|in a workshop|in a garden|near a river|in an office|"
    "on a stage|in a library|at a market|on a bridge|in a laboratory"
).split("|")
_TIMES = "at dawn|at noon|in the evening|at night|in the rain|in winter|on a sunny day".split("|")


def text_queries(seed: int):
    """Endless stream of unique "a photo of a <subject> ..." texts."""
    rng = np.random.default_rng([seed, 5])
    seen: set[str] = set()
    serial = 0
    while True:
        text = "a photo of a {} {} {} {}".format(
            _ADJECTIVES[rng.integers(len(_ADJECTIVES))],
            _SUBJECTS[rng.integers(len(_SUBJECTS))],
            _SCENES[rng.integers(len(_SCENES))],
            _TIMES[rng.integers(len(_TIMES))],
        )
        if text in seen:
            # The combinations run out long before a run does; a serial
            # number keeps every request unique.
            serial += 1
            text = f"{text}, take {serial}"
        seen.add(text)
        yield text
