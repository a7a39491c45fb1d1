"""End-to-end orchestration: query resolution, debiasing, fold evaluation.

Evaluation protocol: the target table is partitioned into seeded folds; for
each fold the retrieval pool is the target with that fold withheld, the top-k
records are retrieved from the pool, and KL / MaxSkew are computed against
the attribute prior. Worst-group AUC is scored on the held-out fold itself.
Fold values aggregate to mean, sample standard deviation, and standard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .augment import (
    AttributeSpace,
    augment_query,
    external_augmenter,
    mentions_attribute,
)
from .client import EmbeddingEndpoint, embed_text
from .dataset import LabeledEmbeddingTable, make_folds, read_json_lines
from .equalize import MODES, DebiasReport, debias
from .errors import (
    BendError,
    ConfigError,
    DimensionMismatch,
    DuplicateId,
    MetadataError,
    MissingEndpoint,
)
from .metrics import empirical_distribution, kl_divergence, max_skew
from .metrics import worst_group_auc  # noqa: F401  (perfbench's span looks it up here)
from .reference_index import (
    ReferenceIndex,
    RelevantSubsets,
    Scores,
    build_index,
    checked_query,
    retrieve_top_k,  # the CLI's retrieve verb calls it through this module
    score_block,
    top_n_by_attribute,
)
from .reporting import SCHEMA, summary_stats
from .subspace import build_attribute_matrix, orthogonalize
from .vectors import Vector, normalize, number_vector

# Finals whose screens ``evaluate`` fills as one block: 6.4 MB of float64 at 50k rows.
SCORE_BLOCK_COLUMNS = 16


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the debias and evaluate entry points."""

    attribute: str
    n: int = 100
    k: int = 500
    modes: tuple[str, ...] = MODES
    seed: int = 0
    fold_count: int = 5
    embed_endpoint: EmbeddingEndpoint | None = None
    augment_endpoint: str | None = None
    prior: dict[str, float] | None = None

    def __post_init__(self):
        if not self.attribute:
            raise ConfigError("an attribute name is required")
        if self.n < 1 or self.k < 1:
            raise ConfigError("n and k must both be at least 1")
        if not self.modes:
            raise ConfigError("at least one mode is required")
        for mode in self.modes:
            if mode not in MODES:
                raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
        if len(set(self.modes)) < len(self.modes):
            raise ConfigError(f"modes {self.modes} name a mode twice")
        # One fold would withhold the whole target, leaving every pool empty.
        if self.fold_count < 2:
            raise ConfigError("fold_count must be at least 2")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass(frozen=True)
class QueryRow:
    id: str
    text: str | None = None
    vector: Vector | None = None
    class_label: str | None = None
    augmented: dict[str, Vector] | None = None
    generic: dict[str, Vector] | None = None


def _vector_map(obj, what: str) -> dict[str, Vector] | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise MetadataError(f"{what} must map attribute values to vectors")
    return {
        str(k): number_vector(v, f"{what} {k!r}", MetadataError, MetadataError)
        for k, v in obj.items()
    }


def parse_query_row(record: dict, lineno: int = 0) -> QueryRow:
    schema = record.get("schema")
    if schema is not None and schema != SCHEMA:
        raise MetadataError(f"query line {lineno} has unknown schema {schema!r}")
    query_id = record.get("id")
    if not isinstance(query_id, str) or not query_id:
        raise MetadataError(f"query line {lineno} needs a string 'id'")
    text = record.get("text")
    vector = record.get("vector")
    class_label = record.get("class")
    if class_label is not None and not isinstance(class_label, str):
        raise MetadataError(f"query {query_id!r} has a 'class' that is not a string")
    if text is not None and not isinstance(text, str):
        raise MetadataError(f"query {query_id!r} has a 'text' that is not a string")
    if (text is None) == (vector is None):
        raise MetadataError(
            f"query {query_id!r} must carry exactly one of 'text' or 'vector'"
        )
    if vector is not None:
        vector = number_vector(vector, f"query {query_id!r}", MetadataError, MetadataError)
    augmented = _vector_map(record.get("augmented"), "augmented")
    generic = _vector_map(record.get("generic"), "generic")
    # Bundled directions that resolve_query would not read are an error.
    if (augmented is not None and vector is None) or (generic is not None and augmented is None):
        raise MetadataError(
            f"query {query_id!r}: 'augmented' needs a 'vector' and 'generic' needs 'augmented'"
        )
    return QueryRow(
        id=query_id,
        text=text,
        vector=vector,
        class_label=class_label,
        augmented=augmented,
        generic=generic,
    )


def load_queries(path: str | Path) -> list[QueryRow]:
    """Parse a queries JSONL file, rejecting duplicate ids."""
    path = Path(path)
    _, records = read_json_lines(path, "query")
    rows = []
    seen: set[str] = set()
    for lineno, record in records:
        row = parse_query_row(record, lineno)
        if row.id in seen:
            raise DuplicateId(f"duplicate query id {row.id!r}")
        seen.add(row.id)
        rows.append(row)
    if not rows:
        raise MetadataError(f"queries file {path} holds no queries")
    return rows


def validate_prior(probs, space: AttributeSpace) -> dict[str, float]:
    if not isinstance(probs, dict) or set(probs) != set(space.values):
        raise ConfigError(
            f"prior must assign a probability to every value of {space.name!r}"
        )
    column = number_vector(
        [probs[value] for value in space.values], "prior", ConfigError, ConfigError
    )
    out = dict(zip(space.values, column.tolist()))
    if min(out.values()) < 0:
        raise ConfigError("prior probabilities must be non-negative")
    if abs(sum(out.values()) - 1.0) > 1e-9:
        raise ConfigError("prior probabilities must sum to 1")
    return out


@dataclass(frozen=True)
class ResolvedQuery:
    row: QueryRow
    embedding: Vector
    augmented: dict[str, Vector] | None
    generic: dict[str, Vector] | None
    augmented_texts: dict[str, str] | None = None
    augment_source: str | None = None
    skipped: bool = False
    skip_reason: str | None = None


def _per_value(
    row: QueryRow, vectors: dict[str, Vector], what: str, space: AttributeSpace
) -> dict[str, Vector]:
    """A row's bundled ``what`` vectors in ``space``'s value order."""
    missing = set(space.values) - set(vectors)
    if missing:
        raise MetadataError(f"query {row.id!r} {what} vectors missing {sorted(missing)}")
    extra = set(vectors) - set(space.values)
    if extra:
        raise MetadataError(f"query {row.id!r} {what} vectors name unknown values {sorted(extra)}")
    return {v: vectors[v] for v in space.values}


def resolve_query(
    row: QueryRow, space: AttributeSpace, index: ReferenceIndex, cfg: RunConfig
) -> ResolvedQuery:
    """Turn a query row into an embedding plus attribute-direction inputs.

    Vector rows use their bundled augmentation vectors when present and fall
    back to reference-derived group-mean directions otherwise. Text rows are
    augmented (externally when configured, by template otherwise) and embedded
    through the endpoint; attribute-explicit text is flagged for passthrough.
    """
    dim = index.table.dim
    if row.vector is not None:
        embedding = normalize(row.vector)
        if embedding.shape[0] != dim:
            raise DimensionMismatch(
                f"query {row.id!r} has dimension {embedding.shape[0]}, dataset {dim}"
            )
        if row.augmented is not None:
            augmented = _per_value(row, row.augmented, "augmented", space)
            generic = None
            if row.generic is not None:
                generic = _per_value(row, row.generic, "generic", space)
            return ResolvedQuery(row, embedding, augmented, generic)
        # No text and no bundled directions: estimate global attribute
        # directions from the labeled reference groups.
        means = index.group_means(space.name)
        center = np.stack(list(means.values())).mean(axis=0)
        augmented = {v: embedding + (means[v] - center) for v in space.values}
        generic = {v: means[v] for v in space.values}
        return ResolvedQuery(row, embedding, augmented, generic,
                             augment_source="reference-means")

    if cfg.embed_endpoint is None:
        raise MissingEndpoint(
            f"query {row.id!r} is text but no embedding endpoint is configured"
        )
    if mentions_attribute(row.text, space):
        embedding = embed_text([row.text], cfg.embed_endpoint)[0]
        return ResolvedQuery(
            row,
            embedding,
            None,
            None,
            skipped=True,
            skip_reason="query explicitly references the protected attribute",
        )
    if cfg.augment_endpoint:
        augmented_set = external_augmenter(row.text, space, cfg.augment_endpoint)
    else:
        augmented_set = augment_query(row.text, space)
    batch = (
        [row.text]
        + [augmented_set.per_value_texts[v] for v in space.values]
        + [space.generic_prompts[v] for v in space.values]
    )
    embedded = embed_text(batch, cfg.embed_endpoint)
    k = len(space.values)
    return ResolvedQuery(
        row,
        embedded[0],
        {v: embedded[1 + i] for i, v in enumerate(space.values)},
        {v: embedded[1 + k + i] for i, v in enumerate(space.values)},
        augmented_texts=dict(augmented_set.per_value_texts),
        augment_source=augmented_set.source,
    )


def run_block_reports(
    block: Sequence[ResolvedQuery | BendError],
    index: ReferenceIndex,
    space: AttributeSpace,
    cfg: RunConfig,
) -> list[tuple[dict[str, DebiasReport], RelevantSubsets | None] | BendError]:
    """Debias a block of resolved queries under every configured mode: per
    query its reports and relevant subsets, or the ``BendError`` it raised. A
    query given as the error its resolution raised keeps that error.
    Every step-1 query ranks the reference in one ``top_n_by_attribute``; one
    that fails before it (its attribute matrix, step 1 or its width) is left
    out of it, so the others do not see its error."""
    out: list = [None] * len(block)
    pending, rankings = [], []
    for i, resolved in enumerate(block):
        if isinstance(resolved, BendError):
            out[i] = resolved
        elif resolved.skipped:
            out[i] = {
                mode: DebiasReport(
                    baseline=resolved.embedding,
                    step1=None,
                    final=resolved.embedding,
                    lam=None,
                    residuals=(),
                    dropped_columns=0,
                    distance_gap={"baseline": None, "step1": None, "final": None},
                )
                for mode in cfg.modes
            }, None
        else:
            try:
                matrix = build_attribute_matrix(resolved.embedding, resolved.augmented, resolved.generic)
                # Step 2's relevant references are the ones closest to the step-1 query.
                rankings.append(checked_query(index.table, orthogonalize(resolved.embedding, matrix)))
                pending.append((i, matrix))
            except BendError as exc:
                out[i] = exc
    if not pending:
        return out
    try:
        ranked = top_n_by_attribute(index, rankings, space, cfg.n)
    except BendError as exc:  # the reference's, so every query's
        for i, _ in pending:
            out[i] = exc
        return out
    for (i, matrix), subsets in zip(pending, ranked):
        try:
            embedding = block[i].embedding
            out[i] = {mode: debias(embedding, matrix, subsets, mode) for mode in cfg.modes}, subsets
        except BendError as exc:
            out[i] = exc
    return out


def run_query_reports(
    resolved: ResolvedQuery,
    index: ReferenceIndex,
    space: AttributeSpace,
    cfg: RunConfig,
) -> tuple[dict[str, DebiasReport], RelevantSubsets | None]:
    """Debias one resolved query under every configured mode: a block of one."""
    result = run_block_reports([resolved], index, space, cfg)[0]
    if isinstance(result, BendError):
        raise result
    return result


def resolve_space(
    table: LabeledEmbeddingTable,
    attribute: str,
    target: LabeledEmbeddingTable | None = None,
) -> AttributeSpace:
    """``attribute``'s space in ``table``: the one dataset a verb reads, or the
    reference, whose values ``target`` must then declare in the same order."""
    if attribute not in table.spaces:
        where = "dataset" if target is None else "reference"
        raise ConfigError(f"attribute {attribute!r} is not declared in the {where}")
    space = table.spaces[attribute]
    if target is not None:
        if attribute not in target.spaces:
            raise ConfigError(f"attribute {attribute!r} is not declared in the target")
        if tuple(target.spaces[attribute].values) != tuple(space.values):
            raise ConfigError(
                f"attribute {attribute!r} has different values in reference and target"
            )
    return space


class _FoldLayout(NamedTuple):
    """The target's rows by held-out (fold, attribute value) group, each group
    ascending, and per fold the ``rows`` slices of its non-empty groups."""

    fold_of: np.ndarray
    pool_sizes: list[int]
    rows: np.ndarray
    groups: list[list[slice]]


def _fold_layout(folds: Sequence[np.ndarray], codes: np.ndarray, values: int) -> _FoldLayout:
    fold_of = np.empty(codes.size, dtype=np.intp)
    for f, fold in enumerate(folds):
        fold_of[fold] = f
    # A small key makes the stable argsort a radix sort.
    key = (fold_of * values + codes).astype(np.min_scalar_type(len(folds) * values))
    ends = np.cumsum(np.bincount(key, minlength=len(folds) * values)).tolist()
    spans = [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]
    return _FoldLayout(
        fold_of, [codes.size - len(fold) for fold in folds], np.argsort(key, kind="stable"),
        [[g for g in spans[f * values : (f + 1) * values] if g.start < g.stop]
         for f in range(len(folds))],
    )


def _auc_reads(layout: _FoldLayout, positive: np.ndarray) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Per fold, the groups its worst-group AUC reads, each as its hit rows and
    its miss rows; none where that AUC is undefined (a group of one class)."""
    reads = []
    for groups in layout.groups:
        sides = []
        for g in groups:
            rows = layout.rows[g]
            hit = positive[rows]
            sides.append((rows[hit], rows[~hit]))
        defined = all(hits.size and misses.size for hits, misses in sides)
        reads.append(sides if defined else [])
    return reads


def _fold_metrics(layout: _FoldLayout, reads: list, scores: Scores, k: int) -> tuple[list, list]:
    """Each fold's top-k rows and worst-group AUC (None where undefined)."""
    return scores.fold_tops(layout.fold_of, len(layout.groups), k), [
        min((scores.group_auc(hits, misses) for hits, misses in groups), default=None)
        for groups in reads
    ]


def _fold_summary(folds: Sequence[dict]) -> dict:
    """Summary stats of the folds' KL, MaxSkew and defined AUCs; None where no
    fold has a value."""
    summary = {}
    for metric in ("kl", "max_skew", "worst_group_auc"):
        values = [fold[metric] for fold in folds if fold[metric] is not None]
        summary[metric] = summary_stats(values) if values else None
    return summary


def _mode_entry(
    report: DebiasReport,
    tops: Sequence[np.ndarray],
    aucs: Sequence[float | None],
    pool_sizes: Sequence[int],
    target: LabeledEmbeddingTable,
    space: AttributeSpace,
    prior: dict[str, float],
    cfg: RunConfig,
) -> dict:
    codes = target.codes[space.name]
    folds_out = []
    for fold_idx, (pool_size, top, auc) in enumerate(zip(pool_sizes, tops, aucs)):
        counts = np.bincount(codes[top], minlength=len(space.values))
        distribution = empirical_distribution(counts, space)
        entry = {
            "fold": fold_idx,
            "pool_size": pool_size,
            "retrieved": top.size,
            "retrieved_counts": dict(zip(space.values, counts.tolist())),
            "kl": kl_divergence(distribution, prior),
            "max_skew": max_skew(distribution, prior),
            "worst_group_auc": auc,
        }
        if cfg.k > pool_size:
            entry["warning"] = "k exceeds pool size; retrieved the whole pool"
        folds_out.append(entry)
    return {
        "distance_gap": report.distance_gap,
        "lambda": report.lam,
        "max_equalization_residual": (
            max(report.residuals) if report.residuals else None
        ),
        "dropped_columns": report.dropped_columns,
        "folds": folds_out,
        **_fold_summary(folds_out),
    }


def evaluate(
    queries: Sequence[QueryRow],
    reference: LabeledEmbeddingTable,
    target: LabeledEmbeddingTable,
    cfg: RunConfig,
    source_info: dict | None = None,
) -> dict:
    """Run every configured mode over every query and aggregate fold metrics.

    Queries run in blocks of at most ``SCORE_BLOCK_COLUMNS`` finals, each
    block on its own. A block's queries are resolved one by one
    (``resolve_query``), then debiased together by ``run_block_reports``, the
    path ``bend debias`` runs as a block of one: one ``score_block`` screens
    the reference for all of their step-1 queries. A second screens the target
    for the block's finals, and the rows the screens cannot place are rescored
    (``Scores``). Per-query failures become error entries rather than
    aborting the run. The returned dict is ready for deterministic
    serialization.
    """
    if reference.dim != target.dim:
        raise DimensionMismatch(
            f"reference dimension {reference.dim} differs from target {target.dim}"
        )
    space = resolve_space(reference, cfg.attribute, target)
    index = build_index(reference)
    folds = make_folds(target.count, cfg.fold_count, cfg.seed)
    codes = target.codes[space.name]
    layout = _fold_layout(folds, codes, len(space.values))
    class_codes, class_of = target.class_codes
    if cfg.prior is not None:
        prior = validate_prior(cfg.prior, space)
    else:
        prior = empirical_distribution(
            np.bincount(codes, minlength=len(space.values)), space
        )

    def failed(row: QueryRow, exc: BendError) -> dict:
        return {"id": row.id, "error": f"{type(exc).__name__}: {exc}"}

    def scored(resolved: ResolvedQuery, reports: dict[str, DebiasReport],
               subsets: RelevantSubsets | None, columns: Sequence[Scores]) -> dict:
        """The entry of a debiased query, from each mode's final's scores."""
        row = resolved.row
        # No class, or one the target lacks, matches no row: every fold AUC is None.
        code = -1 if row.class_label is None else class_codes.get(row.class_label, -1)
        reads = _auc_reads(layout, class_of == code)
        try:
            return {
                "id": row.id,
                "class": row.class_label,
                "skipped": resolved.skipped,
                "skip_reason": resolved.skip_reason,
                "n_used": subsets.n_used if subsets is not None else None,
                "modes": {
                    mode: _mode_entry(
                        reports[mode], *_fold_metrics(layout, reads, scores, cfg.k),
                        layout.pool_sizes, target, space, prior, cfg,
                    )
                    for mode, scores in zip(cfg.modes, columns)
                },
            }
        except BendError as exc:
            return failed(row, exc)

    def block_entries(rows: Sequence[QueryRow]) -> list[dict]:
        """The entries of a block of queries; its screens die when it returns."""
        block: list = []  # per row its ResolvedQuery, or the error resolving raised
        for row in rows:
            try:
                block.append(resolve_query(row, space, index, cfg))
            except BendError as exc:
                block.append(exc)
        results = run_block_reports(block, index, space, cfg)
        done = [r for r in results if not isinstance(r, BendError)]
        finals = [reports[mode].final for reports, _ in done for mode in cfg.modes]
        columns = iter(score_block(target, finals))
        return [
            failed(row, result) if isinstance(result, BendError)
            else scored(resolved, *result, [next(columns) for _ in cfg.modes])
            for row, resolved, result in zip(rows, block, results)
        ]

    per_block = max(1, SCORE_BLOCK_COLUMNS // len(cfg.modes))
    entries = [
        entry
        for start in range(0, len(queries), per_block)
        for entry in block_entries(queries[start : start + per_block])
    ]

    used = [entry for entry in entries if "error" not in entry and not entry["skipped"]]
    aggregates = {
        mode: {
            "query_count": len(used),
            **_fold_summary([f for entry in used for f in entry["modes"][mode]["folds"]]),
        }
        for mode in cfg.modes
    }

    config_echo = {
        "attribute": cfg.attribute,
        "n": cfg.n,
        "k": cfg.k,
        "modes": list(cfg.modes),
        "seed": cfg.seed,
        "fold_count": cfg.fold_count,
        "subset_by": "step1",
        "generic_columns": "diff",
        "log_base": "e",
    }
    if source_info:
        config_echo.update(source_info)
    return {
        "schema": SCHEMA,
        "kind": "evaluation",
        "config": config_echo,
        "prior": prior,
        "fold_sizes": [len(f) for f in folds],
        "queries": entries,
        "aggregates": aggregates,
    }


def aggregate_csv_lines(report: dict) -> list[str]:
    """CSV mirror of the aggregate table: one row per mode."""
    header = (
        "mode,query_count,kl_mean,kl_std,kl_stderr,"
        "max_skew_mean,max_skew_std,max_skew_stderr,"
        "worst_group_auc_mean,worst_group_auc_std,worst_group_auc_stderr"
    )
    lines = [header]
    for mode, agg in report["aggregates"].items():
        cells = [mode, str(agg["query_count"])]
        for metric in ("kl", "max_skew", "worst_group_auc"):
            stats = agg[metric]
            if stats is None:
                cells.extend(["", "", ""])
            else:
                cells.extend(
                    format(stats[key], ".17g") for key in ("mean", "std", "stderr")
                )
        lines.append(",".join(cells))
    return lines


def debias_report_json(
    resolved: ResolvedQuery,
    reports: dict[str, DebiasReport],
    subsets: RelevantSubsets | None,
    index: ReferenceIndex,
    space: AttributeSpace,
    cfg: RunConfig,
) -> dict:
    """Assemble the full JSON body for one debiased query."""
    subset_ids = None
    if subsets is not None:
        subset_ids = {
            value: [index.table.ids[i] for i in subsets.indices[value]]
            for value in space.values
        }
    modes_out = {}
    for mode, report in reports.items():
        modes_out[mode] = {
            "baseline": report.baseline,
            "step1": report.step1,
            "final": report.final,
            "lambda": report.lam,
            "residuals": list(report.residuals),
            "dropped_columns": report.dropped_columns,
            "distance_gap": report.distance_gap,
        }
    return {
        "schema": SCHEMA,
        "kind": "debias",
        "attribute": space.name,
        "query": {
            "id": resolved.row.id,
            "text": resolved.row.text,
            "class": resolved.row.class_label,
        },
        "skipped": resolved.skipped,
        "skip_reason": resolved.skip_reason,
        "augment_source": resolved.augment_source,
        "augmented_texts": resolved.augmented_texts,
        "n": cfg.n,
        "subset_by": "step1",
        "generic_columns": "diff",
        "n_used": subsets.n_used if subsets is not None else None,
        "subset_ids": subset_ids,
        "modes": modes_out,
    }


def retrieval_report_json(
    table: LabeledEmbeddingTable,
    retrieved,
    k: int,
    metric_space: AttributeSpace | None = None,
    prior: dict[str, float] | None = None,
) -> dict:
    """Assemble the JSON body for one retrieval run."""
    warnings = []
    if k > table.count:
        warnings.append("k exceeds the target size; returned every record")
    rows = [r.row for r in retrieved]
    counts, distributions = {}, {}
    for name, space in table.spaces.items():
        tally = np.bincount(table.codes[name][rows], minlength=len(space.values))
        counts[name] = dict(zip(space.values, tally.tolist()))
        distributions[name] = empirical_distribution(tally, space)
    metrics = None
    if prior is not None and metric_space is not None:
        distribution = distributions[metric_space.name]
        metrics = {
            "kl": kl_divergence(distribution, prior),
            "max_skew": max_skew(distribution, prior),
        }
    return {
        "schema": SCHEMA,
        "kind": "retrieval",
        "k": k,
        "returned": len(retrieved),
        "warnings": warnings,
        "counts": counts,
        "distributions": distributions,
        "metrics": metrics,
        "prior": prior,
        "results": [
            {
                "id": r.id,
                "similarity": r.similarity,
                "labels": {name: table.attributes[name][r.row] for name in table.spaces},
                "class": table.classes[r.row],
            }
            for r in retrieved
        ],
    }
