"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

This file is the single source of the names that ``BENCHMARK.json`` lists
and that later performance claims are stated against. Each workload records
why it exists; each per-layer metric records which end-to-end metric it
should move, and on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from inputs import CorpusShape


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # evaluate | online-vector | online-text
    shape: CorpusShape
    smoke_shape: CorpusShape
    why: str


# Closed loops: one client, one request in flight, jobs=1, one process.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="evaluate-100k",
            kind="evaluate",
            shape=CorpusShape(records=100_000, dim=512, classes=20),
            smoke_shape=CorpusShape(records=3_000, dim=32, classes=4),
            why=(
                "the paper's audit: pipeline.evaluate over 4 of 20 bundled-direction "
                "queries x 4 modes x 5 folds at 50k/50k, d=512; top-k scoring and AUC "
                "dominate, group_means never runs"
            ),
        ),
        Workload(
            name="online-100k",
            kind="online-vector",
            shape=CorpusShape(records=100_000, dim=512, classes=20),
            smoke_shape=CorpusShape(records=3_000, dim=32, classes=4),
            why=(
                "interactive debias-then-search of perturbed vectors without bundled "
                "directions at 50k/50k, d=512; group_means and top-n selection "
                "dominate, no folds and no AUC"
            ),
        ),
        Workload(
            name="text-4k",
            kind="online-text",
            shape=CorpusShape(records=4_000, dim=64, classes=3),
            smoke_shape=CorpusShape(records=3_000, dim=32, classes=3),
            why=(
                "unique text queries through a local keep-alive embed/augment server "
                "at 2k/2k, d=64; HTTP client and per-query Python overhead dominate, "
                "scoring is cheap"
            ),
        ),
    )
}

# Run settings shared by every workload.
N_RELEVANT = 100
TOP_K = 500
FOLDS = 5
FOLD_SEED = 13
EVAL_BATCH = 4
MODES = ("baseline", "step1-only", "step2-only", "full")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    about: str = ""
    moves: str = ""      # per-layer only: end-to-end metric(s) and workload(s)

    def declared(self) -> dict:
        out = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "median over several set-ups in one run of read_dataset x2, load_queries "
           "(evaluate-100k) and build_index (online workloads); server start-up excluded"),
    Metric("peak_rss_mb", "MiB", "lower", 0.05,
           "peak resident set of the workload process before the oracle loads"),
    Metric("queries_per_s", "1/s", "higher", 0.25,
           "queries completed per second of operation time; on evaluate-100k one "
           "query is 4 modes x 5 folds"),
    Metric("query_p50_ms", "ms", "lower", 0.25,
           "median per-query latency; on evaluate-100k an operation's time divided "
           "by its batch of queries"),
    Metric("query_p90_ms", "ms", "lower", 0.25,
           "90th percentile per-query latency (nearest rank); the sample count is "
           "printed with it"),
    Metric("topk_jaccard", "ratio", "higher", 0.01,
           "mean Jaccard of the program's top-k against the float64 oracle; on "
           "evaluate-100k, whose report holds per-fold label counts, of the label "
           "multisets"),
)

# Reported by every run next to the gated metrics, but not gated: error_rate is
# 0 when the program is right (also given by "failed"/"attempted"), and the KL
# depends on which queries a time-bounded run reaches.
REPORTED_ONLY = (
    Metric("error_rate", "ratio", "lower", None, "failed operations / attempted"),
    Metric("full_kl", "nats", "lower", None,
           "mean KL of mode full over the folds (evaluate-100k) or requests (online)"),
)

_E = "evaluate-100k"
_O = "online-100k"
_T = "text-4k"

# Seconds are self time (span time minus child spans), per operation for
# spans inside an operation and per set-up for spans inside set-up. Counts
# are per operation unless the unit is "count".
PER_LAYER = (
    Metric("dataset.read_dataset.s", "s", "lower", None,
           "read_dataset self time per set-up", "setup_s, peak_rss_mb on all"),
    Metric("dataset.rows_loaded", "rows", "lower", None,
           "rows loaded per set-up", "setup_s, peak_rss_mb on all"),
    Metric("dataset.bytes_read", "bytes", "lower", None,
           "vector and metadata file bytes per set-up", "setup_s, peak_rss_mb on all"),
    Metric("dataset.subset.s", "s", "lower", None,
           "LabeledEmbeddingTable.subset self time", f"queries_per_s, peak_rss_mb on {_E}"),
    Metric("dataset.subset.calls", "count/op", "lower", None,
           "subset calls", f"queries_per_s on {_E}"),
    Metric("dataset.make_folds.s", "s", "lower", None,
           "make_folds self time", f"queries_per_s on {_E}"),
    Metric("pipeline.load_queries.s", "s", "lower", None,
           "load_queries self time per set-up", f"setup_s on {_E}"),
    Metric("reference_index.build_index.s", "s", "lower", None,
           "build_index self time (set-up on online workloads, inside evaluate on "
           f"{_E})", "setup_s on online workloads, queries_per_s on evaluate-100k"),
    Metric("reference_index.group_means.s", "s", "lower", None,
           "ReferenceIndex.group_means self time", f"query_p50_ms, query_p90_ms on {_O}"),
    Metric("reference_index.group_means.calls", "count/op", "lower", None,
           "group_means calls; 0 outside online-100k", f"query_p50_ms on {_O}"),
    Metric("reference_index.top_n_by_attribute.s", "s", "lower", None,
           "top_n_by_attribute self time", f"query_p50_ms on {_O}"),
    Metric("reference_index.top_n_by_attribute.calls", "count/op", "lower", None,
           "top_n_by_attribute calls", f"query_p50_ms on {_O}"),
    Metric("reference_index.top_n_by_attribute.rows_scored", "rows/op", "lower", None,
           "reference rows in the scored groups", f"query_p50_ms on {_O}"),
    Metric("reference_index.retrieve_top_k.s", "s", "lower", None,
           "retrieve_top_k self time", f"queries_per_s on {_E}"),
    Metric("reference_index.retrieve_top_k.calls", "count/op", "lower", None,
           "retrieve_top_k calls (20 per query on evaluate-100k)", f"queries_per_s on {_E}"),
    Metric("reference_index.retrieve_top_k.rows_scored", "rows/op", "lower", None,
           "pool rows scored", f"queries_per_s on {_E}"),
    Metric("reference_index.retrieve_top_k.k_exceeds_pool", "count", "lower", None,
           "retrievals whose k exceeded the pool", "error_rate on all"),
    Metric("subspace.s", "s", "lower", None,
           "build_attribute_matrix + orthogonalize self time", f"query_p50_ms on {_T}"),
    Metric("subspace.dropped_columns", "count/op", "lower", None,
           "rank-deficient attribute columns dropped", f"query_p50_ms on {_T}"),
    Metric("equalize.debias.s", "s", "lower", None,
           "debias self time (step 2 solve included)", f"query_p50_ms on {_T}"),
    Metric("equalize.debias.calls", "count/op", "lower", None,
           "debias calls", f"query_p50_ms on {_T}"),
    Metric("equalize.max_residual", "cosine", "lower", None,
           "largest equalization residual reported", "topk_jaccard on all"),
    Metric("metrics.group_distance_gap.s", "s", "lower", None,
           "group_distance_gap self time", "query_p50_ms, queries_per_s on all"),
    Metric("metrics.group_distance_gap.calls", "count/op", "lower", None,
           "group_distance_gap calls", "query_p50_ms, queries_per_s on all"),
    Metric("metrics.worst_group_auc.s", "s", "lower", None,
           "worst_group_auc self time", f"queries_per_s on {_E}"),
    Metric("metrics.worst_group_auc.calls", "count/op", "lower", None,
           "worst_group_auc calls", f"queries_per_s on {_E}"),
    Metric("metrics.kl_skew.s", "s", "lower", None,
           "empirical_distribution + kl_divergence + max_skew self time",
           f"queries_per_s on {_E}"),
    Metric("metrics.kl_skew.calls", "count/op", "lower", None,
           "empirical_distribution + kl_divergence + max_skew calls",
           f"queries_per_s on {_E}"),
    Metric("pipeline.resolve_query.s", "s", "lower", None,
           "resolve_query self time", f"query_p50_ms on {_O}, {_T}"),
    Metric("pipeline.run_query_reports.s", "s", "lower", None,
           "run_query_reports self time", f"query_p50_ms on {_O}, {_T}"),
    Metric("pipeline.evaluate.self_s", "s", "lower", None,
           "evaluate self time: fold loops, _fold_auc grouping, pool construction",
           f"queries_per_s on {_E}"),
    Metric("pipeline.query_errors", "count", "lower", None,
           "operations that raised or produced an error entry", "error_rate on all"),
    Metric("pipeline.skipped_queries", "count", "lower", None,
           "queries skipped as attribute-explicit", "error_rate on all"),
    Metric("client.embed_text.s", "s", "lower", None,
           "embed_text self time", f"query_p50_ms, query_p90_ms on {_T}"),
    Metric("client.embed_text.calls", "count/op", "lower", None,
           "embed_text calls", f"query_p50_ms on {_T}"),
    Metric("client.embed_text.texts", "count/op", "lower", None,
           "texts embedded", f"query_p50_ms on {_T}"),
    Metric("client.retries", "count", "lower", None,
           "embed requests the server saw beyond embed_text calls", f"query_p90_ms on {_T}"),
    Metric("client.connections_per_request", "ratio", "lower", None,
           "connections the server accepted per request it served",
           f"query_p50_ms, query_p90_ms on {_T}"),
    Metric("augment.external_augmenter.s", "s", "lower", None,
           "external_augmenter self time", f"query_p50_ms on {_T}"),
    Metric("augment.external_augmenter.calls", "count/op", "lower", None,
           "external_augmenter calls", f"query_p50_ms on {_T}"),
    Metric("augment.source.external", "count/op", "higher", None,
           "queries augmented by the external service", f"error_rate on {_T}"),
    Metric("augment.source.template", "count/op", "lower", None,
           "queries augmented by templates", f"error_rate on {_T}"),
    Metric("augment.source.template-fallback", "count/op", "lower", None,
           "queries that fell back to templates after an augmenter failure",
           f"error_rate on {_T}"),
    Metric("augment.source.reference-means", "count/op", "lower", None,
           "vector queries whose directions came from reference group means",
           f"query_p50_ms on {_O}"),
    Metric("reporting.dumps.s", "s", "lower", None,
           "dumps self time", f"queries_per_s on {_E}"),
    Metric("reporting.bytes", "bytes/op", "lower", None,
           "report bytes serialized", f"queries_per_s on {_E}"),
    Metric("reporting.summary_stats.s", "s", "lower", None,
           "summary_stats self time", f"queries_per_s on {_E}"),
    Metric("trace.ops", "count", "higher", None,
           "traced operations (the same inputs ran untraced first)"),
    Metric("trace.op_s", "s", "lower", None, "median traced operation wall time"),
    Metric("trace.untraced_op_s", "s", "lower", None,
           "median untraced wall time of the same operations"),
    Metric("trace.overhead_s", "s", "lower", None,
           "tracing overhead per operation: trace.op_s - trace.untraced_op_s"),
    Metric("trace.accounted_share", "ratio", "higher", None,
           "sum of the per-operation self times above / traced operation wall time"),
    Metric("trace.absent_layers", "count", "lower", None,
           "traced names no longer found in the program; their metrics read 0"),
)


def benchmark_json(command: list[str], paths: list[str], run_seconds: int) -> dict:
    """The BENCHMARK.json body this catalog declares."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [m.declared() for m in END_TO_END],
        "per_layer": [m.declared() for m in PER_LAYER],
    }
