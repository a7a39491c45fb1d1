"""One workload in its own process: set up, run the closed loop, check.

    python3 perfbench/workload.py --workload online-100k --seed 1 \\
        --seconds 20 --trace 0 --corpus .bench_cache/<key> [--server URL]

``run.py`` starts this process with the generated corpus (and, for the text
workload, the local endpoint server) and reads the JSON object it prints
last. Peak RSS is taken after the measured loop and before the oracle loads
its own float64 tables, so it belongs to the program and this loop alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bend import dataset, pipeline, reference_index, reporting  # noqa: E402
from bend.client import EmbeddingEndpoint  # noqa: E402

import catalog  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

# Set-ups per run (their median is setup_s): at least SETUP_MIN, then more
# until SETUP_BUDGET_S is spent or SETUP_MAX are done.
SETUP_MIN = 5
SETUP_MAX = 101
SETUP_BUDGET_S = 2.0
# Requests checked against the oracle: the first few, then every tenth.
ORACLE_FIRST = 10
ORACLE_EVERY = 10
STEP2_MODES = ("step2-only", "full")


# -- tracing plan ------------------------------------------------------------


def _obs_read(tr, args, kwargs, table):
    tr.count("dataset.rows_loaded", table.count)
    base = Path(args[0]).parent
    tr.count("dataset.bytes_read", sum((base / f).stat().st_size for f in ("vectors.f32", "meta.jsonl")))


def _obs_top_n(tr, args, kwargs, result):
    tr.count("reference_index.top_n_by_attribute.rows_scored", args[0].table.count)


def _obs_retrieve(tr, args, kwargs, result):
    table = args[0]
    k = args[2] if len(args) > 2 else kwargs["k"]
    tr.count("reference_index.retrieve_top_k.rows_scored", table.count)
    if k > table.count:
        tr.count("reference_index.retrieve_top_k.k_exceeds_pool")


def _obs_matrix(tr, args, kwargs, matrix):
    tr.count("subspace.dropped_columns", matrix.dropped_count)


def _obs_debias(tr, args, kwargs, report):
    if report.residuals:
        tr.peak("equalize.max_residual", max(report.residuals))


def _obs_resolve(tr, args, kwargs, resolved):
    if resolved.augment_source:
        tr.count(f"augment.source.{resolved.augment_source}")
    if resolved.skipped:
        tr.count("pipeline.skipped_queries")


def _obs_evaluate(tr, args, kwargs, report):
    tr.count("pipeline.query_errors", sum("error" in e for e in report["queries"]))


def _obs_embed(tr, args, kwargs, result):
    tr.count("client.embed_text.texts", len(args[0]))


def _obs_dumps(tr, args, kwargs, text):
    tr.count("reporting.bytes", len(text))


# (where the caller looks the function up, span name, observer)
WRAPS = (
    ("bend.dataset:read_dataset", "dataset.read_dataset", _obs_read),
    ("bend.dataset:LabeledEmbeddingTable.subset", "dataset.subset", None),
    ("bend.pipeline:make_folds", "dataset.make_folds", None),
    ("bend.pipeline:load_queries", "pipeline.load_queries", None),
    ("bend.reference_index:build_index", "reference_index.build_index", None),
    ("bend.pipeline:build_index", "reference_index.build_index", None),
    ("bend.reference_index:ReferenceIndex.group_means", "reference_index.group_means", None),
    ("bend.pipeline:top_n_by_attribute", "reference_index.top_n_by_attribute", _obs_top_n),
    ("bend.pipeline:retrieve_top_k", "reference_index.retrieve_top_k", _obs_retrieve),
    ("bend.reference_index:retrieve_top_k", "reference_index.retrieve_top_k", _obs_retrieve),
    ("bend.pipeline:build_attribute_matrix", "subspace.build_attribute_matrix", _obs_matrix),
    ("bend.pipeline:orthogonalize", "subspace.orthogonalize", None),
    ("bend.equalize:orthogonalize", "subspace.orthogonalize", None),
    ("bend.pipeline:debias", "equalize.debias", _obs_debias),
    ("bend.equalize:group_distance_gap", "metrics.group_distance_gap", None),
    ("bend.pipeline:worst_group_auc", "metrics.worst_group_auc", None),
    ("bend.pipeline:empirical_distribution", "metrics.empirical_distribution", None),
    ("bend.pipeline:kl_divergence", "metrics.kl_divergence", None),
    ("bend.pipeline:max_skew", "metrics.max_skew", None),
    ("bend.pipeline:summary_stats", "reporting.summary_stats", None),
    ("bend.pipeline:resolve_query", "pipeline.resolve_query", _obs_resolve),
    ("bend.pipeline:run_query_reports", "pipeline.run_query_reports", None),
    ("bend.pipeline:evaluate", "pipeline.evaluate", _obs_evaluate),
    ("bend.pipeline:embed_text", "client.embed_text", _obs_embed),
    ("bend.pipeline:external_augmenter", "augment.external_augmenter", None),
    ("bend.reporting:dumps", "reporting.dumps", _obs_dumps),
)

# Per-layer seconds metric -> span names whose self time it sums.
SECONDS = {
    "dataset.read_dataset.s": ("dataset.read_dataset",),
    "dataset.subset.s": ("dataset.subset",),
    "dataset.make_folds.s": ("dataset.make_folds",),
    "pipeline.load_queries.s": ("pipeline.load_queries",),
    "reference_index.build_index.s": ("reference_index.build_index",),
    "reference_index.group_means.s": ("reference_index.group_means",),
    "reference_index.top_n_by_attribute.s": ("reference_index.top_n_by_attribute",),
    "reference_index.retrieve_top_k.s": ("reference_index.retrieve_top_k",),
    "subspace.s": ("subspace.build_attribute_matrix", "subspace.orthogonalize"),
    "equalize.debias.s": ("equalize.debias",),
    "metrics.group_distance_gap.s": ("metrics.group_distance_gap",),
    "metrics.worst_group_auc.s": ("metrics.worst_group_auc",),
    "metrics.kl_skew.s": ("metrics.empirical_distribution", "metrics.kl_divergence", "metrics.max_skew"),
    "pipeline.resolve_query.s": ("pipeline.resolve_query",),
    "pipeline.run_query_reports.s": ("pipeline.run_query_reports",),
    "pipeline.evaluate.self_s": ("pipeline.evaluate",),
    "client.embed_text.s": ("client.embed_text",),
    "augment.external_augmenter.s": ("augment.external_augmenter",),
    "reporting.dumps.s": ("reporting.dumps",),
    "reporting.summary_stats.s": ("reporting.summary_stats",),
}
# Per-layer call-count metric -> span names it counts.
CALLS = {
    "dataset.subset.calls": ("dataset.subset",),
    "reference_index.group_means.calls": ("reference_index.group_means",),
    "reference_index.top_n_by_attribute.calls": ("reference_index.top_n_by_attribute",),
    "reference_index.retrieve_top_k.calls": ("reference_index.retrieve_top_k",),
    "equalize.debias.calls": ("equalize.debias",),
    "metrics.group_distance_gap.calls": ("metrics.group_distance_gap",),
    "metrics.worst_group_auc.calls": ("metrics.worst_group_auc",),
    "metrics.kl_skew.calls": SECONDS["metrics.kl_skew.s"],
    "client.embed_text.calls": ("client.embed_text",),
    "augment.external_augmenter.calls": ("augment.external_augmenter",),
}
# Counters summed over the whole traced run rather than per operation.
TOTALS = (
    "pipeline.query_errors",
    "pipeline.skipped_queries",
    "reference_index.retrieve_top_k.k_exceeds_pool",
)
# Counters reported per set-up rather than per operation.
PER_SETUP = ("dataset.rows_loaded", "dataset.bytes_read")
# Per-layer metrics computed from something other than one counter.
DERIVED = ("equalize.max_residual", "client.connections_per_request", "client.retries")


# -- the workload ------------------------------------------------------------


@dataclass
class State:
    """What the program holds after set-up."""

    reference: object
    target: object
    space: object
    queries: list | None = None
    index: object | None = None


@dataclass
class Outcome:
    attempted: int = 0
    failed: set = field(default_factory=set)
    reasons: list = field(default_factory=list)
    jaccards: list = field(default_factory=list)
    kls: list = field(default_factory=list)
    oracle_checked: int = 0

    def fail(self, op: int, reason: str) -> None:
        self.failed.add(op)
        if len(self.reasons) < 10:
            self.reasons.append(f"op {op}: {reason}")


class Runner:
    def __init__(self, args, workload: catalog.Workload, shape: inputs.CorpusShape):
        self.members: dict[str, np.ndarray] = {}
        self.args = args
        self.corpus = Path(args.corpus)
        self.kind = workload.kind
        manifest = json.loads((self.corpus / "target" / "manifest.json").read_text())
        self.target_count = manifest["count"]
        self.outcome = Outcome()
        self.records: dict[int, dict] = {}
        self.texts: list[str] = []
        self._text_stream = inputs.text_queries(args.seed)
        self.base_vectors = [
            np.array(json.loads(line)["vector"])
            for line in (self.corpus / "queries.jsonl").read_text().splitlines()
        ]
        if self.kind == "evaluate":
            modes = catalog.MODES
        else:
            modes = ("full",)
        endpoint = augment = None
        if self.kind == "online-text":
            endpoint = EmbeddingEndpoint(url=f"{args.server}/embed", expected_dim=shape.dim)
            augment = f"{args.server}/augment"
        self.cfg = pipeline.RunConfig(
            attribute=inputs.ATTRIBUTE,
            n=catalog.N_RELEVANT,
            k=catalog.TOP_K,
            modes=modes,
            seed=catalog.FOLD_SEED,
            fold_count=catalog.FOLDS,
            embed_endpoint=endpoint,
            augment_endpoint=augment,
        )

    # set-up: what `bend evaluate` / `bend debias` do before the first query

    def setup(self) -> State:
        reference = dataset.read_dataset(self.corpus / "reference" / "manifest.json")
        target = dataset.read_dataset(self.corpus / "target" / "manifest.json")
        space = pipeline.resolve_space(reference, inputs.ATTRIBUTE, target)
        if self.kind == "evaluate":
            queries = pipeline.load_queries(self.corpus / "queries.jsonl")
            return State(reference, target, space, queries=queries)
        return State(reference, target, space, index=reference_index.build_index(reference))

    # operations

    def prepare(self, i: int):
        """The untimed input of operation ``i``: identical on every replay."""
        if self.kind == "evaluate":
            count = len(self.base_vectors)
            return [(i * catalog.EVAL_BATCH + j) % count for j in range(catalog.EVAL_BATCH)]
        if self.kind == "online-vector":
            base = self.base_vectors[i % len(self.base_vectors)]
            vector = inputs.perturbed_query(base, self.args.seed, i)
            return pipeline.QueryRow(id=f"req-{i}", vector=vector)
        while len(self.texts) <= i:
            self.texts.append(next(self._text_stream))
        return pipeline.QueryRow(id=f"text-{i}", text=self.texts[i])

    def operate(self, state: State, prepared):
        if self.kind == "evaluate":
            batch = [state.queries[j] for j in prepared]
            report = pipeline.evaluate(batch, state.reference, state.target, self.cfg)
            return report, reporting.dumps(report)
        resolved = pipeline.resolve_query(prepared, state.space, state.index, self.cfg)
        reports, subsets = pipeline.run_query_reports(resolved, state.index, state.space, self.cfg)
        retrieved = reference_index.retrieve_top_k(state.target, reports["full"].final, self.cfg.k)
        return resolved, reports, subsets, retrieved

    def queries_in(self, prepared) -> int:
        return len(prepared) if self.kind == "evaluate" else 1

    # cheap invariants on every operation; oracle inputs kept for sampled ones

    def check_inline(self, i: int, prepared, result) -> None:
        out = self.outcome
        if self.kind == "evaluate":
            report, _ = result
            self.records[i] = {"batch": prepared, "report": report}
            return
        resolved, reports, subsets, retrieved = result
        expected = "reference-means" if self.kind == "online-vector" else "external"
        if resolved.skipped:
            return out.fail(i, f"query skipped: {resolved.skip_reason}")
        if resolved.augment_source != expected:
            return out.fail(i, f"augment source {resolved.augment_source!r}, expected {expected!r}")
        report = reports["full"]
        if abs(float(np.linalg.norm(report.final)) - 1.0) > oracle.NORM_TOL:
            return out.fail(i, "final is not unit norm")
        if not report.residuals or max(report.residuals) > oracle.RESIDUAL_TOL:
            return out.fail(i, f"equalization residual {report.residuals}")
        if len(retrieved) != min(self.cfg.k, self.target_count):
            return out.fail(i, f"retrieved {len(retrieved)} of k={self.cfg.k}")
        if i < ORACLE_FIRST or i % ORACLE_EVERY == 0:
            self.records[i] = {
                "query": getattr(prepared, "vector", None),
                "final": np.array(report.final),
                "step1": np.array(report.step1),
                "subsets": {v: list(ix) for v, ix in subsets.indices.items()},
                "ids": [r.id for r in retrieved],
            }

    # the closed loop

    def loop(self, state: State, seconds: float, replay: int | None = None, tracer: Tracer | None = None):
        """Run operations until ``seconds`` pass (or exactly ``replay`` of
        them); return (op index, seconds, queries) per operation."""
        timings = []
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            prepared = self.prepare(i)
            if tracer is not None:
                tracer.op = f"op{i}"
            start = time.perf_counter()
            try:
                result = self.operate(state, prepared)
            except Exception as exc:  # a failed operation is counted, not fatal
                result = None
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.op = None
            timings.append((i, elapsed, self.queries_in(prepared)))
            if result is None and tracer is not None:
                tracer.count("pipeline.query_errors")
            if replay is None:
                self.outcome.attempted += 1
                if result is None:
                    self.outcome.fail(i, error)
                else:
                    self.check_inline(i, prepared, result)
            i += 1
            if (replay is not None and i >= replay) or (replay is None and time.perf_counter() >= deadline):
                return timings

    # oracle, after the loop and after peak RSS is read

    def evaluate_finals(self, state: State) -> dict:
        """Finals and relevant subsets per evaluated query, from the same
        calls evaluate makes, so the oracle can score what the report claims."""
        index = reference_index.build_index(state.reference)
        wanted = sorted({j for rec in self.records.values() for j in rec["batch"]})
        finals = {}
        for j in wanted:
            row = state.queries[j]
            try:
                resolved = pipeline.resolve_query(row, state.space, index, self.cfg)
                reports, subsets = pipeline.run_query_reports(resolved, index, state.space, self.cfg)
            except Exception as exc:
                finals[row.id] = f"{type(exc).__name__}: {exc}"
                continue
            finals[row.id] = {
                "finals": {m: np.array(r.final) for m, r in reports.items()},
                "step1": np.array(reports["full"].step1),
                "subsets": {v: list(ix) for v, ix in subsets.indices.items()},
            }
        return finals

    def run_oracle(self, finals: dict | None) -> None:
        ref = oracle.load_table(self.corpus / "reference" / "manifest.json", inputs.ATTRIBUTE)
        tgt = oracle.load_table(self.corpus / "target" / "manifest.json", inputs.ATTRIBUTE)
        self.members = {v: np.flatnonzero(ref.labels == v) for v in inputs.VALUES}
        if self.kind == "evaluate":
            self._oracle_evaluate(ref, tgt, finals)
        else:
            self._oracle_online(ref, tgt)

    def _oracle_online(self, ref, tgt) -> None:
        out = self.outcome
        everything = np.arange(len(tgt.ids))
        prior = self._prior(tgt)
        means = [ref.vectors[self.members[v]].mean(axis=0) for v in inputs.VALUES]
        for i, rec in self.records.items():
            if i in out.failed:
                continue
            out.oracle_checked += 1
            best = oracle.top(tgt, oracle.scores(tgt, rec["final"]), self.cfg.k, everything)
            expected = [tgt.ids[r] for r in best]
            out.jaccards.append(oracle.jaccard(rec["ids"], expected))
            if rec["ids"] != expected:
                out.fail(i, "top-k ids differ from the float64 oracle")
                continue
            problem = self._subsets_problem(ref, rec["step1"], rec["subsets"])
            if problem is None and rec["query"] is not None:
                problem = self._step1_problem(rec["query"], rec["step1"], means)
            if problem is None and oracle.residual(rec["final"], ref, rec["subsets"]) > oracle.RESIDUAL_TOL:
                problem = "oracle equalization residual too large"
            if problem:
                out.fail(i, problem)
                continue
            counts = oracle.label_counts(tgt, best, inputs.VALUES)
            out.kls.append(oracle.kl_and_skew(counts, prior)[0])

    def _step1_problem(self, query, step1, means) -> str | None:
        """Without bundled directions every attribute column is a multiple of
        the difference of the two reference group means, so step 1 removes
        exactly that direction."""
        diff = means[0] - means[1]
        q = query / np.linalg.norm(query)
        expected = q - (q @ diff) / (diff @ diff) * diff
        expected /= np.linalg.norm(expected)
        if np.max(np.abs(expected - step1)) > oracle.STEP1_TOL:
            return "step-1 embedding differs from the reference-means projection"
        return None

    def _subsets_problem(self, ref, step1, subsets) -> str | None:
        """The relevant subsets must be the oracle's top-n per value by the
        step-1 embedding (the default ``subset_by``)."""
        ranking = oracle.scores(ref, step1)
        for value, rows in subsets.items():
            if rows != oracle.top(ref, ranking, self.cfg.n, self.members[value]).tolist():
                return f"relevant subset for {value!r} differs from the oracle"
        return None

    def _prior(self, tgt) -> dict[str, float]:
        return {v: float(np.mean(tgt.labels == v)) for v in inputs.VALUES}

    def _oracle_evaluate(self, ref, tgt, finals: dict) -> None:
        out = self.outcome
        folds = [np.sort(f) for f in oracle.make_folds(len(tgt.ids), catalog.FOLDS, catalog.FOLD_SEED)]
        pools = [np.setdiff1d(np.arange(len(tgt.ids)), f) for f in folds]
        prior = self._prior(tgt)
        expected_cache: dict[tuple, tuple] = {}
        for i, rec in self.records.items():
            out.oracle_checked += 1
            report = rec["report"]
            if any(abs(report["prior"][v] - prior[v]) > oracle.FLOAT_TOL for v in prior):
                out.fail(i, "prior differs from the target's label distribution")
                continue
            for entry in report["queries"]:
                problem = self._check_entry(
                    entry, finals.get(entry.get("id")), ref, tgt, folds, pools, report["prior"], expected_cache
                )
                if problem:
                    out.fail(i, f"query {entry.get('id')}: {problem}")
                    break

    def _check_entry(self, entry, derived, ref, tgt, folds, pools, prior, cache) -> str | None:
        if "error" in entry:
            return entry["error"]
        if entry.get("skipped"):
            return "skipped"
        if not isinstance(derived, dict):
            return f"could not re-derive finals: {derived}"
        qid = entry["id"]
        problem = self._subsets_problem(ref, derived["step1"], derived["subsets"])
        if problem:
            return problem
        for mode in self.cfg.modes:
            final = derived["finals"][mode]
            mode_entry = entry["modes"][mode]
            if abs(float(np.linalg.norm(final)) - 1.0) > oracle.NORM_TOL:
                return f"{mode}: final is not unit norm"
            if mode in STEP2_MODES:
                reported = mode_entry["max_equalization_residual"]
                if reported is None or reported > oracle.RESIDUAL_TOL:
                    return f"{mode}: equalization residual {reported}"
                if oracle.residual(final, ref, derived["subsets"]) > oracle.RESIDUAL_TOL:
                    return f"{mode}: oracle equalization residual too large"
            sims = None
            kls = []
            for f, fold_entry in enumerate(mode_entry["folds"]):
                key = (qid, mode, f)
                if key not in cache:
                    if sims is None:
                        sims = oracle.scores(tgt, final)
                    best = oracle.top(tgt, sims, self.cfg.k, pools[f])
                    cache[key] = (
                        pools[f].shape[0],
                        oracle.label_counts(tgt, best, inputs.VALUES),
                        oracle.worst_group_auc(tgt, folds[f], sims, entry["class"], inputs.VALUES),
                    )
                pool_size, counts, auc = cache[key]
                if fold_entry["pool_size"] != pool_size:
                    return f"{mode} fold {f}: pool size {fold_entry['pool_size']} != {pool_size}"
                if fold_entry["retrieved"] != min(self.cfg.k, pool_size):
                    return f"{mode} fold {f}: retrieved {fold_entry['retrieved']}"
                got = fold_entry["retrieved_counts"]
                if sum(got.values()) != fold_entry["retrieved"]:
                    return f"{mode} fold {f}: retrieved_counts do not sum to retrieved"
                kl, skew = oracle.kl_and_skew(got, prior)
                if abs(kl - fold_entry["kl"]) > oracle.FLOAT_TOL or abs(skew - fold_entry["max_skew"]) > oracle.FLOAT_TOL:
                    return f"{mode} fold {f}: KL/MaxSkew do not match retrieved_counts"
                self.outcome.jaccards.append(oracle.multiset_jaccard(got, counts))
                if got != counts:
                    return f"{mode} fold {f}: retrieved_counts {got} != oracle {counts}"
                reported_auc = fold_entry["worst_group_auc"]
                if (reported_auc is None) != (auc is None) or (
                    auc is not None and abs(reported_auc - auc) > oracle.FLOAT_TOL
                ):
                    return f"{mode} fold {f}: worst-group AUC {reported_auc} != oracle {auc}"
                kls.append(kl)
            if mode == "full":
                self.outcome.kls.append(float(np.mean(kls)))
        return None


# -- per-layer metrics from a traced replay ------------------------------------


def server_stats(url: str | None) -> dict:
    if not url:
        return {}
    with urllib.request.urlopen(f"{url}/stats", timeout=10) as response:
        return json.loads(response.read())


def layer_metrics(tracer: Tracer, ops: int, setups: int, traced, untraced, before: dict, after: dict) -> dict:
    self_s = tracer.self_times()
    calls = tracer.call_counts()

    def per_unit(table, names) -> float:
        setup = sum(v for (op, n), v in table.items() if n in names and op and op.startswith("setup"))
        in_ops = sum(v for (op, n), v in table.items() if n in names and op and op.startswith("op"))
        return setup / setups + in_ops / ops

    metrics = {}
    for name, spans in SECONDS.items():
        metrics[name] = per_unit(self_s, spans)
    for name, spans in CALLS.items():
        metrics[name] = per_unit(calls, spans)
    counters = {}
    for (op, name), value in tracer.counts.items():
        counters.setdefault(name, {"setup": 0.0, "op": 0.0, "all": 0.0})
        counters[name]["all"] += value
        if op and op.startswith("setup"):
            counters[name]["setup"] += value
        elif op and op.startswith("op"):
            counters[name]["op"] += value
    for metric in catalog.PER_LAYER:
        name = metric.name
        if name in metrics or name in DERIVED or name.startswith("trace."):
            continue
        got = counters.get(name, {"setup": 0.0, "op": 0.0, "all": 0.0})
        if name in TOTALS:
            metrics[name] = got["all"]
        elif name in PER_SETUP:
            metrics[name] = got["setup"] / setups
        else:
            metrics[name] = got["op"] / ops
    metrics["equalize.max_residual"] = tracer.maxima.get("equalize.max_residual", 0.0)
    served = sum(after.get(k, 0) - before.get(k, 0) for k in ("embed", "augment"))
    # The closing /stats request opened one connection of its own.
    connections = after.get("connections", 0) - before.get("connections", 0) - 1
    metrics["client.connections_per_request"] = connections / served if served else 0.0
    embed_calls = sum(v for (op, n), v in calls.items() if n == "client.embed_text" and op and op.startswith("op"))
    metrics["client.retries"] = max(0, after.get("embed", 0) - before.get("embed", 0) - embed_calls) if served else 0
    op_wall = float(np.median([t for _, t, _ in traced]))
    metrics["trace.ops"] = ops
    metrics["trace.op_s"] = op_wall
    metrics["trace.untraced_op_s"] = float(np.median([t for _, t, _ in untraced]))
    metrics["trace.overhead_s"] = metrics["trace.op_s"] - metrics["trace.untraced_op_s"]
    op_self = sum(v for (op, _), v in self_s.items() if op and op.startswith("op")) / ops
    metrics["trace.accounted_share"] = op_self / (sum(t for _, t, _ in traced) / ops)
    metrics["trace.absent_layers"] = len(tracer.absent)
    return metrics


# -- main ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--server", default=None)
    parser.add_argument("--spans", default=None, help="write the traced spans here (JSON lines)")
    args = parser.parse_args(argv)
    workload = catalog.WORKLOADS[args.workload]
    runner = Runner(args, workload, workload.smoke_shape if args.smoke else workload.shape)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        for target, span, observe in WRAPS:
            tracer.wrap(target, span, observe)

    setup_times = []
    state = None
    spent = time.perf_counter()
    while len(setup_times) < SETUP_MIN or (
        len(setup_times) < SETUP_MAX and time.perf_counter() - spent < SETUP_BUDGET_S
    ):
        state = None
        gc.collect()
        if tracer is not None:
            tracer.op = f"setup{len(setup_times)}"
        start = time.perf_counter()
        state = runner.setup()
        setup_times.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.op = None
        tracer.restore()

    result = {"setup_s": setup_times}
    if tracer is None:
        timings = runner.loop(state, args.seconds)
    else:
        # Same inputs twice: untraced for half the time, then traced.
        timings = runner.loop(state, args.seconds / 2)
        for target, span, observe in WRAPS:
            tracer.wrap(target, span, observe)
        before = server_stats(args.server)
        traced = runner.loop(state, 0, replay=len(timings), tracer=tracer)
        after = server_stats(args.server)
        tracer.restore()
        result["layers"] = layer_metrics(tracer, len(traced), len(setup_times), traced, timings, before, after)
        result["absent"] = sorted(tracer.absent)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                for record in tracer.records():
                    handle.write(json.dumps(record) + "\n")
    result["peak_rss_mb"] = peak_rss_mb()
    result["ops"] = [{"seconds": t, "queries": q} for _, t, q in timings]

    finals = runner.evaluate_finals(state) if runner.kind == "evaluate" else None
    state = None
    gc.collect()
    runner.run_oracle(finals)
    out = runner.outcome
    result.update(
        attempted=out.attempted,
        failed=len(out.failed),
        reasons=out.reasons,
        jaccards=out.jaccards,
        kls=out.kls,
        oracle_checked=out.oracle_checked,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
