"""Command-line front door: ``bend synth|debias|retrieve|evaluate``.

Exit codes: 0 ok, 2 config, 3 io, 4 missing/unreachable endpoint,
5 data/validation, 6 numeric degeneracy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline
from .client import EmbeddingEndpoint, embed_text
from .dataset import (
    MANIFEST_NAME,
    QUERIES_NAME,
    load_synth_spec,
    read_dataset,
    read_json,
    synth_generate,
    synth_query_rows,
    write_dataset,
    write_query_rows,
)
from .equalize import MODES
from .errors import BendError, ConfigError, DatasetIOError, MissingEndpoint, NonFiniteValue
from .pipeline import QueryRow, RunConfig
from .reference_index import build_index
from .reporting import dumps
from .vectors import number_vector

EMBED_ENDPOINT_ENV = "BEND_EMBED_ENDPOINT"


def _parse_vector(raw: str):
    """``--vector``: an inline JSON array, ``@FILE`` or a path. Either way a
    typo is a usage error, so an unreadable path exits 2 like bad JSON."""
    try:
        if not raw.lstrip().startswith("["):
            raw = Path(raw.removeprefix("@")).read_text(encoding="utf-8")
        values = json.loads(raw)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot parse query vector: {exc}") from None
    return number_vector(values, "query vector", ConfigError, NonFiniteValue)


def _parse_modes(raw: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in raw.split(",") if m.strip())


def _embed_endpoint(args, expected_dim: int = 0) -> EmbeddingEndpoint | None:
    """The configured embedding endpoint, or None. Built either way, so every
    verb checks ``--embed-timeout-ms``, URL or not, before it reads any file."""
    endpoint = EmbeddingEndpoint(
        url=args.embed_endpoint or os.environ.get(EMBED_ENDPOINT_ENV) or "",
        expected_dim=expected_dim,
        timeout_ms=args.embed_timeout_ms,
        token=args.embed_token,
    )
    return endpoint if endpoint.url else None


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DatasetIOError(f"cannot write {path}: {exc}") from None


def _emit(report: dict, out: str | None) -> None:
    text = dumps(report)
    if out:
        _write(Path(out), text)
    else:
        sys.stdout.write(text)


def _query_row(args) -> QueryRow:
    if args.text is not None:
        return QueryRow(id=args.query_id, text=args.text, class_label=args.query_class)
    return QueryRow(
        id=args.query_id,
        vector=_parse_vector(args.vector),
        class_label=args.query_class,
    )


def cmd_synth(args) -> int:
    spec = load_synth_spec(args.spec)
    table = synth_generate(spec)
    out_dir = Path(args.out_dir)
    write_dataset(table, out_dir, force=args.force)
    if spec.queries:
        write_query_rows(synth_query_rows(spec), out_dir / QUERIES_NAME)
    print(out_dir / MANIFEST_NAME)
    return 0


def cmd_debias(args) -> int:
    cfg = RunConfig(
        attribute=args.attribute,
        n=args.n,
        modes=_parse_modes(args.modes),
        augment_endpoint=args.augment_endpoint,
    )
    _embed_endpoint(args)
    row = _query_row(args)
    reference = read_dataset(args.reference)
    space = pipeline.resolve_space(reference, args.attribute)
    cfg = replace(cfg, embed_endpoint=_embed_endpoint(args, reference.dim))
    index = build_index(reference)
    resolved = pipeline.resolve_query(row, space, index, cfg)
    reports, subsets = pipeline.run_query_reports(resolved, index, space, cfg)
    report = pipeline.debias_report_json(resolved, reports, subsets, index, space, cfg)
    _emit(report, args.out)
    return 0


def cmd_retrieve(args) -> int:
    if args.k < 1:
        raise ConfigError("k must be at least 1")
    if args.prior and args.attribute is None:
        raise ConfigError("--prior needs --attribute to know which space to score")
    _embed_endpoint(args)
    query = None if args.vector is None else _parse_vector(args.vector)
    prior = read_json(Path(args.prior), "prior file", ConfigError) if args.prior else None
    target = read_dataset(args.target)
    endpoint = _embed_endpoint(args, target.dim)
    metric_space = None
    if args.attribute is not None:
        metric_space = pipeline.resolve_space(target, args.attribute)
    if prior is not None:
        prior = pipeline.validate_prior(prior, metric_space)
    if query is None:
        if endpoint is None:
            raise MissingEndpoint(
                "text queries need --embed-endpoint or BEND_EMBED_ENDPOINT"
            )
        query = embed_text([args.text], endpoint)[0]
    retrieved = pipeline.retrieve_top_k(target, query, args.k)
    report = pipeline.retrieval_report_json(
        target, retrieved, args.k, metric_space=metric_space, prior=prior
    )
    _emit(report, args.out)
    return 0


def cmd_evaluate(args) -> int:
    cfg = RunConfig(
        attribute=args.attribute,
        n=args.n,
        k=args.k,
        modes=_parse_modes(args.modes),
        seed=args.seed,
        fold_count=args.folds,
        augment_endpoint=args.augment_endpoint,
    )
    _embed_endpoint(args)
    if args.out and Path(args.out).suffix == ".csv":  # the CSV beside it would replace it
        raise ConfigError(f"--out {args.out} names the CSV written beside the report")
    prior = read_json(Path(args.prior), "prior file", ConfigError) if args.prior else None
    reference = read_dataset(args.reference)
    target = read_dataset(args.target)
    queries = pipeline.load_queries(args.queries)
    space = pipeline.resolve_space(reference, args.attribute, target)
    cfg = replace(
        cfg,
        embed_endpoint=_embed_endpoint(args, reference.dim),
        prior=None if prior is None else pipeline.validate_prior(prior, space),
    )
    report = pipeline.evaluate(
        queries,
        reference,
        target,
        cfg,
        source_info={
            "reference": str(args.reference),
            "target": str(args.target),
            "queries": str(args.queries),
        },
    )
    _emit(report, args.out)
    if args.out:
        csv_lines = pipeline.aggregate_csv_lines(report)
        _write(Path(args.out).with_suffix(".csv"), "\n".join(csv_lines) + "\n")
    errors = [e for e in report["queries"] if "error" in e]
    if errors and len(errors) == len(report["queries"]):
        sys.stderr.write(f"error: every query failed; first: {errors[0]['error']}\n")
        return 5
    for entry in errors:
        sys.stderr.write(f"warning: query {entry['id']} failed: {entry['error']}\n")
    return 0


def _add_query_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", help="query text (needs an embedding endpoint)")
    group.add_argument(
        "--vector",
        help="query vector: inline JSON array, @FILE, or a path to a JSON array",
    )


def _add_endpoint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--embed-endpoint",
        default=None,
        help=f"embedding service URL (or set {EMBED_ENDPOINT_ENV})",
    )
    parser.add_argument("--embed-token", default=None, help="bearer token header")
    parser.add_argument("--embed-timeout-ms", type=int, default=5000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bend",
        description=(
            "Debias text-query embeddings against labeled reference images and "
            "audit retrieval bias."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p_synth.add_argument("spec", help="generator spec JSON")
    p_synth.add_argument("out_dir", help="output dataset directory")
    p_synth.add_argument("--force", action="store_true",
                         help="overwrite a non-empty output directory")
    p_synth.set_defaults(handler=cmd_synth)

    p_debias = sub.add_parser("debias", help="debias one query embedding")
    _add_query_arguments(p_debias)
    p_debias.add_argument("--query-id", default="query", help="id used in the report")
    p_debias.add_argument("--query-class", default=None, help="optional class label")
    p_debias.add_argument("--reference", required=True, help="reference manifest")
    p_debias.add_argument("--attribute", required=True)
    p_debias.add_argument("--n", type=int, default=100)
    p_debias.add_argument("--modes", default="full")
    p_debias.add_argument("--out", default=None)
    _add_endpoint_arguments(p_debias)
    p_debias.add_argument("--augment-endpoint", default=None, help="external augmenter URL")
    p_debias.set_defaults(handler=cmd_debias)

    p_retrieve = sub.add_parser("retrieve", help="top-k retrieval over a target")
    _add_query_arguments(p_retrieve)
    p_retrieve.add_argument("--target", required=True, help="target manifest")
    p_retrieve.add_argument("--k", type=int, default=500)
    p_retrieve.add_argument("--attribute", default=None)
    p_retrieve.add_argument("--prior", default=None,
                            help="JSON file of per-value prior probabilities")
    p_retrieve.add_argument("--out", default=None)
    _add_endpoint_arguments(p_retrieve)
    p_retrieve.set_defaults(handler=cmd_retrieve)

    p_eval = sub.add_parser("evaluate", help="fold-aggregated bias metrics")
    p_eval.add_argument("queries", help="queries JSONL file")
    p_eval.add_argument("--reference", required=True)
    p_eval.add_argument("--target", required=True)
    p_eval.add_argument("--attribute", required=True)
    p_eval.add_argument("--n", type=int, default=100)
    p_eval.add_argument("--k", type=int, default=500)
    p_eval.add_argument("--modes", default=",".join(MODES))
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--folds", type=int, default=5)
    p_eval.add_argument("--prior", default=None)
    p_eval.add_argument("--out", default=None)
    _add_endpoint_arguments(p_eval)
    p_eval.add_argument("--augment-endpoint", default=None, help="external augmenter URL")
    p_eval.set_defaults(handler=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BendError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return exc.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
