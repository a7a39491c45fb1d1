#!/usr/bin/env python3
"""Run the seeded synthetic retrieval-bias experiment end to end.

Generates a biased dataset, splits it 50/50 into reference and target,
writes both and the aligned queries to --out-dir, debiases the queries read
back from those files under every ablation mode, and prints the
fold-aggregated KL / MaxSkew / worst-group AUC table. JSON and CSV reports
land in --out-dir; `bend evaluate` on the written files reproduces them.

    python scripts/run_synthetic_eval.py --out-dir runs/demo
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bend.augment import GENDER
from bend.dataset import (
    MANIFEST_NAME,
    QUERIES_NAME,
    SplitSpec,
    SynthCell,
    SynthQuerySpec,
    SynthSpec,
    read_dataset,
    split_reference_target,
    synth_generate,
    synth_query_rows,
    write_dataset,
    write_query_rows,
)
from bend.errors import BendError
from bend.pipeline import RunConfig, aggregate_csv_lines, evaluate, load_queries
from bend.reporting import dumps


def build_spec(args) -> SynthSpec:
    # No class makes no cell, which SynthSpec rejects.
    per_class = args.records // (2 * max(args.classes, 1))
    remainder = args.records - per_class * 2 * args.classes
    cells = []
    queries = []
    for i in range(args.classes):
        count = per_class + (1 if i < remainder // 2 else 0)
        name = f"c{i}"
        cells.append(SynthCell(name, "male", args.bias, count))
        cells.append(SynthCell(name, "female", -args.bias, count))
        queries.append(
            SynthQuerySpec(f"q-{name}", name, "male", aug_noise=args.aug_noise)
        )
    return SynthSpec(
        dim=args.dim,
        seed=args.seed,
        noise=args.noise,
        space=GENDER,
        cells=tuple(cells),
        queries=tuple(queries),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="runs/synthetic", type=Path)
    parser.add_argument("--records", type=int, default=4000,
                        help="total records before the 50/50 split")
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--bias", type=float, default=0.8)
    parser.add_argument("--noise", type=float, default=0.05)
    parser.add_argument("--aug-noise", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--split-seed", type=int, default=13)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--k", type=int, default=500)
    parser.add_argument("--folds", type=int, default=5)
    args = parser.parse_args()
    try:
        return run(args)
    except BendError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return exc.exit_code


def run(args) -> int:
    # Every setting is checked before the first file is written.
    cfg = RunConfig(
        attribute="gender",
        n=args.n,
        k=args.k,
        seed=args.split_seed,
        fold_count=args.folds,
    )
    spec = build_spec(args)
    table = synth_generate(spec)
    reference, target = split_reference_target(
        table, SplitSpec(0.5, args.folds, args.split_seed)
    )
    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    write_dataset(reference, out_dir / "reference", force=True)
    write_dataset(target, out_dir / "target", force=True)
    write_query_rows(synth_query_rows(spec), out_dir / QUERIES_NAME)
    # Evaluate what was written: the float32 files, not the float64 tables.
    reference = read_dataset(out_dir / "reference" / MANIFEST_NAME)
    target = read_dataset(out_dir / "target" / MANIFEST_NAME)
    queries = load_queries(out_dir / QUERIES_NAME)

    started = time.perf_counter()
    report = evaluate(
        queries,
        reference,
        target,
        cfg,
        source_info={
            "reference": str(out_dir / "reference" / MANIFEST_NAME),
            "target": str(out_dir / "target" / MANIFEST_NAME),
            "queries": str(out_dir / QUERIES_NAME),
        },
    )
    elapsed = time.perf_counter() - started
    (out_dir / "evaluation.json").write_text(dumps(report), encoding="utf-8")
    (out_dir / "evaluation.csv").write_text(
        "\n".join(aggregate_csv_lines(report)) + "\n", encoding="utf-8"
    )

    print(f"reference={reference.count} target={target.count} "
          f"queries={len(queries)} folds={args.folds} k={args.k} n={args.n} "
          f"({elapsed:.2f}s)")
    header = f"{'mode':<12} {'KL':>20} {'MaxSkew':>20} {'WorstGroupAUC':>20}"
    print(header)
    print("-" * len(header))
    for mode, agg in report["aggregates"].items():
        cells = [f"{mode:<12}"]
        for metric in ("kl", "max_skew", "worst_group_auc"):
            stats = agg[metric]
            if stats is None:
                cells.append(f"{'-':>20}")
            else:
                cells.append(f"{stats['mean']:>12.5f} ±{stats['std']:.5f}")
        print(" ".join(cells))
    print(f"\nreports written to {out_dir}/evaluation.json and .csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
