#!/usr/bin/env python3
"""Alternating paired runs of one perfbench workload on two git revisions.

    python scripts/bench_pairs.py PARENT CHANGE --workload evaluate-100k --pairs 10 [--label L]

Exports both revisions with ``git archive`` into ``.bench_build/<label>/``,
points each export's ``.bench_cache`` at one shared cache, and builds the
workload's inputs there with one untimed warm-up run per side, so no measured
run reads the input generator's peak. Every timed run uses seed 1 and the
``run_seconds`` of the parent's ``BENCHMARK.json``. Pair i runs the parent
first when i is even and the change first when it is odd. For every gated
end-to-end metric of that file it prints each side's median [Q1, Q3], the
pairs the change won, and whether the gap between the medians exceeds the
parent's interquartile range. ``BENCH_<label>.json`` holds the environment
line of each side and every run's values.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEED = 1
WARM_UP_SECONDS = 1.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Q1, median and Q3, by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], metrics: list[dict]) -> list[dict]:
    """Per gated metric: each side's quartiles, the pairs the change won (over
    pairs where both sides ran), and the claim rule on the medians."""
    rows = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        by_pair: dict[int, dict[str, float]] = {}
        for run in runs:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"][name]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        parent = quartiles([p["parent"] for p in pairs])
        change = quartiles([p["change"] for p in pairs])
        gap = change[1] - parent[1]
        won = sum((p["change"] > p["parent"]) if higher else (p["change"] < p["parent"]) for p in pairs)
        relative = gap / parent[1] if parent[1] else 0.0
        worse = -relative if higher else relative
        rows.append({
            "metric": name,
            "parent": parent,
            "change": change,
            "gap": gap,
            "relative": relative,
            "won": won,
            "pairs": len(pairs),
            "gap_exceeds_parent_iqr": abs(gap) > parent[2] - parent[0],
            "worse_beyond_bound": worse > metric["bound"],
        })
    return rows


def format_table(rows: list[dict]) -> list[str]:
    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [f"{'metric':<15} {'parent median [Q1, Q3]':>32} {'change median [Q1, Q3]':>32}"
             f" {'gap':>8} {'won':>6} {'>IQR':>5} {'bound':>6}"]
    for row in rows:
        lines.append(
            f"{row['metric']:<15} {cell(row['parent']):>32} {cell(row['change']):>32}"
            f" {100 * row['relative']:>+7.1f}% {row['won']:>2}/{row['pairs']:<3}"
            f" {'yes' if row['gap_exceeds_parent_iqr'] else 'no':>5}"
            f" {'WORSE' if row['worse_beyond_bound'] else 'ok':>6}"
        )
    return lines


def export(rev: str, into: Path, cache: Path) -> None:
    shutil.rmtree(into, ignore_errors=True)
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        # The archive is git's own output; Pythons without extraction filters
        # (before 3.10.12 and 3.11.4) extract it as it is.
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    (into / ".bench_cache").symlink_to(cache, target_is_directory=True)


def run(tree: Path, workload: str, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{tree.name}: perfbench exited {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment ")), None)
    return {"correct": result["correct"], "environment": env,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    label = args.label or args.workload
    revs = [subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip() for rev in (args.parent, args.change)]
    work = ROOT / ".bench_build" / label
    cache = work / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    trees = {side: work / side for side in SIDES}
    for side, rev in zip(SIDES, revs):
        export(rev, trees[side], cache)
    benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    environments = {side: run(trees[side], args.workload, WARM_UP_SECONDS)["environment"] for side in SIDES}

    runs = []
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            result = run(trees[side], args.workload, seconds)
            runs.append({"pair": pair, "side": side, "correct": result["correct"], "metrics": result["metrics"]})
            print(f"pair {pair} {side:<6} " + " ".join(
                f"{m['name']}={result['metrics'][m['name']]:.4g}" for m in metrics), flush=True)
    rows = summarize(runs, metrics)
    print("\n".join(format_table(rows)))
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": SEED, "seconds": seconds, "pairs": args.pairs,
        "revisions": dict(zip(SIDES, revs)),
        "environment": environments, "runs": runs, "summary": rows,
    }, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
