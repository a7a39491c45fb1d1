#!/usr/bin/env python3
"""Benchmark of the bend package: one workload per invocation.

    python3 perfbench/run.py --workload evaluate-100k --seed 1 --seconds 20 --trace 0

Builds (or reuses) the seeded inputs under ``.bench_cache/``, starts the
local endpoint server when the workload needs it, runs the workload in a
fresh process, checks its outputs against the benchmark's own oracle and
prints every metric with its unit. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).

Run it from the root of a source checkout; without ``src/bend`` it exits 2
before doing anything else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_cache"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIME_LIMIT_S = 170.0
SERVER_START_TIMEOUT_S = 20.0


def fail(message: str, code: int = 1) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return code


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_threads() -> int:
    """The BLAS thread count the workload gets: the caller's, capped at nproc."""
    limit = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            return max(1, min(int(os.environ[var]), limit))
        except (KeyError, ValueError):
            continue
    return limit


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bend").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_rev() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            # Never look above the checkout for a repository.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def environment(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy releases
        blas_name = "unknown"
    return {
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "nproc": nproc(),
        "machine": platform.machine(),
    }


class Server:
    """The local endpoint server, in its own process for the run's lifetime."""

    def __init__(self, dim: int, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--dim", str(dim), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        self.url = None

    def wait_ready(self) -> str:
        import select

        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if line.startswith("READY "):
                    self.url = f"http://127.0.0.1:{int(line.split()[1])}"
                    break
            if self.proc.poll() is not None:
                raise RuntimeError("endpoint server exited during start-up")
        else:
            raise RuntimeError("endpoint server did not start in time")
        import urllib.request

        with urllib.request.urlopen(f"{self.url}/stats", timeout=10) as response:
            response.read()
        return self.url

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def nearest_rank(values: list[float], percent: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percent / 100.0 * len(ordered)) - 1)]


def end_to_end(child: dict) -> tuple[dict, dict]:
    """Gated metrics plus the reported-only ones and sample counts."""
    ops = child["ops"]
    per_query_ms = [1000.0 * op["seconds"] / op["queries"] for op in ops]
    queries = sum(op["queries"] for op in ops)
    busy = sum(op["seconds"] for op in ops)
    jaccards = child["jaccards"]
    values = {
        "setup_s": statistics.median(child["setup_s"]),
        "peak_rss_mb": child["peak_rss_mb"],
        "queries_per_s": queries / busy,
        "query_p50_ms": statistics.median(per_query_ms),
        "query_p90_ms": nearest_rank(per_query_ms, 90),
        "topk_jaccard": statistics.fmean(jaccards) if jaccards else 0.0,
        "error_rate": child["failed"] / child["attempted"],
        "full_kl": statistics.fmean(child["kls"]) if child["kls"] else float("nan"),
    }
    samples = {
        "setups": len(child["setup_s"]),
        "operations": len(ops),
        "queries": queries,
        "latency_samples": len(per_query_ms),
        "oracle_checked_ops": child["oracle_checked"],
        "jaccard_samples": len(jaccards),
    }
    return values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "bend" / "__init__.py").is_file():
        return fail(f"no bend sources under {ROOT / 'src'}; run from a source checkout", 2)
    sys.path.insert(0, str(HERE))
    import catalog
    import inputs

    if args.workload not in catalog.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {sorted(catalog.WORKLOADS)}", 2)
    if args.seconds <= 0:
        return fail("--seconds must be positive", 2)
    workload = catalog.WORKLOADS[args.workload]
    shape = workload.smoke_shape if args.smoke else workload.shape
    corpus = inputs.corpus(CACHE, shape, args.seed)

    threads = blas_threads()
    env = dict(os.environ)
    env.update({var: str(threads) for var in BLAS_THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    server_env = dict(env, **{var: "1" for var in BLAS_THREAD_VARS})

    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload.name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--corpus", str(corpus),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.trace:
        command += ["--spans", str(CACHE / f"spans-{workload.name}-s{args.seed}.jsonl")]
    server = Server(shape.dim, server_env) if workload.kind == "online-text" else None
    try:
        if server is not None:
            command += ["--server", server.wait_ready()]
        remaining = TIME_LIMIT_S - (time.monotonic() - started)
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(f"{workload.name}: {exc}")
    finally:
        if server is not None:
            server.stop()
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return fail(f"{workload.name}: workload process exited with {done.returncode}")
    child = json.loads(done.stdout.strip().splitlines()[-1])

    values, samples = end_to_end(child)
    correct = child["failed"] == 0 and child["attempted"] > 0
    declared = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    source = child["layers"] if args.trace else values
    metrics = {m.name: {"value": source[m.name], "unit": m.unit} for m in declared}

    print(f"workload {workload.name}: {workload.why}")
    print(f"environment {json.dumps(environment(threads), sort_keys=True)}")
    print(f"samples {json.dumps(samples, sort_keys=True)}")
    if not args.trace:
        for m in catalog.END_TO_END + catalog.REPORTED_ONLY:
            print(f"  {m.name:<16} {values[m.name]:>16.6g} {m.unit:<6} {m.about}")
    else:
        for m in catalog.PER_LAYER:
            moves = f"  (moves {m.moves})" if m.moves else ""
            print(f"  {m.name:<48} {source[m.name]:>16.6g} {m.unit:<9}{moves}")
        print(f"absent {json.dumps(child['absent'])}")
    for reason in child["reasons"]:
        print(f"failed {reason}")
    print(json.dumps({
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
