"""Invariants of the CLI's reports, checked end to end on written files.

Every check runs ``bend.cli.main`` and ``scripts/run_synthetic_eval.py`` in
this process, except where the invariant is a setting fixed when the
interpreter starts (``PYTHONHASHSEED``, ``OPENBLAS_NUM_THREADS``): then one
fresh process per setting runs every command of the check (``run_commands``).
Each dataset is built once per module and read by the tests that share it.

- The hash seed: every report is the same bytes under seeds 0 and 12345.
- Modes and sources: ``--modes full`` reproduces the all-modes run's full
  entries, and the script's report is the CLI's on the files it wrote.
- Agreement: each ``evaluate`` entry carries what ``bend debias`` reports for
  its vector.
- Meta lines: padding, CR LF endings and blank lines change no report byte.
- The score block: an entry equals the one its query gets alone.
- BLAS threads: reports are the same bytes under one and two threads on a
  target that ties where the threads split its rows.
- Seven values: step 2 equalizes over 7 groups, query by query.
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bend.cli import main
from bend.dataset import SplitSpec, read_dataset, split_reference_target, write_dataset

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_synthetic_eval.py"
spec = importlib.util.spec_from_file_location("run_synthetic_eval", SCRIPT)
synthetic_eval = importlib.util.module_from_spec(spec)
spec.loader.exec_module(synthetic_eval)

MODES = "baseline,step1-only,step2-only,full"
VECTOR = json.dumps([0.25] * 16)
SPLIT = ["--records", "600", "--dim", "16"]  # the 600 x 16 synthetic split


def run_commands(commands: list[list[str]]) -> None:
    """Run each command in this process: ``run_synthetic_eval.py`` when it
    names the script, ``bend`` otherwise. Each must exit 0."""
    for argv in commands:
        if argv[0] == SCRIPT.name:
            assert synthetic_eval.main(argv[1:]) == 0, argv
        else:
            assert main(argv) == 0, argv


def in_fresh_process(env: dict[str, str], commands: list[list[str]]) -> None:
    """``run_commands`` in a new interpreter started with ``env`` set."""
    done = subprocess.run(
        [sys.executable, __file__, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **env},
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr[-3000:]


def synthetic(out: Path, *extra: str) -> Path:
    run_commands([[SCRIPT.name, *SPLIT, *extra, "--out-dir", str(out)]])
    return out


def sources(data: Path) -> list[str]:
    return ["--reference", str(data / "reference" / "manifest.json"),
            "--target", str(data / "target" / "manifest.json")]


def evaluate_args(data: Path, n: int = 100, k: int = 500) -> list[str]:
    """The script's evaluate settings: its --n, --k, --folds and --split-seed."""
    return [*sources(data), "--attribute", "gender", "--n", str(n), "--k", str(k),
            "--seed", "13", "--folds", "5"]


def evaluate(queries: Path, args: list[str], out: Path) -> dict:
    run_commands([["evaluate", str(queries), *args, "--out", str(out)]])
    return json.loads(out.read_text())


def single_queries(data: Path, into: Path) -> list[Path]:
    """Each line of ``data``'s queries file as a queries file of its own."""
    lines = (data / "queries.jsonl").read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        (into / f"alone-{i:02d}.jsonl").write_text(line)
    return [into / f"alone-{i:02d}.jsonl" for i in range(len(lines))]


@pytest.fixture(scope="module")
def split(tmp_path_factory) -> Path:
    return synthetic(tmp_path_factory.mktemp("det"))


@pytest.fixture(scope="module")
def race(tmp_path_factory) -> Path:
    """3 classes x 7 values x 60 records, split 50/50: step 2 equalizes over
    7 groups, the path the paper's race audit takes."""
    work = tmp_path_factory.mktemp("race")
    values = [f"v{i}" for i in range(7)]
    (work / "spec.json").write_text(json.dumps({
        "dim": 24, "seed": 7, "noise": 0.05,
        "attribute": {"name": "race", "values": values},
        "cells": [{"class": f"c{c}", "value": v, "bias": 0.8 - 0.8 * i / 3, "count": 60}
                  for c in range(3) for i, v in enumerate(values)],
        "queries": [{"id": f"q-c{c}", "class": f"c{c}", "align": "v0", "aug_noise": 0.3}
                    for c in range(3)],
    }))
    run_commands([["synth", str(work / "spec.json"), str(work / "all")]])
    table = read_dataset(work / "all" / "manifest.json")
    reference, target = split_reference_target(table, SplitSpec(0.5, 5, 13))
    write_dataset(reference, work / "reference")
    write_dataset(target, work / "target")
    return work


def race_args(work: Path) -> list[str]:
    return [*sources(work), "--attribute", "race", "--n", "20", "--k", "50", "--seed", "13",
            "--folds", "5"]


def test_reports_do_not_depend_on_the_hash_seed(tmp_path, race):
    """Under each seed one process writes the split to the same path, keeps
    the script's report, and runs a prior-scored ``retrieve``, a 4-mode
    ``debias`` of a bare vector (the reference-means path) and the seven-value
    ``evaluate``; every file must be the same bytes."""
    (tmp_path / "uniform-prior.json").write_text('{"male": 0.5, "female": 0.5}')
    data = tmp_path / "det"
    for seed in (0, 12345):
        out = tmp_path / f"seed{seed}"
        out.mkdir()
        in_fresh_process({"PYTHONHASHSEED": str(seed)}, [
            [SCRIPT.name, *SPLIT, "--out-dir", str(data)],
            ["retrieve", "--vector", VECTOR, "--target", str(data / "target" / "manifest.json"),
             "--k", "50", "--attribute", "gender", "--prior", str(tmp_path / "uniform-prior.json"),
             "--out", str(out / "retrieval.json")],
            ["debias", "--vector", VECTOR, "--reference", str(data / "reference" / "manifest.json"),
             "--attribute", "gender", "--modes", MODES, "--out", str(out / "debias.json")],
            ["evaluate", str(race / "all" / "queries.jsonl"), *race_args(race),
             "--out", str(out / "race.json")],
        ])
        for name in ("evaluation.json", "evaluation.csv"):
            shutil.copy(data / name, out / name)
    names = ["debias.json", "evaluation.csv", "evaluation.json", "race.csv", "race.json",
             "retrieval.json"]
    for seed in (0, 12345):
        assert sorted(p.name for p in (tmp_path / f"seed{seed}").iterdir()) == names
    for name in names:
        assert (tmp_path / "seed0" / name).read_bytes() == (tmp_path / "seed12345" / name).read_bytes(), name


def test_modes_full_reproduces_the_all_modes_run_and_the_script_report(split, tmp_path):
    """Both runs read the f32 files the script wrote, with its settings. The
    script's report is the CLI's apart from the source paths in ``config``."""
    every = evaluate(split / "queries.jsonl", evaluate_args(split), tmp_path / "modes-all.json")
    full = evaluate(split / "queries.jsonl", [*evaluate_args(split), "--modes", "full"],
                    tmp_path / "modes-full.json")
    assert [q["modes"]["full"] for q in every["queries"]] == [q["modes"]["full"] for q in full["queries"]]
    assert every["aggregates"]["full"] == full["aggregates"]["full"]
    script = json.loads((split / "evaluation.json").read_text())
    for report in (script, every):
        for key in ("reference", "target", "queries"):
            report["config"].pop(key)
    assert script == every
    assert (split / "evaluation.csv").read_bytes() == (tmp_path / "modes-all.csv").read_bytes()


def test_debias_and_evaluate_agree_on_every_query(split, tmp_path):
    """Without bundled directions every row takes the reference-means path.
    Each evaluate entry must carry what ``bend debias`` reports for its
    vector: subset sizes and every mode's step-2 diagnostics."""
    rows = [json.loads(line) for line in (split / "queries.jsonl").read_text().splitlines()]
    with open(tmp_path / "bare.jsonl", "w") as out:
        for row in rows:
            del row["augmented"], row["generic"]
            out.write(json.dumps(row) + "\n")
            (tmp_path / f"{row['id']}.vector.json").write_text(json.dumps(row["vector"]))
    common = ["--reference", str(split / "reference" / "manifest.json"), "--attribute", "gender",
              "--n", "100", "--modes", MODES]
    entries = evaluate(tmp_path / "bare.jsonl", [
        *common, "--target", str(split / "target" / "manifest.json"), "--k", "500",
        "--seed", "13", "--folds", "5",
    ], tmp_path / "evaluate.json")["queries"]
    run_commands([
        ["debias", "--vector", f"@{tmp_path / row['id']}.vector.json", *common,
         "--out", str(tmp_path / f"{row['id']}.debias.json")]
        for row in rows
    ])
    assert len(entries) == 3
    for entry in entries:
        alone = json.loads((tmp_path / f"{entry['id']}.debias.json").read_text())
        assert alone["augment_source"] == "reference-means", entry["id"]
        assert entry["n_used"] == alone["n_used"], entry["id"]
        assert len(entry["modes"]) == 4
        for mode, got in entry["modes"].items():
            want = alone["modes"][mode]
            for key in ("distance_gap", "lambda", "dropped_columns"):
                assert got[key] == want[key], (entry["id"], mode, key)
            residual = max(want["residuals"], default=None)
            assert got["max_equalization_residual"] == residual, (entry["id"], mode)


def test_reports_do_not_depend_on_how_meta_lines_are_written(split, tmp_path):
    """CR LF endings, space and tab padding around every record and a blank
    line after each send every meta line through ``json.loads``, not the
    decode of a line that is one object from end to end; the reports must
    keep their bytes."""
    data = shutil.copytree(split, tmp_path / "meta")
    for form in ("plain", "padded"):
        if form == "padded":
            for side in ("reference", "target"):
                path = data / side / "meta.jsonl"
                lines = path.read_bytes().decode().splitlines()
                path.write_bytes("".join(f" \t{line}\t \r\n \r\n" for line in lines).encode())
        evaluate(data / "queries.jsonl", evaluate_args(data), tmp_path / f"evaluate-{form}.json")
        run_commands([["retrieve", "--vector", VECTOR, "--target", str(data / "target" / "manifest.json"),
                       "--k", "50", "--attribute", "gender", "--out", str(tmp_path / f"retrieve-{form}.json")]])
    padded = (data / "target" / "meta.jsonl").read_bytes().decode().split("\n")
    assert sum(bool(re.fullmatch(r" \t\{.*\}\t \r", line)) for line in padded) == 300
    for name in ("evaluate-{}.json", "evaluate-{}.csv", "retrieve-{}.json"):
        assert (tmp_path / name.format("plain")).read_bytes() == (tmp_path / name.format("padded")).read_bytes(), name


@pytest.fixture(scope="module")
def blocks(tmp_path_factory) -> Path:
    return synthetic(tmp_path_factory.mktemp("blocks"), "--classes", "6")


@pytest.fixture(scope="module")
def dups(tmp_path_factory) -> Path:
    """With --noise 0 every record of a (class, gender) cell coincides, so
    every ranking meets runs of tied rows, which the band rescores and places
    by ascending id, in both blocks, at either k."""
    return synthetic(tmp_path_factory.mktemp("dups"), "--classes", "6", "--noise", "0")


@pytest.mark.parametrize("k", [50, 250])
@pytest.mark.parametrize("n", [20, 200])
@pytest.mark.parametrize("dataset", ["blocks", "dups"])
def test_evaluate_entries_do_not_depend_on_the_score_block(request, tmp_path, dataset, n, k):
    """6 queries x 4 modes = 24 finals, so a run splits into two blocks of at
    most 4 queries. Each block screens the reference for its step-1 queries
    together, then the target for its (at most 16) finals together; each
    entry must equal the one its query gets alone, in a block of its own.
    With --n 200 each gender group of the 300-record reference is used whole.
    At --k 250 every fold's pool (240 of the 300 target records) is smaller
    than k: each fold entry carries the warning and retrieves its whole pool,
    off one ranking that covers the whole target."""
    data = request.getfixturevalue(dataset)
    args = evaluate_args(data, n, k)
    every = evaluate(data / "queries.jsonl", args, tmp_path / "all.json")["queries"]
    assert len(every) == 6
    for i, (entry, query) in enumerate(zip(every, single_queries(data, tmp_path))):
        alone = evaluate(query, args, tmp_path / f"alone-{i:02d}.json")["queries"]
        assert alone == [entry], (dataset, n, k, entry["id"])
        folds = entry["modes"]["full"]["folds"]
        assert all(("warning" in fold) == (k > fold["pool_size"]) for fold in folds)


@pytest.fixture(scope="module")
def tie_target(tmp_path_factory) -> Path:
    """Rows 1500 and 3000 of a 3001-row target hold one vector under two
    labels. OpenBLAS splits a 3001-row GEMV between two threads near them, so
    a BLAS score there can change its last bits, and the two copies their
    order, with the thread count."""
    work = tmp_path_factory.mktemp("threads")
    rng = np.random.default_rng(5)

    def write(name, rows, labels):
        (work / name).mkdir()
        rows.tofile(work / name / "vectors.f32")
        with open(work / name / "meta.jsonl", "w") as out:
            for i, label in enumerate(labels):
                out.write(json.dumps({"id": f"{name}{i:05d}", "class": f"c{i % 3}",
                                      "attributes": {"gender": label}}) + "\n")
        (work / name / "manifest.json").write_text(json.dumps({
            "dim": 512, "count": len(labels), "dtype": "f32le",
            "vectors_file": "vectors.f32", "meta_file": "meta.jsonl",
            "attributes": [{"name": "gender", "values": ["male", "female"]}],
        }))

    target = rng.standard_normal((3001, 512)).astype("<f4")
    target[3000] = target[1500]
    write("target", target, ["male", "female"] * 1500 + ["female"])
    write("reference", rng.standard_normal((2000, 512)).astype("<f4"), ["male", "female"] * 1000)
    query = target[1500] + 0.5 * np.random.default_rng(1).standard_normal(512)
    (work / "query.json").write_text(json.dumps(query.tolist()))
    with open(work / "queries.jsonl", "w") as out:
        for i, vector in enumerate((target[1500], query)):
            out.write(json.dumps({"id": f"q{i}", "class": "c0", "vector": vector.tolist()}) + "\n")
    return work


def retrieve_tie(data: Path, target: Path, out: Path) -> list[str]:
    return ["retrieve", "--vector", f"@{data / 'query.json'}", "--target", str(target / "manifest.json"),
            "--k", "5", "--out", str(out)]


def test_reports_do_not_depend_on_the_blas_thread_count(tie_target, tmp_path):
    """``retrieve`` and ``evaluate`` under one and two OpenBLAS threads give
    the same bytes. The Gaussian rows are not unit: a table written back holds
    the rows as read, so its copy gives the same bytes and the same report."""
    data, copy = tie_target, tmp_path / "copy"
    write_dataset(read_dataset(data / "target" / "manifest.json"), copy)
    assert (data / "target" / "vectors.f32").read_bytes() == (copy / "vectors.f32").read_bytes()
    for threads in (1, 2):
        in_fresh_process({"OPENBLAS_NUM_THREADS": str(threads)}, [
            retrieve_tie(data, data / "target", tmp_path / f"retrieve-{threads}.json"),
            retrieve_tie(data, copy, tmp_path / f"retrieve-copy-{threads}.json"),
            ["evaluate", str(data / "queries.jsonl"), *sources(data), "--attribute", "gender",
             "--n", "20", "--k", "1", "--out", str(tmp_path / f"evaluate-{threads}.json")],
        ])
    for name in ("retrieve-{}.json", "retrieve-copy-{}.json", "evaluate-{}.json", "evaluate-{}.csv"):
        assert (tmp_path / name.format(1)).read_bytes() == (tmp_path / name.format(2)).read_bytes(), name
    assert (tmp_path / "retrieve-1.json").read_bytes() == (tmp_path / "retrieve-copy-1.json").read_bytes()


def test_a_seven_value_attribute_end_to_end(race, tmp_path):
    """``lambda`` is defined for two groups only; every query's entry is the
    one it gets alone. Its bytes under two hash seeds are checked with the
    other reports, in ``test_reports_do_not_depend_on_the_hash_seed``."""
    every = evaluate(race / "all" / "queries.jsonl", race_args(race), tmp_path / "all.json")["queries"]
    assert len(every) == 3
    for i, (entry, query) in enumerate(zip(every, single_queries(race / "all", tmp_path))):
        full = entry["modes"]["full"]
        assert full["lambda"] is None and len(full["folds"][0]["retrieved_counts"]) == 7
        alone = evaluate(query, race_args(race), tmp_path / f"alone-{i:02d}.json")["queries"]
        assert alone == [entry], entry["id"]


if __name__ == "__main__":
    run_commands(json.loads(sys.argv[1]))
