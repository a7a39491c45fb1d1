import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bend.cli import main
from bend.dataset import (
    LabeledEmbeddingTable,
    MANIFEST_NAME,
    QUERIES_NAME,
    SplitSpec,
    read_dataset,
    split_reference_target,
    write_dataset,
)
from bend.augment import GENDER

ROOT = Path(__file__).parent.parent


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python ARGS`` from the repository root, in a fresh process."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )


def run_module(*args: str) -> subprocess.CompletedProcess:
    """``python -m bend ARGS`` from the repository root, in a fresh process."""
    return run_python("-m", "bend", *args)


def synth_spec_body(dim=16, seed=42, with_queries=True):
    body = {
        "dim": dim,
        "seed": seed,
        "noise": 0.05,
        "attribute": {"name": "gender", "values": ["male", "female"]},
        "cells": [
            {"class": "c0", "value": "male", "bias": 0.8, "count": 150},
            {"class": "c0", "value": "female", "bias": -0.8, "count": 150},
            {"class": "c1", "value": "male", "bias": 0.8, "count": 150},
            {"class": "c1", "value": "female", "bias": -0.8, "count": 150},
        ],
    }
    if with_queries:
        body["queries"] = [
            {"id": "q-c0", "class": "c0", "align": "male", "aug_noise": 0.3},
            {"id": "q-c1", "class": "c1", "align": "male", "aug_noise": 0.3},
        ]
    return body


@pytest.fixture
def synth_dataset(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(synth_spec_body()))
    out_dir = tmp_path / "data"
    assert main(["synth", str(spec_path), str(out_dir)]) == 0
    return out_dir


@pytest.fixture
def ref_target(tmp_path, synth_dataset):
    table = read_dataset(synth_dataset / MANIFEST_NAME)
    reference, target = split_reference_target(table, SplitSpec(0.5, 5, 13))
    write_dataset(reference, tmp_path / "ref")
    write_dataset(target, tmp_path / "target")
    return tmp_path / "ref" / MANIFEST_NAME, tmp_path / "target" / MANIFEST_NAME


class TestSynth:
    def test_writes_dataset_and_queries(self, synth_dataset):
        assert (synth_dataset / MANIFEST_NAME).exists()
        assert (synth_dataset / QUERIES_NAME).exists()
        table = read_dataset(synth_dataset / MANIFEST_NAME)
        assert table.count == 600

    def test_malformed_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["synth", str(bad), str(tmp_path / "out")]) == 2
        assert "error" in capsys.readouterr().err

    def test_existing_dir_without_force_exits_3(self, tmp_path, synth_dataset):
        spec_path = tmp_path / "spec.json"
        assert main(["synth", str(spec_path), str(synth_dataset)]) == 3
        assert main(["synth", str(spec_path), str(synth_dataset), "--force"]) == 0


class TestDebias:
    def test_vector_query_report(self, ref_target, synth_dataset, tmp_path, capsys):
        ref, _ = ref_target
        row = json.loads((synth_dataset / QUERIES_NAME).read_text().splitlines()[0])
        vec_path = tmp_path / "q.json"
        vec_path.write_text(json.dumps(row["vector"]))
        out = tmp_path / "report.json"
        code = main([
            "debias", "--vector", str(vec_path), "--reference", str(ref),
            "--attribute", "gender", "--n", "20",
            "--modes", "baseline,step1-only,step2-only,full",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "bend/1"
        assert set(report["modes"]) == {"baseline", "step1-only", "step2-only", "full"}
        full = report["modes"]["full"]
        assert len(full["final"]) == 16
        assert full["distance_gap"]["final"] <= 1e-6
        assert report["augment_source"] == "reference-means"

    def test_deterministic_output_bytes(self, ref_target, tmp_path):
        ref, _ = ref_target
        vec = json.dumps([1.0] + [0.0] * 15)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out_a, out_b):
            assert main([
                "debias", "--vector", vec, "--reference", str(ref),
                "--attribute", "gender", "--n", "20", "--out", str(out),
            ]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_text_without_endpoint_exits_4(self, ref_target, capsys):
        ref, _ = ref_target
        code = main([
            "debias", "--text", "a photo of a nurse",
            "--reference", str(ref), "--attribute", "gender",
        ])
        assert code == 4

    def test_attribute_explicit_text_passthrough(self, ref_target, embed_stub,
                                                 tmp_path):
        ref, _ = ref_target
        url = embed_stub(16)
        out = tmp_path / "skip.json"
        code = main([
            "debias", "--text", "a photo of a male nurse",
            "--reference", str(ref), "--attribute", "gender",
            "--embed-endpoint", url, "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["skipped"] is True
        assert report["modes"]["full"]["final"] == report["modes"]["full"]["baseline"]

    def test_text_query_with_stub(self, ref_target, embed_stub, tmp_path):
        ref, _ = ref_target
        url = embed_stub(16)
        out = tmp_path / "text.json"
        code = main([
            "debias", "--text", "a photo of a nurse",
            "--reference", str(ref), "--attribute", "gender",
            "--n", "20", "--embed-endpoint", url, "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["augmented_texts"]["male"] == "a photo of a male nurse"
        assert report["skipped"] is False

    def test_degenerate_reference_exits_6(self, tmp_path):
        # identical vectors for both groups: attribute directions vanish
        vectors = np.tile(np.array([[1.0, 0.0, 0.0, 0.0]]), (6, 1))
        table = LabeledEmbeddingTable(
            rows=vectors,
            ids=tuple(f"r{i}" for i in range(6)),
            attributes={"gender": ("male", "female") * 3},
            classes=(None,) * 6,
            spaces={"gender": GENDER},
        )
        write_dataset(table, tmp_path / "flat")
        code = main([
            "debias", "--vector", json.dumps([0.0, 1.0, 0.0, 0.0]),
            "--reference", str(tmp_path / "flat" / MANIFEST_NAME),
            "--attribute", "gender",
        ])
        assert code == 6


class TestRetrieve:
    def test_counts_and_k_clamp(self, ref_target, tmp_path):
        _, target = ref_target
        out = tmp_path / "retrieval.json"
        code = main([
            "retrieve", "--vector", json.dumps([1.0] + [0.0] * 15),
            "--target", str(target), "--k", "1000", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["returned"] == 300
        assert report["warnings"]
        assert sum(report["counts"]["gender"].values()) == 300

    def test_prior_metrics(self, ref_target, tmp_path):
        _, target = ref_target
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"male": 0.5, "female": 0.5}))
        out = tmp_path / "retrieval.json"
        code = main([
            "retrieve", "--vector", json.dumps([1.0] + [0.0] * 15),
            "--target", str(target), "--k", "50",
            "--attribute", "gender", "--prior", str(prior),
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report["metrics"]) == {"kl", "max_skew"}

    def test_support_violation_exit_5(self, ref_target, tmp_path):
        _, target = ref_target
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"male": 1.0, "female": 0.0}))
        code = main([
            "retrieve", "--vector", json.dumps([0.0, 1.0] + [0.0] * 14),
            "--target", str(target), "--k", "280",
            "--attribute", "gender", "--prior", str(prior),
        ])
        assert code == 5


class TestEvaluate:
    def test_end_to_end_with_csv(self, ref_target, synth_dataset, tmp_path):
        ref, target = ref_target
        out = tmp_path / "eval.json"
        code = main([
            "evaluate", str(synth_dataset / QUERIES_NAME),
            "--reference", str(ref), "--target", str(target),
            "--attribute", "gender", "--n", "20", "--k", "80",
            "--seed", "13", "--folds", "5", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert {e["id"] for e in report["queries"]} == {"q-c0", "q-c1"}
        csv_lines = (tmp_path / "eval.csv").read_text().splitlines()
        assert len(csv_lines) == 5  # header + 4 modes

    def test_duplicate_query_ids_exit_5(self, ref_target, tmp_path):
        ref, target = ref_target
        queries = tmp_path / "dup.jsonl"
        queries.write_text(
            json.dumps({"id": "a", "vector": [1.0] + [0.0] * 15}) + "\n"
            + json.dumps({"id": "a", "vector": [0.0, 1.0] + [0.0] * 14}) + "\n"
        )
        code = main([
            "evaluate", str(queries), "--reference", str(ref),
            "--target", str(target), "--attribute", "gender",
        ])
        assert code == 5

    def test_all_failed_queries_exit_5(self, ref_target, tmp_path, capsys):
        ref, target = ref_target
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps({"id": "t", "text": "a photo of a welder"}) + "\n")
        code = main([
            "evaluate", str(queries), "--reference", str(ref),
            "--target", str(target), "--attribute", "gender",
            "--n", "20", "--k", "80",
        ])
        assert code == 5
        assert "MissingEndpoint" in capsys.readouterr().err


class TestEndpointEnvVar:
    def test_env_var_supplies_endpoint(self, ref_target, embed_stub, tmp_path,
                                       monkeypatch):
        ref, _ = ref_target
        monkeypatch.setenv("BEND_EMBED_ENDPOINT", embed_stub(16))
        out = tmp_path / "env.json"
        code = main([
            "debias", "--text", "a photo of a welder",
            "--reference", str(ref), "--attribute", "gender",
            "--n", "20", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["skipped"] is False

    def test_flag_wins_over_env_var(self, ref_target, embed_stub, monkeypatch):
        ref, _ = ref_target
        monkeypatch.setenv("BEND_EMBED_ENDPOINT", "http://127.0.0.1:1/dead")
        code = main([
            "debias", "--text", "a photo of a welder",
            "--reference", str(ref), "--attribute", "gender",
            "--n", "20", "--embed-endpoint", embed_stub(16),
        ])
        assert code == 0


class TestModuleInvocation:
    def test_python_dash_m_help(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert "synth" in proc.stdout and "evaluate" in proc.stdout

    def test_http_client_is_the_standard_library(self):
        proc = run_python(
            "-c", "import bend.cli, sys; assert 'requests' not in sys.modules"
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "flag, value, error",
        [
            pytest.param("--folds", "1", "ConfigError", id="one-fold"),
            pytest.param("--classes", "0", "SynthSpecError", id="no-class"),
        ],
    )
    def test_synthetic_eval_script_rejects_settings_before_writing(
        self, tmp_path, flag, value, error
    ):
        out_dir = tmp_path / "out"
        proc = run_python(
            "scripts/run_synthetic_eval.py", "--records", "600", "--dim", "16",
            flag, value, "--out-dir", str(out_dir),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {error}")
        assert "Traceback" not in proc.stderr
        assert not out_dir.exists()


class TestBoundaryErrors:
    def test_non_object_metadata_line_exits_5(self, ref_target):
        _, target = ref_target
        meta_path = target.parent / "meta.jsonl"
        lines = meta_path.read_text().splitlines()
        lines[0] = json.dumps(["not", "an", "object"])
        meta_path.write_text("\n".join(lines) + "\n")
        proc = run_module(
            "retrieve", "--vector", json.dumps([1.0] + [0.0] * 15),
            "--target", str(target),
        )
        assert proc.returncode == 5
        assert "MetadataError" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["retrieve", "evaluate"])
    def test_non_finite_query_vector_exits_5(self, ref_target, tmp_path, command):
        ref, target = ref_target
        vector = json.dumps([float("inf")] + [0.0] * 15)
        if command == "retrieve":
            args = ["retrieve", "--vector", vector, "--target", str(target)]
            expected = "NonFiniteValue: query vector"
        else:
            queries = tmp_path / "q.jsonl"
            queries.write_text(json.dumps({"id": "q", "vector": [float("nan")] * 16}) + "\n")
            args = ["evaluate", str(queries), "--reference", str(ref),
                    "--target", str(target), "--attribute", "gender"]
            expected = "MetadataError"
        proc = run_module(*args)
        assert proc.returncode == 5
        assert expected in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_numeric_query_vector_exits_5(self, ref_target, tmp_path):
        ref, target = ref_target
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps({"id": "q", "vector": ["a", "b"] * 8}) + "\n")
        proc = run_module(
            "evaluate", str(queries), "--reference", str(ref),
            "--target", str(target), "--attribute", "gender",
        )
        assert proc.returncode == 5
        assert "MetadataError" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "row",
        [
            pytest.param(
                {"id": "q", "vector": [1.0] + [0.0] * 15,
                 "generic": {"male": [1.0] * 16, "female": [0.5] * 16}},
                id="generic-without-augmented",
            ),
            pytest.param(
                {"id": "q", "text": "a photo of a nurse",
                 "augmented": {"male": [1.0] * 16, "female": [0.5] * 16}},
                id="text-with-augmented",
            ),
        ],
    )
    def test_unread_bundled_vectors_exit_5(self, ref_target, tmp_path, row):
        ref, target = ref_target
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps(row) + "\n")
        proc = run_module(
            "evaluate", str(queries), "--reference", str(ref),
            "--target", str(target), "--attribute", "gender",
        )
        assert proc.returncode == 5
        assert "MetadataError" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["debias", "evaluate"])
    def test_ablation_flags_are_gone(self, ref_target, synth_dataset, tmp_path, command):
        ref, target = ref_target
        if command == "debias":
            args = ["debias", "--vector", json.dumps([1.0] + [0.0] * 15),
                    "--reference", str(ref), "--attribute", "gender", "--n", "20"]
        else:
            args = ["evaluate", str(synth_dataset / QUERIES_NAME), "--reference", str(ref),
                    "--target", str(target), "--attribute", "gender", "--n", "20",
                    "--k", "80"]
        out = tmp_path / "report.json"
        for flag in ("--subset-by", "--generic-columns"):
            proc = run_module(*args, flag, "raw", "--out", str(out))
            assert proc.returncode == 2
            assert "unrecognized arguments" in proc.stderr
            assert "Traceback" not in proc.stderr
            assert not out.exists()
        assert main([*args, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        echo = report["config"] if command == "evaluate" else report
        assert (echo["subset_by"], echo["generic_columns"]) == ("step1", "diff")

    def test_retrieve_takes_no_query_id_class_or_augmenter(self, ref_target, tmp_path):
        _, target = ref_target
        args = ["retrieve", "--vector", json.dumps([1.0] + [0.0] * 15),
                "--target", str(target), "--k", "10"]
        out = tmp_path / "report.json"
        for flag in ("--query-id", "--query-class", "--augment-endpoint"):
            proc = run_module(*args, flag, "x", "--out", str(out))
            assert proc.returncode == 2
            assert "unrecognized arguments" in proc.stderr
            assert "Traceback" not in proc.stderr
            assert not out.exists()
        assert main([*args, "--out", str(out)]) == 0

    def test_wrong_dimension_vector_exits_5(self, ref_target):
        _, target = ref_target
        proc = run_module("retrieve", "--vector", "[1.0, 0.0]", "--target", str(target))
        assert proc.returncode == 5
        assert "DimensionMismatch" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "case, code, expected",
        [
            ("vector-huge-int", 2, "ConfigError"),
            ("vector-numeric-strings", 2, "ConfigError"),
            ("vector-booleans", 2, "ConfigError"),
            ("queries-huge-int", 5, "MetadataError"),
            ("queries-numeric-strings", 5, "MetadataError"),
            ("queries-booleans", 5, "MetadataError"),
            ("prior-non-numeric", 2, "ConfigError"),
            ("prior-nan", 2, "ConfigError"),
            ("prior-numeric-string", 2, "ConfigError"),
            ("prior-boolean", 2, "ConfigError"),
        ],
    )
    def test_bad_number_exits_cleanly(self, ref_target, tmp_path, case, code, expected):
        ref, target = ref_target
        vectors = {
            "huge-int": "[1" + "0" * 400 + ", 0.0" * 15 + "]",
            "numeric-strings": json.dumps(["1"] + ["0"] * 15),
            "booleans": json.dumps([True] + [False] * 15),
        }
        priors = {
            "non-numeric": '"a"',
            "nan": "NaN",
            "numeric-string": '"0.5"',
            "boolean": "true",
        }
        where, _, bad = case.partition("-")
        if where == "vector":
            args = ["retrieve", "--vector", vectors[bad], "--target", str(target)]
        elif where == "queries":
            queries = tmp_path / "q.jsonl"
            queries.write_text(f'{{"id": "q", "vector": {vectors[bad]}}}\n')
            args = ["evaluate", str(queries), "--reference", str(ref),
                    "--target", str(target), "--attribute", "gender"]
        else:
            prior = tmp_path / "prior.json"
            prior.write_text(f'{{"male": {priors[bad]}, "female": 0.5}}')
            args = ["retrieve", "--vector", json.dumps([1.0] + [0.0] * 15),
                    "--target", str(target), "--attribute", "gender",
                    "--prior", str(prior)]
        proc = run_module(*args)
        assert proc.returncode == code
        assert expected in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_wrong_attribute_type_in_synth_spec_exits_2(self, tmp_path):
        body = synth_spec_body()
        body["attribute"]["insertion_terms"] = {"male": 5, "female": "female"}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(body))
        proc = run_module("synth", str(spec), str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "ConfigError" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "row",
        [
            pytest.param([1.0, [2.0]] + [0.0] * 14, id="ragged"),
            pytest.param(["a"] * 16, id="non-numeric"),
            pytest.param([10**400] + [0.0] * 15, id="huge-int"),
            pytest.param(["1"] + ["0"] * 15, id="numeric-strings"),
            pytest.param([True] + [False] * 15, id="booleans"),
        ],
    )
    def test_malformed_embedding_exits_5(self, ref_target, embed_stub, tmp_path, row):
        ref, target = ref_target
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps({"id": "t", "text": "a photo of a welder"}) + "\n")
        proc = run_module(
            "evaluate", str(queries), "--reference", str(ref),
            "--target", str(target), "--attribute", "gender",
            "--embed-endpoint", embed_stub(16, row),
        )
        assert proc.returncode == 5
        assert "MalformedResponse" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["debias", "retrieve", "evaluate"])
    def test_out_into_missing_directory_exits_3(
        self, ref_target, synth_dataset, tmp_path, command
    ):
        ref, target = ref_target
        out = str(tmp_path / "missing" / "report.json")
        vector = json.dumps([1.0] + [0.0] * 15)
        args = {
            "debias": ["--vector", vector, "--reference", str(ref),
                       "--attribute", "gender", "--n", "20"],
            "retrieve": ["--vector", vector, "--target", str(target), "--k", "5"],
            "evaluate": [str(synth_dataset / QUERIES_NAME), "--reference", str(ref),
                         "--target", str(target), "--attribute", "gender",
                         "--n", "20", "--k", "20"],
        }[command]
        proc = run_module(command, *args, "--out", out)
        assert proc.returncode == 3
        assert "DatasetIOError" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unwritable_evaluate_csv_exits_3(self, ref_target, synth_dataset, tmp_path):
        ref, target = ref_target
        (tmp_path / "report.csv").mkdir()
        proc = run_module(
            "evaluate", str(synth_dataset / QUERIES_NAME), "--reference", str(ref),
            "--target", str(target), "--attribute", "gender", "--n", "20",
            "--k", "20", "--out", str(tmp_path / "report.json"),
        )
        assert proc.returncode == 3
        assert "DatasetIOError" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_synth_into_regular_file_exits_3(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(synth_spec_body()))
        out = tmp_path / "taken"
        out.write_text("not a directory")
        proc = run_module("synth", str(spec), str(out))
        assert proc.returncode == 3
        assert "DatasetIOError" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_directory_as_target_manifest_exits_3(self, tmp_path):
        proc = run_module(
            "retrieve", "--vector", json.dumps([1.0] + [0.0] * 15),
            "--target", str(tmp_path),
        )
        assert proc.returncode == 3
        assert "DatasetIOError" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_directory_as_synth_spec_exits_3(self, tmp_path):
        proc = run_module("synth", str(tmp_path), str(tmp_path / "out"))
        assert proc.returncode == 3
        assert "DatasetIOError" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("where", ["meta", "queries"])
    def test_non_utf8_text_exits_5(self, ref_target, synth_dataset, tmp_path, where):
        ref, target = ref_target
        queries = synth_dataset / QUERIES_NAME
        if where == "meta":
            meta = target.parent / "meta.jsonl"
            meta.write_bytes(meta.read_bytes().replace(b'"id": "', b'"id": "\xff', 1))
        else:
            queries = tmp_path / "q.jsonl"
            queries.write_bytes(b'{"id": "q\xff", "vector": [1.0, 0.0]}\n')
        proc = run_module(
            "evaluate", str(queries), "--reference", str(ref),
            "--target", str(target), "--attribute", "gender",
        )
        assert proc.returncode == 5
        assert "MetadataError" in proc.stderr and "UTF-8" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_zero_embed_timeout_exits_2(self, ref_target):
        _, target = ref_target
        proc = run_module(
            "retrieve", "--text", "a photo of a welder", "--target", str(target),
            "--embed-endpoint", "http://127.0.0.1:9/embed", "--embed-timeout-ms", "0",
        )
        assert proc.returncode == 2
        assert "ConfigError" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("verb", ["debias", "retrieve", "evaluate"])
    @pytest.mark.parametrize("timeout", ["0", "-5"])
    def test_non_positive_embed_timeout_exits_2_without_an_endpoint(
        self, ref_target, synth_dataset, tmp_path, monkeypatch, capsys, verb, timeout
    ):
        monkeypatch.delenv("BEND_EMBED_ENDPOINT", raising=False)
        ref, target = ref_target
        vector = json.dumps([1.0] + [0.0] * 15)
        args = {
            "debias": ["debias", "--vector", vector, "--reference", str(ref),
                       "--attribute", "gender"],
            "retrieve": ["retrieve", "--vector", vector, "--target", str(target)],
            "evaluate": ["evaluate", str(synth_dataset / QUERIES_NAME),
                         "--reference", str(ref), "--target", str(target),
                         "--attribute", "gender"],
        }[verb]
        out = tmp_path / "out.json"
        assert main(args + ["--embed-timeout-ms", timeout, "--out", str(out)]) == 2
        assert "ConfigError: the embedding timeout must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("with_prior", [False, True])
    def test_retrieve_undeclared_attribute_exits_2(
        self, ref_target, tmp_path, capsys, with_prior
    ):
        _, target = ref_target
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"male": 0.5, "female": 0.5}))
        out = tmp_path / "retrieval.json"
        args = [
            "retrieve", "--vector", json.dumps([1.0] + [0.0] * 15),
            "--target", str(target), "--attribute", "genderr", "--out", str(out),
        ]
        assert main(args + (["--prior", str(prior)] if with_prior else [])) == 2
        err = capsys.readouterr().err
        assert "ConfigError: attribute 'genderr' is not declared in the dataset" in err
        assert not out.exists()

    def test_negative_evaluate_seed_exits_2(self, ref_target, synth_dataset):
        ref, target = ref_target
        proc = run_module(
            "evaluate", str(synth_dataset / QUERIES_NAME), "--reference", str(ref),
            "--target", str(target), "--attribute", "gender", "--seed", "-1",
        )
        assert proc.returncode == 2
        assert "ConfigError" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "flag, value", [("--folds", "1"), ("--modes", "full,full"), ("--modes", " , ")],
        ids=["one-fold", "repeated-mode", "no-mode"],
    )
    def test_unusable_evaluate_config_exits_2(
        self, ref_target, synth_dataset, tmp_path, flag, value
    ):
        ref, target = ref_target
        out = tmp_path / "eval.json"
        proc = run_module(
            "evaluate", str(synth_dataset / QUERIES_NAME), "--reference", str(ref),
            "--target", str(target), "--attribute", "gender", flag, value,
            "--out", str(out),
        )
        assert proc.returncode == 2
        assert "ConfigError" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists() and not out.with_suffix(".csv").exists()

    def test_negative_synth_seed_exits_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**synth_spec_body(), "seed": -1}))
        proc = run_module("synth", str(spec), str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "SynthSpecError" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "verb, flags",
        [("debias", ["--modes", "bogus"]), ("retrieve", ["--k", "0"]),
         ("evaluate", ["--n", "0"]),
         # The CSV written beside the report would replace it.
         ("evaluate", ["--out", "report.csv"])],
        ids=["debias", "retrieve", "evaluate", "evaluate-out-csv"],
    )
    def test_bad_flag_exits_2_before_loading_any_table(self, tmp_path, capsys, verb, flags):
        missing = str(tmp_path / "missing" / MANIFEST_NAME)
        vector = json.dumps([1.0] + [0.0] * 15)
        args = {
            "debias": ["debias", "--vector", vector, "--reference", missing,
                       "--attribute", "gender"],
            "retrieve": ["retrieve", "--vector", vector, "--target", missing],
            "evaluate": ["evaluate", str(tmp_path / "missing.jsonl"), "--reference", missing,
                         "--target", missing, "--attribute", "gender"],
        }[verb]
        assert main(args + flags) == 2
        assert "ConfigError" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "verb, flags, code, message",
        [
            ("debias", ["--vector", '[1.0, "x"]'], 2, "ConfigError: query vector"),
            ("debias", ["--embed-timeout-ms", "0"], 2, "ConfigError: the embedding timeout"),
            ("retrieve", ["--vector", "[1.0, NaN]"], 5, "NonFiniteValue"),
            ("retrieve", ["--prior", "BAD_JSON"], 2, "ConfigError: prior file"),
            ("retrieve", ["--prior", "MISSING"], 3, "DatasetIOError: cannot read prior file"),
            ("evaluate", ["--embed-timeout-ms", "-1"], 2, "ConfigError: the embedding timeout"),
            ("evaluate", ["--prior", "MISSING"], 3, "DatasetIOError: cannot read prior file"),
        ],
        ids=["debias-vector", "debias-timeout", "retrieve-vector", "retrieve-prior-json",
             "retrieve-prior-missing", "evaluate-timeout", "evaluate-prior-missing"],
    )
    def test_bad_input_flag_is_reported_before_loading_any_table(
        self, tmp_path, capsys, verb, flags, code, message
    ):
        # Every table is missing too, which would exit 3 naming a manifest.
        missing = str(tmp_path / "missing" / MANIFEST_NAME)
        (tmp_path / "bad.json").write_text("{not json")
        files = {"BAD_JSON": str(tmp_path / "bad.json"), "MISSING": str(tmp_path / "no.json")}
        flags = [files.get(flag, flag) for flag in flags]
        vector = [] if "--vector" in flags else ["--vector", json.dumps([1.0] + [0.0] * 15)]
        args = {
            "debias": ["debias", "--reference", missing, "--attribute", "gender", *vector],
            "retrieve": ["retrieve", "--target", missing, "--attribute", "gender", *vector],
            "evaluate": ["evaluate", str(tmp_path / "missing.jsonl"), "--reference", missing,
                         "--target", missing, "--attribute", "gender"],
        }[verb]
        assert main(args + flags) == code
        assert message in capsys.readouterr().err
