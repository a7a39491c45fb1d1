import json

import numpy as np
import pytest

from bend.augment import GENDER
from bend.client import EmbeddingEndpoint
from bend.dataset import (
    SplitSpec,
    SynthCell,
    SynthQuerySpec,
    SynthSpec,
    read_dataset,
    split_reference_target,
    synth_generate,
    synth_query_rows,
    write_dataset,
)
from bend.errors import (
    ConfigError,
    DuplicateId,
    MetadataError,
    MissingEndpoint,
)
from bend.pipeline import (
    RunConfig,
    aggregate_csv_lines,
    debias_report_json,
    evaluate,
    load_queries,
    parse_query_row,
    resolve_query,
    run_query_reports,
)
from bend.reference_index import build_index
from bend.reporting import dumps


def small_setup(eps=0.3, seed=42, split_seed=13):
    cells, queries = [], []
    for name, count in (("c0", 200), ("c1", 200)):
        cells.append(SynthCell(name, "male", 0.8, count))
        cells.append(SynthCell(name, "female", -0.8, count))
        queries.append(SynthQuerySpec(f"q-{name}", name, "male", aug_noise=eps))
    spec = SynthSpec(
        dim=16, seed=seed, noise=0.05, space=GENDER,
        cells=tuple(cells), queries=tuple(queries),
    )
    table = synth_generate(spec)
    reference, target = split_reference_target(table, SplitSpec(0.5, 5, split_seed))
    rows = [parse_query_row(r) for r in synth_query_rows(spec)]
    cfg = RunConfig(attribute="gender", n=20, k=80, seed=split_seed, fold_count=5)
    return reference, target, rows, cfg


BUNDLED = {"male": [0.9, 0.1], "female": [0.1, 0.9]}


class TestQueryLoading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text(
            json.dumps({"id": "a", "text": "a photo of a nurse"})
            + "\n"
            + json.dumps({"id": "b", "vector": [1.0, 0.0], "class": "c"})
            + "\n"
        )
        rows = load_queries(path)
        assert rows[0].text == "a photo of a nurse"
        assert rows[1].class_label == "c"
        assert np.allclose(rows[1].vector, [1.0, 0.0])

    def test_duplicate_ids(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text(
            json.dumps({"id": "a", "text": "x"}) + "\n"
            + json.dumps({"id": "a", "text": "y"}) + "\n"
        )
        with pytest.raises(DuplicateId):
            load_queries(path)

    def test_text_and_vector_both_rejected(self):
        with pytest.raises(MetadataError):
            parse_query_row({"id": "a", "text": "x", "vector": [1.0, 0.0]})

    def test_neither_rejected(self):
        with pytest.raises(MetadataError):
            parse_query_row({"id": "a"})

    def test_unknown_schema_rejected(self):
        with pytest.raises(MetadataError):
            parse_query_row({"id": "a", "text": "x", "schema": "bend/999"})

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("vector", ["a", "b"], id="vector"),
            pytest.param(
                "augmented", {"male": [1.0, "x"], "female": [0.0, 1.0]}, id="augmented"
            ),
            pytest.param("vector", [1.0, float("nan")], id="vector-nan"),
            pytest.param("vector", [float("inf"), 0.0], id="vector-inf"),
            pytest.param("vector", [10**400, 0.0], id="vector-huge-int"),
            pytest.param("vector", ["1", "0"], id="vector-numeric-strings"),
            pytest.param("vector", [True, False], id="vector-booleans"),
            pytest.param("vector", [1.0, [0.0]], id="vector-nested"),
            pytest.param(
                "generic", {"male": [1, False], "female": [0.0, 1.0]}, id="generic-boolean"
            ),
            pytest.param(
                "augmented",
                {"male": [1.0, float("-inf")], "female": [0.0, 1.0]},
                id="augmented-neg-inf",
            ),
            pytest.param(
                "generic",
                {"male": [float("nan"), 1.0], "female": [0.0, 1.0]},
                id="generic-nan",
            ),
        ],
    )
    def test_non_numeric_vector_rejected(self, field, value):
        record = {"id": "q", "vector": [1.0, 0.0], field: value}
        with pytest.raises(MetadataError, match="numbers|non-finite"):
            parse_query_row(record)

    @pytest.mark.parametrize("text", [5, ["a photo"], {"a": "photo"}, True])
    def test_non_string_text_rejected(self, text):
        # Not run through str(): 5 is not the text "5".
        with pytest.raises(MetadataError, match="'text' that is not a string") as excinfo:
            parse_query_row({"id": "q", "text": text})
        assert excinfo.value.exit_code == 5

    @pytest.mark.parametrize("label", [["c0"], 1, True])
    def test_non_string_class_rejected(self, label):
        with pytest.raises(MetadataError):
            parse_query_row({"id": "q", "vector": [1.0, 0.0], "class": label})

    def test_integer_vector_accepted(self):
        row = parse_query_row({"id": "q", "vector": [1, 0]})
        assert row.vector.dtype == np.float64
        assert row.vector.tolist() == [1.0, 0.0]

    def test_bundled_vectors_parsed(self):
        row = parse_query_row(
            {
                "id": "a",
                "vector": [1.0, 0.0],
                "augmented": {"male": [0.9, 0.1], "female": [0.1, 0.9]},
            }
        )
        assert set(row.augmented) == {"male", "female"}

    @pytest.mark.parametrize(
        "record",
        [
            pytest.param(
                {"id": "q", "vector": [1.0, 0.0], "generic": BUNDLED}, id="generic-alone"
            ),
            pytest.param({"id": "q", "text": "x", "augmented": BUNDLED}, id="text-augmented"),
            pytest.param({"id": "q", "text": "x", "generic": BUNDLED}, id="text-generic"),
            pytest.param(
                {"id": "q", "text": "x", "augmented": BUNDLED, "generic": BUNDLED},
                id="text-both",
            ),
        ],
    )
    def test_unread_bundled_vectors_rejected(self, record):
        # resolve_query reads 'generic' only beside 'augmented', and neither
        # on a text row; a row carrying them otherwise would drop them silently.
        with pytest.raises(MetadataError, match="'augmented' needs a 'vector'"):
            parse_query_row(record)


class TestResolveQuery:
    def test_vector_with_bundled_augmentation(self):
        reference, _, rows, cfg = small_setup()
        index = build_index(reference)
        resolved = resolve_query(rows[0], GENDER, index, cfg)
        assert not resolved.skipped
        assert np.allclose(
            resolved.augmented["male"], rows[0].augmented["male"], atol=0
        )

    def test_vector_only_falls_back_to_reference_means(self):
        reference, _, rows, cfg = small_setup()
        index = build_index(reference)
        bare = parse_query_row({"id": "bare", "vector": rows[0].vector.tolist()})
        resolved = resolve_query(bare, GENDER, index, cfg)
        assert resolved.augment_source == "reference-means"
        means = index.group_means("gender")
        center = 0.5 * (means["male"] + means["female"])
        assert np.allclose(
            resolved.augmented["male"] - resolved.embedding,
            means["male"] - center,
            atol=1e-12,
        )

    @pytest.mark.parametrize("what", ["augmented", "generic"])
    def test_bundled_directions_naming_an_unknown_value_rejected(self, what):
        reference, target, rows, cfg = small_setup()
        record = {
            "id": "typo",
            "vector": rows[0].vector.tolist(),
            "augmented": {v: x.tolist() for v, x in rows[0].augmented.items()},
            "generic": {v: x.tolist() for v, x in rows[0].generic.items()},
        }
        record[what]["femal"] = record[what]["female"]
        typo = parse_query_row(record)
        with pytest.raises(MetadataError, match=rf"{what} vectors name unknown values \['femal'\]"):
            resolve_query(typo, GENDER, build_index(reference), cfg)
        entries = evaluate([typo, rows[0]], reference, target, cfg)["queries"]
        assert entries[0] == {
            "id": "typo",
            "error": f"MetadataError: query 'typo' {what} vectors name unknown values ['femal']",
        }
        assert "modes" in entries[1]

    def test_text_without_endpoint_rejected(self):
        reference, _, _, cfg = small_setup()
        index = build_index(reference)
        row = parse_query_row({"id": "t", "text": "a photo of a nurse"})
        with pytest.raises(MissingEndpoint):
            resolve_query(row, GENDER, index, cfg)

    def test_text_path_embeds_query_and_prompts(self, embed_stub):
        reference, _, _, cfg = small_setup()
        url = embed_stub(reference.dim)
        cfg = RunConfig(
            attribute="gender", n=20, k=80,
            embed_endpoint=EmbeddingEndpoint(url=url, expected_dim=reference.dim),
        )
        index = build_index(reference)
        row = parse_query_row({"id": "t", "text": "a photo of a nurse"})
        resolved = resolve_query(row, GENDER, index, cfg)
        assert not resolved.skipped
        assert resolved.augmented_texts == {
            "male": "a photo of a male nurse",
            "female": "a photo of a female nurse",
        }
        assert set(resolved.generic) == {"male", "female"}

    def test_attribute_explicit_text_skipped(self, embed_stub):
        reference, _, _, _ = small_setup()
        url = embed_stub(reference.dim)
        cfg = RunConfig(
            attribute="gender",
            embed_endpoint=EmbeddingEndpoint(url=url, expected_dim=reference.dim),
        )
        index = build_index(reference)
        row = parse_query_row({"id": "t", "text": "a photo of a male nurse"})
        resolved = resolve_query(row, GENDER, index, cfg)
        assert resolved.skipped
        reports, subsets = run_query_reports(resolved, index, GENDER, cfg)
        assert subsets is None
        for report in reports.values():
            assert report.step1 is None
            assert report.distance_gap == {"baseline": None, "step1": None, "final": None}
            assert np.allclose(report.final, resolved.embedding)


class TestEvaluate:
    def test_report_shape_and_fold_counts(self):
        reference, target, rows, cfg = small_setup()
        report = evaluate(rows, reference, target, cfg)
        assert report["schema"] == "bend/1"
        assert len(report["fold_sizes"]) == 5
        assert sum(report["fold_sizes"]) == target.count
        for entry in report["queries"]:
            assert "error" not in entry
            for mode in cfg.modes:
                mode_entry = entry["modes"][mode]
                assert len(mode_entry["folds"]) == 5
                assert mode_entry["kl"]["n"] == 5
                # classes are present in the target, so AUC must be computed
                assert mode_entry["worst_group_auc"] is not None

    def test_deterministic_bytes(self):
        reference, target, rows, cfg = small_setup()
        first = dumps(evaluate(rows, reference, target, cfg))
        second = dumps(evaluate(rows, reference, target, cfg))
        assert first == second

    def test_reports_on_a_split_in_memory_equal_those_on_its_files(self, tmp_path):
        # Every table derives its norms from its float32 rows, so a table and
        # its write_dataset/read_dataset copy are one table.
        reference, target, rows, cfg = small_setup()
        stored = [
            read_dataset(write_dataset(table, tmp_path / name))
            for table, name in ((reference, "reference"), (target, "target"))
        ]

        def reports(reference, target):
            index = build_index(reference)
            debiased = []
            for row in rows:
                resolved = resolve_query(row, GENDER, index, cfg)
                reports, subsets = run_query_reports(resolved, index, GENDER, cfg)
                debiased.append(
                    dumps(debias_report_json(resolved, reports, subsets, index, GENDER, cfg))
                )
            return dumps(evaluate(rows, reference, target, cfg)), debiased

        assert reports(reference, target) == reports(*stored)

    def test_error_entry_for_bad_query(self):
        reference, target, rows, cfg = small_setup()
        bad = parse_query_row({"id": "bad", "vector": [1.0, 0.0, 0.0]})
        report = evaluate(rows + [bad], reference, target, cfg)
        entries = {e["id"]: e for e in report["queries"]}
        assert "DimensionMismatch" in entries["bad"]["error"]
        assert "modes" in entries["q-c0"]
        assert report["aggregates"]["full"]["query_count"] == 2

    def test_explicit_prior_used(self):
        reference, target, rows, _ = small_setup()
        cfg = RunConfig(
            attribute="gender", n=20, k=80, seed=13, fold_count=5,
            prior={"male": 0.5, "female": 0.5},
        )
        report = evaluate(rows, reference, target, cfg)
        assert report["prior"] == {"male": 0.5, "female": 0.5}

    @pytest.mark.parametrize(
        "prior",
        [
            pytest.param({"male": 0.7, "female": 0.7}, id="sum"),
            pytest.param({"male": "a", "female": 0.5}, id="non-numeric"),
            pytest.param({"male": 10**400, "female": 0.0}, id="huge-int"),
            pytest.param({"male": float("nan"), "female": 0.5}, id="nan"),
            pytest.param({"male": "0.5", "female": 0.5}, id="numeric-string"),
            pytest.param({"male": True, "female": False}, id="boolean"),
        ],
    )
    def test_bad_prior_rejected(self, prior):
        reference, target, rows, _ = small_setup()
        cfg = RunConfig(attribute="gender", n=20, k=80, prior=prior)
        with pytest.raises(ConfigError):
            evaluate(rows, reference, target, cfg)

    def test_csv_mirror_layout(self):
        reference, target, rows, cfg = small_setup()
        report = evaluate(rows, reference, target, cfg)
        lines = aggregate_csv_lines(report)
        assert lines[0].startswith("mode,query_count,kl_mean")
        assert len(lines) == 1 + len(cfg.modes)
        assert lines[1].split(",")[0] == "baseline"


class TestModeLattice:
    def test_mean_kl_ordering_on_frozen_experiment(self):
        # full <= step2-only and full <= step1-only <= baseline, mirroring
        # the expectation that both steps contribute to bias reduction.
        from experiment_setup import run_acceptance_experiment

        report = run_acceptance_experiment()
        kl = {m: report["aggregates"][m]["kl"]["mean"] for m in report["aggregates"]}
        assert kl["full"] <= kl["step2-only"]
        assert kl["full"] <= kl["step1-only"] <= kl["baseline"]


class TestExternalAugmenterWiring:
    def test_augment_endpoint_used_for_text_queries(self, embed_stub, tmp_path):
        import json as _json
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = _json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                payload = {
                    "augmented": {
                        v: f"external {v} {body['text']}" for v in body["values"]
                    }
                }
                blob = _json.dumps(payload).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(blob)))
                self.end_headers()
                self.wfile.write(blob)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            reference, _, _, _ = small_setup()
            url = embed_stub(reference.dim)
            cfg = RunConfig(
                attribute="gender",
                n=20,
                embed_endpoint=EmbeddingEndpoint(url=url, expected_dim=reference.dim),
                augment_endpoint=f"http://127.0.0.1:{server.server_port}/augment",
            )
            index = build_index(reference)
            row = parse_query_row({"id": "t", "text": "a photo of a welder"})
            resolved = resolve_query(row, GENDER, index, cfg)
            assert resolved.augment_source == "external"
            assert resolved.augmented_texts["male"] == "external male a photo of a welder"
        finally:
            server.shutdown()
            server.server_close()


class TestRunConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attribute": ""},
            {"attribute": "gender", "n": 0},
            {"attribute": "gender", "k": 0},
            {"attribute": "gender", "modes": ()},
            {"attribute": "gender", "modes": ("sideways",)},
            {"attribute": "gender", "fold_count": 0},
            {"attribute": "gender", "fold_count": 1},
            {"attribute": "gender", "modes": ("full", "full")},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)
