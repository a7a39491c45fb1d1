"""The debias operation across its ablation modes, pinned on the committed
biased-query fixture."""

import json
from pathlib import Path

import numpy as np
import pytest

from bend.augment import GENDER
from bend.dataset import LabeledEmbeddingTable
from bend.equalize import debias
from bend.errors import ConfigError
from bend.metrics import group_distance_gap
from bend.reference_index import build_index, top_n_by_attribute
from bend.subspace import build_attribute_matrix, orthogonalize

FIXTURE = Path(__file__).parent / "fixtures" / "orthogonalization_gap_fixture.json"


@pytest.fixture(scope="module")
def fixture():
    body = json.loads(FIXTURE.read_text())
    query = np.array(body["query"], dtype=np.float64)
    augmented = {k: np.array(v) for k, v in body["augmented"].items()}
    generic = {k: np.array(v) for k, v in body["generic"].items()}
    male = np.array(body["reference"]["male"])
    female = np.array(body["reference"]["female"])
    vectors = np.vstack([male, female])
    table = LabeledEmbeddingTable(
        rows=vectors,
        ids=tuple(f"r{i:03d}" for i in range(vectors.shape[0])),
        attributes={"gender": ("male",) * male.shape[0] + ("female",) * female.shape[0]},
        classes=(None,) * vectors.shape[0],
        spaces={"gender": GENDER},
    )
    return query, augmented, generic, table


@pytest.fixture(scope="module")
def pipeline_pieces(fixture):
    query, augmented, generic, table = fixture
    matrix = build_attribute_matrix(query, augmented, generic)
    index = build_index(table)
    z1 = orthogonalize(query, matrix)
    subsets = top_n_by_attribute(index, [z1], GENDER, 20)[0]
    return query, matrix, subsets


class TestModes:
    def test_baseline_is_identity(self, pipeline_pieces):
        query, matrix, subsets = pipeline_pieces
        report = debias(query, matrix, subsets, "baseline")
        assert np.allclose(report.final, query, atol=1e-12)
        assert report.step1 is None
        assert report.lam is None

    def test_step1_only_matches_orthogonalize(self, pipeline_pieces):
        query, matrix, subsets = pipeline_pieces
        report = debias(query, matrix, subsets, "step1-only")
        assert np.allclose(report.final, orthogonalize(query, matrix), atol=1e-12)
        assert report.distance_gap["step1"] == report.distance_gap["final"]

    def test_step2_only_equalizes_raw_query(self, pipeline_pieces):
        query, matrix, subsets = pipeline_pieces
        report = debias(query, matrix, subsets, "step2-only")
        assert report.step1 is None
        assert report.lam is not None
        assert max(report.residuals) <= 1e-8

    def test_full_runs_both_steps(self, pipeline_pieces):
        query, matrix, subsets = pipeline_pieces
        report = debias(query, matrix, subsets, "full")
        assert report.step1 is not None
        assert abs(np.linalg.norm(report.final) - 1.0) < 1e-9
        assert max(report.residuals) <= 1e-8

    def test_unknown_mode_rejected(self, pipeline_pieces):
        query, matrix, subsets = pipeline_pieces
        with pytest.raises(ConfigError):
            debias(query, matrix, subsets, "sideways")


class TestOrthogonalizationGap:
    def test_orthogonalization_alone_is_not_fair(self, pipeline_pieces):
        # The pinned regression point: removing the local attribute subspace
        # leaves a group-distance gap well above fair.
        query, matrix, subsets = pipeline_pieces
        report = debias(query, matrix, subsets, "step1-only")
        assert report.distance_gap["final"] > 0.01

    def test_stage_gap_strictly_decreasing(self, pipeline_pieces):
        query, matrix, subsets = pipeline_pieces
        report = debias(query, matrix, subsets, "full")
        assert report.distance_gap["baseline"] > report.distance_gap["step1"] > report.distance_gap["final"]
        assert report.distance_gap["final"] <= 1e-6

    def test_pinned_values(self, pipeline_pieces):
        query, matrix, subsets = pipeline_pieces
        report = debias(query, matrix, subsets, "full")
        # The fixture's float64 reference rows are stored as float32 rows,
        # each with its float64 norm.
        assert report.distance_gap["baseline"] == pytest.approx(0.24924094878188596, abs=1e-9)
        assert report.distance_gap["step1"] == pytest.approx(0.10191845998441929, abs=1e-9)

    def test_feasibility_transfers_to_group_gap(self, pipeline_pieces):
        # Cross-module contract: equalization feasibility means the group
        # distance gap over the equalization subsets is numerically zero.
        query, matrix, subsets = pipeline_pieces
        report = debias(query, matrix, subsets, "full")
        assert group_distance_gap(report.final, subsets.means) <= 1e-8
