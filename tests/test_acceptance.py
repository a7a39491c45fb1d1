"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -rA`` (or ``-s``) to see the
per-criterion verdict lines.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from bend.dataset import MANIFEST_NAME, read_dataset, write_dataset
from bend.equalize import equalize
from bend.metrics import kl_divergence, max_skew, worst_group_auc
from bend.reporting import dumps
from bend.subspace import build_attribute_matrix, orthogonalize
from bend.vectors import normalize

from cosine import cosine_distance
from experiment_setup import run_acceptance_experiment
from numeric_oracle import closed_form_binary, solve_numeric_oracle
from test_dataset import small_table
from test_metrics import brute_force_auc


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def seeded_triples(dim, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        z = normalize(rng.standard_normal(dim))
        mu1 = rng.standard_normal(dim) / math.sqrt(dim)
        mu2 = rng.standard_normal(dim) / math.sqrt(dim)
        yield z, mu1, mu2


@pytest.fixture(scope="module")
def experiment():
    started = time.perf_counter()
    report = run_acceptance_experiment()
    elapsed = time.perf_counter() - started
    return report, elapsed


def test_criterion_1_binary_closed_form_against_oracle():
    with criterion(1, "binary closed form vs numeric oracle"):
        started = time.perf_counter()
        for dim in (8, 512):
            for z, mu1, mu2 in seeded_triples(dim, 500, seed=1000 + dim):
                solution = equalize(z, [mu1, mu2])
                assert abs(np.linalg.norm(solution.z_star) - 1.0) <= 1e-9
                gap = float(mu1 @ solution.z_star) - float(mu2 @ solution.z_star)
                assert abs(gap) <= 1e-8
                oracle = solve_numeric_oracle(z, [mu1, mu2])
                assert cosine_distance(solution.z_star, oracle.z_star) <= 1e-5
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_closed_form_equivalence():
    with criterion(2, "null-space projection matches the binary closed form"):
        for dim in (8, 512):
            for z, mu1, mu2 in seeded_triples(dim, 500, seed=1000 + dim):
                solution = equalize(z, [mu1, mu2])
                lam, z_star = closed_form_binary(z, mu1, mu2)
                assert np.max(np.abs(solution.z_star - z_star)) <= 1e-9
                assert abs(solution.lam - lam) <= 1e-12
        symmetric = equalize(
            normalize([1.0, 2.0, 3.0]), [np.eye(3)[i] for i in range(3)]
        )
        assert np.max(np.abs(symmetric.z_star - np.ones(3) / math.sqrt(3.0))) <= 1e-6


def test_criterion_3_orthogonality_and_idempotence():
    with criterion(3, "step-1 orthogonality and idempotence"):
        for dim in (8, 512):
            rng = np.random.default_rng(3000 + dim)
            for _ in range(100):
                query = normalize(rng.standard_normal(dim))
                k = int(rng.integers(2, 5))
                augmented = {
                    f"v{i}": normalize(rng.standard_normal(dim)) for i in range(k)
                }
                generic = {
                    f"v{i}": normalize(rng.standard_normal(dim)) for i in range(k)
                }
                matrix = build_attribute_matrix(query, augmented, generic)
                out = orthogonalize(query, matrix)
                columns = [augmented[v] - query for v in augmented] + [
                    generic[v] - generic["v0"] for v in list(generic)[1:]
                ]
                for column in columns:
                    norm = float(np.linalg.norm(column))
                    if norm > 1e-12:
                        assert abs(float(out @ column) / norm) <= 1e-6
                again = orthogonalize(out, matrix)
                assert np.max(np.abs(again - out)) <= 1e-8


def test_criterion_4_orthogonalization_alone_is_not_fair():
    with criterion(4, "committed fixture: step 1 biased, full pipeline fair"):
        import json

        from bend.augment import GENDER
        from bend.dataset import LabeledEmbeddingTable
        from bend.equalize import debias
        from bend.reference_index import build_index, top_n_by_attribute

        body = json.loads(
            (Path(__file__).parent / "fixtures" / "orthogonalization_gap_fixture.json").read_text()
        )
        query = np.array(body["query"])
        augmented = {k: np.array(v) for k, v in body["augmented"].items()}
        generic = {k: np.array(v) for k, v in body["generic"].items()}
        male = np.array(body["reference"]["male"])
        female = np.array(body["reference"]["female"])
        table = LabeledEmbeddingTable(
            rows=np.vstack([male, female]),
            ids=tuple(f"r{i:03d}" for i in range(40)),
            attributes={"gender": ("male",) * 20 + ("female",) * 20},
            classes=(None,) * 40,
            spaces={"gender": GENDER},
        )
        matrix = build_attribute_matrix(query, augmented, generic)
        z1 = orthogonalize(query, matrix)
        subsets = top_n_by_attribute(build_index(table), [z1], GENDER, 20)[0]
        step1 = debias(query, matrix, subsets, "step1-only")
        full = debias(query, matrix, subsets, "full")
        assert step1.distance_gap["final"] > 1e-3
        assert full.distance_gap["final"] <= 1e-6
        assert (full.distance_gap["baseline"] > full.distance_gap["step1"]
                > full.distance_gap["final"])


def test_criterion_5_metric_unit_values(rng):
    with criterion(5, "metric unit values"):
        kl = kl_divergence({"a": 0.6, "b": 0.4}, {"a": 0.5, "b": 0.5})
        assert abs(kl - 0.020136) <= 1e-6
        skew = max_skew({"a": 0.6, "b": 0.4}, {"a": 0.5, "b": 0.5})
        assert abs(skew - math.log(1.2)) <= 1e-9
        for _ in range(100):
            size = int(rng.integers(2, 51))
            scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=size)
            labels = rng.integers(0, 2, size=size)
            if labels.sum() in (0, size):
                labels[0] = 1 - labels[0]
            pairs = list(zip(scores.tolist(), labels.tolist()))
            assert worst_group_auc({"g": (scores, labels == 1)}) == brute_force_auc(pairs)


def test_criterion_6_end_to_end_bias_reduction(experiment):
    with criterion(6, "end-to-end bias reduction and ablation ordering"):
        report, elapsed = experiment
        aggregates = report["aggregates"]
        kl = {mode: aggregates[mode]["kl"]["mean"] for mode in aggregates}
        for entry in report["queries"]:
            assert "error" not in entry
            modes = entry["modes"]
            assert modes["baseline"]["max_skew"]["mean"] > 0.2
            assert modes["full"]["max_skew"]["mean"] < 0.05
            assert modes["full"]["kl"]["mean"] < modes["baseline"]["kl"]["mean"]
        assert aggregates["full"]["max_skew"]["mean"] < 0.05
        assert kl["full"] <= kl["step1-only"] <= kl["baseline"]
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_7_determinism(experiment):
    with criterion(7, "byte-identical reports under a fixed seed"):
        report, _ = experiment
        rerun = run_acceptance_experiment()
        assert dumps(report) == dumps(rerun)


def test_criterion_8_io_round_trip(rng, tmp_path):
    with criterion(8, "dataset write/read round trip"):
        table = small_table(rng, count=1000, dim=24)
        write_dataset(table, tmp_path / "ds")
        back = read_dataset(tmp_path / "ds" / MANIFEST_NAME)
        assert back.ids == table.ids
        assert back.attributes == table.attributes
        assert back.classes == table.classes
        assert np.allclose(
            back.unit_rows(slice(None)), table.unit_rows(slice(None)), rtol=1.2e-7, atol=1.2e-7
        )
