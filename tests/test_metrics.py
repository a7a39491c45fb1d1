import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bend.augment import attribute_space
from bend.errors import (
    DegenerateGroup,
    EmptyGroup,
    EmptyRetrieval,
    SupportViolation,
)
from bend.metrics import (
    group_distance_gap,
    empirical_distribution,
    kl_divergence,
    max_skew,
    worst_group_auc,
)
from bend.vectors import normalize
from cosine import cosine_distance

PAIR = attribute_space("group", ("a", "b"))


def brute_force_auc(pairs):
    """Oracle: count concordant pairs directly, ties worth one half."""
    positives = [s for s, label in pairs if label]
    negatives = [s for s, label in pairs if not label]
    total = 0.0
    for p in positives:
        for n in negatives:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(positives) * len(negatives))


def auc_inputs(pairs):
    """(score, label) pairs as the (scores, positive) arrays of one group."""
    return np.array([s for s, _ in pairs]), np.array([bool(l) for _, l in pairs])


class TestCcfDistance:
    def test_symmetric_orthogonality(self):
        z = np.array([0.0, 0.0, 1.0])
        means = {"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}
        assert group_distance_gap(z, means) == pytest.approx(0.0, abs=1e-12)

    def test_aligned_versus_orthogonal(self):
        z = np.array([1.0, 0.0, 0.0])
        means = {"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}
        assert group_distance_gap(z, means) == pytest.approx(1.0, abs=1e-12)

    def test_three_groups_takes_worst_pair(self):
        z = np.array([1.0, 0.0, 0.0])
        means = {
            "a": [1.0, 0.0, 0.0],   # distance 0
            "b": [0.0, 1.0, 0.0],   # distance 1
            "c": [-1.0, 0.0, 0.0],  # distance 2
        }
        assert group_distance_gap(z, means) == pytest.approx(2.0, abs=1e-12)

    def test_empty_group_rejected(self):
        with pytest.raises(EmptyGroup):
            group_distance_gap(np.array([1.0, 0.0]), {"a": [1.0, 0.0], "b": []})


GAP_DIM = 4
# Small integer coordinates make repeated rows and tied similarities common.
quantized_row = st.lists(st.integers(-2, 2), min_size=GAP_DIM, max_size=GAP_DIM)
real_row = st.lists(st.floats(-1.0, 1.0), min_size=GAP_DIM, max_size=GAP_DIM)


def unit_rows(raw_rows):
    rows = np.array(raw_rows, dtype=np.float64)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def per_row_distance_gap(z, groups):
    """The definition the mean-based gap replaced: per-group averages of
    per-row cosine distances, worst pairwise difference."""
    mean_dists = [np.mean([cosine_distance(z, row) for row in rows]) for rows in groups]
    return max(abs(a - b) for a, b in itertools.combinations(mean_dists, 2))


@st.composite
def gap_case(draw, row, count):
    nonzero = row.filter(lambda r: np.linalg.norm(r) > 1e-3)
    groups = [
        unit_rows(draw(st.lists(nonzero, min_size=1, max_size=6))) for _ in range(count)
    ]
    return normalize(draw(nonzero)), groups


class TestDistanceGapDifferential:
    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("row", [quantized_row, real_row], ids=["quantized", "real"])
    @given(data=st.data())
    def test_matches_per_row_definition(self, count, row, data):
        z, groups = data.draw(gap_case(row, count))
        means = {f"g{i}": rows.mean(axis=0) for i, rows in enumerate(groups)}
        expected = per_row_distance_gap(z, groups)
        assert abs(group_distance_gap(z, means) - expected) <= 1e-12


class TestKlDivergence:
    def test_identical_distributions(self):
        p = {"a": 0.5, "b": 0.5}
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_value(self):
        # 0.6*ln(1.2) + 0.4*ln(0.8)
        expected = 0.6 * math.log(1.2) + 0.4 * math.log(0.8)
        got = kl_divergence({"a": 0.6, "b": 0.4}, {"a": 0.5, "b": 0.5})
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.020136, abs=1e-6)

    def test_collapsed_distribution(self):
        got = kl_divergence({"a": 1.0, "b": 0.0}, {"a": 0.5, "b": 0.5})
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_support_violation(self):
        with pytest.raises(SupportViolation):
            kl_divergence({"a": 0.5, "b": 0.5}, {"a": 1.0, "b": 0.0})

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
    )
    def test_gibbs_inequality(self, raw_p, raw_q):
        keys = ("a", "b", "c")
        p = dict(zip(keys, np.array(raw_p) / np.sum(raw_p)))
        q = dict(zip(keys, np.array(raw_q) / np.sum(raw_q)))
        kl = kl_divergence(p, q)
        assert kl >= -1e-12
        if all(abs(p[k] - q[k]) < 1e-12 for k in keys):
            assert kl < 1e-9


class TestMaxSkew:
    def test_identical_distributions(self):
        p = {"a": 0.5, "b": 0.5}
        assert max_skew(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_value(self):
        got = max_skew({"a": 0.6, "b": 0.4}, {"a": 0.5, "b": 0.5})
        assert got == pytest.approx(math.log(1.2), abs=1e-9)

    def test_zero_mass_values_excluded(self):
        got = max_skew({"a": 1.0, "b": 0.0}, {"a": 0.5, "b": 0.5})
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_support_violation(self):
        with pytest.raises(SupportViolation):
            max_skew({"a": 0.3, "b": 0.7}, {"a": 0.0, "b": 1.0})

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
    )
    def test_non_negative_on_full_support(self, raw_p, raw_q):
        keys = ("a", "b", "c")
        p = dict(zip(keys, np.array(raw_p) / np.sum(raw_p)))
        q = dict(zip(keys, np.array(raw_q) / np.sum(raw_q)))
        # some value is always weakly over-represented
        assert max_skew(p, q) >= -1e-12


class TestWorstGroupAuc:
    def test_perfect_separation(self):
        pairs = [(0.9, 1), (0.8, 1), (0.7, 0), (0.1, 0)]
        assert worst_group_auc({"g": auc_inputs(pairs)}) == pytest.approx(1.0)

    def test_full_tie(self):
        pairs = [(0.5, 1), (0.5, 0)]
        assert worst_group_auc({"g": auc_inputs(pairs)}) == pytest.approx(0.5)

    def test_minimum_across_groups(self):
        groups = {
            "high": [(0.9, 1), (0.8, 1), (0.7, 0), (0.1, 0)],   # AUC 1.0
            "low": [(0.8, 1), (0.8, 0), (0.1, 0)],              # AUC (0.5 + 1)/2
        }
        groups = {value: auc_inputs(pairs) for value, pairs in groups.items()}
        assert worst_group_auc(groups) == pytest.approx(0.75)

    def test_single_class_group_rejected(self):
        with pytest.raises(DegenerateGroup):
            worst_group_auc({"g": auc_inputs([(0.9, 1), (0.8, 1)])})

    def test_matches_brute_force_exactly(self, rng):
        for _ in range(60):
            size = int(rng.integers(2, 51))
            scores = rng.choice([0.1, 0.2, 0.3, 0.5, 0.7, 0.9], size=size)
            labels = rng.integers(0, 2, size=size)
            if labels.sum() in (0, size):
                labels[0] = 1 - labels[0]
            pairs = list(zip(scores.tolist(), labels.tolist()))
            assert worst_group_auc({"g": auc_inputs(pairs)}) == brute_force_auc(pairs)

    def test_continuous_scores_match_brute_force(self, rng):
        for _ in range(30):
            size = int(rng.integers(2, 40))
            scores = rng.standard_normal(size)
            labels = rng.integers(0, 2, size=size)
            if labels.sum() in (0, size):
                labels[0] = 1 - labels[0]
            pairs = list(zip(scores.tolist(), labels.tolist()))
            assert worst_group_auc({"g": auc_inputs(pairs)}) == brute_force_auc(pairs)


class TestEmpiricalDistribution:
    def test_binary_counts(self):
        assert empirical_distribution([300, 200], PAIR) == {"a": 0.6, "b": 0.4}

    def test_single_value(self):
        assert empirical_distribution([2, 0], PAIR) == {"a": 1.0, "b": 0.0}

    def test_three_values(self):
        space = attribute_space("g", ("x", "y", "z"))
        counts = np.array([2, 3, 5])
        assert empirical_distribution(counts, space) == {"x": 0.2, "y": 0.3, "z": 0.5}

    def test_empty_rejected(self):
        with pytest.raises(EmptyRetrieval):
            empirical_distribution([], PAIR)

    def test_counts_must_cover_every_value(self):
        with pytest.raises(ValueError):
            empirical_distribution([3], PAIR)
