import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bend.equalize import GAP_EPS, equalize
from bend.errors import ConfigError, DegenerateMeans, ZeroResult
from bend.vectors import normalize

from cosine import cosine_distance
from numeric_oracle import closed_form_binary, solve_numeric_oracle


def random_triple(rng, dim):
    """A unit query plus two mean-scale group vectors."""
    z = normalize(rng.standard_normal(dim))
    mu1 = rng.standard_normal(dim) / math.sqrt(dim)
    mu2 = rng.standard_normal(dim) / math.sqrt(dim)
    return z, mu1, mu2


class TestSolveBinary:
    def test_worked_example(self):
        z = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        mu1 = np.array([1.0, 0.0, 0.0])
        mu2 = np.array([0.0, 1.0, 0.0])
        solution = equalize(z, [mu1, mu2])
        assert solution.lam == pytest.approx(-1.0 / (2.0 * math.sqrt(2.0)), abs=1e-12)
        expected = np.array([1.0, 1.0, 2.0]) / math.sqrt(6.0)
        assert np.allclose(solution.z_star, expected, atol=1e-12)
        assert float(mu1 @ solution.z_star) == pytest.approx(
            float(mu2 @ solution.z_star), abs=1e-12
        )
        assert float(mu1 @ solution.z_star) == pytest.approx(
            1.0 / math.sqrt(6.0), abs=1e-12
        )

    def test_already_equalized(self):
        z = np.array([0.0, 0.0, 1.0])
        solution = equalize(z, [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])])
        assert solution.lam == 0.0
        assert np.allclose(solution.z_star, z)

    def test_identical_means_vacuous(self):
        z = normalize([0.2, 0.5, 0.8])
        mu = np.array([0.3, 0.3, 0.0])
        solution = equalize(z, [mu, mu.copy()])
        assert solution.lam == 0.0
        assert np.allclose(solution.z_star, z)

    def test_near_identical_means_with_gap_rejected(self):
        z = np.array([1.0, 0.0])
        mu1 = np.array([0.5, 0.0])
        mu2 = np.array([0.5 - 5e-11, 0.0])
        with pytest.raises(DegenerateMeans):
            equalize(z, [mu1, mu2])

    def test_query_parallel_to_mean_difference(self):
        # z' lies along mu2 - mu1, so removing that direction leaves nothing.
        z = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ZeroResult):
            equalize(z, [np.zeros(3), np.array([2.0, 0.0, 0.0])])

    @pytest.mark.parametrize("dim", [8, 512])
    def test_feasibility_on_random_draws(self, dim):
        rng = np.random.default_rng(7 + dim)
        for _ in range(500):
            z, mu1, mu2 = random_triple(rng, dim)
            solution = equalize(z, [mu1, mu2])
            assert abs(np.linalg.norm(solution.z_star) - 1.0) < 1e-9
            gap = float(mu1 @ solution.z_star) - float(mu2 @ solution.z_star)
            assert abs(gap) <= 1e-8


mean_coords = st.lists(st.floats(-0.5, 0.5), min_size=5, max_size=5).map(np.array)


class TestSolveBinaryDifferential:
    @given(mean_coords.filter(lambda v: np.linalg.norm(v) > 1e-3), mean_coords, mean_coords)
    def test_matches_closed_form(self, raw_z, mu1, mu2):
        z = normalize(raw_z)
        d = mu2 - mu1
        # Keep lambda and the pre-normalization norm away from degenerate
        # inputs, where both forms lose digits to cancellation.
        assume(np.linalg.norm(d) >= 0.25)
        assume(abs(float(d @ z)) > GAP_EPS)
        assume(np.linalg.norm(z - (d @ z) / (d @ d) * d) >= 0.1)
        lam, z_star = closed_form_binary(z, mu1, mu2)
        solution = equalize(z, [mu1, mu2])
        assert abs(solution.lam - lam) <= 1e-12
        assert np.max(np.abs(solution.z_star - z_star)) <= 1e-12


class TestSolveGeneral:
    def test_matches_binary_closed_form(self, rng):
        for _ in range(500):
            z, mu1, mu2 = random_triple(rng, 8)
            _, z_star = closed_form_binary(z, mu1, mu2)
            solution = equalize(z, [mu1, mu2])
            assert np.max(np.abs(solution.z_star - z_star)) < 1e-9

    def test_three_symmetric_means(self):
        means = [np.eye(3)[i] for i in range(3)]
        z = normalize([1.0, 2.0, 3.0])
        solution = equalize(z, means)
        expected = np.ones(3) / math.sqrt(3.0)
        assert np.allclose(solution.z_star, expected, atol=1e-9)
        sims = [float(m @ solution.z_star) for m in means]
        assert max(sims) - min(sims) < 1e-12

    def test_all_means_identical(self):
        z = normalize([1.0, 1.0, 0.0])
        mu = np.array([0.2, 0.1, 0.0])
        solution = equalize(z, [mu, mu.copy(), mu.copy()])
        assert np.allclose(solution.z_star, z)

    def test_near_equal_similarities_returned_unchanged(self):
        # A spread of 1e-13 is within GAP_EPS: z comes back bit for bit,
        # not projected onto the null-space of e1 and e2.
        z = normalize([1e-13, 0.0, 1.0])
        means = [np.eye(3)[0], np.eye(3)[1], np.zeros(3)]
        solution = equalize(z, means)
        assert np.array_equal(solution.z_star, z)
        assert solution.lam is None

    def test_near_identical_means_with_gap_rejected(self):
        z = np.array([1.0, 0.0])
        means = [np.array([0.5, 0.0]), np.array([0.5 - 5e-11, 0.0]), np.array([0.5, 0.0])]
        with pytest.raises(DegenerateMeans):
            equalize(z, means)

    def test_query_inside_constraint_span(self):
        z = np.array([1.0, 0.0, 0.0])
        two = [np.zeros(3), np.array([2.0, 0.0, 0.0])]
        three = two + [np.array([0.0, 1.0, 0.0])]
        for means in (two, three):
            with pytest.raises(ZeroResult):
                equalize(z, means)

    def test_needs_two_means(self):
        with pytest.raises(ConfigError):
            equalize(np.array([1.0, 0.0]), [np.array([0.5, 0.0])])

    def test_feasibility_many_groups(self, rng):
        for _ in range(100):
            k = int(rng.integers(3, 6))
            z = normalize(rng.standard_normal(16))
            means = [rng.standard_normal(16) / 4.0 for _ in range(k)]
            solution = equalize(z, means)
            base = float(means[0] @ solution.z_star)
            for m in means[1:]:
                assert abs(float(m @ solution.z_star) - base) <= 1e-8


class TestNumericOracle:
    def test_matches_binary_on_worked_example(self):
        z = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        mu1 = np.array([1.0, 0.0, 0.0])
        mu2 = np.array([0.0, 1.0, 0.0])
        binary = equalize(z, [mu1, mu2])
        numeric = solve_numeric_oracle(z, [mu1, mu2])
        assert cosine_distance(binary.z_star, numeric.z_star) < 1e-6

    def test_three_symmetric_means(self):
        means = [np.eye(3)[i] for i in range(3)]
        z = normalize([1.0, 2.0, 3.0])
        numeric = solve_numeric_oracle(z, means)
        assert np.allclose(numeric.z_star, np.ones(3) / math.sqrt(3.0), atol=1e-6)

    def test_feasible_input_converges_immediately(self):
        z = np.array([0.0, 0.0, 1.0])
        numeric = solve_numeric_oracle(z, [np.eye(3)[0], np.eye(3)[1]])
        assert numeric.iterations <= 2
        assert np.allclose(numeric.z_star, z, atol=1e-12)

    @pytest.mark.parametrize("dim", [8, 512])
    def test_oracle_agreement_on_random_draws(self, dim):
        rng = np.random.default_rng(41 + dim)
        for _ in range(200):
            z, mu1, mu2 = random_triple(rng, dim)
            binary = equalize(z, [mu1, mu2])
            numeric = solve_numeric_oracle(z, [mu1, mu2])
            assert cosine_distance(binary.z_star, numeric.z_star) <= 1e-5
            objective_gap = float(numeric.z_star @ z) - float(binary.z_star @ z)
            assert abs(objective_gap) <= 1e-6


class TestMinimalChange:
    def test_feasible_perturbations_never_beat_solution(self, rng):
        # Any other unit vector satisfying the constraints must score no
        # higher against the original embedding.
        for _ in range(100):
            z, mu1, mu2 = random_triple(rng, 12)
            solution = equalize(z, [mu1, mu2])
            delta = mu1 - mu2
            basis = delta / np.linalg.norm(delta)
            for _ in range(5):
                noise = rng.standard_normal(12)
                noise -= (noise @ basis) * basis  # stay feasible
                candidate = solution.z_star + 0.1 * noise
                candidate = candidate - (candidate @ basis) * basis
                candidate /= np.linalg.norm(candidate)
                assert float(candidate @ z) <= float(solution.z_star @ z) + 1e-8
