"""Distance/kernel primitives: brute-force oracles and metric properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoattn.errors import InvalidInput, InvalidParameter, NumericalError
from topoattn.geometry import (
    DEGENERATE_SIGMA,
    KernelSpec,
    gaussian_kernel_matrix,
    hilbert_distance_matrix,
    median_nonzero_distance,
    pairwise_euclidean,
    zscore_offdiagonal,
)


class TestPairwiseEuclidean:
    def test_coincident_points(self):
        d = pairwise_euclidean(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert d.values[0, 1] == 0.0

    def test_pythagorean_triple(self):
        d = pairwise_euclidean(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert np.isclose(d.values[0, 1], 5.0)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        d = pairwise_euclidean(x).values
        for i in range(5):
            for j in range(5):
                expected = np.sqrt(((x[i] - x[j]) ** 2).sum())
                assert abs(d[i, j] - expected) <= 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(7, 2))
        perm = rng.permutation(7)
        d = pairwise_euclidean(x).values
        dp = pairwise_euclidean(x[perm]).values
        assert np.array_equal(dp, d[np.ix_(perm, perm)])

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            pairwise_euclidean(np.array([[0.0, np.nan], [1.0, 2.0]]))

    def test_point_cloud_validation(self):
        with pytest.raises(InvalidInput):
            pairwise_euclidean(np.zeros((1, 3)))
        with pytest.raises(InvalidInput):
            pairwise_euclidean(np.zeros(4))
        with pytest.raises(InvalidInput):
            pairwise_euclidean(np.array([[np.inf, 0.0], [0.0, 0.0]]))
        assert pairwise_euclidean(np.zeros((2, 3))).n == 2


class TestGaussianKernel:
    def test_unit_diagonal(self):
        rng = np.random.default_rng(2)
        k = gaussian_kernel_matrix(rng.normal(size=(6, 2)), KernelSpec(0.7))
        assert np.array_equal(np.diag(k), np.ones(6))
        assert np.all(k > 0) and np.all(k <= 1)

    def test_analytic_value(self):
        ell = 1.3
        x = np.array([[0.0], [ell * np.sqrt(2.0)]])
        k = gaussian_kernel_matrix(x, KernelSpec(ell))
        assert np.isclose(k[0, 1], np.exp(-1.0))

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        k = gaussian_kernel_matrix(rng.normal(size=(6, 3)), KernelSpec(1.0))
        assert np.linalg.eigvalsh(k).min() >= -1e-10

    def test_invalid_bandwidth(self):
        with pytest.raises(InvalidParameter):
            gaussian_kernel_matrix(np.zeros((2, 2)), KernelSpec(-1.0))

    def test_monotone_in_distance(self):
        x = np.array([[0.0], [0.5], [2.0]])
        k = gaussian_kernel_matrix(x, KernelSpec(1.0))
        assert k[0, 1] > k[0, 2]


class TestHilbertDistance:
    def test_identical_tokens_zero(self):
        k = gaussian_kernel_matrix(np.zeros((3, 2)), KernelSpec(1.0))
        assert np.all(hilbert_distance_matrix(k).values == 0.0)

    def test_half_kernel_gives_one(self):
        k = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.isclose(hilbert_distance_matrix(k).values[0, 1], 1.0)

    def test_saturates_below_sqrt2(self):
        x = np.array([[0.0], [1e6]])
        k = gaussian_kernel_matrix(x, KernelSpec(1.0))
        d = hilbert_distance_matrix(k).values[0, 1]
        assert d <= np.sqrt(2.0) and d > 1.41

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(4)
        k = gaussian_kernel_matrix(rng.normal(size=(8, 3)), KernelSpec(0.9))
        d = hilbert_distance_matrix(k).values
        for _ in range(60):
            i, j, l = rng.integers(0, 8, 3)
            assert d[i, j] <= d[i, l] + d[l, j] + 1e-9

    def test_negative_radicand_rejected(self):
        bad = np.array([[1.0, 1.1], [1.1, 1.0]])
        with pytest.raises(NumericalError):
            hilbert_distance_matrix(bad)


class TestMedianNonzero:
    def test_equilateral(self):
        values = 2.5 * (np.ones((3, 3)) - np.eye(3))
        assert median_nonzero_distance(values) == 2.5

    def test_collinear(self):
        d = pairwise_euclidean(np.array([[0.0], [1.0], [3.0]]))
        assert d.sigma == 2.0  # distances {1, 2, 3}

    def test_degenerate_fallback(self):
        assert median_nonzero_distance(np.zeros((4, 4))) == DEGENERATE_SIGMA


class TestZscore:
    def test_constant_matrix(self):
        assert np.array_equal(zscore_offdiagonal(np.full((5, 5), 3.0)), np.zeros((5, 5)))

    def test_moments(self):
        rng = np.random.default_rng(5)
        z = zscore_offdiagonal(rng.normal(size=(6, 6)))
        off = z[~np.eye(6, dtype=bool)]
        assert abs(off.mean()) <= 1e-10
        assert abs(off.std() - 1.0) <= 1e-10
        assert np.all(np.diag(z) == 0.0)

    def test_two_pass_oracle(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(5, 5))
        z = zscore_offdiagonal(m)
        off = ~np.eye(5, dtype=bool)
        vals = m[off]
        expected = (vals - vals.mean()) / vals.std()
        assert np.allclose(z[off], expected, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(5, 5)) * rng.uniform(0.5, 10.0)
        z1 = zscore_offdiagonal(m)
        z2 = zscore_offdiagonal(z1)
        assert np.allclose(z1, z2, atol=1e-9)

    def test_nonfinite_rejected(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = np.inf
        with pytest.raises(InvalidInput):
            zscore_offdiagonal(bad)
