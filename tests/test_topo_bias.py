"""Bias constructors: formula oracles, symmetry/PSD invariants, RKHS twins.

Every channel is built by the batched ``bias_stacks``, the code the
campaign and single-window ``predict`` both run; a single window is a
stack of one.
"""

import warnings

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import spearmanr

from topoattn.attention import window_bias_stack
from topoattn.errors import InvalidInput
from topoattn.geometry import KernelSpec, gaussian_kernel_matrix, hilbert_distance_matrix, pairwise_euclidean, zscore_offdiagonal
from topoattn.topo_bias import (
    CHANNELS,
    H0_SCALES,
    H0_WEIGHTS,
    H1_SCALES,
    SOFT_TAU_FACTOR,
    _shell_stats,
    _soft_adjacency_values,
    aet_calibrate,
    bias_stacks,
)


def random_cloud(seed, n=8, p=2, scale=1.0):
    return scale * np.random.default_rng(seed).normal(size=(n, p))


def circle_cloud(n=6, radius=1.0):
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)


def stack(cloud, channel, **kwargs):
    """One channel of one window through the batched constructors."""
    windows = np.asarray(cloud, dtype=np.float64)[None]
    return bias_stacks(windows, (channel,), **kwargs)[channel][0]


def soft_adjacency_oracle(d, eps, tau):
    a = expit((eps - d) / tau)
    np.fill_diagonal(a, 0.0)
    return a


def h1_oracle(d, sigma):
    n = d.shape[0]
    acc = np.zeros_like(d)
    for f in H1_SCALES:
        a = soft_adjacency_oracle(d, f * sigma, SOFT_TAU_FACTOR * sigma)
        acc += (a @ a / (n - 2)) * (1.0 - a)
    return zscore_offdiagonal(acc / len(H1_SCALES))


def check_bias_invariants(v):
    assert np.array_equal(v, v.T)
    assert np.all(np.diag(v) == 0.0)
    assert np.all(np.isfinite(v))


class TestH0Bias:
    def test_equal_distances_zero(self):
        cloud = circle_cloud(3, radius=1.0)  # equilateral
        assert np.array_equal(stack(cloud, "H0"), np.zeros((3, 3)))

    def test_monotone_pre_zscore(self):
        # z-scoring preserves order, so the bias must decrease with distance
        cloud = np.array([[0.0], [0.4], [3.0]])
        b = stack(cloud, "H0")
        assert b[0, 1] > b[0, 2]

    def test_matches_direct_formula(self):
        cloud = random_cloud(0)
        d = pairwise_euclidean(cloud)
        acc = np.zeros_like(d.values)
        for w, f in zip(H0_WEIGHTS, H0_SCALES):
            acc += w * np.exp(-(d.values**2) / (2.0 * (f * d.sigma) ** 2))
        expected = zscore_offdiagonal(acc)
        assert np.allclose(stack(cloud, "H0"), expected, atol=1e-12)
        assert H0_WEIGHTS == (0.50, 0.35, 0.15)

    def test_invariants(self):
        check_bias_invariants(stack(random_cloud(1), "H0"))

    def test_identical_tokens_zero_bias(self):
        cloud = np.ones((6, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = stack(cloud, "H0")
        assert np.array_equal(b, np.zeros((6, 6)))


class TestSoftAdjacency:
    def test_midpoint(self):
        d = pairwise_euclidean(np.array([[0.0], [0.8]]))
        a = _soft_adjacency_values(d.values, 0.8, 0.1)
        assert np.isclose(a[0, 1], 0.5)

    def test_indicator_limit(self):
        d = pairwise_euclidean(np.array([[0.0], [0.5], [2.0]]))
        a = _soft_adjacency_values(d.values, 1.0, 1e-9)
        assert np.isclose(a[0, 1], 1.0) and np.isclose(a[0, 2], 0.0)

    def test_formula_oracle(self):
        d = pairwise_euclidean(random_cloud(2, n=6))
        a = _soft_adjacency_values(d.values, 0.9, 0.2)
        expected = expit((0.9 - d.values) / 0.2)
        np.fill_diagonal(expected, 0.0)
        assert np.allclose(a, expected, atol=1e-12)


class TestH1Bias:
    def test_cycle_closing_vanishes_when_fully_connected(self):
        # (1 - A) kills the two-hop term off-diagonal when A ~ 1
        d = pairwise_euclidean(random_cloud(4, n=5, scale=0.01))
        a = soft_adjacency_oracle(d.values, 100.0, 0.1)
        c = (a @ a / 3.0) * (1.0 - a)
        off = ~np.eye(5, dtype=bool)
        assert np.abs(c[off]).max() < 1e-8

    def test_circle_non_adjacent_pairs_score_higher(self):
        cloud = circle_cloud(6)
        d = pairwise_euclidean(cloud)
        # direct pre-zscore evaluation at the implemented scales
        acc = np.zeros_like(d.values)
        for f in H1_SCALES:
            a = soft_adjacency_oracle(d.values, f * d.sigma, SOFT_TAU_FACTOR * d.sigma)
            acc += (a @ a / 4.0) * (1.0 - a)
        acc /= len(H1_SCALES)
        two_apart = acc[0, 2]
        adjacent = acc[0, 1]
        assert two_apart > adjacent

    def test_matches_scale_set_oracle(self):
        cloud = random_cloud(5, n=7)
        d = pairwise_euclidean(cloud)
        expected = h1_oracle(d.values, d.sigma)
        got = stack(cloud, "H1")
        assert np.allclose(got, expected, atol=1e-10)
        assert H1_SCALES == (0.70, 1.0, 1.40)

    def test_invariants(self):
        check_bias_invariants(stack(random_cloud(6), "H1"))


class TestH2Bias:
    def test_equal_radii_unit_gaussian_factor(self):
        cloud = circle_cloud(8)
        d = pairwise_euclidean(cloud)
        radii, radius_scale, _ = _shell_stats(d.values, cloud, d.sigma)
        diff = radii[:, None] - radii[None, :]
        gauss = np.exp(-(diff**2) / (2.0 * radius_scale**2))
        assert np.allclose(gauss, 1.0, atol=1e-8)

    def test_co_shell_affinity(self):
        # two concentric shells: same-radius pairs must outscore cross pairs
        # (the MAD normalization makes the overall shell-vs-ball mean
        # indistinguishable; co-shell affinity is the discriminative content,
        # confirmed 50/50 by the paired sampling oracle)
        wins = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            dirs = rng.normal(size=(16, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radii = np.where(np.arange(16) < 8, 1.0, 2.0)
            cloud = dirs * radii[:, None] + rng.normal(0, 0.03, dirs.shape)
            b = stack(cloud, "H2")
            same = np.concatenate(
                [b[:8, :8][~np.eye(8, dtype=bool)], b[8:, 8:][~np.eye(8, dtype=bool)]]
            )
            cross = b[:8, 8:].ravel()
            wins += same.mean() > cross.mean()
        assert wins == 50

    def test_zscore_mean_zero(self):
        cloud = random_cloud(7, n=9, p=3)
        b = stack(cloud, "H2")
        assert abs(b[~np.eye(9, dtype=bool)].mean()) < 1e-10

    def test_invariants(self):
        cloud = random_cloud(8, n=6, p=3)
        check_bias_invariants(stack(cloud, "H2"))


class TestAet:
    def test_calibration_invariants(self):
        clouds = [random_cloud(s, n=10, p=3) for s in range(5)]
        params = aet_calibrate(clouds, n_directions=8, n_thresholds=8, seed=3)
        assert np.allclose(np.linalg.norm(params.directions, axis=1), 1.0, atol=1e-12)
        assert np.all(np.diff(params.thresholds, axis=1) >= 0.0)
        again = aet_calibrate(clouds, n_directions=8, n_thresholds=8, seed=3)
        assert np.array_equal(params.directions, again.directions)
        assert np.array_equal(params.thresholds, again.thresholds)

    def test_empty_train_set(self):
        with pytest.raises(InvalidInput):
            aet_calibrate([])

    def test_bias_matches_formula_oracle_and_psd(self):
        clouds = [random_cloud(s, n=8, p=2) for s in range(4)]
        params = aet_calibrate(clouds, seed=1)
        cloud = random_cloud(10, n=8, p=2)
        d = pairwise_euclidean(cloud)
        got = stack(cloud, "AET", aet_params=params)

        eps = d.sigma
        adj = soft_adjacency_oracle(d.values, eps, SOFT_TAU_FACTOR * eps)
        proj = cloud @ params.directions.T
        m = expit((params.thresholds[None, :, :] - proj[:, :, None]) / params.temperature)
        c = m * (1.0 - np.einsum("ij,jrq->irq", adj, m))
        full = np.einsum("irq,jrq->ij", c, c) / (params.n_directions * params.n_thresholds)
        assert np.linalg.eigvalsh(full).min() >= -1e-10  # PSD before diagonal zeroing
        expected = full.copy()
        np.fill_diagonal(expected, 0.0)
        assert np.allclose(got, 0.5 * (expected + expected.T), atol=1e-12)

    def test_rank_one_with_single_direction_threshold(self):
        clouds = [random_cloud(s, n=6, p=2) for s in range(3)]
        params = aet_calibrate(clouds, n_directions=1, n_thresholds=1, seed=0)
        cloud = random_cloud(11, n=6, p=2)
        b = stack(cloud, "AET", aet_params=params)
        # off-diagonal entries of a rank-1 outer product satisfy the
        # two-by-two determinant identity
        assert np.isclose(b[0, 1] * b[2, 3], b[0, 3] * b[2, 1], atol=1e-10)

    def test_dimension_mismatch(self):
        params = aet_calibrate([random_cloud(0, n=6, p=2)], seed=0)
        with pytest.raises(InvalidInput):
            stack(random_cloud(1, n=6, p=3), "AET", aet_params=params)


class TestRkhs:
    def test_identical_tokens_zero_bias(self):
        cloud = np.zeros((5, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = stack(cloud, "KH0", kernel_spec=KernelSpec(1.0))
        assert np.array_equal(b, np.zeros((5, 5)))

    def test_large_bandwidth_matches_euclidean_ranks(self):
        cloud = random_cloud(13, n=10, p=3)
        euclid = stack(cloud, "H0")
        kh = stack(cloud, "KH0", kernel_spec=KernelSpec(500.0))
        off = ~np.eye(10, dtype=bool)
        rho, _ = spearmanr(euclid[off], kh[off])
        assert rho >= 0.99

    def test_kh1_smooth_equals_shared_constructor(self):
        cloud = random_cloud(14, n=8, p=2)
        spec = KernelSpec(0.8)
        d_h = hilbert_distance_matrix(gaussian_kernel_matrix(cloud, spec))
        assert np.allclose(stack(cloud, "KH1", kernel_spec=spec), h1_oracle(d_h.values, d_h.sigma), atol=1e-10)

    def test_unknown_channel(self):
        with pytest.raises(InvalidInput):
            stack(random_cloud(0), "KH3", kernel_spec=KernelSpec(1.0))


class TestGlobalProperties:
    def test_rigid_motion_invariance(self):
        cloud = random_cloud(16, n=8, p=2)
        theta = 0.71
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = cloud @ rot.T + np.array([3.0, -1.0])
        for builder in (
            lambda c: stack(c, "H0"),
            lambda c: stack(c, "H1"),
            lambda c: stack(c, "H2"),
        ):
            assert np.allclose(builder(cloud), builder(moved), atol=1e-10)

    def test_permutation_equivariance(self):
        cloud = random_cloud(17, n=8, p=2)
        perm = np.random.default_rng(18).permutation(8)
        for builder in (
            lambda c: stack(c, "H0"),
            lambda c: stack(c, "H1"),
        ):
            assert np.allclose(builder(cloud)[np.ix_(perm, perm)], builder(cloud[perm]), atol=1e-10)

    def test_bias_matrix_validation(self):
        cloud = random_cloud(20, n=6, p=2)
        cloud[2, 0] = np.nan
        with pytest.raises(InvalidInput, match="non-finite"):
            with np.errstate(invalid="ignore"):
                stack(cloud, "H0")
        with pytest.raises(InvalidInput):
            stack(random_cloud(21), "AET")  # no calibrated AetParams
        with pytest.raises(InvalidInput):
            stack(random_cloud(22), "KH0")  # no KernelSpec

    def test_batched_stacks_match_single_window_ops(self):
        # the campaign's batched stacks and predict's single-window stack agree
        rng = np.random.default_rng(19)
        windows = rng.normal(size=(4, 10, 3))
        params = aet_calibrate(list(windows[:2]), seed=0)
        spec = KernelSpec(1.1)
        stacks = bias_stacks(windows, CHANNELS, aet_params=params, kernel_spec=spec)
        for i in range(4):
            single = window_bias_stack(windows[i], CHANNELS, aet_params=params, kernel_spec=spec)
            assert tuple(single) == CHANNELS
            for channel in CHANNELS:
                assert np.allclose(stacks[channel][i], single[channel], atol=1e-12)
            d = pairwise_euclidean(windows[i])
            assert np.allclose(stacks["H1"][i], h1_oracle(d.values, d.sigma), atol=1e-10)
