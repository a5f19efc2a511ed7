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

from topoattn import topo_bias
from topoattn.attention import window_bias_stack
from topoattn.datasets import gen_cyclic_h1, gen_higher_topology, gen_shell_h2
from topoattn.errors import InvalidInput
from topoattn.geometry import (
    KernelSpec,
    hilbert_distance,
    pairwise_euclidean,
    stacked_euclidean,
    symmetrize,
    window_sigma,
)
from topoattn.topo_bias import (
    CHANNELS,
    AetParams,
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


def sigma_oracle(d):
    """Median of the positive upper-triangle distances."""
    upper = d[np.triu_indices(len(d), k=1)]
    return float(np.median(upper[upper > 0.0]))


def zscore_oracle(m):
    """Two-pass off-diagonal z-score with a zero diagonal."""
    off = ~np.eye(len(m), dtype=bool)
    vals = m[off]
    out = np.zeros_like(m)
    out[off] = (vals - vals.mean()) / vals.std()
    return out


def hilbert_oracle(cloud, ell):
    """Kernel-Hilbert distances sqrt(k_ii + k_jj - 2 k_ij) of the Gaussian kernel."""
    sq = ((cloud[:, None, :] - cloud[None, :, :]) ** 2).sum(axis=-1)
    return np.sqrt(np.maximum(2.0 - 2.0 * np.exp(-sq / (2.0 * ell**2)), 0.0))


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
    return zscore_oracle(acc / len(H1_SCALES))


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
        acc = np.zeros_like(d)
        for w, f in zip(H0_WEIGHTS, H0_SCALES):
            acc += w * np.exp(-(d**2) / (2.0 * (f * sigma_oracle(d)) ** 2))
        expected = zscore_oracle(acc)
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
        a = _soft_adjacency_values(d, 0.8, 0.1)
        assert np.isclose(a[0, 1], 0.5)

    def test_indicator_limit(self):
        d = pairwise_euclidean(np.array([[0.0], [0.5], [2.0]]))
        a = _soft_adjacency_values(d, 1.0, 1e-9)
        assert np.isclose(a[0, 1], 1.0) and np.isclose(a[0, 2], 0.0)

    def test_formula_oracle(self):
        d = pairwise_euclidean(random_cloud(2, n=6))
        a = _soft_adjacency_values(d, 0.9, 0.2)
        expected = expit((0.9 - d) / 0.2)
        np.fill_diagonal(expected, 0.0)
        assert np.allclose(a, expected, atol=1e-12)


class TestH1Bias:
    def test_cycle_closing_vanishes_when_fully_connected(self):
        # (1 - A) kills the two-hop term off-diagonal when A ~ 1
        d = pairwise_euclidean(random_cloud(4, n=5, scale=0.01))
        a = soft_adjacency_oracle(d, 100.0, 0.1)
        c = (a @ a / 3.0) * (1.0 - a)
        off = ~np.eye(5, dtype=bool)
        assert np.abs(c[off]).max() < 1e-8

    def test_circle_non_adjacent_pairs_score_higher(self):
        cloud = circle_cloud(6)
        d = pairwise_euclidean(cloud)
        # direct pre-zscore evaluation at the implemented scales
        sigma = sigma_oracle(d)
        acc = np.zeros_like(d)
        for f in H1_SCALES:
            a = soft_adjacency_oracle(d, f * sigma, SOFT_TAU_FACTOR * sigma)
            acc += (a @ a / 4.0) * (1.0 - a)
        acc /= len(H1_SCALES)
        two_apart = acc[0, 2]
        adjacent = acc[0, 1]
        assert two_apart > adjacent

    def test_matches_scale_set_oracle(self):
        cloud = random_cloud(5, n=7)
        d = pairwise_euclidean(cloud)
        expected = h1_oracle(d, sigma_oracle(d))
        got = stack(cloud, "H1")
        assert np.allclose(got, expected, atol=1e-10)
        assert H1_SCALES == (0.70, 1.0, 1.40)

    def test_invariants(self):
        check_bias_invariants(stack(random_cloud(6), "H1"))


class TestH2Bias:
    def test_equal_radii_unit_gaussian_factor(self):
        cloud = circle_cloud(8)
        d = pairwise_euclidean(cloud)
        radii, radius_scale, _ = _shell_stats(d, cloud, sigma_oracle(d))
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
        params = aet_calibrate(clouds, seed=3)
        assert np.allclose(np.linalg.norm(params.directions, axis=1), 1.0, atol=1e-12)
        assert np.all(np.diff(params.thresholds, axis=1) >= 0.0)
        again = aet_calibrate(clouds, seed=3)
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

        eps = sigma_oracle(d)
        adj = soft_adjacency_oracle(d, eps, SOFT_TAU_FACTOR * eps)
        proj = cloud @ params.directions.T
        m = expit((params.thresholds[None, :, :] - proj[:, :, None]) / params.temperature)
        c = m * (1.0 - np.einsum("ij,jrq->irq", adj, m))
        full = np.einsum("irq,jrq->ij", c, c) / params.thresholds.size  # R * Q
        assert np.linalg.eigvalsh(full).min() >= -1e-10  # PSD before diagonal zeroing
        expected = full.copy()
        np.fill_diagonal(expected, 0.0)
        assert np.allclose(got, 0.5 * (expected + expected.T), atol=1e-12)

    def test_rank_one_with_single_direction_threshold(self, monkeypatch):
        monkeypatch.setattr(topo_bias, "AET_DIRECTIONS", 1)
        monkeypatch.setattr(topo_bias, "AET_THRESHOLDS", 1)
        clouds = [random_cloud(s, n=6, p=2) for s in range(3)]
        params = aet_calibrate(clouds, seed=0)
        cloud = random_cloud(11, n=6, p=2)
        b = stack(cloud, "AET", aet_params=params)
        # off-diagonal entries of a rank-1 outer product satisfy the
        # two-by-two determinant identity
        assert np.isclose(b[0, 1] * b[2, 3], b[0, 3] * b[2, 1], atol=1e-10)

    @pytest.mark.parametrize(("directions", "thresholds", "message"), [
        ([[0.6, 0.6]], [[0.0, 1.0]], "AET directions must be unit vectors"),
        ([[0.6, 0.8]], [[0.0, 1.0, 0.5]], "AET thresholds must be nondecreasing per direction"),
    ], ids=["non_unit_direction", "decreasing_thresholds"])
    def test_params_input_checks(self, directions, thresholds, message):
        with pytest.raises(InvalidInput, match=message):
            AetParams(directions, thresholds, temperature=1.0, adjacency_scale=1.0)

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
        d_h = hilbert_oracle(cloud, spec.bandwidth)
        assert np.allclose(stack(cloud, "KH1", kernel_spec=spec), h1_oracle(d_h, sigma_oracle(d_h)), atol=1e-10)

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
        # the campaign's batched stacks and predict's single-window stack
        # agree bit for bit, at the campaign's shapes (300, 32, 2) and
        # (260, 24, 3): the z-score sums a lone window's row in the order it
        # sums a stack's
        spec = KernelSpec(1.1)
        for gen in (gen_higher_topology, gen_cyclic_h1, gen_shell_h2):
            windows = gen(1).windows
            params = aet_calibrate(windows[:150], seed=1)
            stacks = bias_stacks(windows, CHANNELS, aet_params=params, kernel_spec=spec)
            for i in range(0, len(windows), 7):
                single = window_bias_stack(windows[i], CHANNELS, aet_params=params, kernel_spec=spec)
                assert tuple(single) == CHANNELS
                for channel in CHANNELS:
                    assert stacks[channel][i].tobytes() == single[channel].tobytes(), (gen.__name__, i, channel)
            d = pairwise_euclidean(windows[0])
            assert np.allclose(stacks["H1"][0], h1_oracle(d, sigma_oracle(d)), atol=1e-10)


def channel_branches_oracle(windows, channels, aet_params, kernel_spec):
    """bias_stacks with one branch per channel written out: a byte oracle for
    its table of H formulas, which the KH channels reuse."""
    d = stacked_euclidean(windows)
    sigma = window_sigma(d)
    d_h = hilbert_distance(d, kernel_spec.bandwidth)
    sigma_h = window_sigma(d_h)
    out = {}
    for channel in channels:
        if channel == "H0":
            out[channel] = topo_bias._h0_values(d, sigma)
        elif channel == "H1":
            out[channel] = topo_bias._h1_values(d, sigma)
        elif channel == "H2":
            out[channel] = topo_bias._h2_values(d, windows, sigma)
        elif channel == "AET":
            out[channel] = topo_bias._aet_values(windows, d, sigma, aet_params)
        elif channel == "KH0":
            out[channel] = topo_bias._h0_values(d_h, sigma_h)
        elif channel == "KH1":
            out[channel] = topo_bias._h1_values(d_h, sigma_h)
        elif channel == "KH2":
            out[channel] = topo_bias._h2_values(d_h, windows, sigma_h)
    return out


@pytest.mark.parametrize("gen", [gen_cyclic_h1, gen_higher_topology], ids=["cyclic_p3", "stress_p2"])
def test_every_channel_matches_channel_branches(gen):
    windows = gen(2, n_windows=12, n_tokens=16).windows
    params = aet_calibrate(list(windows[:8]), seed=0)
    spec = KernelSpec(0.9)
    oracle = channel_branches_oracle(windows, CHANNELS, params, spec)
    together = bias_stacks(windows, CHANNELS[::-1], aet_params=params, kernel_spec=spec)
    assert tuple(together) == CHANNELS[::-1]
    for channel in CHANNELS:
        alone = bias_stacks(windows, (channel,), aet_params=params, kernel_spec=spec)[channel]
        assert alone.tobytes() == oracle[channel].tobytes(), channel
        assert together[channel].tobytes() == oracle[channel].tobytes(), channel


# _soft_adjacency_values and _shell_stats as written before the diagonal
# index was cached and the medians sorted, kept verbatim as oracles.


def old_soft_adjacency_values(d, eps, tau):
    eps = np.asarray(eps, dtype=np.float64)[..., None, None]
    tau = np.asarray(tau, dtype=np.float64)[..., None, None]
    a = expit((eps - d) / tau)
    n = d.shape[-1]
    a[..., np.arange(n), np.arange(n)] = 0.0
    return a


def old_shell_stats(d, tokens, sigma):
    n = tokens.shape[-2]
    centroid = tokens.mean(axis=-2, keepdims=True)
    radii = np.linalg.norm(tokens - centroid, axis=-1)
    med = np.median(radii, axis=-1, keepdims=True)
    mad = np.median(np.abs(radii - med), axis=-1)
    scale = np.maximum(mad, 1e-6)
    within = (d <= np.asarray(sigma)[..., None, None]).sum(axis=-1) - 1  # exclude self
    sparsity = 1.0 - within / max(n - 1, 1)
    return radii, scale, sparsity


def token_stacks(n_windows, n_tokens, seed):
    """Normal windows and lattice windows (tied radii and distances), with
    every fifth lattice window made of identical tokens."""
    rng = np.random.default_rng(seed)
    lattice = rng.integers(-1, 2, size=(n_windows, n_tokens, 2)).astype(float)
    lattice[::5] = 0.5
    return lattice, rng.normal(size=(n_windows, n_tokens, 3))


@pytest.mark.parametrize("n_windows", [1, 7, 300])
def test_cached_diagonal_and_sorted_medians_match_oracles(n_windows):
    for n_tokens in (2, 3, 8, 16, 24, 32):
        for windows in token_stacks(n_windows, n_tokens, seed=n_tokens):
            d = stacked_euclidean(windows)
            for dist in (d, hilbert_distance(d, 0.7)):
                sigma = window_sigma(dist)
                for f in H1_SCALES:
                    got = _soft_adjacency_values(dist, f * sigma, SOFT_TAU_FACTOR * sigma)
                    expected = old_soft_adjacency_values(dist, f * sigma, SOFT_TAU_FACTOR * sigma)
                    assert got.tobytes() == expected.tobytes(), (n_windows, n_tokens)
                for got, expected in zip(_shell_stats(dist, windows, sigma), old_shell_stats(dist, windows, sigma)):
                    assert got.dtype == expected.dtype and got.shape == expected.shape
                    assert got.tobytes() == expected.tobytes(), (n_windows, n_tokens)


@pytest.mark.parametrize("n_windows", [1, 7, 300])
def test_h0_and_h2_need_no_symmetrize(n_windows):
    # H0 and H2 are elementwise in symmetric distances and radii, then
    # z-scored with a zero diagonal, so a symmetrize pass changes no bit
    stacks = [w for n_tokens in (2, 3, 8, 16, 24, 32) for w in token_stacks(n_windows, n_tokens, seed=n_tokens)]
    stacks += [gen(n_windows).windows[:n_windows] for gen in (gen_higher_topology, gen_cyclic_h1, gen_shell_h2)]
    for windows in stacks:
        d = stacked_euclidean(windows)
        for dist in (d, hilbert_distance(d, 0.7)):
            sigma = window_sigma(dist)
            for values in (topo_bias._h0_values(dist, sigma), topo_bias._h2_values(dist, windows, sigma)):
                assert values.tobytes() == symmetrize(values).tobytes(), windows.shape


def test_sorted_median_is_np_median():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4, 5, 8, 24, 32):
        for x in (rng.normal(size=(50, n)), np.abs(np.round(rng.normal(size=(50, n)))), np.zeros((3, n))):
            assert topo_bias._median(x).tobytes() == np.median(x, axis=-1).tobytes()


def wide_cyclic(seed):
    """Three cyclic windows of 150 tokens: 2**16 // 150**2 = 2 windows a block."""
    return gen_cyclic_h1(seed, n_windows=3, n_tokens=150)


@pytest.mark.parametrize(("gen", "n_windows"), [
    (gen_higher_topology, 1), (gen_higher_topology, 65), (gen_higher_topology, 300),  # N = 32: at most 64 a block
    (gen_cyclic_h1, 114), (gen_cyclic_h1, 260),  # N = 24: at most 113 a block
    (wide_cyclic, 3),  # N = 150: at most 2 a block, so blocks of 1 and 2
])
def test_blocked_stacks_match_one_block(gen, n_windows):
    # bias_stacks runs the formulas one window block at a time; the oracle
    # runs them once on the whole stack
    windows = gen(1).windows
    params = aet_calibrate(list(windows[:50]), seed=1)
    windows = windows[:n_windows]
    spec = KernelSpec(0.9)
    one_block = channel_branches_oracle(windows, CHANNELS, params, spec)
    d = stacked_euclidean(windows)
    computed = bias_stacks(windows, CHANNELS, aet_params=params, kernel_spec=spec)
    given = bias_stacks(windows, CHANNELS, aet_params=params, kernel_spec=spec, euclidean=(d, window_sigma(d)))
    for channel in CHANNELS:
        assert computed[channel].tobytes() == one_block[channel].tobytes(), channel
        assert given[channel].tobytes() == one_block[channel].tobytes(), channel
