"""Cover construction, local diagrams, contrasts, projection, guarded blend."""

import numpy as np
import pytest

from topoattn.errors import CalibrationMissing, InvalidInput
from topoattn.geometry import KernelSpec, gaussian_kernel_matrix, hilbert_distance_matrix
from topoattn.local_residual import (
    ALPHA_GRID,
    CONTRAST_CHANNELS,
    DELTA_LOC,
    LOCAL_BLOCKS,
    LocalProjection,
    assemble_local_features,
    build_cover,
    contrast_features,
    fit_local_head,
    fit_local_projection,
    guarded_blend,
    local_block_tensor,
    local_diagrams,
    local_representation_matrix,
    zeng_features,
)
from topoattn.persistence import capped_exact_diagrams


class TestCover:
    def test_length_32(self):
        cover = build_cover(32)
        base = [el.start for el in cover.elements if el.scale == "base"]
        assert base == [0, 4, 8, 12, 16, 20, 24]
        wide = [el.start for el in cover.elements if el.scale == "wide"]
        assert wide == [0, 8, 16]

    def test_length_24(self):
        cover = build_cover(24)
        base = [el.start for el in cover.elements if el.scale == "base"]
        assert base == [0, 4, 8, 12, 16]

    def test_right_aligned_tail(self):
        cover = build_cover(30)
        base = [el.start for el in cover.elements if el.scale == "base"]
        assert base[-1] == 22  # right-aligned so index 29 is covered

    def test_every_index_covered(self):
        for length in (8, 11, 16, 24, 30, 32, 40):
            cover = build_cover(length)
            masks = cover.masks()
            base_masks = masks[[i for i, el in enumerate(cover.elements) if el.scale == "base"]]
            assert np.all(base_masks.sum(axis=0) >= 1)
            assert set(np.unique(masks)) <= {0, 1}

    def test_short_window_single_element(self):
        cover = build_cover(5)
        assert len(cover.elements) == 1
        assert cover.elements[0].start == 0 and cover.elements[0].length == 5


class TestLocalDiagrams:
    def test_constant_subwindow(self):
        dgms = local_diagrams(np.zeros((8, 2)), KernelSpec(1.0))
        assert len(dgms) == 7
        d0 = dgms["d0_plus"].bars
        assert len(d0) == 1 and not np.isfinite(d0[0][1])
        for name in ("d1", "d2", "kh1", "kh2"):
            assert dgms[name].finite_lifetimes().size == 0

    def test_seven_slots_always(self):
        rng = np.random.default_rng(0)
        dgms = local_diagrams(rng.normal(size=(8, 3)), KernelSpec(0.7))
        assert tuple(dgms) == LOCAL_BLOCKS

    def test_kh_mapping_matches_direct_hilbert_computation(self):
        rng = np.random.default_rng(1)
        spec = KernelSpec(0.9)
        for _ in range(10):
            sub = rng.normal(size=(rng.integers(4, 12), 3))
            dgms = local_diagrams(sub, spec)
            d_h = hilbert_distance_matrix(gaussian_kernel_matrix(sub, spec))
            direct = capped_exact_diagrams(d_h.values)
            for dim, name in ((0, "kh0"), (1, "kh1"), (2, "kh2")):
                assert dgms[name].bars == direct.in_dim(dim).bars

    def test_kh_differs_from_euclidean_generically(self):
        theta = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
        circle = 2.0 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        dgms = local_diagrams(circle, KernelSpec(0.5))
        assert len(dgms["d1"].bars) == 1 and len(dgms["kh1"].bars) == 1
        assert dgms["kh1"].bars != dgms["d1"].bars  # values pass through g

    def test_too_small_subwindow(self):
        with pytest.raises(InvalidInput):
            local_diagrams(np.zeros((1, 2)), KernelSpec(1.0))


def pair_contrast(a, b):
    """Per-channel contrast of a two-element cover whose elements carry the
    9-vector a (resp. b) in each of their seven diagram blocks.

    With M = 2 there is one adjacent pair, so each channel's mean and max
    contrast both equal that pair's contrast.
    """
    blocks = np.stack([np.tile(a, (len(LOCAL_BLOCKS), 1)), np.tile(b, (len(LOCAL_BLOCKS), 1))])
    _, stats = contrast_features(blocks[None])
    mean, peak = stats[0, 0::2], stats[0, 1::2]
    assert np.array_equal(mean, peak)
    return mean


class TestContrast:
    def test_identical_zero(self):
        v = np.arange(9.0)
        assert np.all(pair_contrast(v, v) == 0.0)

    def test_opposite_near_two(self):
        v = np.arange(1.0, 10.0)
        assert np.all(np.abs(pair_contrast(v, -v) - 2.0) < 1e-6)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=9), rng.normal(size=9)
        assert np.array_equal(pair_contrast(a, b), pair_contrast(b, a))

    def test_scale_invariant(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=9), rng.normal(size=9)
        assert np.all(np.abs(pair_contrast(3.7 * a, 3.7 * b) - pair_contrast(a, b)) < 1e-9)

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = rng.normal(size=9), rng.normal(size=9)
            c = pair_contrast(a, b)
            assert np.all((0.0 <= c) & (c <= 2.0 + 1e-9))

    def test_contrast_stats_shape_and_single_element(self):
        blocks = np.random.default_rng(6).normal(size=(3, 1, 7, 9))
        scores, stats = contrast_features(blocks)
        assert scores.shape == (3, 1) and stats.shape == (3, 12)
        assert np.all(scores == 0.0) and np.all(stats == 0.0)
        assert len(CONTRAST_CHANNELS) == 6


@pytest.fixture(scope="module")
def small_blocks():
    rng = np.random.default_rng(7)
    windows = rng.normal(size=(30, 16, 2))
    cover = build_cover(16)
    blocks, stats = local_block_tensor(windows, cover, KernelSpec(1.0))
    targets = windows[:, -1, 0] + 0.1 * rng.normal(size=30)
    return windows, blocks, stats, targets


class TestRepresentation:
    def test_feature_length_contract(self, small_blocks):
        _, blocks, stats, _ = small_blocks
        phi = assemble_local_features(blocks, stats)
        assert phi.shape[-1] == 7 * 9 + 5 * 2

    def test_single_element_pooled_equals_projection(self):
        rng = np.random.default_rng(8)
        phi = rng.normal(size=(5, 1, 20))
        y = rng.normal(size=5)
        proj = fit_local_projection(phi, y, seed=0)
        rep = local_representation_matrix(phi, proj, np.zeros((5, 1)), np.zeros((5, 12)))
        z = ((phi - proj.feature_mean) / proj.feature_std) @ proj.proj
        assert np.allclose(rep[:, :16], z[:, 0, :], atol=1e-12)

    def test_representation_width(self, small_blocks):
        _, blocks, stats, targets = small_blocks
        phi = assemble_local_features(blocks, stats)
        proj = fit_local_projection(phi[:20], targets[:20], seed=0)
        scores, cstats = contrast_features(blocks)
        rep = local_representation_matrix(phi, proj, scores, cstats)
        assert rep.shape == (30, 16 + 12)

    def test_single_window_wrapper(self, small_blocks):
        _, blocks, stats, targets = small_blocks
        phi = assemble_local_features(blocks, stats)
        proj = fit_local_projection(phi[:20], targets[:20], seed=0)
        scores, cstats = contrast_features(blocks)
        # a window's representation does not depend on the rest of the batch
        one = local_representation_matrix(phi[:1], proj, scores[:1], cstats[:1])
        batch = local_representation_matrix(phi, proj, scores, cstats)
        assert np.allclose(one[0], batch[0], atol=1e-12)

    def test_unfitted_projection_rejected(self):
        proj = LocalProjection(
            feature_mean=np.zeros(4), feature_std=np.ones(4), proj=np.zeros((4, 16)),
            query=np.zeros(16), position_scores=np.zeros(2), fitted=False,
        )
        with pytest.raises(CalibrationMissing):
            local_representation_matrix(np.zeros((1, 2, 4)), proj, np.zeros((1, 2)), np.zeros((1, 12)))

    def test_deterministic(self, small_blocks):
        _, blocks, stats, targets = small_blocks
        phi = assemble_local_features(blocks, stats)
        a = fit_local_projection(phi[:20], targets[:20], seed=3)
        b = fit_local_projection(phi[:20], targets[:20], seed=3)
        assert np.array_equal(a.proj, b.proj)
        assert np.array_equal(a.position_scores, b.position_scores)


class TestLocalHead:
    def test_flat_restricted_equals_block_slices(self, small_blocks):
        _, blocks, _, targets = small_blocks
        expected = np.concatenate(
            [
                blocks[:, i, LOCAL_BLOCKS.index(name)]
                for i in range(blocks.shape[1])
                for name in ("d0_plus", "d0_minus")
            ],
            axis=1,
        )
        assert np.array_equal(zeng_features(blocks), expected)
        ridge = fit_local_head(blocks[:20], targets[:20], blocks[20:], targets[20:])
        assert ridge.weights.shape == (expected.shape[1],)


class TestGuardedBlend:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.val_y = rng.normal(size=20)
        self.g_val = self.val_y + rng.normal(0, 0.5, 20)
        self.l_val = self.val_y + rng.normal(0, 0.05, 20)
        self.g_test = rng.normal(size=10)
        self.l_test = rng.normal(size=10)

    def test_rejection_returns_global_bitwise(self):
        state, final = guarded_blend(
            self.g_val, self.l_val, self.val_y, self.g_test, self.l_test, force_reject=True
        )
        assert state.alpha_loc == 0.0 and not state.accepted
        assert final is self.g_test

    def test_accepts_much_better_local(self):
        state, final = guarded_blend(self.g_val, self.l_val, self.val_y, self.g_test, self.l_test)
        assert state.accepted and state.alpha_loc > 0.0

    def test_alpha_one_gives_local(self):
        state, final = guarded_blend(
            self.g_val, self.l_val, self.val_y, self.g_test, self.l_test, grid=(0.0, 1.0)
        )
        if state.alpha_loc == 1.0:
            assert np.allclose(final, self.l_test, atol=1e-15)

    def test_equal_predictions_rejected(self):
        state, final = guarded_blend(self.g_val, self.g_val, self.val_y, self.g_test, self.g_test)
        assert state.alpha_loc == 0.0

    def test_margin_condition(self):
        # local marginally better than global; with delta=0.5 the margin is
        # 0.5 * max(1, global RMSE) = 0.5, far above the improvement, so this
        # checks only that the margin is applied, not the default's size
        rng = np.random.default_rng(10)
        val_y = rng.normal(size=400)
        g = val_y + rng.normal(0, 0.5000, 400)
        l = val_y + rng.normal(0, 0.4997, 400)
        state, _ = guarded_blend(g, l, val_y, self.g_test, self.l_test, delta=0.5)
        assert state.alpha_loc == 0.0

    def test_default_margin_absolute_below_rmse_one(self):
        # global RMSE 0.5: the default margin is an absolute 0.005, so a
        # 0.004 gain (0.8% relative) is rejected
        val_y = np.zeros(50)
        state, _ = guarded_blend(
            np.full(50, 0.5), np.full(50, 0.496), val_y, self.g_test, self.l_test
        )
        assert state.alpha_star == 1.0 and not state.accepted and state.alpha_loc == 0.0

    def test_default_margin_relative_above_rmse_one(self):
        # global RMSE 2: the default margin is 0.5% of it (0.01), so a 0.012
        # gain (0.6%) is accepted and a 0.008 gain (0.4%) is rejected
        val_y = np.zeros(50)
        state, _ = guarded_blend(
            np.full(50, 2.0), np.full(50, 1.988), val_y, self.g_test, self.l_test
        )
        assert state.accepted and state.alpha_loc == 1.0
        state, _ = guarded_blend(
            np.full(50, 2.0), np.full(50, 1.992), val_y, self.g_test, self.l_test
        )
        assert not state.accepted

    def test_grid_default(self):
        assert ALPHA_GRID == (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)
        assert DELTA_LOC == 0.005
