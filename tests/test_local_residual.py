"""Cover construction, local lifetimes and Phi, contrasts, projection, guarded blend."""

import hashlib

import numpy as np
import pytest

from topoattn import local_residual
from topoattn.datasets import gen_cyclic_h1, gen_shell_h2
from topoattn.errors import InvalidInput
from topoattn.geometry import KernelSpec, pairwise_euclidean
from topoattn.local_residual import (
    ALPHA_GRID,
    CONTRAST_CHANNELS,
    DELTA_LOC,
    FOCUS_BONUS,
    LOCAL_BLOCKS,
    POSITION_KAPPA,
    build_cover,
    contrast_features,
    fit_local_head,
    fit_local_projection,
    guarded_blend,
    local_block_tensor,
    local_lifetimes,
    local_representation_matrix,
    zeng_features,
)
from topoattn.persistence import DIAGRAM_VECTOR_LEN, capped_exact_diagrams, path_sublevel_h0
from topoattn.protocol import SplitContext


def starts(cover, length):
    """Starts of the cover elements of one scale, told apart by their length."""
    return [start for start, stop in cover if stop - start == length]


class TestCover:
    def test_length_32(self):
        cover = build_cover(32)
        assert starts(cover, 8) == [0, 4, 8, 12, 16, 20, 24]
        assert starts(cover, 16) == [0, 8, 16]
        assert len(cover) == 10

    def test_length_24(self):
        assert starts(build_cover(24), 8) == [0, 4, 8, 12, 16]

    def test_right_aligned_tail(self):
        assert starts(build_cover(30), 8)[-1] == 22  # right-aligned so index 29 is covered

    def test_every_index_covered(self):
        for length in (8, 11, 16, 24, 30, 32, 40):
            cover = build_cover(length)
            assert all(0 <= start < stop <= length for start, stop in cover)
            covered = np.zeros(length, dtype=int)
            for start in starts(cover, 8):
                covered[start : start + 8] += 1
            assert np.all(covered >= 1)

    def test_short_window_single_element(self):
        assert build_cover(5) == ((0, 5),)


class TestLocalDiagrams:
    """The seven local diagrams of one cover element, as :func:`local_lifetimes` arrays."""

    def test_matches_object_path(self):
        # each array equals, bit for bit, the diagram-object computation;
        # kh0-kh2 against the Rips bars of the directly computed Hilbert matrix
        rng = np.random.default_rng(1)
        for _ in range(60):
            sub = rng.normal(size=(rng.integers(2, 17), rng.integers(1, 7)))
            spec = KernelSpec(rng.uniform(0.5, 2.0))
            d = pairwise_euclidean(sub)
            d_h = np.sqrt(np.maximum(2.0 - 2.0 * np.exp(-(d * d) / (2.0 * spec.bandwidth**2)), 0.0))
            euclid, kh = capped_exact_diagrams(d), capped_exact_diagrams(d_h)
            expected = (
                path_sublevel_h0(sub[:, 0]).finite_lifetimes(),
                path_sublevel_h0(-sub[:, 0]).finite_lifetimes(),
                euclid.in_dim(1).finite_lifetimes(),
                euclid.in_dim(2).finite_lifetimes(),
                *(kh.in_dim(dim).finite_lifetimes() for dim in range(3)),
            )
            got = local_lifetimes(sub, spec)
            assert len(got) == len(expected)
            for name, a, b in zip(LOCAL_BLOCKS, got, expected):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_constant_subwindow(self):
        lifetimes = dict(zip(LOCAL_BLOCKS, local_lifetimes(np.zeros((8, 2)), KernelSpec(1.0))))
        assert len(lifetimes) == 7
        for name in ("d0_plus", "d1", "d2", "kh1", "kh2"):
            assert lifetimes[name].size == 0  # d0_plus keeps only its essential bar

    def test_seven_slots_always(self):
        rng = np.random.default_rng(0)
        assert len(local_lifetimes(rng.normal(size=(8, 3)), KernelSpec(0.7))) == len(LOCAL_BLOCKS)

    def test_kh_differs_from_euclidean_generically(self):
        theta = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
        circle = 2.0 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        lifetimes = dict(zip(LOCAL_BLOCKS, local_lifetimes(circle, KernelSpec(0.5))))
        assert lifetimes["d1"].size == 1 and lifetimes["kh1"].size == 1
        assert lifetimes["kh1"][0] != lifetimes["d1"][0]  # values pass through g

    def test_too_small_subwindow(self):
        with pytest.raises(InvalidInput):
            local_lifetimes(np.zeros((1, 2)), KernelSpec(1.0))


def pair_contrast(a, b):
    """Per-channel contrast of a two-element cover whose elements carry the
    9-vector a (resp. b) in each of their seven diagram blocks.

    With M = 2 there is one adjacent pair, so each channel's mean and max
    contrast both equal that pair's contrast.
    """
    phi = np.stack([np.tile(a, len(LOCAL_BLOCKS)), np.tile(b, len(LOCAL_BLOCKS))])
    _, stats = contrast_features(phi[None])
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

    def test_scores_match_neighbor_loop(self):
        def loop_scores(phi):
            # the per-pair loop the shifted sums replaced, kept as their oracle
            m = phi.shape[1]
            mean_adj = np.stack([
                np.sqrt(np.mean((phi[:, :-1, lo:hi] - phi[:, 1:, lo:hi]) ** 2, axis=-1))
                / (np.sqrt(0.5 * (np.mean(phi[:, :-1, lo:hi] ** 2, axis=-1)
                                  + np.mean(phi[:, 1:, lo:hi] ** 2, axis=-1))) + local_residual.CONTRAST_EPS)
                for lo, hi in CONTRAST_CHANNELS.values()
            ], axis=-1).mean(axis=-1)
            scores, count = np.zeros(phi.shape[:2]), np.zeros(m)
            for pair in range(m - 1):
                scores[:, pair] += mean_adj[:, pair]
                scores[:, pair + 1] += mean_adj[:, pair]
                count[pair] += 1
                count[pair + 1] += 1
            return scores / np.maximum(count, 1.0)

        rng = np.random.default_rng(9)
        for m in (1, 2, 3, 7, 10):
            for _ in range(50):
                phi = rng.normal(size=(4, m, 7 * 9 + 5 * 2)) * 10.0 ** rng.uniform(-3, 3)
                scores, _ = contrast_features(phi)
                assert scores.tobytes() == loop_scores(phi).tobytes()

    def test_contrast_stats_shape_and_single_element(self):
        phi = np.random.default_rng(6).normal(size=(3, 1, 7 * 9 + 5 * 2))
        scores, stats = contrast_features(phi)
        assert scores.shape == (3, 1) and stats.shape == (3, 12)
        assert np.all(scores == 0.0) and np.all(stats == 0.0)
        assert len(CONTRAST_CHANNELS) == 6


@pytest.fixture(scope="module")
def small_phi():
    rng = np.random.default_rng(7)
    windows = rng.normal(size=(30, 16, 2))
    cover = build_cover(16)
    phi = local_block_tensor(windows, cover, KernelSpec(1.0))
    targets = windows[:, -1, 0] + 0.1 * rng.normal(size=30)
    return windows, phi, targets


class TestRepresentation:
    def test_feature_length_contract(self, small_phi):
        _, phi, _ = small_phi
        assert phi.shape[-1] == 7 * 9 + 5 * 2

    def test_single_element_pooled_equals_projection(self):
        rng = np.random.default_rng(8)
        phi = rng.normal(size=(5, 1, 20))
        y = rng.normal(size=5)
        proj = fit_local_projection(phi, y, seed=0)
        rep = local_representation_matrix(phi, proj, np.zeros((5, 1)), np.zeros((5, 12)))
        z = ((phi - proj.feature_mean) / proj.feature_std) @ proj.proj
        assert np.allclose(rep[:, :16], z[:, 0, :], atol=1e-12)

    def test_representation_width(self, small_phi):
        _, phi, targets = small_phi
        proj = fit_local_projection(phi[:20], targets[:20], seed=0)
        scores, cstats = contrast_features(phi)
        rep = local_representation_matrix(phi, proj, scores, cstats)
        assert rep.shape == (30, 16 + 12)

    def test_single_window_wrapper(self, small_phi):
        _, phi, targets = small_phi
        proj = fit_local_projection(phi[:20], targets[:20], seed=0)
        scores, cstats = contrast_features(phi)
        # a window's representation does not depend on the rest of the batch
        one = local_representation_matrix(phi[:1], proj, scores[:1], cstats[:1])
        batch = local_representation_matrix(phi, proj, scores, cstats)
        assert np.allclose(one[0], batch[0], atol=1e-12)

    def test_pooling_matches_inline_softmax(self, small_phi):
        def oracle(phi, projection, contrast_scores, contrast_stats):
            # the representation with its pooling softmax written inline: a
            # byte oracle for the pooling through attention.row_softmax
            z = (phi - projection.feature_mean) / projection.feature_std
            projected = z @ projection.proj
            logits = projected @ projection.query + contrast_scores
            logits = logits + POSITION_KAPPA * projection.position_scores[None, :]
            focus = int(np.argmax(projection.position_scores))
            logits[..., focus] += FOCUS_BONUS
            logits = logits - logits.max(axis=-1, keepdims=True)
            weights = np.exp(logits)
            weights = weights / weights.sum(axis=-1, keepdims=True)
            pooled = np.einsum("wm,wmk->wk", weights, projected)
            return np.concatenate([pooled, contrast_stats], axis=-1)

        _, phi, targets = small_phi
        scores, cstats = contrast_features(phi)
        rng = np.random.default_rng(11)
        cases = [(phi, targets, scores, cstats)]
        for _ in range(5):
            cases.append((rng.normal(size=(300, 10, 20)), rng.normal(size=300),
                          rng.normal(size=(300, 10)), rng.normal(size=(300, 12))))
        for seed, (phi, y, scores, cstats) in enumerate(cases):
            proj = fit_local_projection(phi[:200], y[:200], seed=seed)
            rep = local_representation_matrix(phi, proj, scores, cstats)
            assert rep.tobytes() == oracle(phi, proj, scores, cstats).tobytes()

    def test_non_finite_pooling_logits_rejected(self, small_phi):
        _, phi, targets = small_phi
        proj = fit_local_projection(phi[:20], targets[:20], seed=0)
        scores, cstats = contrast_features(phi)
        scores = scores.copy()
        scores[4, 1] = np.nan
        with pytest.raises(InvalidInput, match="non-finite"):
            local_representation_matrix(phi, proj, scores, cstats)

    def test_deterministic(self, small_phi):
        _, phi, targets = small_phi
        a = fit_local_projection(phi[:20], targets[:20], seed=3)
        b = fit_local_projection(phi[:20], targets[:20], seed=3)
        assert np.array_equal(a.proj, b.proj)
        assert np.array_equal(a.position_scores, b.position_scores)


class TestLocalHead:
    def test_flat_restricted_equals_block_slices(self, small_phi):
        _, phi, targets = small_phi

        def block(i, name):
            lo = LOCAL_BLOCKS.index(name) * DIAGRAM_VECTOR_LEN
            return phi[:, i, lo : lo + DIAGRAM_VECTOR_LEN]

        expected = np.concatenate(
            [block(i, name) for i in range(phi.shape[1]) for name in ("d0_plus", "d0_minus")],
            axis=1,
        )
        assert np.array_equal(zeng_features(phi), expected)
        ridge = fit_local_head(phi[:20], targets[:20], phi[20:], targets[20:])
        assert ridge.weights.shape == (expected.shape[1],)


class TestGuardedBlend:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.val_y = rng.normal(size=20)
        self.g_val = self.val_y + rng.normal(0, 0.5, 20)
        self.l_val = self.val_y + rng.normal(0, 0.05, 20)
        self.g_test = rng.normal(size=10)
        self.l_test = rng.normal(size=10)

    def test_rejection_returns_global_bitwise(self, monkeypatch):
        # the local head is much better here; only an infinite margin rejects it
        monkeypatch.setattr(local_residual, "DELTA_LOC", np.inf)
        state, final = guarded_blend(self.g_val, self.l_val, self.val_y, self.g_test, self.l_test)
        assert state.alpha_loc == 0.0 and not state.accepted
        assert final is self.g_test

    def test_accepts_much_better_local(self):
        state, final = guarded_blend(self.g_val, self.l_val, self.val_y, self.g_test, self.l_test)
        assert state.accepted and state.alpha_loc > 0.0

    def test_alpha_one_gives_local(self, monkeypatch):
        monkeypatch.setattr(local_residual, "ALPHA_GRID", (0.0, 1.0))
        state, final = guarded_blend(self.g_val, self.l_val, self.val_y, self.g_test, self.l_test)
        assert state.alpha_star in (0.0, 1.0)
        if state.alpha_loc == 1.0:
            assert np.allclose(final, self.l_test, atol=1e-15)

    def test_equal_predictions_rejected(self):
        state, final = guarded_blend(self.g_val, self.g_val, self.val_y, self.g_test, self.g_test)
        assert state.alpha_loc == 0.0

    def test_margin_condition(self, monkeypatch):
        # local marginally better than global; with DELTA_LOC = 0.5 the margin
        # is 0.5 * max(1, global RMSE) = 0.5, far above the improvement, so
        # this checks only that the margin is applied, not the default's size
        monkeypatch.setattr(local_residual, "DELTA_LOC", 0.5)
        rng = np.random.default_rng(10)
        val_y = rng.normal(size=400)
        g = val_y + rng.normal(0, 0.5000, 400)
        l = val_y + rng.normal(0, 0.4997, 400)
        state, _ = guarded_blend(g, l, val_y, self.g_test, self.l_test)
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


@pytest.mark.parametrize(
    "gen, digest",
    [
        (gen_cyclic_h1, "924cac6ff86f94a956aaccd4599dcaf2539d3195027b3d6d6516c74fb7e43700"),
        (gen_shell_h2, "4c8b9338122c1e39b9875a295932c8863fa5fd4af28f793ebc275fb78c1555be"),
    ],
    ids=["cyclic", "shell"],
)
def test_local_phi_byte_identical(gen, digest):
    # digests of the diagram-vector columns, then the subwindow-stat columns,
    # of Phi as a plain boundary-matrix reduction computes them; any
    # persistence engine must reproduce them bit for bit
    phi = SplitContext(gen(3, n_windows=40, n_tokens=16), 0.0).local_phi()
    n_blocks = len(LOCAL_BLOCKS) * DIAGRAM_VECTOR_LEN
    blocks, stats = np.ascontiguousarray(phi[..., :n_blocks]), np.ascontiguousarray(phi[..., n_blocks:])
    assert hashlib.sha256(blocks.tobytes() + stats.tobytes()).hexdigest() == digest
