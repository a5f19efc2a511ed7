"""Attention pipeline: logits, softmax, features, ridge, temperature training."""

import numpy as np
import pytest

from topoattn.attention import (
    AttentionParams,
    ForecastModel,
    RIDGE_GRID,
    STRENGTH_GRID,
    TemperatureParams,
    RidgeModel,
    TopologyMode,
    attention_logits_batch,
    attention_feature_matrix,
    biased_logits,
    forward_features,
    init_attention_params,
    predict,
    ridge_fit,
    ridge_predict,
    row_softmax,
    temperature_loss_and_grads,
    train_temperatures,
)
from topoattn.errors import CalibrationMissing, InvalidInput, TrainingDiverged
from topoattn.geometry import KernelSpec
from topoattn.topo_bias import aet_calibrate, bias_stacks


def make_stacks(windows, channels=("H0", "H1")):
    return bias_stacks(windows, channels)


def one_window_logits(x, params):
    """attention_logits_batch on a stack of one."""
    return attention_logits_batch(np.asarray(x)[None], params)[0]


class TestLogits:
    def test_symmetric_when_projections_equal(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 3))
        params = AttentionParams(w_query=w, w_key=w, d_h=3)
        logits = one_window_logits(rng.normal(size=(6, 3)), params)
        assert np.allclose(logits, logits.T, atol=1e-12)

    def test_zero_cloud_zero_logits(self):
        params = init_attention_params(2, seed=1)
        assert np.array_equal(one_window_logits(np.zeros((4, 2)), params), np.zeros((4, 4)))

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 3))
        params = init_attention_params(3, seed=2)
        got = one_window_logits(x, params)
        q = x @ params.w_query
        k = x @ params.w_key
        expected = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                expected[i, j] = sum(q[i, a] * k[j, a] for a in range(params.d_h)) / np.sqrt(params.d_h)
        assert np.allclose(got, expected, atol=1e-12)

    def test_shape_mismatch(self):
        # a window from outside the program whose token dimension differs
        # from the fitted projections is rejected by predict
        model = ForecastModel(
            mode=TopologyMode("classical", (), "none"),
            attn=init_attention_params(3, seed=0),
            ridge=RidgeModel(weights=np.zeros(15), intercept=0.0, penalty=1.0),
        )
        with pytest.raises(InvalidInput):
            predict(np.zeros((4, 2)), model)


class TestBiasedLogits:
    def test_zero_strengths_bitwise(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(5, 5))
        stacks = {"H0": rng.normal(size=(5, 5))}
        out = biased_logits(base, stacks, {"H0": 0.0})
        assert out.tobytes() == base.tobytes()

    def test_single_channel_additive(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        out = biased_logits(base, {"H1": b}, {"H1": 0.7})
        assert np.allclose(out - base, 0.7 * b, atol=1e-12)

    def test_softplus_zero_init(self):
        temps = TemperatureParams(raw={"H0": 0.0})
        assert np.isclose(temps.eta()["H0"], np.log(2.0))

    def test_missing_channel(self):
        with pytest.raises(InvalidInput):
            biased_logits(np.zeros((3, 3)), {}, {"H0": 0.5})


class TestRowSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        a = row_softmax(rng.normal(size=(6, 6)))
        assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)

    def test_constant_row_uniform(self):
        a = row_softmax(np.full((3, 5), 2.0))
        assert np.allclose(a, 0.2, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(4, 4))
        shifted = logits + rng.normal(size=(4, 1))
        assert np.allclose(row_softmax(logits), row_softmax(shifted), atol=1e-12)

    def test_exp_normalize_oracle(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(3, 4))
        e = np.exp(logits)
        assert np.allclose(row_softmax(logits), e / e.sum(axis=1, keepdims=True), atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            row_softmax(np.array([[0.0, np.nan]]))


def one_window_features(x, a):
    """attention_feature_matrix on a stack of one."""
    return attention_feature_matrix(x[None], a[None])[0]


class TestFeatures:
    def test_uniform_attention_gives_column_means(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 3))
        a = np.full((6, 6), 1.0 / 6.0)
        feats = one_window_features(x, a)
        assert np.allclose(feats[:3], x.mean(axis=0), atol=1e-12)

    def test_diagonal_dominant_last_context(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 2))
        a = row_softmax(50.0 * np.eye(5))
        feats = one_window_features(x, a)
        assert np.allclose(feats[2:4], x[-1], atol=1e-6)

    def test_dimension_contract(self):
        for p in (2, 3, 6):
            x = np.random.default_rng(p).normal(size=(8, p))
            a = row_softmax(np.zeros((8, 8)))
            assert one_window_features(x, a).shape == (5 * p,)


class TestRidge:
    def test_interpolates_exact_linear_targets(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(60, 5)) * 100.0  # large scale makes lambda=0.001 negligible
        w = rng.normal(size=5)
        y = x @ w + 3.0
        model = ridge_fit(x[:40], y[:40], x[40:], y[40:])
        assert model.penalty == 0.001
        train_rmse = np.sqrt(np.mean((ridge_predict(model, x[:40]) - y[:40]) ** 2))
        assert train_rmse <= 1e-6

    def test_shrinkage_monotone(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        small = ridge_fit(x, y, x, y, grid=(0.001,))
        large = ridge_fit(x, y, x, y, grid=(100.0,))
        assert np.linalg.norm(large.weights) <= np.linalg.norm(small.weights)

    def test_grid_contents(self):
        assert RIDGE_GRID == (0.001, 0.01, 0.1, 1.0, 10.0, 50.0, 100.0)
        assert STRENGTH_GRID == (0.0, 0.1, 0.25, 0.5, 1.0)

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(50, 6))
        y = rng.normal(size=50)
        model = ridge_fit(x, y, x, y)
        xc = x - x.mean(axis=0)
        yc = y - y.mean()
        rhs = xc.T @ yc
        lhs = (xc.T @ xc + model.penalty * np.eye(6)) @ model.weights
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


class TestTemperatureTraining:
    def setup_method(self):
        rng = np.random.default_rng(13)
        self.windows = rng.normal(size=(40, 10, 2))
        self.targets = rng.normal(size=40) + self.windows[:, -1, 0]
        self.channels = ("H0", "H1")
        self.stacks = make_stacks(self.windows, self.channels)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        alpha = rng.normal(scale=0.3, size=2)
        params = init_attention_params(2, seed=3)
        head_w = rng.normal(scale=0.1, size=10)
        head_b = 0.2

        def loss_at(a):
            loss, _ = temperature_loss_and_grads(
                self.windows, self.targets, self.stacks, self.channels,
                a, params.w_query, params.w_key, head_w, head_b,
            )
            return loss

        _, grads = temperature_loss_and_grads(
            self.windows, self.targets, self.stacks, self.channels,
            alpha, params.w_query, params.w_key, head_w, head_b,
        )
        h = 1e-5
        for c in range(2):
            up = alpha.copy()
            up[c] += h
            down = alpha.copy()
            down[c] -= h
            fd = (loss_at(up) - loss_at(down)) / (2 * h)
            rel = abs(grads["alpha"][c] - fd) / max(abs(fd), abs(grads["alpha"][c]), 1e-8)
            assert rel <= 1e-4

    def test_head_gradients_match_finite_differences(self):
        rng = np.random.default_rng(15)
        alpha = np.zeros(2)
        params = init_attention_params(2, seed=4)
        head_w = rng.normal(scale=0.1, size=10)
        _, grads = temperature_loss_and_grads(
            self.windows, self.targets, self.stacks, self.channels,
            alpha, params.w_query, params.w_key, head_w, 0.0,
        )
        h = 1e-6
        for idx in (0, 3, 9):
            up, down = head_w.copy(), head_w.copy()
            up[idx] += h
            down[idx] -= h
            l_up, _ = temperature_loss_and_grads(
                self.windows, self.targets, self.stacks, self.channels,
                alpha, params.w_query, params.w_key, up, 0.0,
            )
            l_dn, _ = temperature_loss_and_grads(
                self.windows, self.targets, self.stacks, self.channels,
                alpha, params.w_query, params.w_key, down, 0.0,
            )
            fd = (l_up - l_dn) / (2 * h)
            assert abs(grads["head_w"][idx] - fd) / max(abs(fd), 1e-8) <= 1e-4

    def test_epoch_budget_and_eta_nonnegative(self):
        temps, _attn, info = train_temperatures(
            self.windows[:30], self.targets[:30], self.windows[30:], self.targets[30:],
            {c: self.stacks[c][:30] for c in self.channels},
            {c: self.stacks[c][30:] for c in self.channels},
            self.channels, seed=5,
        )
        assert info["epochs_run"] <= 16
        assert all(v >= 0.0 for v in temps.eta().values())

    def test_patience_stops_training(self):
        # lr=0 freezes parameters, so validation never improves: the loop
        # must stop after exactly `patience` epochs
        _, _, info = train_temperatures(
            self.windows[:30], self.targets[:30], self.windows[30:], self.targets[30:],
            {c: self.stacks[c][:30] for c in self.channels},
            {c: self.stacks[c][30:] for c in self.channels},
            self.channels, seed=6, lr=0.0, patience=5,
        )
        assert info["epochs_run"] == 5

    def test_diverged_loss_raises(self):
        bad_targets = self.targets.copy()
        bad_targets[0] = np.inf
        with pytest.raises(TrainingDiverged):
            temperature_loss_and_grads(
                self.windows, bad_targets, self.stacks, self.channels,
                np.zeros(2), init_attention_params(2, 0).w_query,
                init_attention_params(2, 0).w_key, np.zeros(10), 0.0,
            )


class TestPredict:
    def make_model(self, strengths, mode_channels=()):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(30, 8, 2))
        a = row_softmax(attention_logits_batch(x, init_attention_params(2, 7)))
        feats = attention_feature_matrix(x, a)
        y = rng.normal(size=30)
        ridge = ridge_fit(feats[:20], y[:20], feats[20:], y[20:])
        mode = TopologyMode("test", tuple(mode_channels), "static-grid")
        return ForecastModel(
            mode=mode,
            attn=init_attention_params(2, 7),
            strengths=strengths,
            ridge=ridge,
            kernel_spec=KernelSpec(1.0),
        )

    def test_empty_channels_match_classical(self):
        rng = np.random.default_rng(17)
        window = rng.normal(size=(8, 2))
        model = self.make_model({})
        classical = self.make_model({"H0": 0.0})
        assert predict(window, model) == predict(window, classical)

    def test_deterministic(self):
        rng = np.random.default_rng(18)
        window = rng.normal(size=(8, 2))
        model = self.make_model({"H0": 0.5}, ("H0",))
        assert predict(window, model) == predict(window, model)

    def test_nonzero_strength_changes_prediction(self):
        rng = np.random.default_rng(19)
        window = rng.normal(size=(8, 2))
        base = self.make_model({})
        biased = self.make_model({"H0": 0.5}, ("H0",))
        assert predict(window, base) != predict(window, biased)

    def test_missing_calibration(self):
        model = self.make_model({"AET": 0.5}, ("AET",))
        model.aet_params = None
        with pytest.raises(CalibrationMissing):
            predict(np.random.default_rng(20).normal(size=(8, 2)), model)
        model2 = self.make_model({"KH0": 0.5}, ("KH0",))
        model2.kernel_spec = None
        with pytest.raises(CalibrationMissing):
            predict(np.random.default_rng(21).normal(size=(8, 2)), model2)

    def test_aet_prediction_works_with_calibration(self):
        rng = np.random.default_rng(22)
        model = self.make_model({"AET": 0.5}, ("AET",))
        model.aet_params = aet_calibrate([rng.normal(size=(8, 2)) for _ in range(3)], seed=0)
        value = predict(rng.normal(size=(8, 2)), model)
        assert np.isfinite(value)

    def test_matches_batched_forward_path(self):
        # predict is the batched forward path on a stack of one
        rng = np.random.default_rng(23)
        windows = rng.normal(size=(6, 8, 2))
        model = self.make_model({"H0": 0.5, "H1": 0.0, "KH0": 0.25}, ("H0", "H1", "KH0"))
        stacks = bias_stacks(windows, ("H0", "KH0"), kernel_spec=model.kernel_spec)
        base = attention_logits_batch(windows, model.attn)
        batched = ridge_predict(model.ridge, forward_features(windows, base, stacks, model.strengths))
        single = np.array([predict(w, model) for w in windows])
        assert np.max(np.abs(single - batched)) <= 1e-12
