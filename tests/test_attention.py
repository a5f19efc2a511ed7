"""Attention pipeline: logits, softmax, features, ridge, temperature training."""

import tracemalloc

import numpy as np
import pytest

import reference_trainer
from topoattn import attention
from topoattn.attention import (
    AttentionParams,
    ForecastModel,
    RIDGE_GRID,
    STRENGTH_GRID,
    TRAIN_PARAMS,
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
    window_summary,
)
from topoattn.datasets import gen_cyclic_h1, gen_higher_topology
from topoattn.errors import CalibrationMissing, InvalidInput, TrainingDiverged
from topoattn import geometry
from topoattn.geometry import KernelSpec, row_blocks, stacked_euclidean, symmetrize
from topoattn.protocol import SplitContext
from topoattn.topo_bias import CHANNELS, aet_calibrate, bias_stacks


def make_stacks(windows, channels=("H0", "H1")):
    return bias_stacks(windows, channels)


def one_window_logits(x, params):
    """attention_logits_batch on a stack of one."""
    return attention_logits_batch(np.asarray(x)[None], params)[0]


class TestLogits:
    def test_symmetric_when_projections_equal(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 3))
        params = AttentionParams(w_query=w, w_key=w)
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
        # the trainer starts from alpha = 0, i.e. eta = softplus(0) = log 2
        assert np.isclose(attention._softplus(np.zeros(1))[0], np.log(2.0))

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

    def test_shrinkage_monotone(self, monkeypatch):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        monkeypatch.setattr(attention, "RIDGE_GRID", (0.001,))
        small = ridge_fit(x, y, x, y)
        monkeypatch.setattr(attention, "RIDGE_GRID", (100.0,))
        large = ridge_fit(x, y, x, y)
        assert (small.penalty, large.penalty) == (0.001, 100.0)
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

    def params(self, alpha, seed, head_w, head_b):
        attn = init_attention_params(2, seed=seed)
        return dict(zip(TRAIN_PARAMS, (alpha, attn.w_query, attn.w_key, head_w, head_b)))

    def loss_and_grads(self, params, targets=None):
        targets = self.targets if targets is None else targets
        return temperature_loss_and_grads(self.windows, targets, self.stacks, self.channels, params)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        alpha = rng.normal(scale=0.3, size=2)
        params = self.params(alpha, 3, rng.normal(scale=0.1, size=10), 0.2)
        _, grads = self.loss_and_grads(params)
        assert tuple(grads) == TRAIN_PARAMS
        h = 1e-5
        for c in range(2):
            up = alpha.copy()
            up[c] += h
            down = alpha.copy()
            down[c] -= h
            fd = (self.loss_and_grads({**params, "alpha": up})[0]
                  - self.loss_and_grads({**params, "alpha": down})[0]) / (2 * h)
            rel = abs(grads["alpha"][c] - fd) / max(abs(fd), abs(grads["alpha"][c]), 1e-8)
            assert rel <= 1e-4

    def test_head_gradients_match_finite_differences(self):
        rng = np.random.default_rng(15)
        head_w = rng.normal(scale=0.1, size=10)
        params = self.params(np.zeros(2), 4, head_w, 0.0)
        _, grads = self.loss_and_grads(params)
        h = 1e-6
        for idx in (0, 3, 9):
            up, down = head_w.copy(), head_w.copy()
            up[idx] += h
            down[idx] -= h
            l_up, _ = self.loss_and_grads({**params, "head_w": up})
            l_dn, _ = self.loss_and_grads({**params, "head_w": down})
            fd = (l_up - l_dn) / (2 * h)
            assert abs(grads["head_w"][idx] - fd) / max(abs(fd), 1e-8) <= 1e-4

    def test_epoch_budget_and_eta_nonnegative(self):
        alpha, _attn, info = train_temperatures(
            self.windows[:30], self.targets[:30], self.windows[30:], self.targets[30:],
            {c: self.stacks[c][:30] for c in self.channels},
            {c: self.stacks[c][30:] for c in self.channels},
            self.channels, seed=5,
        )
        assert info["epochs_run"] <= 16
        assert len(info["val_history"]) == info["epochs_run"] + 1
        assert tuple(alpha) == self.channels
        assert all(attention._softplus(a) >= 0.0 for a in alpha.values())

    def test_patience_stops_training(self, monkeypatch):
        # lr=0 freezes parameters, so validation never improves: the loop
        # must stop after exactly TRAIN_PATIENCE = 5 epochs
        monkeypatch.setattr(attention, "TRAIN_LR", 0.0)
        _, _, info = train_temperatures(
            self.windows[:30], self.targets[:30], self.windows[30:], self.targets[30:],
            {c: self.stacks[c][:30] for c in self.channels},
            {c: self.stacks[c][30:] for c in self.channels},
            self.channels, seed=6,
        )
        assert info["epochs_run"] == 5

    def test_diverged_loss_raises(self):
        bad_targets = self.targets.copy()
        bad_targets[0] = np.inf
        with pytest.raises(TrainingDiverged):
            self.loss_and_grads(self.params(np.zeros(2), 0, np.zeros(10), 0.0), bad_targets)


def old_biased_logits(base, stack, strengths):
    out = base.copy()
    for channel, strength in strengths.items():
        if strength != 0.0:
            out += strength * stack[channel]
    return out


def old_row_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def old_loss_and_grads(windows, targets, stacks, channels, params):
    """temperature_loss_and_grads as written before its temporaries were
    reused in place: one fresh array per step."""
    from scipy.special import expit

    alpha, w_query, w_key, head_w, head_b = (params[k] for k in TRAIN_PARAMS)
    n_windows, n_tokens, p = windows.shape
    wd = attention.TRAIN_WEIGHT_DECAY
    scale = 1.0 / np.sqrt(w_query.shape[1])
    xq, xk = windows @ w_query, windows @ w_key
    logits = np.einsum("wnd,wmd->wnm", xq, xk) * scale
    eta = attention._softplus(alpha)
    for c, channel in enumerate(channels):
        logits = logits + eta[c] * stacks[channel]
    attn = old_row_softmax(logits)
    feats = attention_feature_matrix(windows, attn)
    resid = feats @ head_w + head_b - targets
    loss = float(np.mean(resid**2)) + 0.5 * wd * (
        float(np.sum(alpha**2)) + float(np.sum(w_query**2))
        + float(np.sum(w_key**2)) + float(np.sum(head_w**2))
    )
    dyhat = 2.0 * resid / n_windows
    d_head_w = feats.T @ dyhat + wd * head_w
    d_head_b = float(dyhat.sum())
    dfeat = dyhat[:, None] * head_w[None, :]
    dctx = np.repeat(dfeat[:, None, :p] / n_tokens, n_tokens, axis=1)
    dctx[:, -1, :] += dfeat[:, p : 2 * p]
    d_attn = np.einsum("wnp,wmp->wnm", dctx, windows)
    inner = np.sum(d_attn * attn, axis=-1, keepdims=True)
    d_logits = attn * (d_attn - inner)
    d_alpha = np.empty_like(alpha)
    sig = expit(alpha)
    for c, channel in enumerate(channels):
        d_alpha[c] = np.sum(d_logits * stacks[channel]) * sig[c]
    d_alpha += wd * alpha
    d_xq = np.einsum("wnm,wmd->wnd", d_logits, xk) * scale
    d_xk = np.einsum("wnm,wnd->wmd", d_logits, xq) * scale
    d_wq = np.einsum("wnp,wnd->pd", windows, d_xq) + wd * w_query
    d_wk = np.einsum("wnp,wnd->pd", windows, d_xk) + wd * w_key
    return loss, dict(zip(TRAIN_PARAMS, (d_alpha, d_wq, d_wk, d_head_w, d_head_b)))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestInPlaceTemporaries:
    """The forward and gradient code reuses its temporaries in place; it must
    give the bits of the one-array-per-step formulas and leave its inputs as
    they were."""

    @pytest.mark.parametrize("shape", [(4, 4), (7, 9, 9), (3, 16, 16)])
    def test_row_softmax_bitwise(self, shape):
        logits = np.random.default_rng(31).normal(scale=3.0, size=shape)
        before = logits.copy()
        assert same_bits(row_softmax(logits), old_row_softmax(logits))
        assert same_bits(logits, before)

    @pytest.mark.parametrize("strengths", [
        {}, {"H0": 0.0}, {"H1": 0.25}, {"H0": 0.1, "H1": 0.0}, {"H1": 0.5, "H0": 1.0},
        {"H0": np.float64(0.37), "KH0": 0.1},
    ])
    def test_biased_logits_bitwise(self, strengths):
        rng = np.random.default_rng(32)
        base = rng.normal(size=(6, 8, 8))
        stacks = {c: rng.normal(size=(6, 8, 8)) for c in ("H0", "H1", "KH0")}
        kept = {c: b.copy() for c, b in stacks.items()}
        base_before = base.copy()
        assert same_bits(biased_logits(base, stacks, strengths), old_biased_logits(base, stacks, strengths))
        assert same_bits(base, base_before)
        assert all(same_bits(stacks[c], kept[c]) for c in stacks)

    # p = 2 and 3 take the written-out short-axis products, p = 6 einsum;
    # p = 3 keeps the test ids of the channel sets alone
    @pytest.mark.parametrize("channels, p", [
        pytest.param(channels, p, id=f"channels{i}" + ("" if p == 3 else f"-p{p}"))
        for p in (3, 2, 6)
        for i, channels in enumerate([(), ("H0",), ("H0", "H1", "H2")])
    ])
    def test_loss_and_grads_bitwise(self, channels, p):
        rng = np.random.default_rng(33)
        # the trainer gets row slices of larger stacks, as the campaign passes them
        full = rng.normal(size=(40, 10, p))
        full_stacks = bias_stacks(full, ("H0", "H1", "H2"))
        windows = full[8:32]
        stacks = {c: b[8:32] for c, b in full_stacks.items()}
        assert windows.base is full and all(b.base is not None for b in stacks.values())
        targets = rng.normal(size=24)
        attn = init_attention_params(p, seed=4)
        params = dict(zip(TRAIN_PARAMS, (
            rng.normal(scale=0.3, size=len(channels)), attn.w_query, attn.w_key,
            rng.normal(scale=0.1, size=5 * p), 0.3,
        )))
        kept = {k: np.copy(v) for k, v in params.items()}
        kept_stacks = {c: b.copy() for c, b in stacks.items()}
        windows_before, targets_before = windows.copy(), targets.copy()
        loss, grads = temperature_loss_and_grads(windows, targets, stacks, channels, params)
        old_loss, old_grads = old_loss_and_grads(windows, targets, stacks, channels, params)
        assert loss == old_loss
        assert tuple(grads) == tuple(old_grads) == TRAIN_PARAMS
        assert all(same_bits(grads[k], old_grads[k]) for k in TRAIN_PARAMS)
        assert all(same_bits(params[k], kept[k]) for k in TRAIN_PARAMS)
        assert all(same_bits(stacks[c], kept_stacks[c]) for c in stacks)
        assert same_bits(windows, windows_before) and same_bits(targets, targets_before)


#: window counts and token counts of the campaign's forward passes and
#: learned-eta fits: one window (predict), the train/val/test splits of the
#: pinned datasets at every offset, and whole datasets
CAMPAIGN_WINDOWS = (1, 39, 45, 182, 210, 260, 300)
CAMPAIGN_TOKENS = (24, 32)


def with_signed_zeros(rng, shape):
    """Normal draws with about a third of the entries set to +0.0 or -0.0."""
    a = rng.normal(size=shape)
    a[rng.random(shape) < 0.15] = 0.0
    a[rng.random(shape) < 0.15] = -0.0
    return a


class TestEinsumPins:
    """The written-out products reproduce numpy's einsum bit for bit at every
    shape the campaign uses. Their order is einsum's internal lane order, so
    these tests fail if a numpy release changes it."""

    @pytest.mark.parametrize("width", [2, 3, 6, 8])
    def test_short_axis_products_match_einsum(self, width):
        rng = np.random.default_rng(41)
        failures = []
        for n_windows in CAMPAIGN_WINDOWS:
            for n_tokens in CAMPAIGN_TOKENS:
                shape = (n_windows, n_tokens, width)
                cases = {
                    "normal": (rng.normal(size=shape), rng.normal(size=shape)),
                    "signed zeros": (with_signed_zeros(rng, shape), with_signed_zeros(rng, shape)),
                    "all -0.0 products": (np.full(shape, -0.0), rng.normal(size=shape)),
                }
                scratch = np.empty((n_windows, n_tokens, n_tokens))
                for label, (x, y) in cases.items():
                    expected = np.einsum("wnd,wmd->wnm", x, y)
                    for got in (attention._short_axis_products(x, y),
                                attention._short_axis_products(x, y, scratch)):
                        if not same_bits(got, expected):
                            failures.append((n_windows, n_tokens, label))
        assert not failures, f"width {width}: differs from einsum at (W, N, input) {failures}"

    @pytest.mark.parametrize("width", [2, 3, 6])
    def test_products_by_column_match_einsum(self, width):
        rng = np.random.default_rng(42)
        failures = []
        for n_windows in CAMPAIGN_WINDOWS:
            for n_tokens in CAMPAIGN_TOKENS:
                square = (n_windows, n_tokens, n_tokens)
                shape = (n_windows, n_tokens, width)
                zero_slices = rng.normal(size=square)
                zero_slices[:, :, ::3] = -0.0  # whole (W, N) slices of -0.0
                cases = {
                    "normal": (rng.normal(size=square), rng.normal(size=shape)),
                    "signed zeros": (with_signed_zeros(rng, square), with_signed_zeros(rng, shape)),
                    "all -0.0 slices": (zero_slices, with_signed_zeros(rng, shape)),
                }
                for label, (a, x) in cases.items():
                    got = attention._products_by_column(a, x, np.empty(square))
                    if not same_bits(got, np.einsum("wnm,wnd->wmd", a, x)):
                        failures.append((n_windows, n_tokens, label))
        assert not failures, f"width {width}: differs from einsum at (W, N, input) {failures}"

    @pytest.mark.parametrize("width", [2, 3, 6])
    def test_transposed_products_by_column_match_einsum(self, width):
        # d_xq of temperature_loss_and_grads: the sum over m of d_logits * xk
        rng = np.random.default_rng(43)
        failures = []
        for n_windows in CAMPAIGN_WINDOWS:
            for n_tokens in CAMPAIGN_TOKENS:
                square = (n_windows, n_tokens, n_tokens)
                shape = (n_windows, n_tokens, width)
                zero_rows = rng.normal(size=square)
                zero_rows[:, ::3, :] = -0.0  # whole rows of -0.0: sums of -0.0 products
                cases = {
                    "normal": (rng.normal(size=square), rng.normal(size=shape)),
                    "signed zeros": (with_signed_zeros(rng, square), with_signed_zeros(rng, shape)),
                    "all -0.0 rows": (zero_rows, with_signed_zeros(rng, shape)),
                }
                for label, (a, x) in cases.items():
                    got = attention._products_by_column(a.transpose(0, 2, 1), x, np.empty(square))
                    if not same_bits(got, np.einsum("wnm,wmd->wnd", a, x)):
                        failures.append((n_windows, n_tokens, label))
        assert not failures, f"width {width}: differs from einsum at (W, N, input) {failures}"

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7])
    def test_stacked_euclidean_matches_einsum(self, width):
        # every width sums its squares in two written-out lanes, even columns
        # then odd ones; 1-7 covers every width the builders and loaders make
        rng = np.random.default_rng(44)
        failures = []
        for n_windows in CAMPAIGN_WINDOWS:
            for n_tokens in CAMPAIGN_TOKENS:
                shape = (n_windows, n_tokens, width)
                constant = rng.normal(size=shape)
                constant[0] = -0.75  # a window of identical tokens
                cases = {
                    "normal": rng.normal(size=shape),
                    "signed zeros": with_signed_zeros(rng, shape),
                    "constant window": constant,
                    "row-slice view": rng.normal(size=(n_windows + 3, n_tokens, width))[3:],
                }
                for label, windows in cases.items():
                    diff = windows[:, :, None, :] - windows[:, None, :, :]
                    squared = np.einsum("wnmp,wnmp->wnm", diff, diff)
                    if not (same_bits(geometry._squared_distances(windows), squared)
                            and same_bits(stacked_euclidean(windows), symmetrize(np.sqrt(squared)))):
                        failures.append((n_windows, n_tokens, label))
        assert not failures, f"width {width}: differs from einsum at (W, N, input) {failures}"


def old_attention_logits_batch(windows, params):
    q, k = windows @ params.w_query, windows @ params.w_key
    return np.einsum("wnd,wmd->wnm", q, k) / np.sqrt(params.d_h)


def old_feature_matrix(windows, attn):
    ctx = np.matmul(attn, windows)
    return np.concatenate([
        ctx.mean(axis=-2), ctx[..., -1, :],
        windows.mean(axis=-2), windows.std(axis=-2), windows[..., -1, :],
    ], axis=-1)


def old_train_temperatures(train_windows, train_y, val_windows, val_y, train_stacks, val_stacks, channels, seed):
    """train_temperatures as written before the window summary was computed
    once and the short-axis products were written out."""
    p = train_windows.shape[2]
    attn0 = init_attention_params(p, seed)
    eta0 = float(np.logaddexp(0.0, 0.0))
    feats0 = old_feature_matrix(train_windows, old_row_softmax(old_biased_logits(
        old_attention_logits_batch(train_windows, attn0), train_stacks, {c: eta0 for c in channels})))
    xc = feats0 - feats0.mean(axis=0)
    yc = train_y - train_y.mean()
    head_w = np.linalg.solve(xc.T @ xc + 1.0 * np.eye(feats0.shape[1]), xc.T @ yc)
    head_b = float(train_y.mean() - feats0.mean(axis=0) @ head_w)
    params = dict(zip(TRAIN_PARAMS, (np.zeros(len(channels)), attn0.w_query, attn0.w_key, head_w, head_b)))

    def val_rmse(params):
        eta = attention._softplus(params["alpha"])
        attn = AttentionParams(w_query=params["w_query"], w_key=params["w_key"])
        feats = old_feature_matrix(val_windows, old_row_softmax(old_biased_logits(
            old_attention_logits_batch(val_windows, attn), val_stacks,
            {channel: eta[c] for c, channel in enumerate(channels)})))
        return float(np.sqrt(np.mean((feats @ params["head_w"] + params["head_b"] - val_y) ** 2)))

    best = params
    history = [val_rmse(params)]
    bad_epochs = 0
    for _ in range(attention.TRAIN_EPOCHS):
        _loss, grads = old_loss_and_grads(train_windows, train_y, train_stacks, channels, params)
        params = {k: v - attention.TRAIN_LR * grads[k] for k, v in params.items()}
        history.append(val_rmse(params))
        if history[-1] < min(history[:-1]):
            best = params
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= attention.TRAIN_PATIENCE:
                break
    return best, history


class TestSummaryPath:
    """The attention-free columns computed once give the bits of the
    per-call computation."""

    @pytest.fixture(scope="class")
    def ctx(self):
        return SplitContext(gen_cyclic_h1(2, n_windows=60, n_tokens=16), 0.0)

    def test_context_summary_bitwise_and_read_only(self, ctx):
        assert same_bits(ctx.summary, window_summary(ctx.scaled))
        assert not ctx.summary.flags.writeable
        with pytest.raises(ValueError):
            ctx.summary[0, 0] = 1.0
        base = attention_logits_batch(ctx.scaled, init_attention_params(ctx.scaled.shape[2], 1))
        stacks = ctx.stacks_for(("H0", "KH1"), 1)
        strengths = {"H0": 0.25, "KH1": 0.5}
        assert same_bits(forward_features(ctx.scaled, base, stacks, strengths, summary=ctx.summary),
                         forward_features(ctx.scaled, base, stacks, strengths))
        tr = ctx.train_rows
        ti = np.arange(len(ctx.scaled))[tr]
        train_stacks = {c: b[tr] for c, b in stacks.items()}
        assert same_bits(
            forward_features(ctx.scaled[tr], base[tr], train_stacks, strengths, summary=ctx.summary[tr]),
            # the same rows as index copies
            forward_features(ctx.scaled[ti], base[ti], {c: b[ti] for c, b in stacks.items()}, strengths),
        )

    @pytest.mark.parametrize("make", [
        lambda: gen_cyclic_h1(2, n_windows=60, n_tokens=16),  # p = 3
        lambda: gen_higher_topology(2, n_windows=60, n_tokens=16),  # p = 2
    ])
    def test_train_temperatures_matches_pre_change_trainer(self, make):
        ctx = SplitContext(make(), 0.0)
        channels = ("H0", "H1", "KH0")
        stacks = ctx.stacks_for(channels, 3)
        y = ctx.ds.targets
        tr, va = ctx.train_rows, ctx.val_rows
        alpha, attn, info = train_temperatures(
            ctx.scaled[tr], y[tr], ctx.scaled[va], y[va],
            {c: b[tr] for c, b in stacks.items()}, {c: b[va] for c, b in stacks.items()}, channels, 3,
        )
        ti, vi = np.arange(len(y))[tr], np.arange(len(y))[va]  # the same rows as index copies
        best, history = old_train_temperatures(
            ctx.scaled[ti], y[ti], ctx.scaled[vi], y[vi],
            {c: b[ti] for c, b in stacks.items()}, {c: b[vi] for c, b in stacks.items()}, channels, 3,
        )
        assert same_bits(np.array(list(alpha.values())), best["alpha"]) and tuple(alpha) == channels
        assert same_bits(attn.w_query, best["w_query"]) and same_bits(attn.w_key, best["w_key"])
        assert same_bits(np.array(info["val_history"]), np.array(history))
        assert info["epochs_run"] == len(history) - 1


def wide_cyclic(seed):
    """Three cyclic windows of 150 tokens: 2**16 // 150**2 = 2 windows a block."""
    return gen_cyclic_h1(seed, n_windows=3, n_tokens=150)


class TestWindowBlocks:
    """forward_features runs one window block at a time; the bits are those of
    the pass over the whole stack as one block."""

    @pytest.mark.parametrize(("make", "n_windows"), [
        (gen_higher_topology, 1), (gen_higher_topology, 65), (gen_higher_topology, 300),  # N = 32: at most 64 a block
        (gen_cyclic_h1, 114), (gen_cyclic_h1, 260),  # N = 24: at most 113 a block
        (wide_cyclic, 3),  # N = 150: at most 2 a block, so blocks of 1 and 2
    ])
    def test_blocked_forward_matches_one_block(self, make, n_windows, monkeypatch):
        windows = make(1).windows[:n_windows]
        base = attention_logits_batch(windows, init_attention_params(windows.shape[2], 1))
        stacks = bias_stacks(windows, ("H0", "H1", "KH2"), kernel_spec=KernelSpec(0.9))
        strengths = {"H0": 0.25, "H1": 0.0, "KH2": 0.5}
        summary = window_summary(windows)
        softmax_calls = []
        monkeypatch.setattr(attention, "row_softmax", lambda x: softmax_calls.append(1) or row_softmax(x))
        for given in (None, summary):
            one_block = attention_feature_matrix(
                windows, row_softmax(biased_logits(base, stacks, strengths)), summary=given)
            assert same_bits(forward_features(windows, base, stacks, strengths, summary=given), one_block)
        blocks = row_blocks(n_windows, windows.shape[1] ** 2)
        assert len(softmax_calls) == 2 * len(blocks)
        assert (len(blocks) > 1) == (n_windows > 1)  # every case but W = 1 spans blocks


def trainer_inputs(n_windows, n_tokens, p, channels, rng, zero_head=False):
    """Trainer inputs with signed zeros: windows and bias stacks as row
    slices of larger arrays, as the campaign passes its train split."""
    rows = slice(3, 3 + n_windows)
    windows = with_signed_zeros(rng, (n_windows + 5, n_tokens, p))[rows]
    stacks = {c: with_signed_zeros(rng, (n_windows + 5, n_tokens, n_tokens))[rows] for c in channels}
    attn = init_attention_params(p, seed=5)
    head_w = np.zeros(5 * p) if zero_head else rng.normal(scale=0.1, size=5 * p)
    params = dict(zip(TRAIN_PARAMS, (
        rng.normal(scale=0.5, size=len(channels)), attn.w_query, attn.w_key, head_w, 0.2,
    )))
    return windows, rng.normal(size=n_windows), stacks, params


class TestBlockedTrainer:
    """temperature_loss_and_grads runs one window block at a time and sums
    each d_alpha leaf by leaf; loss and gradients keep the bits of the
    whole-array reference body."""

    @pytest.mark.parametrize(("shape", "channels"), [
        ((210, 32, 2), CHANNELS),  # stress's train split, learned_eta_hybrid
        ((45, 32, 2), ("H0", "H1")),
        ((182, 24, 3), ("KH0", "KH1", "KH2")),
        ((1, 32, 2), CHANNELS),  # one window: one block, one leaf
        ((61, 40, 6), ("H0", "AET")),  # odd W at N = 40, einsum products
        ((260, 24, 3), ("H2",)),
        ((7, 16, 1), ()),
        ((3, 150, 2), CHANNELS),  # N = 150: blocks of 1 and 2
    ])
    def test_matches_whole_array_reference(self, shape, channels):
        rng = np.random.default_rng(sum(shape))
        for zero_head in (False, True):  # a zero head makes every d_logits entry a signed zero
            windows, targets, stacks, params = trainer_inputs(*shape, channels, rng, zero_head)
            kept = {k: np.copy(v) for k, v in params.items()}
            kept_stacks = {c: b.copy() for c, b in stacks.items()}
            windows_before = windows.copy()
            for summary in (None, window_summary(windows)):
                loss, grads = temperature_loss_and_grads(windows, targets, stacks, channels, params, summary)
                ref_loss, ref_grads = reference_trainer.temperature_loss_and_grads(
                    windows, targets, stacks, channels, params, summary)
                assert same_bits(loss, ref_loss) and tuple(grads) == TRAIN_PARAMS
                assert all(same_bits(grads[k], ref_grads[k]) for k in TRAIN_PARAMS), shape
            assert all(same_bits(params[k], kept[k]) for k in TRAIN_PARAMS)
            assert all(same_bits(stacks[c], kept_stacks[c]) for c in stacks)
            assert same_bits(windows, windows_before)
        assert len(row_blocks(shape[0], shape[1] ** 2)) == -(-shape[0] // max(1, 2**16 // shape[1] ** 2))

    def test_tree_sum_matches_np_sum(self):
        # every split of numpy's pairwise tree above SUM_LEAF_ENTRIES, and
        # products that are all -0.0, whose np.sum is +0.0
        rng = np.random.default_rng(61)
        leaf = attention.SUM_LEAF_ENTRIES
        for n in (1, 7, 129, leaf, leaf + 1, leaf + 8, 2 * leaf + 13, 210 * 32 * 32, 61 * 40 * 40):
            a, b = with_signed_zeros(rng, n), rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
            scratch = np.empty(min(n, leaf))
            assert same_bits(attention._tree_sum(a, b, scratch), np.sum(a * b)), n
            zeros = np.full(n, -0.0)
            assert same_bits(attention._tree_sum(zeros, np.abs(b), scratch), np.sum(zeros * np.abs(b)))

    def test_step_peak_memory_bounded(self):
        # one learned_eta_hybrid step at stress's train split: one whole
        # (W, N, N) array (1.6 MiB) and block-sized temporaries; the
        # whole-array body peaked at 7.2 MiB
        windows, targets, stacks, params = trainer_inputs(210, 32, 2, CHANNELS, np.random.default_rng(62))
        summary = window_summary(windows)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            temperature_loss_and_grads(windows, targets, stacks, CHANNELS, params, summary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 5 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


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

    def test_no_ridge_head(self):
        model = self.make_model({})
        model.ridge = None
        with pytest.raises(CalibrationMissing, match="no fitted ridge head"):
            predict(np.random.default_rng(25).normal(size=(8, 2)), model)

    def test_aet_prediction_works_with_calibration(self):
        rng = np.random.default_rng(22)
        model = self.make_model({"AET": 0.5}, ("AET",))
        model.aet_params = aet_calibrate([rng.normal(size=(8, 2)) for _ in range(3)], seed=0)
        value = predict(rng.normal(size=(8, 2)), model)
        assert np.isfinite(value)

    def test_second_call_builds_no_per_size_table(self, monkeypatch):
        # the index tables depend on the window size alone and are built on
        # the first call; the medians are sorted, not np.median
        rng = np.random.default_rng(24)
        model = self.make_model({c: 0.25 for c in CHANNELS}, CHANNELS)
        model.aet_params = aet_calibrate([rng.normal(size=(8, 2)) for _ in range(3)], seed=0)
        window = rng.normal(size=(8, 2))
        first = predict(window, model)

        def forbidden(*args, **kwargs):
            raise AssertionError("a per-size table or np.median was rebuilt on a warm call")

        for name in ("triu_indices", "eye", "take_along_axis", "median"):
            monkeypatch.setattr(np, name, forbidden)
        assert predict(window, model) == first

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
