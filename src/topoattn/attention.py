"""Lightweight attention summary + Ridge head, with topological logit biases.

The attention block is a single scaled dot-product layer whose logits can
be shifted by additive topology channels, either with static
validation-selected strengths or with learned nonnegative temperatures
eta_c = softplus(alpha_c). Gradients for the temperature training are
hand-coded reverse mode (softmax -> feature pooling -> linear head), so
they can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import CalibrationMissing, InvalidInput, TrainingDiverged
from .geometry import KernelSpec, _as_tokens
# kept only so that bench/tracer.py can wrap attention.pairwise_euclidean
from .geometry import pairwise_euclidean  # noqa: F401
from .topo_bias import AetParams, RKHS_CHANNELS, bias_stacks

#: Ridge penalty grid searched on the validation split.
RIDGE_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 50.0, 100.0)
#: Static per-channel strength grid.
STRENGTH_GRID = (0.0, 0.1, 0.25, 0.5, 1.0)

TRAIN_EPOCHS = 16
TRAIN_LR = 0.03
TRAIN_WEIGHT_DECAY = 1e-4
TRAIN_PATIENCE = 5


@dataclass
class AttentionParams:
    """Query/key projections of the lightweight attention layer."""

    w_query: np.ndarray  # (p, d_h)
    w_key: np.ndarray  # (p, d_h)
    d_h: int


def init_attention_params(p: int, seed: int, d_h: int | None = None) -> AttentionParams:
    """Seeded Gaussian projections scaled by 1/sqrt(p); d_h = min(p, 8)."""
    if d_h is None:
        d_h = min(p, 8)
    rng = np.random.default_rng(np.random.SeedSequence([17, seed, p, d_h]))
    scale = 1.0 / np.sqrt(p)
    w_query = rng.normal(size=(p, d_h)) * scale
    w_key = rng.normal(size=(p, d_h)) * scale
    return AttentionParams(w_query=w_query, w_key=w_key, d_h=d_h)


@dataclass
class TemperatureParams:
    """Raw channel parameters alpha_c; effective strengths eta_c = softplus(alpha_c)."""

    raw: dict[str, float]

    def eta(self) -> dict[str, float]:
        return {c: float(np.logaddexp(0.0, a)) for c, a in self.raw.items()}


@dataclass(frozen=True)
class TopologyMode:
    """One registry entry: channel set, strength source, residual flag."""

    mode_id: str
    channels: tuple[str, ...]
    strength_source: str  # "none" | "static-grid" | "learned-eta"
    with_residual: bool = False


@dataclass
class RidgeModel:
    """Closed-form ridge regressor with centering-based intercept."""

    weights: np.ndarray
    intercept: float
    penalty: float
    val_rmse: float = np.nan


@dataclass
class ForecastModel:
    """Fitted global pipeline: attention params, strengths, ridge head."""

    mode: TopologyMode
    attn: AttentionParams
    strengths: dict[str, float] = field(default_factory=dict)
    ridge: RidgeModel | None = None
    kernel_spec: KernelSpec | None = None
    aet_params: AetParams | None = None


# ---------------------------------------------------------------------------
# attention forward pieces


def attention_logits_batch(windows: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Scaled dot-product logits (X W_Q)(X W_K)^T / sqrt(d_h) per window, (W, N, N)."""
    q = windows @ params.w_query
    k = windows @ params.w_key
    return np.einsum("wnd,wmd->wnm", q, k) / np.sqrt(params.d_h)


def biased_logits(base: np.ndarray, stack: dict[str, np.ndarray], strengths: dict[str, float]) -> np.ndarray:
    """base + sum_c strength_c * B^c. Zero strengths are skipped so the
    all-zero case returns the base bit-for-bit."""
    out = base.copy()
    for channel, strength in strengths.items():
        if strength == 0.0:
            continue
        if channel not in stack:
            raise InvalidInput(f"strength given for channel {channel} absent from the bias stack")
        out += strength * stack[channel]
    return out


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-stochastic softmax, stable under per-row constant shifts."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise InvalidInput("softmax input contains non-finite entries")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def attention_feature_matrix(windows: np.ndarray, attn: np.ndarray) -> np.ndarray:
    """Per-window summary features, shape (W, 5p).

    Layout: mean attention context, last-token context, window mean,
    window std (population), window last values.
    """
    ctx = np.matmul(attn, windows)
    return np.concatenate(
        [
            ctx.mean(axis=-2),
            ctx[..., -1, :],
            windows.mean(axis=-2),
            windows.std(axis=-2),
            windows[..., -1, :],
        ],
        axis=-1,
    )


def forward_features(windows: np.ndarray, base: np.ndarray, stacks: dict, strengths: dict) -> np.ndarray:
    """Biased logits -> row softmax -> pooled features (W, 5p): the one forward
    pass of the campaign, learned-eta validation and :func:`predict`."""
    return attention_feature_matrix(windows, row_softmax(biased_logits(base, stacks, strengths)))


# ---------------------------------------------------------------------------
# ridge head


def ridge_fit(
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    grid=RIDGE_GRID,
) -> RidgeModel:
    """Closed-form ridge over the penalty grid; lambda picked on validation RMSE."""
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.float64)
    x_mean = train_x.mean(axis=0)
    y_mean = float(train_y.mean())
    xc = train_x - x_mean
    yc = train_y - y_mean
    gram = xc.T @ xc
    rhs = xc.T @ yc
    eye = np.eye(train_x.shape[1])

    best = None
    for lam in grid:
        w = np.linalg.solve(gram + lam * eye, rhs)
        intercept = y_mean - float(x_mean @ w)
        pred = val_x @ w + intercept
        rmse = float(np.sqrt(np.mean((pred - val_y) ** 2)))
        if best is None or rmse < best.val_rmse:
            best = RidgeModel(weights=w, intercept=intercept, penalty=lam, val_rmse=rmse)
    return best


def ridge_predict(model: RidgeModel, x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) @ model.weights + model.intercept


# ---------------------------------------------------------------------------
# learned temperatures


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def temperature_loss_and_grads(
    windows: np.ndarray,
    targets: np.ndarray,
    stacks: dict[str, np.ndarray],
    channels: tuple[str, ...],
    alpha: np.ndarray,
    w_query: np.ndarray,
    w_key: np.ndarray,
    head_w: np.ndarray,
    head_b: float,
    weight_decay: float = TRAIN_WEIGHT_DECAY,
):
    """Training loss and its reverse-mode gradients.

    Loss = mean squared error of the linear head on the attention features
    plus (wd/2) L2 on (alpha, W_Q, W_K, head weights).
    Returns (loss, grads) with grads keyed alpha/w_query/w_key/head_w/head_b.
    """
    n_windows, n_tokens, p = windows.shape
    d_h = w_query.shape[1]
    scale = 1.0 / np.sqrt(d_h)

    xq = windows @ w_query
    xk = windows @ w_key
    base = np.einsum("wnd,wmd->wnm", xq, xk) * scale
    eta = _softplus(alpha)
    logits = base
    for c, channel in enumerate(channels):
        logits = logits + eta[c] * stacks[channel]
    attn = row_softmax(logits)
    feats = attention_feature_matrix(windows, attn)
    resid = feats @ head_w + head_b - targets
    data_loss = float(np.mean(resid**2))
    reg = 0.5 * weight_decay * (
        float(np.sum(alpha**2))
        + float(np.sum(w_query**2))
        + float(np.sum(w_key**2))
        + float(np.sum(head_w**2))
    )
    loss = data_loss + reg
    if not np.isfinite(loss):
        raise TrainingDiverged(f"non-finite training loss {loss}")

    dyhat = 2.0 * resid / n_windows
    d_head_w = feats.T @ dyhat + weight_decay * head_w
    d_head_b = float(dyhat.sum())

    dfeat = dyhat[:, None] * head_w[None, :]
    df_mean = dfeat[:, :p]
    df_last = dfeat[:, p : 2 * p]
    dctx = np.repeat(df_mean[:, None, :] / n_tokens, n_tokens, axis=1)
    dctx[:, -1, :] += df_last

    d_attn = np.einsum("wnp,wmp->wnm", dctx, windows)
    inner = np.sum(d_attn * attn, axis=-1, keepdims=True)
    d_logits = attn * (d_attn - inner)

    d_alpha = np.empty_like(alpha)
    sig = expit(alpha)
    for c, channel in enumerate(channels):
        d_alpha[c] = np.sum(d_logits * stacks[channel]) * sig[c]
    d_alpha += weight_decay * alpha

    d_xq = np.einsum("wnm,wmd->wnd", d_logits, xk) * scale
    d_xk = np.einsum("wnm,wnd->wmd", d_logits, xq) * scale
    d_wq = np.einsum("wnp,wnd->pd", windows, d_xq) + weight_decay * w_query
    d_wk = np.einsum("wnp,wnd->pd", windows, d_xk) + weight_decay * w_key

    grads = {
        "alpha": d_alpha,
        "w_query": d_wq,
        "w_key": d_wk,
        "head_w": d_head_w,
        "head_b": d_head_b,
    }
    return loss, grads


def train_temperatures(
    train_windows: np.ndarray,
    train_y: np.ndarray,
    val_windows: np.ndarray,
    val_y: np.ndarray,
    train_stacks: dict[str, np.ndarray],
    val_stacks: dict[str, np.ndarray],
    channels: tuple[str, ...],
    seed: int,
    epochs: int = TRAIN_EPOCHS,
    lr: float = TRAIN_LR,
    weight_decay: float = TRAIN_WEIGHT_DECAY,
    patience: int = TRAIN_PATIENCE,
):
    """Gradient descent on (alpha_c, W_Q, W_K, linear head).

    Full-batch plain GD, early-stopped on validation RMSE with the given
    patience; the best-epoch parameters are restored. Returns
    (TemperatureParams, AttentionParams, info) where info records the
    epoch count and per-epoch validation RMSEs.
    """
    p = train_windows.shape[2]
    attn0 = init_attention_params(p, seed)
    w_query = attn0.w_query.copy()
    w_key = attn0.w_key.copy()
    alpha = np.zeros(len(channels))

    # head warm start: ridge at the middle of the grid on the initial features
    eta0 = float(np.logaddexp(0.0, 0.0))
    feats0 = forward_features(
        train_windows, attention_logits_batch(train_windows, attn0),
        train_stacks, {c: eta0 for c in channels},
    )
    xc = feats0 - feats0.mean(axis=0)
    yc = train_y - train_y.mean()
    head_w = np.linalg.solve(xc.T @ xc + 1.0 * np.eye(feats0.shape[1]), xc.T @ yc)
    head_b = float(train_y.mean() - feats0.mean(axis=0) @ head_w)

    def val_rmse() -> float:
        eta = _softplus(alpha)
        params = AttentionParams(w_query=w_query, w_key=w_key, d_h=attn0.d_h)
        feats = forward_features(
            val_windows, attention_logits_batch(val_windows, params),
            val_stacks, {channel: eta[c] for c, channel in enumerate(channels)},
        )
        return float(np.sqrt(np.mean((feats @ head_w + head_b - val_y) ** 2)))

    best = {
        "rmse": val_rmse(),
        "alpha": alpha.copy(),
        "w_query": w_query.copy(),
        "w_key": w_key.copy(),
        "head_w": head_w.copy(),
        "head_b": head_b,
    }
    history = [best["rmse"]]
    bad_epochs = 0
    epochs_run = 0
    for _ in range(epochs):
        loss, grads = temperature_loss_and_grads(
            train_windows, train_y, train_stacks, channels,
            alpha, w_query, w_key, head_w, head_b, weight_decay,
        )
        alpha -= lr * grads["alpha"]
        w_query -= lr * grads["w_query"]
        w_key -= lr * grads["w_key"]
        head_w -= lr * grads["head_w"]
        head_b -= lr * grads["head_b"]
        epochs_run += 1

        rmse = val_rmse()
        history.append(rmse)
        if rmse < best["rmse"]:
            best = {
                "rmse": rmse,
                "alpha": alpha.copy(),
                "w_query": w_query.copy(),
                "w_key": w_key.copy(),
                "head_w": head_w.copy(),
                "head_b": head_b,
            }
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= patience:
                break

    temps = TemperatureParams(raw={c: float(a) for c, a in zip(channels, best["alpha"])})
    attn = AttentionParams(w_query=best["w_query"], w_key=best["w_key"], d_h=attn0.d_h)
    info = {"epochs_run": epochs_run, "val_history": history, "best_val_rmse": best["rmse"]}
    return temps, attn, info


# ---------------------------------------------------------------------------
# single-window prediction


def window_bias_stack(
    tokens: np.ndarray,
    channels: tuple[str, ...],
    aet_params: AetParams | None = None,
    kernel_spec: KernelSpec | None = None,
) -> dict[str, np.ndarray]:
    """Bias stack for one window: the batched constructors on a stack of one."""
    stacks = bias_stacks(tokens[None], channels, aet_params=aet_params, kernel_spec=kernel_spec)
    return {c: stacks[c][0] for c in channels}


def predict(cloud, model: ForecastModel) -> float:
    """Forecast one window: the batched forward path on a stack of one."""
    tokens = _as_tokens(cloud)
    if model.ridge is None:
        raise CalibrationMissing("forecast model has no fitted ridge head")
    active = tuple(c for c, s in model.strengths.items() if s != 0.0)
    if "AET" in active and model.aet_params is None:
        raise CalibrationMissing("AET channel active but AetParams missing")
    if any(c in RKHS_CHANNELS for c in active) and model.kernel_spec is None:
        raise CalibrationMissing("KH channel active but kernel bandwidth missing")
    if tokens.shape[1] != model.attn.w_query.shape[0]:
        raise InvalidInput(
            f"token dimension {tokens.shape[1]} does not match projection "
            f"dimension {model.attn.w_query.shape[0]}"
        )
    stack = {}
    if active:
        stack = window_bias_stack(
            tokens, active, aet_params=model.aet_params, kernel_spec=model.kernel_spec,
        )
    windows = tokens[None]
    feats = forward_features(
        windows, attention_logits_batch(windows, model.attn),
        {c: m[None] for c, m in stack.items()}, model.strengths,
    )
    return float(ridge_predict(model.ridge, feats)[0])
