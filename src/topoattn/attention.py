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
from .geometry import KernelSpec, _as_tokens, row_blocks
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
#: Keys of the trainer's parameter dict: raw temperatures, projections, linear head.
TRAIN_PARAMS = ("alpha", "w_query", "w_key", "head_w", "head_b")


@dataclass
class AttentionParams:
    """Query/key projections of the lightweight attention layer."""

    w_query: np.ndarray  # (p, d_h)
    w_key: np.ndarray  # (p, d_h)

    @property
    def d_h(self) -> int:
        return self.w_query.shape[1]


def init_attention_params(p: int, seed: int) -> AttentionParams:
    """Seeded Gaussian projections scaled by 1/sqrt(p); d_h = min(p, 8)."""
    d_h = min(p, 8)
    rng = np.random.default_rng(np.random.SeedSequence([17, seed, p, d_h]))
    scale = 1.0 / np.sqrt(p)
    w_query = rng.normal(size=(p, d_h)) * scale
    w_key = rng.normal(size=(p, d_h)) * scale
    return AttentionParams(w_query=w_query, w_key=w_key)


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


def _short_axis_products(x: np.ndarray, y: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Per-window inner products over the short last axis, (W, N, d) x (W, M, d)
    -> (W, N, M): the bits of ``einsum("wnd,wmd->wnm", x, y)``.

    For d = 2 and d = 3 the sum is written out in einsum's own order, x0*y0 +
    x1*y1 and (x0*y0 + x2*y2) + x1*y1, plus the +0.0 that einsum's accumulator
    starts from (it turns an all -0.0 sum into +0.0); this runs about twice as
    fast. ``scratch`` is a (W, N, M) buffer for the products. Any other width
    goes through einsum.
    """
    d = x.shape[-1]
    if d not in (2, 3):
        return np.einsum("wnd,wmd->wnm", x, y)
    out = np.multiply(x[:, :, None, 0], y[:, None, :, 0])
    if scratch is None:
        scratch = np.empty_like(out)
    for j in (2, 1) if d == 3 else (1,):
        out += np.multiply(x[:, :, None, j], y[:, None, :, j], out=scratch)
    out += 0.0
    return out


def _products_by_column(a: np.ndarray, x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """(W, N, M) x (W, N, d) -> (W, M, d), summed over n: the bits of
    ``einsum("wnm,wnd->wmd", a, x)``, one of the d columns at a time. Each
    column is the same sequential sum over n, and faster; ``scratch`` is a
    (W, N, M) buffer for the products. On ``a.transpose(0, 2, 1)`` it gives
    the bits of ``einsum("wmn,wnd->wmd", a, x)``."""
    out = np.empty((a.shape[0], a.shape[2], x.shape[2]))
    for j in range(x.shape[2]):
        np.add.reduce(np.multiply(a, x[:, :, None, j], out=scratch), axis=1, out=out[:, :, j])
    return out


def attention_logits_batch(windows: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Scaled dot-product logits (X W_Q)(X W_K)^T / sqrt(d_h) per window, (W, N, N)."""
    q = windows @ params.w_query
    k = windows @ params.w_key
    logits = _short_axis_products(q, k)
    logits /= np.sqrt(params.d_h)
    return logits


def biased_logits(base: np.ndarray, stack: dict[str, np.ndarray], strengths: dict[str, float]) -> np.ndarray:
    """base + sum_c strength_c * B^c. Zero strengths are skipped so the
    all-zero case returns the base bit-for-bit."""
    out = base.copy()
    product = None
    for channel, strength in strengths.items():
        if strength == 0.0:
            continue
        if channel not in stack:
            raise InvalidInput(f"strength given for channel {channel} absent from the bias stack")
        if product is None:
            product = np.empty_like(out)
        out += np.multiply(stack[channel], strength, out=product)
    return out


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-stochastic softmax, stable under per-row constant shifts."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise InvalidInput("softmax input contains non-finite entries")
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def window_summary(windows: np.ndarray) -> np.ndarray:
    """The attention-free feature columns, (W, 3p): window mean, window std
    (population), window last values."""
    return np.concatenate(
        [windows.mean(axis=-2), windows.std(axis=-2), windows[..., -1, :]], axis=-1,
    )


def attention_feature_matrix(windows: np.ndarray, attn: np.ndarray, summary: np.ndarray | None = None) -> np.ndarray:
    """Per-window summary features, shape (W, 5p).

    Layout: mean attention context, last-token context, then
    :func:`window_summary`, which is computed here unless ``summary``
    already holds it for these windows.
    """
    ctx = np.matmul(attn, windows)
    if summary is None:
        summary = window_summary(windows)
    return np.concatenate([ctx.mean(axis=-2), ctx[..., -1, :], summary], axis=-1)


def forward_features(
    windows: np.ndarray, base: np.ndarray, stacks: dict, strengths: dict, summary: np.ndarray | None = None,
) -> np.ndarray:
    """Biased logits -> row softmax -> pooled features (W, 5p): the one forward
    pass of the campaign, learned-eta validation and :func:`predict`.
    ``summary`` is the windows' :func:`window_summary`, if already known.

    A stack of more than one :func:`~topoattn.geometry.row_blocks` block
    runs one block at a time into one (W, 5p) output, so its (W, N, N)
    temporaries never exist whole; a stack that fits in one block, such as
    :func:`predict`'s stack of one, runs once on the arrays as given.
    """
    n_windows, n_tokens, p = windows.shape
    blocks = row_blocks(n_windows, n_tokens * n_tokens)
    if len(blocks) > 1:
        out = np.empty((n_windows, 5 * p))
        for b in blocks:
            out[b] = forward_features(
                windows[b], base[b], {c: m[b] for c, m in stacks.items()}, strengths,
                summary=None if summary is None else summary[b],
            )
        return out
    return attention_feature_matrix(windows, row_softmax(biased_logits(base, stacks, strengths)), summary=summary)


# ---------------------------------------------------------------------------
# ridge head


def rmse(pred, y) -> float:
    """Root mean squared error of ``pred`` against ``y``."""
    return float(np.sqrt(np.mean((np.asarray(pred) - np.asarray(y)) ** 2)))


def ridge_fit(train_x: np.ndarray, train_y: np.ndarray, val_x: np.ndarray, val_y: np.ndarray) -> RidgeModel:
    """Closed-form ridge over :data:`RIDGE_GRID`; lambda picked on validation RMSE."""
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
    for lam in RIDGE_GRID:
        w = np.linalg.solve(gram + lam * eye, rhs)
        intercept = y_mean - float(x_mean @ w)
        val_rmse = rmse(val_x @ w + intercept, val_y)
        if best is None or val_rmse < best.val_rmse:
            best = RidgeModel(weights=w, intercept=intercept, penalty=lam, val_rmse=val_rmse)
    return best


def ridge_predict(model: RidgeModel, x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) @ model.weights + model.intercept


# ---------------------------------------------------------------------------
# learned temperatures


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


#: Largest run of entries each d_alpha partial sum covers (see
#: :func:`_tree_sum`); 128 KB of float64 products.
SUM_LEAF_ENTRIES = 2**14


def _tree_sum(a: np.ndarray, b: np.ndarray, scratch: np.ndarray) -> float:
    """``np.sum(a * b)`` over two flat arrays of n entries, with its bits,
    using an at most :data:`SUM_LEAF_ENTRIES` product buffer ``scratch``.

    numpy sums a contiguous array pairwise: it splits n entries at
    n // 2 - (n // 2) % 8 and adds the sums of the two halves, down to runs
    of at most 128. This function splits the same way, takes each run of at
    most :data:`SUM_LEAF_ENTRIES` entries (a subtree of numpy's) with one
    ``np.sum``, and adds the partial sums in the tree's order.
    """
    n = a.size
    if n <= SUM_LEAF_ENTRIES:
        return np.sum(np.multiply(a, b, out=scratch[:n]))
    half = n // 2
    half -= half % 8
    return _tree_sum(a[:half], b[:half], scratch) + _tree_sum(a[half:], b[half:], scratch)


def temperature_loss_and_grads(
    windows: np.ndarray,
    targets: np.ndarray,
    stacks: dict[str, np.ndarray],
    channels: tuple[str, ...],
    params: dict,
    summary: np.ndarray | None = None,
):
    """Training loss and its reverse-mode gradients.

    ``params`` maps each of :data:`TRAIN_PARAMS` to its value. Loss = mean
    squared error of the linear head on the attention features plus
    (wd/2) L2 on (alpha, W_Q, W_K, head weights), wd = TRAIN_WEIGHT_DECAY.
    ``summary`` is the windows' :func:`window_summary`, if already known.
    Returns (loss, grads) with grads keyed like ``params``.

    The forward and backward passes run one
    :func:`~topoattn.geometry.row_blocks` block at a time. The one whole
    (W, N, N) array holds the attention, then d_logits, which each
    channel's d_alpha sums over the whole stack (:func:`_tree_sum`).
    """
    alpha, w_query, w_key, head_w, head_b = (params[k] for k in TRAIN_PARAMS)
    n_windows, n_tokens, p = windows.shape
    weight_decay = TRAIN_WEIGHT_DECAY
    d_h = w_query.shape[1]
    scale = 1.0 / np.sqrt(d_h)
    blocks = row_blocks(n_windows, n_tokens * n_tokens)
    if summary is None:
        summary = window_summary(windows)

    xq = windows @ w_query
    xk = windows @ w_key
    eta = _softplus(alpha)
    attn = np.empty((n_windows, n_tokens, n_tokens))  # the attention, then d_logits
    feats = np.empty((n_windows, 5 * p))
    for b in blocks:
        # one (block, N, N) scratch array for the short-axis products and eta_c B_c
        product = np.empty(attn[b].shape)
        logits = _short_axis_products(xq[b], xk[b], product)
        logits *= scale
        for c, channel in enumerate(channels):
            logits += np.multiply(stacks[channel][b], eta[c], out=product)
        attn[b] = row_softmax(logits)
        feats[b] = attention_feature_matrix(windows[b], attn[b], summary=summary[b])
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

    d_xq = np.empty_like(xq)
    d_xk = np.empty_like(xk)
    for b in blocks:
        # the (block, N, N) scratch array takes d_attn * attn, d_logits * xk
        # and d_logits * xq
        a = attn[b]
        product = np.empty(a.shape)
        d_logits = _short_axis_products(dctx[b], windows[b], product)  # d_attn, turned into d_logits below
        inner = np.sum(np.multiply(d_logits, a, out=product), axis=-1, keepdims=True)
        d_logits -= inner
        np.multiply(d_logits, a, out=a)
        d_xq[b] = _products_by_column(a.transpose(0, 2, 1), xk[b], product)
        d_xk[b] = _products_by_column(a, xq[b], product)
    d_xq *= scale
    d_xk *= scale

    d_alpha = np.empty_like(alpha)
    sig = expit(alpha)
    flat = attn.reshape(-1)
    scratch = np.empty(min(flat.size, SUM_LEAF_ENTRIES))
    for c, channel in enumerate(channels):
        d_alpha[c] = _tree_sum(flat, stacks[channel].reshape(-1), scratch) * sig[c]
    d_alpha += weight_decay * alpha

    d_wq = np.einsum("wnp,wnd->pd", windows, d_xq) + weight_decay * w_query
    d_wk = np.einsum("wnp,wnd->pd", windows, d_xk) + weight_decay * w_key
    return loss, dict(zip(TRAIN_PARAMS, (d_alpha, d_wq, d_wk, d_head_w, d_head_b)))


def train_temperatures(
    train_windows: np.ndarray,
    train_y: np.ndarray,
    val_windows: np.ndarray,
    val_y: np.ndarray,
    train_stacks: dict[str, np.ndarray],
    val_stacks: dict[str, np.ndarray],
    channels: tuple[str, ...],
    seed: int,
):
    """Gradient descent on (alpha_c, W_Q, W_K, linear head).

    Full-batch plain GD for up to TRAIN_EPOCHS epochs at rate TRAIN_LR,
    early-stopped on validation RMSE after TRAIN_PATIENCE epochs without
    improvement; the best-epoch parameters are restored. Returns
    (alpha, AttentionParams, info): alpha maps each channel to its raw
    value (eta_c = softplus(alpha_c)), and info records the epoch count
    and the validation RMSE before training and after each epoch.
    """
    p = train_windows.shape[2]
    attn0 = init_attention_params(p, seed)
    train_summary, val_summary = window_summary(train_windows), window_summary(val_windows)

    # head warm start: ridge at the middle of the grid on the initial features
    eta0 = float(np.logaddexp(0.0, 0.0))
    feats0 = forward_features(
        train_windows, attention_logits_batch(train_windows, attn0),
        train_stacks, {c: eta0 for c in channels}, summary=train_summary,
    )
    xc = feats0 - feats0.mean(axis=0)
    yc = train_y - train_y.mean()
    head_w = np.linalg.solve(xc.T @ xc + 1.0 * np.eye(feats0.shape[1]), xc.T @ yc)
    head_b = float(train_y.mean() - feats0.mean(axis=0) @ head_w)
    params = dict(zip(TRAIN_PARAMS, (np.zeros(len(channels)), attn0.w_query, attn0.w_key, head_w, head_b)))

    def val_rmse(params: dict) -> float:
        eta = _softplus(params["alpha"])
        attn = AttentionParams(w_query=params["w_query"], w_key=params["w_key"])
        feats = forward_features(
            val_windows, attention_logits_batch(val_windows, attn),
            val_stacks, {channel: eta[c] for c, channel in enumerate(channels)}, summary=val_summary,
        )
        return rmse(feats @ params["head_w"] + params["head_b"], val_y)

    best = params
    history = [val_rmse(params)]
    bad_epochs = 0
    for _ in range(TRAIN_EPOCHS):
        _loss, grads = temperature_loss_and_grads(
            train_windows, train_y, train_stacks, channels, params, summary=train_summary,
        )
        params = {k: v - TRAIN_LR * grads[k] for k, v in params.items()}
        history.append(val_rmse(params))
        if history[-1] < min(history[:-1]):
            best = params
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= TRAIN_PATIENCE:
                break

    alpha = {c: float(a) for c, a in zip(channels, best["alpha"])}
    attn = AttentionParams(w_query=best["w_query"], w_key=best["w_key"])
    return alpha, attn, {"epochs_run": len(history) - 1, "val_history": history}


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
