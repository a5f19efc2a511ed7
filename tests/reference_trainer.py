"""Reference body of the learned-eta trainer's loss and gradients, kept as a
byte oracle.

This is ``attention.temperature_loss_and_grads`` as it was before it ran one
window block at a time: every step makes whole (W, N, N) arrays, and each
d_alpha is one ``np.sum`` over the whole product array. The library version
must return the same loss and gradient bytes; ``test_attention`` compares
them. The body is kept verbatim and is not used by the library.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from topoattn.attention import (
    TRAIN_PARAMS,
    TRAIN_WEIGHT_DECAY,
    _products_by_column,
    _short_axis_products,
    _softplus,
    attention_feature_matrix,
    row_softmax,
)
from topoattn.errors import TrainingDiverged


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
    """
    alpha, w_query, w_key, head_w, head_b = (params[k] for k in TRAIN_PARAMS)
    n_windows, n_tokens, p = windows.shape
    weight_decay = TRAIN_WEIGHT_DECAY
    d_h = w_query.shape[1]
    scale = 1.0 / np.sqrt(d_h)

    xq = windows @ w_query
    xk = windows @ w_key
    # one (W, N, N) scratch array for the short-axis products, eta_c B_c,
    # d_attn * attn, d_logits * B_c, d_logits * xk and d_logits * xq
    product = np.empty((n_windows, n_tokens, n_tokens))
    logits = _short_axis_products(xq, xk, product)
    logits *= scale
    eta = _softplus(alpha)
    for c, channel in enumerate(channels):
        logits += np.multiply(stacks[channel], eta[c], out=product)
    attn = row_softmax(logits)
    feats = attention_feature_matrix(windows, attn, summary=summary)
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

    d_logits = _short_axis_products(dctx, windows, product)  # d_attn, turned into d_logits below
    inner = np.sum(np.multiply(d_logits, attn, out=product), axis=-1, keepdims=True)
    d_logits -= inner
    d_logits *= attn

    d_alpha = np.empty_like(alpha)
    sig = expit(alpha)
    for c, channel in enumerate(channels):
        d_alpha[c] = np.sum(np.multiply(d_logits, stacks[channel], out=product)) * sig[c]
    d_alpha += weight_decay * alpha

    d_xq = _products_by_column(d_logits.transpose(0, 2, 1), xk, product)
    d_xq *= scale
    d_xk = _products_by_column(d_logits, xq, product)
    d_xk *= scale
    d_wq = np.einsum("wnp,wnd->pd", windows, d_xq) + weight_decay * w_query
    d_wk = np.einsum("wnp,wnd->pd", windows, d_xk) + weight_decay * w_key
    return loss, dict(zip(TRAIN_PARAMS, (d_alpha, d_wq, d_wk, d_head_w, d_head_b)))
