"""Cover-based local topological features and the validation-gated residual.

Each window is covered by short subwindows (length 8, stride 4, plus one
larger scale when the window allows it). Every cover element yields seven
persistence diagrams: path-sublevel H0 of the primary coordinate and its
negation, Euclidean H1/H2, and the three kernel-Hilbert diagrams. Their
finite-lifetime vectors plus subwindow statistics feed a train-only
attention projection whose pooled output (and contrast statistics) drive
a local Ridge head. A guard blends the local prediction into the global
one only when the blend lowers the global validation RMSE by more than
DELTA_LOC * max(1, global validation RMSE): an absolute 0.005 while that
RMSE is below 1, a 0.5% relative margin above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import RidgeModel, ridge_fit, rmse, row_softmax
from .errors import InvalidInput
from .geometry import KernelSpec, hilbert_distance, pairwise_euclidean
from .persistence import DIAGRAM_VECTOR_LEN, capped_exact_diagrams, path_sublevel_h0, vectorize_diagram

BASE_LENGTH = 8
BASE_STRIDE = 4
WIDE_LENGTH = 16
WIDE_STRIDE = 8

#: Per-element diagram blocks, in feature order.
LOCAL_BLOCKS = ("d0_plus", "d0_minus", "d1", "d2", "kh0", "kh1", "kh2")
#: Contrast channels and their column ranges inside the 63 block columns.
CONTRAST_CHANNELS = {
    "H0": (0, 18),
    "H1": (18, 27),
    "H2": (27, 36),
    "KH0": (36, 45),
    "KH1": (45, 54),
    "KH2": (54, 63),
}
CONTRAST_EPS = 1e-9

PROJECTION_DIM = 16
ALPHA_GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)
DELTA_LOC = 0.005
N_WINDOW_STATS = 5  # mean, std, min, max, last per token dimension


def _strided_starts(length: int, window: int, stride: int) -> list[int]:
    starts = list(range(0, length - window + 1, stride))
    if starts[-1] != length - window:
        starts.append(length - window)  # right-align the tail element
    return starts


def build_cover(window_length: int) -> tuple[tuple[int, int], ...]:
    """Ordered (start, stop) token ranges: base subwindows (length 8,
    stride 4), then one larger scale (length 16, stride 8) when L >= 16.

    Windows shorter than 8 tokens get a single element spanning them. The
    final element of each scale is right-aligned so every index is covered.
    """
    if window_length < BASE_LENGTH:
        return ((0, window_length),)
    scales = [(BASE_LENGTH, BASE_STRIDE)]
    if window_length >= WIDE_LENGTH:
        scales.append((WIDE_LENGTH, WIDE_STRIDE))
    return tuple(
        (s, s + length)
        for length, stride in scales
        for s in _strided_starts(window_length, length, stride)
    )


# ---------------------------------------------------------------------------
# local features


def local_lifetimes(subwindow, spec: KernelSpec) -> tuple[np.ndarray, ...]:
    """Finite lifetimes of the seven local diagrams of one cover element,
    in :data:`LOCAL_BLOCKS` order.

    ``d0_plus``/``d0_minus`` are path-sublevel H0 of the first coordinate
    and its negation; ``d1``/``d2`` come from the full Rips filtration of
    the Euclidean distances; ``kh0``-``kh2`` are the same bars under the
    kernel-Hilbert distance. That map is strictly increasing, so the Rips
    filtration under it is the image of the Euclidean one, and each bar's
    ends map exactly.
    """
    tokens = np.asarray(subwindow, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[0] < 2:
        raise InvalidInput("local diagrams need a subwindow of at least 2 tokens")
    series = tokens[:, 0]
    bars = np.array(capped_exact_diagrams(pairwise_euclidean(tokens)).bars)
    # the bars come sorted by dimension, with H0's one infinite bar last
    # among the H0 bars, so each dimension's finite bars are one slice
    h1, h2 = np.searchsorted(bars[:, 2], (1, 2))
    kh_ends = hilbert_distance(bars[:, :2], spec.bandwidth)
    rips, kh = bars[:, 1] - bars[:, 0], kh_ends[:, 1] - kh_ends[:, 0]
    return (
        path_sublevel_h0(series).finite_lifetimes(),
        path_sublevel_h0(-series).finite_lifetimes(),
        rips[h1:h2],
        rips[h2:],
        kh[: h1 - 1],
        kh[h1:h2],
        kh[h2:],
    )


def local_block_tensor(windows: np.ndarray, cover, spec: KernelSpec) -> np.ndarray:
    """Per-element features Phi (W, M, 63 + 5p) of a stack of windows.

    ``cover`` is the (start, stop) ranges of :func:`build_cover`. Columns
    0-62 hold the 9-vectors of the seven :func:`local_lifetimes` arrays in
    :data:`LOCAL_BLOCKS` order; the last 5p hold each subwindow's mean,
    std, min, max and last token. This is the expensive part of the local
    residual: one Rips reduction per (window, cover element).
    """
    windows = np.asarray(windows, dtype=np.float64)
    n_windows, _, p = windows.shape
    n_blocks = len(LOCAL_BLOCKS) * DIAGRAM_VECTOR_LEN
    slots = [slice(lo, lo + DIAGRAM_VECTOR_LEN) for lo in range(0, n_blocks, DIAGRAM_VECTOR_LEN)]
    phi = np.zeros((n_windows, len(cover), n_blocks + N_WINDOW_STATS * p))
    for i, (start, stop) in enumerate(cover):
        subs = windows[:, start:stop]
        for w in range(n_windows):
            row = phi[w, i]
            for slot, lifetimes in zip(slots, local_lifetimes(subs[w], spec)):
                row[slot] = vectorize_diagram(lifetimes)
        stats = (subs.mean(axis=1), subs.std(axis=1), subs.min(axis=1), subs.max(axis=1), subs[:, -1])
        phi[:, i, n_blocks:] = np.concatenate(stats, axis=1)
    return phi


# ---------------------------------------------------------------------------
# contrasts


def contrast_features(phi: np.ndarray):
    """Adjacent-element contrasts per channel: RMS difference over pair RMS, in [0, ~2].

    ``phi`` is :func:`local_block_tensor`'s output; the channels read its
    block columns. Returns ``scores`` (W, M): per-element mean contrast
    against its cover neighbors, averaged over the six channels (used in
    pooling logits), and ``stats`` (W, 12): mean and max contrast per
    channel over adjacent pairs. Single-element covers yield zeros.
    """
    n_windows, m = phi.shape[:2]
    scores = np.zeros((n_windows, m))
    stats = np.zeros((n_windows, 2 * len(CONTRAST_CHANNELS)))
    if m < 2:
        return scores, stats
    per_channel = []
    for lo, hi in CONTRAST_CHANNELS.values():
        a = phi[:, :-1, lo:hi]
        b = phi[:, 1:, lo:hi]
        num = np.sqrt(np.mean((a - b) ** 2, axis=-1))
        denom = np.sqrt(0.5 * (np.mean(a**2, axis=-1) + np.mean(b**2, axis=-1))) + CONTRAST_EPS
        per_channel.append(num / denom)  # (W, M-1)
    contrasts = np.stack(per_channel, axis=-1)  # (W, M-1, 6)
    mean_adj = contrasts.mean(axis=-1)  # (W, M-1)
    # element k averages the contrasts of pairs k - 1 and k, where they exist
    scores[:, :-1] += mean_adj
    scores[:, 1:] += mean_adj
    neighbor_count = np.full(m, 2.0)
    neighbor_count[[0, -1]] = 1.0
    scores /= neighbor_count
    stats[:, 0::2] = contrasts.mean(axis=1)
    stats[:, 1::2] = contrasts.max(axis=1)
    return scores, stats


# ---------------------------------------------------------------------------
# projection + pooling


POSITION_KAPPA = 6.0
FOCUS_BONUS = 10.0


@dataclass
class LocalProjection:
    """The train-only 16-dim attention layer over cover elements.

    Holds the persistent-homology feature normalizers (train mean/std),
    the supervised projection directions, the pooling query, and the per-
    position predictive scores that bias the pooling logits toward the
    cover positions that carried signal on the training split.
    """

    feature_mean: np.ndarray
    feature_std: np.ndarray
    proj: np.ndarray  # (F, 16)
    query: np.ndarray  # (16,)
    position_scores: np.ndarray  # (M,) train R^2 per cover position


def _pls_directions(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """PROJECTION_DIM NIPALS partial-least-squares weight directions on centered data."""
    xd = x - x.mean(axis=0)
    yc = y - y.mean()
    proj = np.zeros((x.shape[1], PROJECTION_DIM))
    for k in range(min(PROJECTION_DIM, x.shape[1])):
        w = xd.T @ yc
        norm = np.linalg.norm(w)
        if norm < 1e-12:
            break
        w /= norm
        scores = xd @ w
        ss = float(scores @ scores)
        if ss < 1e-12:
            break
        loading = xd.T @ scores / ss
        xd = xd - np.outer(scores, loading)
        yc = yc - scores * float(scores @ yc) / ss
        proj[:, k] = w
    return proj


def fit_local_projection(phi_train: np.ndarray, train_targets: np.ndarray, seed: int = 0) -> LocalProjection:
    """Train the attention layer: supervised directions + position scores.

    Stage 1 fits shared partial-least-squares directions over all cover
    elements (every element labeled with its window target) and scores
    each cover position by its train R^2. Stage 2 refits the directions on
    the best-scoring position alone, so the pooled vector keeps that
    position's predictive coordinates intact. All statistics come from the
    training split only. The layer is :data:`PROJECTION_DIM` wide.
    """
    n_windows, m, n_features = phi_train.shape
    flat = phi_train.reshape(-1, n_features)
    mean = flat.mean(axis=0)
    std = flat.std(axis=0)
    std = np.where(std < 1e-8, 1.0, std)
    z = (phi_train - mean) / std
    y = np.asarray(train_targets, dtype=np.float64)

    def position_r2(projected: np.ndarray) -> np.ndarray:
        yc = y - y.mean()
        total = max(float(yc @ yc), 1e-12)
        scores = np.zeros(m)
        eye = np.eye(projected.shape[-1])
        for pos in range(m):
            zp = projected[:, pos, :] - projected[:, pos, :].mean(axis=0)
            w = np.linalg.solve(zp.T @ zp + eye, zp.T @ yc)
            resid = yc - zp @ w
            scores[pos] = max(0.0, 1.0 - float(resid @ resid) / total)
        return scores

    shared = _pls_directions(z.reshape(-1, n_features), np.repeat(y, m))
    stage1 = position_r2(z @ shared)
    focus = int(np.argmax(stage1))
    proj = _pls_directions(z[:, focus, :], y)
    if not np.any(proj):
        proj = shared  # degenerate target on the focus position
    projected = z @ proj
    position_scores = position_r2(projected)

    query = projected.reshape(-1, PROJECTION_DIM).mean(axis=0)
    norm = np.linalg.norm(query)
    if norm < 1e-12:
        rng = np.random.default_rng(np.random.SeedSequence([29, seed]))
        query = rng.normal(size=PROJECTION_DIM)
        norm = np.linalg.norm(query)
    query = query / norm
    return LocalProjection(
        feature_mean=mean,
        feature_std=std,
        proj=proj,
        query=query,
        position_scores=position_scores,
    )


def local_representation_matrix(
    phi: np.ndarray,
    projection: LocalProjection,
    contrast_scores: np.ndarray,
    contrast_stats: np.ndarray,
) -> np.ndarray:
    """Softmax-pooled projected elements concatenated with contrast stats.

    Pooling logits combine the query response, the element's normalized
    adjacent contrast, and the train-fitted position scores with a bonus
    on the focus position the projection directions were refit on (cover
    elements overlap, so near-tied scores would otherwise smear phase-
    distinct projections together). Output: PROJECTION_DIM + 12 per window.
    """
    z = (phi - projection.feature_mean) / projection.feature_std
    projected = z @ projection.proj  # (W, M, 16)
    logits = projected @ projection.query + contrast_scores
    logits = logits + POSITION_KAPPA * projection.position_scores[None, :]
    focus = int(np.argmax(projection.position_scores))
    logits[..., focus] += FOCUS_BONUS
    pooled = np.einsum("wm,wmk->wk", row_softmax(logits), projected)
    return np.concatenate([pooled, contrast_stats], axis=-1)


# ---------------------------------------------------------------------------
# the Zeng-style head


def zeng_features(phi: np.ndarray) -> np.ndarray:
    """Flat D0+/D0- path-diagram vectors (the first two LOCAL_BLOCKS) over the
    cover, (W, M * 2 * 9): the only input of the Zeng-style baseline."""
    return phi[:, :, : 2 * DIAGRAM_VECTOR_LEN].reshape(phi.shape[0], -1)


def fit_local_head(
    train_phi: np.ndarray,
    train_y: np.ndarray,
    val_phi: np.ndarray,
    val_y: np.ndarray,
) -> RidgeModel:
    """The Zeng-style baseline head: Ridge on :func:`zeng_features`,
    lambda selected on validation."""
    return ridge_fit(zeng_features(train_phi), train_y, zeng_features(val_phi), val_y)


# ---------------------------------------------------------------------------
# guarded blend


@dataclass
class GuardState:
    """Validation-gated blend weight and the evidence that selected it."""

    alpha_loc: float
    alpha_star: float
    val_rmse_global: float
    val_rmse_blend: float
    accepted: bool


def guarded_blend(
    y_global_val: np.ndarray,
    y_local_val: np.ndarray,
    val_targets: np.ndarray,
    y_global_test: np.ndarray,
    y_local_test: np.ndarray,
):
    """Select the blend weight on validation and apply the margin guard.

    alpha* minimizes validation RMSE of (1-a) global + a local over
    :data:`ALPHA_GRID`; it is kept only when the blended RMSE beats the
    global RMSE by DELTA_LOC * max(1, global RMSE). On rejection the final
    predictions are the global array itself (bit-identical preservation).
    """
    rmse_global = rmse(y_global_val, val_targets)
    best_alpha, best_rmse = 0.0, np.inf
    for alpha in ALPHA_GRID:
        blended = (1.0 - alpha) * y_global_val + alpha * y_local_val
        blend_rmse = rmse(blended, val_targets)
        if blend_rmse < best_rmse:
            best_alpha, best_rmse = alpha, blend_rmse
    accepted = best_rmse < rmse_global - DELTA_LOC * max(1.0, rmse_global)
    alpha_loc = best_alpha if accepted else 0.0
    state = GuardState(
        alpha_loc=alpha_loc,
        alpha_star=best_alpha,
        val_rmse_global=rmse_global,
        val_rmse_blend=best_rmse,
        accepted=accepted,
    )
    if alpha_loc == 0.0:
        return state, y_global_test
    return state, (1.0 - alpha_loc) * y_global_test + alpha_loc * y_local_test
