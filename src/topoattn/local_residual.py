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
from scipy.spatial.distance import cdist

from .attention import RidgeModel, ridge_fit
from .errors import CalibrationMissing, InvalidInput
from .geometry import KernelSpec
from .persistence import (
    DIAGRAM_VECTOR_LEN,
    PersistenceDiagram,
    capped_exact_diagrams,
    path_sublevel_h0,
    vectorize_diagram,
)

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


@dataclass(frozen=True)
class CoverElement:
    start: int
    length: int
    scale: str  # "base" | "wide"

    @property
    def stop(self) -> int:
        return self.start + self.length


@dataclass
class Cover:
    """Ordered cover of token indices by subwindows."""

    elements: list[CoverElement]
    window_length: int

    def masks(self) -> np.ndarray:
        m = np.zeros((len(self.elements), self.window_length), dtype=np.int8)
        for i, el in enumerate(self.elements):
            m[i, el.start : el.stop] = 1
        return m

    def __len__(self) -> int:
        return len(self.elements)


def _strided_starts(length: int, window: int, stride: int) -> list[int]:
    starts = list(range(0, length - window + 1, stride))
    if starts[-1] != length - window:
        starts.append(length - window)  # right-align the tail element
    return starts


def build_cover(window_length: int) -> Cover:
    """Base subwindows (length 8, stride 4) plus one larger scale when L >= 16.

    Windows shorter than 8 tokens get a single element spanning them. The
    final element of each scale is right-aligned so every index is covered.
    """
    if window_length < BASE_LENGTH:
        return Cover([CoverElement(0, window_length, "base")], window_length)
    elements = [
        CoverElement(s, BASE_LENGTH, "base")
        for s in _strided_starts(window_length, BASE_LENGTH, BASE_STRIDE)
    ]
    if window_length >= WIDE_LENGTH:
        elements += [
            CoverElement(s, WIDE_LENGTH, "wide")
            for s in _strided_starts(window_length, WIDE_LENGTH, WIDE_STRIDE)
        ]
    return Cover(elements, window_length)


# ---------------------------------------------------------------------------
# local diagrams


def _hilbert_map(bars, bandwidth: float):
    """Map Euclidean Rips bars through d -> sqrt(2 - 2 exp(-d^2/(2 l^2))).

    The map is strictly increasing, so the Rips filtration under the
    kernel-Hilbert distance is its image and the bar multiset transforms
    exactly; essential bars stay essential.
    """

    def g(x: float) -> float:
        if not np.isfinite(x):
            return np.inf
        return float(np.sqrt(max(2.0 - 2.0 * np.exp(-(x * x) / (2.0 * bandwidth**2)), 0.0)))

    return [(g(b), g(d), k) for (b, d, k) in bars]


def local_diagrams(subwindow, spec: KernelSpec, distances: np.ndarray | None = None) -> dict[str, PersistenceDiagram]:
    """The seven local diagrams of one cover element.

    ``d0_plus``/``d0_minus`` are path-sublevel H0 diagrams of the first
    coordinate and its negation; ``d1``/``d2`` come from the full Rips
    filtration of the Euclidean distances; the ``kh*`` diagrams are the
    same filtration under the kernel-Hilbert distance.
    """
    tokens = np.asarray(subwindow, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[0] < 2:
        raise InvalidInput("local diagrams need a subwindow of at least 2 tokens")
    series = tokens[:, 0]
    d0_plus = path_sublevel_h0(series)
    d0_minus = path_sublevel_h0(-series)
    if distances is None:
        distances = cdist(tokens, tokens)
        distances = 0.5 * (distances + distances.T)
        np.fill_diagonal(distances, 0.0)
    dgm = capped_exact_diagrams(distances)
    kh = PersistenceDiagram(_hilbert_map(dgm.bars, spec.bandwidth))
    return {
        "d0_plus": d0_plus,
        "d0_minus": d0_minus,
        "d1": dgm.in_dim(1),
        "d2": dgm.in_dim(2),
        "kh0": kh.in_dim(0),
        "kh1": kh.in_dim(1),
        "kh2": kh.in_dim(2),
    }


def _window_stats(tokens: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [
            tokens.mean(axis=0),
            tokens.std(axis=0),
            tokens.min(axis=0),
            tokens.max(axis=0),
            tokens[-1],
        ]
    )


def local_block_tensor(windows: np.ndarray, cover: Cover, spec: KernelSpec):
    """Diagram-vector blocks and subwindow stats for a stack of windows.

    Returns ``blocks`` of shape (W, M, 7, 9) and ``stats`` of shape
    (W, M, 5p). This is the expensive part of the local residual; one
    Rips reduction per (window, cover element).
    """
    windows = np.asarray(windows, dtype=np.float64)
    n_windows, _, p = windows.shape
    m = len(cover)
    blocks = np.zeros((n_windows, m, len(LOCAL_BLOCKS), DIAGRAM_VECTOR_LEN))
    stats = np.zeros((n_windows, m, N_WINDOW_STATS * p))
    for w in range(n_windows):
        tokens = windows[w]
        dist = cdist(tokens, tokens)
        dist = 0.5 * (dist + dist.T)
        np.fill_diagonal(dist, 0.0)
        for i, el in enumerate(cover.elements):
            sub = tokens[el.start : el.stop]
            sub_d = dist[el.start : el.stop, el.start : el.stop]
            dgms = local_diagrams(sub, spec, distances=sub_d)
            for b, name in enumerate(LOCAL_BLOCKS):
                blocks[w, i, b] = vectorize_diagram(dgms[name])
            stats[w, i] = _window_stats(sub)
    return blocks, stats


# ---------------------------------------------------------------------------
# contrasts


def contrast_features(blocks: np.ndarray):
    """Adjacent-element contrasts per channel: RMS difference over pair RMS, in [0, ~2].

    Returns ``scores`` (W, M): per-element mean contrast against its cover
    neighbors, averaged over the six channels (used in pooling logits),
    and ``stats`` (W, 12): mean and max contrast per channel over adjacent
    pairs. Single-element covers yield zeros.
    """
    n_windows, m = blocks.shape[:2]
    flat = blocks.reshape(n_windows, m, -1)  # (W, M, 63)
    scores = np.zeros((n_windows, m))
    stats = np.zeros((n_windows, 2 * len(CONTRAST_CHANNELS)))
    if m < 2:
        return scores, stats
    per_channel = []
    for lo, hi in CONTRAST_CHANNELS.values():
        a = flat[:, :-1, lo:hi]
        b = flat[:, 1:, lo:hi]
        num = np.sqrt(np.mean((a - b) ** 2, axis=-1))
        denom = np.sqrt(0.5 * (np.mean(a**2, axis=-1) + np.mean(b**2, axis=-1))) + CONTRAST_EPS
        per_channel.append(num / denom)  # (W, M-1)
    contrasts = np.stack(per_channel, axis=-1)  # (W, M-1, 6)
    mean_adj = contrasts.mean(axis=-1)  # (W, M-1)
    neighbor_count = np.zeros(m)
    for pair in range(m - 1):
        scores[:, pair] += mean_adj[:, pair]
        scores[:, pair + 1] += mean_adj[:, pair]
        neighbor_count[pair] += 1
        neighbor_count[pair + 1] += 1
    scores /= np.maximum(neighbor_count, 1.0)
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
    fitted: bool = False


def _pls_directions(x: np.ndarray, y: np.ndarray, out_dim: int) -> np.ndarray:
    """NIPALS partial-least-squares weight directions on centered data."""
    xd = x - x.mean(axis=0)
    yc = y - y.mean()
    proj = np.zeros((x.shape[1], out_dim))
    for k in range(min(out_dim, x.shape[1])):
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


def fit_local_projection(
    phi_train: np.ndarray,
    train_targets: np.ndarray,
    seed: int = 0,
    out_dim: int = PROJECTION_DIM,
) -> LocalProjection:
    """Train the attention layer: supervised directions + position scores.

    Stage 1 fits shared partial-least-squares directions over all cover
    elements (every element labeled with its window target) and scores
    each cover position by its train R^2. Stage 2 refits the directions on
    the best-scoring position alone, so the pooled vector keeps that
    position's predictive coordinates intact. All statistics come from the
    training split only.
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

    shared = _pls_directions(z.reshape(-1, n_features), np.repeat(y, m), out_dim)
    stage1 = position_r2(z @ shared)
    focus = int(np.argmax(stage1))
    proj = _pls_directions(z[:, focus, :], y, out_dim)
    if not np.any(proj):
        proj = shared  # degenerate target on the focus position
    projected = z @ proj
    position_scores = position_r2(projected)

    query = projected.reshape(-1, out_dim).mean(axis=0)
    norm = np.linalg.norm(query)
    if norm < 1e-12:
        rng = np.random.default_rng(np.random.SeedSequence([29, seed]))
        query = rng.normal(size=out_dim)
        norm = np.linalg.norm(query)
    query = query / norm
    return LocalProjection(
        feature_mean=mean,
        feature_std=std,
        proj=proj,
        query=query,
        position_scores=position_scores,
        fitted=True,
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
    if not projection.fitted:
        raise CalibrationMissing("local projection has not been fitted")
    z = (phi - projection.feature_mean) / projection.feature_std
    projected = z @ projection.proj  # (W, M, 16)
    logits = projected @ projection.query + contrast_scores
    logits = logits + POSITION_KAPPA * projection.position_scores[None, :]
    focus = int(np.argmax(projection.position_scores))
    logits[..., focus] += FOCUS_BONUS
    logits = logits - logits.max(axis=-1, keepdims=True)
    weights = np.exp(logits)
    weights = weights / weights.sum(axis=-1, keepdims=True)
    pooled = np.einsum("wm,wmk->wk", weights, projected)
    return np.concatenate([pooled, contrast_stats], axis=-1)


# ---------------------------------------------------------------------------
# local features and the Zeng-style head


def assemble_local_features(blocks: np.ndarray, stats: np.ndarray) -> np.ndarray:
    """Per-element feature vectors Phi (W, M, 63 + 5p): the seven diagram
    blocks, then the subwindow stats."""
    n_windows, m = blocks.shape[:2]
    return np.concatenate([blocks.reshape(n_windows, m, -1), stats], axis=-1)


def zeng_features(blocks: np.ndarray) -> np.ndarray:
    """Flat D0+/D0- path-diagram vectors (the first two LOCAL_BLOCKS) over the
    cover, (W, M * 2 * 9): the only input of the Zeng-style baseline."""
    return blocks[:, :, :2, :].reshape(blocks.shape[0], -1)


def fit_local_head(
    train_blocks: np.ndarray,
    train_y: np.ndarray,
    val_blocks: np.ndarray,
    val_y: np.ndarray,
) -> RidgeModel:
    """The Zeng-style baseline head: Ridge on :func:`zeng_features`,
    lambda selected on validation."""
    return ridge_fit(zeng_features(train_blocks), train_y, zeng_features(val_blocks), val_y)


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
    delta: float = DELTA_LOC
    grid: tuple = ALPHA_GRID


def _rmse(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.sqrt(np.mean((pred - target) ** 2)))


def guarded_blend(
    y_global_val: np.ndarray,
    y_local_val: np.ndarray,
    val_targets: np.ndarray,
    y_global_test: np.ndarray,
    y_local_test: np.ndarray,
    delta: float = DELTA_LOC,
    grid=ALPHA_GRID,
    force_reject: bool = False,
):
    """Select the blend weight on validation and apply the margin guard.

    alpha* minimizes validation RMSE of (1-a) global + a local over the
    grid; it is kept only when the blended RMSE beats the global RMSE by
    delta * max(1, global RMSE). On rejection the final predictions are
    the global array itself (bit-identical preservation).
    """
    rmse_global = _rmse(y_global_val, val_targets)
    best_alpha, best_rmse = 0.0, np.inf
    for alpha in grid:
        blended = (1.0 - alpha) * y_global_val + alpha * y_local_val
        rmse = _rmse(blended, val_targets)
        if rmse < best_rmse:
            best_alpha, best_rmse = alpha, rmse
    accepted = (not force_reject) and best_rmse < rmse_global - delta * max(1.0, rmse_global)
    alpha_loc = best_alpha if accepted else 0.0
    state = GuardState(
        alpha_loc=alpha_loc,
        alpha_star=best_alpha,
        val_rmse_global=rmse_global,
        val_rmse_blend=best_rmse,
        accepted=accepted,
        delta=delta,
        grid=tuple(grid),
    )
    if alpha_loc == 0.0:
        return state, y_global_test
    return state, (1.0 - alpha_loc) * y_global_test + alpha_loc * y_local_test
