"""Global attention-bias constructors: smooth H0/H1/H2 surrogates, the
anchored Euler-transform channel, and their kernel-Hilbert twins.

Every channel is a symmetric, zero-diagonal, finite N x N matrix meant to
be added to attention logits. The math is implemented once in batched
form over a stack of windows (:func:`bias_stacks`); a single window is a
stack of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import InvalidInput
from .geometry import DEGENERATE_SIGMA, KernelSpec, _as_tokens, pairwise_euclidean
# kept only so that bench/tracer.py can wrap topo_bias.capped_exact_diagrams
from .persistence import capped_exact_diagrams  # noqa: F401

#: Channel identifiers, in registry order.
CHANNELS = ("H0", "H1", "H2", "AET", "KH0", "KH1", "KH2")
EUCLIDEAN_CHANNELS = ("H0", "H1", "H2", "AET")
RKHS_CHANNELS = ("KH0", "KH1", "KH2")

#: Multiscale weights and scale factors of the smooth H0 bias.
H0_WEIGHTS = (0.50, 0.35, 0.15)
H0_SCALES = (0.5, 1.0, 2.0)
#: Cycle-closing scale set, in units of the window sigma.
H1_SCALES = (0.70, 1.0, 1.40)
#: Soft-adjacency temperature, in units of the adjacency scale.
SOFT_TAU_FACTOR = 0.1


@dataclass
class AetParams:
    """Train-calibrated anchored Euler-transform parameters."""

    directions: np.ndarray  # (R, p) unit rows
    thresholds: np.ndarray  # (R, Q) nondecreasing per row
    temperature: float
    adjacency_scale: float

    def __post_init__(self):
        self.directions = np.asarray(self.directions, dtype=np.float64)
        self.thresholds = np.asarray(self.thresholds, dtype=np.float64)
        norms = np.linalg.norm(self.directions, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-10):
            raise InvalidInput("AET directions must be unit vectors")
        if np.any(np.diff(self.thresholds, axis=1) < 0):
            raise InvalidInput("AET thresholds must be nondecreasing per direction")

    @property
    def n_directions(self) -> int:
        return self.directions.shape[0]

    @property
    def n_thresholds(self) -> int:
        return self.thresholds.shape[1]


# ---------------------------------------------------------------------------
# batched primitives; d has shape (..., N, N), sigma broadcasts over (...)


def _batch_sigma(d: np.ndarray) -> np.ndarray:
    """Median positive upper-triangle distance per window."""
    n = d.shape[-1]
    iu = np.triu_indices(n, k=1)
    upper = d[..., iu[0], iu[1]]
    masked = np.where(upper > 0.0, upper, np.nan)
    # identical tokens leave an all-NaN row, which gets DEGENERATE_SIGMA below
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        med = np.nanmedian(masked, axis=-1)
    return np.where(np.isnan(med), DEGENERATE_SIGMA, med)


def _zscore_off_batch(m: np.ndarray) -> np.ndarray:
    n = m.shape[-1]
    off = ~np.eye(n, dtype=bool)
    vals = m[..., off]
    mean = vals.mean(axis=-1, keepdims=True)
    std = vals.std(axis=-1, keepdims=True)
    scaled = np.where(std < 1e-12, 0.0, (vals - mean) / np.where(std < 1e-12, 1.0, std))
    out = np.zeros_like(m)
    out[..., off] = scaled
    return out


def _symmetrize(m: np.ndarray) -> np.ndarray:
    m = 0.5 * (m + np.swapaxes(m, -1, -2))
    n = m.shape[-1]
    m[..., np.arange(n), np.arange(n)] = 0.0
    return m


def _h0_values(d: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    s = np.asarray(sigma)[..., None, None]
    acc = np.zeros_like(d)
    for w, f in zip(H0_WEIGHTS, H0_SCALES):
        acc += w * np.exp(-(d * d) / (2.0 * (f * s) ** 2))
    return _symmetrize(_zscore_off_batch(acc))


def _soft_adjacency_values(d: np.ndarray, eps, tau) -> np.ndarray:
    eps = np.asarray(eps, dtype=np.float64)[..., None, None]
    tau = np.asarray(tau, dtype=np.float64)[..., None, None]
    a = expit((eps - d) / tau)
    n = d.shape[-1]
    a[..., np.arange(n), np.arange(n)] = 0.0
    return a


def _h1_values(d: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    n = d.shape[-1]
    sigma = np.asarray(sigma, dtype=np.float64)
    acc = np.zeros_like(d)
    for f in H1_SCALES:
        a = _soft_adjacency_values(d, f * sigma, SOFT_TAU_FACTOR * sigma)
        two_hop = np.matmul(a, a) / max(n - 2, 1)
        acc += two_hop * (1.0 - a)
    return _symmetrize(_zscore_off_batch(acc / len(H1_SCALES)))


def _shell_stats(d: np.ndarray, tokens: np.ndarray, sigma: np.ndarray):
    n = tokens.shape[-2]
    centroid = tokens.mean(axis=-2, keepdims=True)
    radii = np.linalg.norm(tokens - centroid, axis=-1)
    med = np.median(radii, axis=-1, keepdims=True)
    mad = np.median(np.abs(radii - med), axis=-1)
    scale = np.maximum(mad, 1e-6)
    within = (d <= np.asarray(sigma)[..., None, None]).sum(axis=-1) - 1  # exclude self
    sparsity = 1.0 - within / max(n - 1, 1)
    return radii, scale, sparsity


def _h2_values(d: np.ndarray, tokens: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    radii, scale, sparsity = _shell_stats(d, tokens, sigma)
    diff = radii[..., :, None] - radii[..., None, :]
    gauss = np.exp(-(diff * diff) / (2.0 * scale[..., None, None] ** 2))
    rho = 0.5 * (sparsity[..., :, None] + sparsity[..., None, :])
    return _symmetrize(_zscore_off_batch(gauss * rho))


def _aet_values(tokens: np.ndarray, d: np.ndarray, sigma: np.ndarray, params: AetParams) -> np.ndarray:
    if tokens.shape[-1] != params.directions.shape[1]:
        raise InvalidInput(
            f"token dimension {tokens.shape[-1]} does not match AET calibration "
            f"dimension {params.directions.shape[1]}"
        )
    sigma = np.asarray(sigma, dtype=np.float64)
    eps = np.where(sigma <= DEGENERATE_SIGMA, params.adjacency_scale, sigma)
    adj = _soft_adjacency_values(d, eps, SOFT_TAU_FACTOR * eps)
    proj = np.einsum("...np,rp->...nr", tokens, params.directions)
    m = expit((params.thresholds[None, :, :] - proj[..., None]) / params.temperature)
    coverage = np.einsum("...ij,...jrq->...irq", adj, m)
    c = m * (1.0 - coverage)
    r, q = params.thresholds.shape
    bias = np.einsum("...irq,...jrq->...ij", c, c) / (r * q)
    n = tokens.shape[-2]
    bias[..., np.arange(n), np.arange(n)] = 0.0
    return _symmetrize(bias)


def aet_calibrate(train_clouds, n_directions: int = 8, n_thresholds: int = 8, seed: int = 0) -> AetParams:
    """Fit AET directions, thresholds and temperatures on training windows.

    Directions are the top principal axes of the pooled train tokens,
    padded to ``n_directions`` with seeded random unit vectors; thresholds
    are evenly spaced quantiles of the train projections.
    """
    clouds = [_as_tokens(c) for c in train_clouds]
    if len(clouds) == 0:
        raise InvalidInput("AET calibration needs a nonempty training set")
    pooled = np.concatenate(clouds, axis=0)
    p = pooled.shape[1]

    centered = pooled - pooled.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / max(len(centered) - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    directions = []
    for idx in order[: min(n_directions, p)]:
        v = eigvecs[:, idx]
        anchor = np.argmax(np.abs(v))
        if v[anchor] < 0:
            v = -v
        directions.append(v)
    rng = np.random.default_rng(seed)
    while len(directions) < n_directions:
        v = rng.normal(size=p)
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            continue
        directions.append(v / nrm)
    directions = np.asarray(directions)
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)

    levels = np.linspace(0.0, 1.0, n_thresholds + 2)[1:-1]
    proj = pooled @ directions.T  # (T, R)
    thresholds = np.quantile(proj, levels, axis=0).T  # (R, Q)
    temperature = max(0.5 * float(np.std(proj)), 1e-6)

    window_sigmas = [pairwise_euclidean(c).sigma for c in clouds]
    adjacency_scale = max(float(np.median(window_sigmas)), DEGENERATE_SIGMA)
    return AetParams(
        directions=directions,
        thresholds=thresholds,
        temperature=temperature,
        adjacency_scale=adjacency_scale,
    )


# ---------------------------------------------------------------------------
# batched stack construction


def bias_stacks(
    windows: np.ndarray,
    channels,
    aet_params: AetParams | None = None,
    kernel_spec: KernelSpec | None = None,
) -> dict[str, np.ndarray]:
    """Smooth bias matrices for a stack of windows, one (W, N, N) array per channel.

    AET channels require ``aet_params``; KH channels require ``kernel_spec``.
    """
    windows = np.asarray(windows, dtype=np.float64)
    diff = windows[:, :, None, :] - windows[:, None, :, :]
    d = np.sqrt(np.einsum("wnmp,wnmp->wnm", diff, diff))
    d = _symmetrize(d)
    sigma = _batch_sigma(d)

    out: dict[str, np.ndarray] = {}
    need_kh = [c for c in channels if c in RKHS_CHANNELS]
    if need_kh:
        if kernel_spec is None:
            raise InvalidInput("KH channels need a KernelSpec")
        kernel = np.exp(-(d * d) / (2.0 * kernel_spec.bandwidth**2))
        d_h = _symmetrize(np.sqrt(np.maximum(2.0 - 2.0 * kernel, 0.0)))
        sigma_h = _batch_sigma(d_h)

    for channel in channels:
        if channel == "H0":
            out[channel] = _h0_values(d, sigma)
        elif channel == "H1":
            out[channel] = _h1_values(d, sigma)
        elif channel == "H2":
            out[channel] = _h2_values(d, windows, sigma)
        elif channel == "AET":
            if aet_params is None:
                raise InvalidInput("AET channel needs calibrated AetParams")
            out[channel] = _aet_values(windows, d, sigma, aet_params)
        elif channel == "KH0":
            out[channel] = _h0_values(d_h, sigma_h)
        elif channel == "KH1":
            out[channel] = _h1_values(d_h, sigma_h)
        elif channel == "KH2":
            out[channel] = _h2_values(d_h, windows, sigma_h)
        else:
            raise InvalidInput(f"unknown channel {channel}")
    for channel, stack in out.items():
        if not np.all(np.isfinite(stack)):
            raise InvalidInput(f"bias channel {channel} produced non-finite entries")
        if not np.array_equal(stack, np.swapaxes(stack, -1, -2)):
            raise InvalidInput(f"bias channel {channel} lost symmetry")
    return out
