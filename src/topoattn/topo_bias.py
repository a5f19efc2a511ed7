"""Global attention-bias constructors: smooth H0/H1/H2 surrogates, the
anchored Euler-transform channel, and their kernel-Hilbert twins.

Every channel is a symmetric, zero-diagonal, finite N x N matrix meant to
be added to attention logits. The math is implemented once in batched
form over a stack of windows (:func:`bias_stacks`); a single window is a
stack of one. Distances, median scales, the kernel-Hilbert distance and
the off-diagonal z-score come from :mod:`topoattn.geometry`; this module
holds only the channel formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import InvalidInput
from .geometry import (
    DEGENERATE_SIGMA,
    KernelSpec,
    _as_tokens,
    _zero_diagonal,
    hilbert_distance,
    pairwise_euclidean,
    pooled_sigma,
    row_blocks,
    stacked_euclidean,
    symmetrize,
    window_sigma,
    zscore_offdiagonal,
)
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
#: Anchored Euler transform: projection directions x quantile thresholds.
AET_DIRECTIONS = AET_THRESHOLDS = 8


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


# ---------------------------------------------------------------------------
# channel values; d has shape (..., N, N), sigma broadcasts over (...)
#
# H0 and H2 are elementwise in the symmetric distances and radii, then
# z-scored with a zero diagonal, so they come out exactly symmetric and need
# no symmetrize pass. AET's last einsum sums the same products in one order
# for (i, j) and (j, i), so it only zeroes its diagonal. H1's batched matmul
# is not bitwise symmetric at every window size (with OpenBLAS, N = 17-20,
# 25-28, ... for N mod 8 in 1-4), so H1 and KH1 are symmetrized.


def _h0_values(d: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    s = np.asarray(sigma)[..., None, None]
    acc = np.zeros_like(d)
    for w, f in zip(H0_WEIGHTS, H0_SCALES):
        acc += w * np.exp(-(d * d) / (2.0 * (f * s) ** 2))
    return zscore_offdiagonal(acc)


def _soft_adjacency_values(d: np.ndarray, eps, tau) -> np.ndarray:
    eps = np.asarray(eps, dtype=np.float64)[..., None, None]
    tau = np.asarray(tau, dtype=np.float64)[..., None, None]
    return _zero_diagonal(expit((eps - d) / tau))


def _h1_values(d: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    n = d.shape[-1]
    sigma = np.asarray(sigma, dtype=np.float64)
    tau = SOFT_TAU_FACTOR * sigma
    acc = np.zeros_like(d)
    for f in H1_SCALES:
        a = _soft_adjacency_values(d, f * sigma, tau)
        two_hop = np.matmul(a, a) / max(n - 2, 1)
        acc += two_hop * (1.0 - a)
    return symmetrize(zscore_offdiagonal(acc / len(H1_SCALES)))


def _median(x: np.ndarray) -> np.ndarray:
    """Median over the last axis, (s[(n - 1) // 2] + s[n // 2]) / 2 of the
    sorted values: the bits of ``np.median`` on finite input without -0.0
    (radii and absolute deviations never hold -0.0)."""
    s = np.sort(x, axis=-1)
    n = s.shape[-1]
    return (s[..., (n - 1) // 2] + s[..., n // 2]) / 2.0


def _shell_stats(d: np.ndarray, tokens: np.ndarray, sigma: np.ndarray):
    n = tokens.shape[-2]
    centroid = tokens.mean(axis=-2, keepdims=True)
    offsets = tokens - centroid
    # np.linalg.norm's own formula over one axis, without its dispatch
    radii = np.sqrt(np.add.reduce(offsets * offsets, axis=-1))
    med = _median(radii)
    mad = _median(np.abs(radii - med[..., None]))
    scale = np.maximum(mad, 1e-6)
    within = (d <= np.asarray(sigma)[..., None, None]).sum(axis=-1) - 1  # exclude self
    sparsity = 1.0 - within / max(n - 1, 1)
    return radii, scale, sparsity


def _h2_values(d: np.ndarray, tokens: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    radii, scale, sparsity = _shell_stats(d, tokens, sigma)
    diff = radii[..., :, None] - radii[..., None, :]
    gauss = np.exp(-(diff * diff) / (2.0 * scale[..., None, None] ** 2))
    rho = 0.5 * (sparsity[..., :, None] + sparsity[..., None, :])
    return zscore_offdiagonal(gauss * rho)


#: The H0/H1/H2 formulas over (distances, sigmas, windows). KHk is the Hk
#: formula on the kernel-Hilbert distance and its sigmas.
_H_FORMULAS = {
    "H0": lambda d, sigma, windows: _h0_values(d, sigma),
    "H1": lambda d, sigma, windows: _h1_values(d, sigma),
    "H2": lambda d, sigma, windows: _h2_values(d, windows, sigma),
}


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
    return _zero_diagonal(np.einsum("...irq,...jrq->...ij", c, c) / (r * q))


def aet_calibrate(train_windows, seed: int = 0) -> AetParams:
    """Fit AET directions, thresholds and temperatures on training windows.

    ``train_windows`` is a (W, N, p) stack, or a sequence of W equal-shape
    N x p clouds. Directions are the top principal axes of the pooled train
    tokens, padded to :data:`AET_DIRECTIONS` with seeded random unit
    vectors; thresholds are :data:`AET_THRESHOLDS` evenly spaced quantiles
    of the train projections.
    """
    if len(train_windows) == 0:
        raise InvalidInput("AET calibration needs a nonempty training set")
    windows = _as_tokens(train_windows, stacked=True)
    pooled = windows.reshape(-1, windows.shape[-1])
    p = pooled.shape[1]

    centered = pooled - pooled.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / max(len(centered) - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    directions = []
    for idx in order[: min(AET_DIRECTIONS, p)]:
        v = eigvecs[:, idx]
        anchor = np.argmax(np.abs(v))
        if v[anchor] < 0:
            v = -v
        directions.append(v)
    rng = np.random.default_rng(seed)
    while len(directions) < AET_DIRECTIONS:
        v = rng.normal(size=p)
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            continue
        directions.append(v / nrm)
    directions = np.asarray(directions)
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)

    levels = np.linspace(0.0, 1.0, AET_THRESHOLDS + 2)[1:-1]
    proj = pooled @ directions.T  # (T, R)
    thresholds = np.quantile(proj, levels, axis=0).T  # (R, Q)
    temperature = max(0.5 * float(np.std(proj)), 1e-6)

    adjacency_scale = pooled_sigma(pairwise_euclidean(windows))
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
    euclidean: tuple[np.ndarray, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Smooth bias matrices for a stack of windows, one (W, N, N) array per channel.

    AET channels require ``aet_params``; KH channels require ``kernel_spec``.
    ``euclidean`` is ``(stacked_euclidean(windows), its window_sigma)`` for
    a caller that keeps them; without it they are computed here. A stack of
    more than one :func:`~topoattn.geometry.row_blocks` block is built one
    block at a time, its distances, sigmas and kernel-Hilbert distances too,
    into one (W, N, N) output per channel, so no temporary of a formula
    holds more than one block; each block is checked for finite, symmetric
    entries.
    """
    windows = np.asarray(windows, dtype=np.float64)
    n_windows, n_tokens = windows.shape[:2]
    blocks = row_blocks(n_windows, n_tokens * n_tokens)
    if len(blocks) > 1:
        out = {c: np.empty((n_windows, n_tokens, n_tokens)) for c in channels}
        for b in blocks:
            block = bias_stacks(
                windows[b], channels, aet_params, kernel_spec,
                None if euclidean is None else (euclidean[0][b], euclidean[1][b]),
            )
            for channel, stack in out.items():
                stack[b] = block[channel]
        return out

    if euclidean is None:
        d = stacked_euclidean(windows)
        euclidean = d, window_sigma(d)
    d, sigma = euclidean

    out: dict[str, np.ndarray] = {}
    need_kh = [c for c in channels if c in RKHS_CHANNELS]
    if need_kh:
        if kernel_spec is None:
            raise InvalidInput("KH channels need a KernelSpec")
        d_h = hilbert_distance(d, kernel_spec.bandwidth)
        sigma_h = window_sigma(d_h)

    for channel in channels:
        if channel == "AET":
            if aet_params is None:
                raise InvalidInput("AET channel needs calibrated AetParams")
            out[channel] = _aet_values(windows, d, sigma, aet_params)
        elif channel in _H_FORMULAS:
            out[channel] = _H_FORMULAS[channel](d, sigma, windows)
        elif channel in RKHS_CHANNELS:
            out[channel] = _H_FORMULAS[channel[1:]](d_h, sigma_h, windows)
        else:
            raise InvalidInput(f"unknown channel {channel}")
    for channel, stack in out.items():
        if not np.isfinite(stack).all():
            raise InvalidInput(f"bias channel {channel} produced non-finite entries")
        if not (stack == np.swapaxes(stack, -1, -2)).all():
            raise InvalidInput(f"bias channel {channel} lost symmetry")
    return out
