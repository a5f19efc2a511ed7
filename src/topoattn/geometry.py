"""Window geometry: the one home of every distance and scale the channels use.

A forecasting window is treated as a point cloud of tokens. Every global
bias channel and every local diagram is built from two distances,
Euclidean and kernel-Hilbert, each expressed in units of a window's
median scale. The scale, Hilbert and z-score helpers act on a stack of
matrices of shape (..., N, N); a single window is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InvalidInput, InvalidParameter

#: Median scale of a window whose pairwise distances are all zero
#: (identical tokens); keeps the bias denominators finite.
DEGENERATE_SIGMA = 1e-6


@dataclass(frozen=True)
class KernelSpec:
    """Bandwidth of the positive-definite Gaussian kernel."""

    bandwidth: float

    def __post_init__(self):
        if not np.isfinite(self.bandwidth) or self.bandwidth <= 0.0:
            raise InvalidParameter(f"kernel bandwidth must be finite and > 0, got {self.bandwidth}")


def _as_tokens(cloud) -> np.ndarray:
    tokens = np.asarray(cloud, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[0] < 2:
        raise InvalidInput(f"token matrix must be N x p with N >= 2, got shape {tokens.shape}")
    if not np.all(np.isfinite(tokens)):
        raise InvalidInput("token matrix contains non-finite entries")
    return tokens


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Average each matrix with its transpose and zero the diagonal."""
    m = 0.5 * (m + np.swapaxes(m, -1, -2))
    n = m.shape[-1]
    m[..., np.arange(n), np.arange(n)] = 0.0
    return m


# Two Euclidean formulas stay on purpose: ``cdist`` for one window and the
# ``einsum`` for a stack differ by 1 ulp on about 11% of the entries of the
# cyclic and shell windows (seeds 1-10), and merging them would move the
# campaign's pinned output digests.


def pairwise_euclidean(cloud) -> np.ndarray:
    """Euclidean distance matrix (N, N) of one N x p token cloud.

    Accepts N >= 2 tokens with finite entries. The result is exactly
    symmetric with a zero diagonal.
    """
    tokens = _as_tokens(cloud)
    return symmetrize(cdist(tokens, tokens))


def stacked_euclidean(windows: np.ndarray) -> np.ndarray:
    """Euclidean distance matrices (W, N, N) of a (W, N, p) window stack."""
    diff = windows[:, :, None, :] - windows[:, None, :, :]
    return symmetrize(np.sqrt(np.einsum("wnmp,wnmp->wnm", diff, diff)))


def hilbert_distance(d, bandwidth: float):
    """Kernel-Hilbert distance sqrt(2 - 2 exp(-d^2 / (2 l^2))), elementwise.

    This is sqrt(k_ii + k_jj - 2 k_ij) for the unit-diagonal Gaussian
    kernel; it is strictly increasing in the Euclidean distance ``d`` and
    bounded by sqrt(2).
    """
    kernel = np.exp(-(d * d) / (2.0 * bandwidth**2))
    return np.sqrt(np.maximum(2.0 - 2.0 * kernel, 0.0))


def window_sigma(d: np.ndarray) -> np.ndarray:
    """Median positive upper-triangle distance per window, shape (...).

    A window of identical tokens has no positive distance and gets
    :data:`DEGENERATE_SIGMA`. The median of k positive entries is
    (lo + hi) / 2 of the sorted entries at ranks l and k // 2, with l the
    same rank for odd k and the one below for even k: the formula of
    ``np.ma.median``, which ``np.nanmedian`` uses, so the value is the same
    to the bit.
    """
    n = d.shape[-1]
    if n < 2:
        return np.full(d.shape[:-2], DEGENERATE_SIGMA)
    iu = np.triu_indices(n, k=1)
    upper = d[..., iu[0], iu[1]]
    positive = upper > 0.0
    k = np.count_nonzero(positive, axis=-1)[..., None]
    # non-positive entries sort last, past every rank read below
    upper = np.sort(np.where(positive, upper, np.inf), axis=-1)
    h = k // 2
    lo = np.take_along_axis(upper, np.where(k % 2 == 1, h, np.maximum(h - 1, 0)), axis=-1)[..., 0]
    hi = np.take_along_axis(upper, h, axis=-1)[..., 0]
    return np.where(k[..., 0] == 0, DEGENERATE_SIGMA, (lo + hi) / 2.0)


def pooled_sigma(distance_matrices) -> float:
    """Median of the window sigmas of a training set, at least DEGENERATE_SIGMA."""
    sigmas = window_sigma(np.asarray(distance_matrices, dtype=np.float64))
    return max(float(np.median(sigmas)), DEGENERATE_SIGMA)


def zscore_offdiagonal(m: np.ndarray) -> np.ndarray:
    """Standardize each matrix's off-diagonal entries to mean 0, population std 1.

    The diagonal is zero. A matrix whose off-diagonal std is below 1e-12
    maps to the all-zero matrix.
    """
    n = m.shape[-1]
    off = ~np.eye(n, dtype=bool)
    vals = m[..., off]
    mean = vals.mean(axis=-1, keepdims=True)
    std = vals.std(axis=-1, keepdims=True)
    scaled = np.where(std < 1e-12, 0.0, (vals - mean) / np.where(std < 1e-12, 1.0, std))
    out = np.zeros_like(m)
    out[..., off] = scaled
    return out
