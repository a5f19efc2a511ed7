"""Distance and kernel primitives shared by every topology channel.

A forecasting window is treated as a point cloud of tokens. Everything
downstream (smooth bias surrogates, Rips filtrations, RKHS channels)
consumes either a Euclidean distance matrix or a kernel-induced Hilbert
distance matrix produced here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InvalidInput, InvalidParameter, NumericalError

#: Returned by :func:`median_nonzero_distance` when every pairwise distance
#: is zero (identical tokens); keeps the bias denominators finite.
DEGENERATE_SIGMA = 1e-6


@dataclass
class DistanceMatrix:
    """Symmetric pairwise distance matrix plus its median scale.

    ``sigma`` is the median of the strictly positive off-diagonal entries
    (or :data:`DEGENERATE_SIGMA` when there are none) and is the single
    scale every smooth bias is expressed in.
    """

    values: np.ndarray
    sigma: float = field(default=0.0)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.sigma <= 0.0:
            self.sigma = median_nonzero_distance(self.values)

    @property
    def n(self) -> int:
        return self.values.shape[0]


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


def pairwise_euclidean(cloud) -> DistanceMatrix:
    """Euclidean distance matrix of a token cloud.

    Accepts an N x p token array with N >= 2 and finite entries. The
    result is exactly symmetric with a zero diagonal.
    """
    tokens = _as_tokens(cloud)
    values = cdist(tokens, tokens)
    values = 0.5 * (values + values.T)
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(values=values)


def gaussian_kernel_matrix(cloud, spec: KernelSpec) -> np.ndarray:
    """Gaussian kernel K[i,j] = exp(-||x_i - x_j||^2 / (2 l^2)).

    The diagonal is exactly 1 and all entries lie in (0, 1].
    """
    if not isinstance(spec, KernelSpec):
        spec = KernelSpec(float(spec))
    tokens = _as_tokens(cloud)
    d = cdist(tokens, tokens)
    d = 0.5 * (d + d.T)
    kernel = np.exp(-(d * d) / (2.0 * spec.bandwidth**2))
    np.fill_diagonal(kernel, 1.0)
    return kernel


def hilbert_distance_matrix(kernel: np.ndarray) -> DistanceMatrix:
    """Kernel-induced Hilbert distance d_H = sqrt(k_ii + k_jj - 2 k_ij).

    For a unit-diagonal kernel this is sqrt(2 - 2 K[i,j]), bounded by
    sqrt(2). Radicands below -1e-9 indicate an invalid kernel.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    diag = np.diag(kernel)
    sq = diag[:, None] + diag[None, :] - 2.0 * kernel
    if np.min(sq) < -1e-9:
        raise NumericalError(f"negative squared Hilbert distance {np.min(sq):.3e}; kernel is not PSD-consistent")
    values = np.sqrt(np.maximum(sq, 0.0))
    values = 0.5 * (values + values.T)
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(values=values)


def median_nonzero_distance(values) -> float:
    """Median of the strictly positive upper-triangle entries.

    Falls back to :data:`DEGENERATE_SIGMA` when every pairwise distance is
    zero (window of identical tokens).
    """
    if isinstance(values, DistanceMatrix):
        values = values.values
    values = np.asarray(values, dtype=np.float64)
    iu = np.triu_indices(values.shape[0], k=1)
    upper = values[iu]
    positive = upper[upper > 0.0]
    if positive.size == 0:
        return DEGENERATE_SIGMA
    return float(np.median(positive))


def zscore_offdiagonal(matrix: np.ndarray) -> np.ndarray:
    """Standardize the off-diagonal entries to mean 0, population std 1.

    The diagonal is forced to zero. Degenerate input (off-diagonal std
    below 1e-12) maps to the all-zero matrix.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(matrix)):
        raise InvalidInput("zscore input contains non-finite entries")
    n = matrix.shape[0]
    off = ~np.eye(n, dtype=bool)
    vals = matrix[off]
    std = float(np.std(vals))
    out = np.zeros_like(matrix)
    if std < 1e-12:
        return out
    out[off] = (vals - float(np.mean(vals))) / std
    return out
