"""Window geometry: the one home of every distance and scale the channels use.

A forecasting window is treated as a point cloud of tokens. Every global
bias channel and every local diagram is built from two distances,
Euclidean and kernel-Hilbert, each expressed in units of a window's
median scale. The scale, Hilbert and z-score helpers act on a stack of
matrices of shape (..., N, N); a single window is a stack of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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


def _as_tokens(cloud, stacked: bool = False) -> np.ndarray:
    """``cloud`` as a float64 N x p token matrix, or a W x N x p stack of
    them if ``stacked``; N >= 2 and every entry finite."""
    tokens = np.asarray(cloud, dtype=np.float64)
    if tokens.ndim != 2 + stacked or tokens.shape[-2] < 2:
        shape = "W x N x p" if stacked else "N x p"
        raise InvalidInput(f"token matrix must be {shape} with N >= 2, got shape {tokens.shape}")
    if not np.isfinite(tokens).all():
        raise InvalidInput("token matrix contains non-finite entries")
    return tokens


# Index tables of an n x n matrix. They depend on n alone, so each is built
# once per size and shared, read-only, by every later call.


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=32)
def _diagonal_index(n: int) -> np.ndarray:
    """0, ..., n - 1: the row (and column) index of each diagonal entry."""
    return _read_only(np.arange(n))


@functools.lru_cache(maxsize=32)
def _upper_index(n: int) -> np.ndarray:
    """Row-major flat positions of the strict upper triangle, i < j."""
    rows, cols = np.triu_indices(n, k=1)
    return _read_only(rows * n + cols)


@functools.lru_cache(maxsize=32)
def _off_diagonal_index(n: int) -> np.ndarray:
    """Row-major flat positions of the off-diagonal entries, i != j."""
    return _read_only(np.flatnonzero(~np.eye(n, dtype=bool)))


def _flat(m: np.ndarray) -> np.ndarray:
    """(..., N, N) -> (..., N * N); a view when ``m`` is C-contiguous."""
    return m.reshape(*m.shape[:-2], m.shape[-1] * m.shape[-1])


def _zero_diagonal(m: np.ndarray) -> np.ndarray:
    i = _diagonal_index(m.shape[-1])
    m[..., i, i] = 0.0
    return m


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Average each matrix with its transpose and zero the diagonal."""
    return _zero_diagonal(0.5 * (m + np.swapaxes(m, -1, -2)))


# Two Euclidean formulas stay on purpose: the kernel bandwidth, the AET
# adjacency scale and the local diagrams sum the squared coordinate
# differences in column order (the bits of scipy's ``cdist``), while the
# bias stacks keep einsum's two-lane order (even columns, then odd ones,
# then the two sums added), in which p = 3 sums (d0^2 + d2^2) + d1^2.
# They differ by 1 ulp on about 11% of the entries of the cyclic and shell
# windows (seeds 1-10), and merging them would move the campaign's pinned
# output digests.


def pairwise_euclidean(cloud) -> np.ndarray:
    """Euclidean distance matrix (N, N) of one N x p token cloud, or the
    (W, N, N) matrices of a (W, N, p) stack of them.

    Accepts N >= 2 tokens with finite entries. Each distance is the root of
    the squared coordinate differences summed in column order 0, ..., p - 1,
    the bits of ``scipy.spatial.distance.cdist``, and a stack gives each
    window the bits of its own call. The result is exactly symmetric with a
    zero diagonal, so it needs no :func:`symmetrize`: (i, j) and (j, i) sum
    the same squares in one order, and x - x is exactly 0 for a finite x.
    """
    tokens = _as_tokens(cloud, stacked=np.ndim(cloud) == 3)
    out = _sum_of_squares(tokens, range(tokens.shape[-1]))
    return np.sqrt(out, out=out)


#: Float64 entries of the largest block a blocked loop makes: 512 KB.
BLOCK_ENTRIES = 2**16


@functools.lru_cache(maxsize=64)
def row_blocks(n_rows: int, row_entries: int) -> tuple[slice, ...]:
    """Contiguous slices covering ``n_rows`` rows of ``row_entries`` entries:
    the fewest blocks of at most ``BLOCK_ENTRIES // row_entries`` rows (at
    least one row each), their sizes differing by at most one. Rows that fit
    in one block get one slice.

    Every loop over rows whose rows are independent runs one block at a
    time: the window stacks (a window of N tokens is a row of N * N
    entries), whose bias channels and forward steps work per window, and the
    audit's resamples (a draw of n units is a row of n entries). A blocked
    result has the bits of one computed whole, while the temporaries stay
    at one block's size.
    """
    limit = max(1, BLOCK_ENTRIES // row_entries)
    count = max(1, -(-n_rows // limit))
    bounds = [n_rows * k // count for k in range(count + 1)]
    return tuple(slice(start, stop) for start, stop in zip(bounds, bounds[1:]))


def stacked_euclidean(windows: np.ndarray) -> np.ndarray:
    """Euclidean distance matrices (W, N, N) of a (W, N, p) window stack,
    computed one :func:`row_blocks` block at a time.

    The result is exactly symmetric with a zero diagonal without a
    :func:`symmetrize` pass: (i, j) and (j, i) sum the same squares in one
    order, and x - x is exactly 0 for a finite x.
    """
    n_windows, n_tokens, _ = windows.shape
    blocks = row_blocks(n_windows, n_tokens * n_tokens)
    if len(blocks) > 1:
        out = np.empty((n_windows, n_tokens, n_tokens))
        for b in blocks:
            out[b] = stacked_euclidean(windows[b])
        return out
    out = _squared_distances(windows)
    return np.sqrt(out, out=out)


def _squared_distances(windows: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances (W, N, N): the bits of
    ``einsum("wnmp,wnmp->wnm", diff, diff)`` over the pairwise differences
    for token widths p = 1-7, every width the builders and loaders make.

    The sum runs in two lanes, as einsum's does: the even columns in order,
    then the odd columns in order, then the odd lane's sum added to the even
    lane's (d0*d0 + d1*d1 at p = 2, (d0*d0 + d2*d2) + d1*d1 at p = 3). One
    coordinate's differences are made at a time, so the (W, N, N, p)
    difference array is never made. From p = 8 einsum sums runs of four
    columns in another order, so there the bits may differ from einsum's.
    """
    p = windows.shape[-1]
    out = _sum_of_squares(windows, range(0, p, 2))
    if p > 1:
        out += _sum_of_squares(windows, range(1, p, 2))
    return out


def _sum_of_squares(tokens: np.ndarray, columns) -> np.ndarray:
    """Squared differences of every token pair, (..., N, N), of the token
    matrices (..., N, p), summed over ``columns`` in the order given. Each
    column's (..., N, N) differences are made, squared and added in turn, so
    no (..., N, N, p) array is made."""
    out = None
    for j in columns:
        d = tokens[..., :, None, j] - tokens[..., None, :, j]
        np.multiply(d, d, out=d)
        if out is None:
            out = d
        else:
            out += d
    return out


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
    (lo + hi) / 2 of the sorted entries at ranks (k - 1) // 2 and k // 2:
    the formula of ``np.ma.median``, which ``np.nanmedian`` uses, so the
    value is the same to the bit.
    """
    n = d.shape[-1]
    if n < 2:
        return np.full(d.shape[:-2], DEGENERATE_SIGMA)
    upper = _flat(d)[..., _upper_index(n)]
    positive = upper > 0.0
    k = np.count_nonzero(positive, axis=-1)
    # non-positive entries sort last, past every rank read below
    upper = np.sort(np.where(positive, upper, np.inf), axis=-1)
    rows = upper.reshape(-1, upper.shape[-1])
    ranks = k.reshape(-1)
    row = np.arange(len(rows))
    lo = rows[row, np.maximum((ranks - 1) // 2, 0)]
    hi = rows[row, ranks // 2]
    return np.where(k == 0, DEGENERATE_SIGMA, ((lo + hi) / 2.0).reshape(k.shape))


def pooled_sigma(distance_matrices) -> float:
    """Median of the window sigmas of a training set, at least DEGENERATE_SIGMA."""
    sigmas = window_sigma(np.asarray(distance_matrices, dtype=np.float64))
    return max(float(np.median(sigmas)), DEGENERATE_SIGMA)


def zscore_offdiagonal(m: np.ndarray) -> np.ndarray:
    """Standardize each matrix's off-diagonal entries to mean 0, population std 1.

    The diagonal is zero. A matrix whose off-diagonal std is below 1e-12
    maps to the all-zero matrix. The mean and std are numpy's formulas
    (sum / count, then the root of the mean squared deviation) with each
    sum taken in order, entry after entry (:func:`_sequential_sum`), so a
    window gets the same bits alone as in a stack.
    """
    off = _off_diagonal_index(m.shape[-1])
    vals = _flat(m)[..., off]
    mean = _sequential_sum(vals) / off.size
    std = _population_std(vals, mean, off.size)
    constant = std < 1e-12
    scaled = np.where(constant, 0.0, (vals - mean) / np.where(constant, 1.0, std))
    out = np.zeros(m.shape, dtype=m.dtype)
    _flat(out)[..., off] = scaled
    return out


def _sequential_sum(vals: np.ndarray) -> np.ndarray:
    """Sums over the last axis, kept, each taken in order, entry after entry.

    numpy's ``add.reduce`` sums the rows of a column-major stack this way,
    all rows at once: the off-diagonal rows of two or more windows, as
    indexing lays them out. It sums a lone row pairwise, so a lone row, or
    rows in any other layout, is accumulated instead (about 3 us more for a
    992-entry row).
    """
    if vals.size > vals.shape[-1] and vals.flags.f_contiguous:
        return np.add.reduce(vals, axis=-1, keepdims=True)
    return np.add.accumulate(vals, axis=-1)[..., -1:]


def _population_std(vals: np.ndarray, mean: np.ndarray, count: int) -> np.ndarray:
    """``vals.std(axis=-1, keepdims=True)`` given ``mean``, in numpy's steps:
    the squared deviations in one temporary, summed in order
    (:func:`_sequential_sum`), divided by ``count``, rooted.

    The temporary is freed on return, before the caller allocates its next
    array of that size, as with numpy's std; keeping the deviations alive
    instead measurably raised peak RSS.
    """
    dev = vals - mean
    np.multiply(dev, dev, out=dev)
    return np.sqrt(_sequential_sum(dev) / count)
