"""Window geometry: brute-force oracles and metric properties.

The batched helpers act on stacks of shape (..., N, N); most checks run
them on a stack of one window.
"""

import functools
import operator
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from topoattn import geometry
from topoattn.errors import InvalidInput, InvalidParameter
from topoattn.geometry import (
    DEGENERATE_SIGMA,
    KernelSpec,
    hilbert_distance,
    pairwise_euclidean,
    pooled_sigma,
    stacked_euclidean,
    symmetrize,
    window_sigma,
    zscore_offdiagonal,
)


def test_import_loads_no_scipy_spatial():
    # the distances are numpy's own; scipy.spatial (about 12 MB of every
    # process) stays out of a fresh `import topoattn`
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, topoattn; print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'spatial']))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def kernel_oracle(x, ell):
    """Gaussian kernel K[i,j] = exp(-||x_i - x_j||^2 / (2 l^2)), by brute force."""
    n = len(x)
    return np.array([[np.exp(-((x[i] - x[j]) ** 2).sum() / (2.0 * ell**2)) for j in range(n)] for i in range(n)])


def hilbert_matrix(x, ell):
    return hilbert_distance(pairwise_euclidean(x), ell)


class TestPairwiseEuclidean:
    def test_coincident_points(self):
        d = pairwise_euclidean(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert d[0, 1] == 0.0

    def test_pythagorean_triple(self):
        d = pairwise_euclidean(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert np.isclose(d[0, 1], 5.0)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        d = pairwise_euclidean(x)
        stacked = stacked_euclidean(x[None])[0]
        for i in range(5):
            for j in range(5):
                expected = np.sqrt(((x[i] - x[j]) ** 2).sum())
                assert abs(d[i, j] - expected) <= 1e-12
                assert abs(stacked[i, j] - expected) <= 1e-12

    def test_bytes_equal_symmetrized_cdist(self):
        # cdist alone is exactly symmetric with a zero diagonal, so the
        # symmetrize step the distances once went through changed no byte
        rng = np.random.default_rng(7)
        for _ in range(300):
            n, p = int(rng.integers(2, 40)), int(rng.integers(1, 7))
            x = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-6, 6)
            d = pairwise_euclidean(x)
            assert d.tobytes() == symmetrize(cdist(x, x)).tobytes()
            assert np.array_equal(d, d.T) and not d.diagonal().any()

    @pytest.mark.parametrize("p", range(1, 9))
    def test_bytes_equal_cdist_alone_and_stacked(self, p):
        # the columns summed in order 0, ..., p - 1 are the bits of cdist,
        # which stays here as the oracle; a stack gives each cloud the bits
        # of its own call
        rng = np.random.default_rng(70 + p)
        for n in (2, 3, 8, 16, 24, 40):
            scale = 10.0 ** rng.uniform(-6, 6)
            clouds = rng.normal(size=(5, n, p)) * scale
            clouds[1][rng.random((n, p)) < 0.3] = 0.0
            clouds[2][rng.random((n, p)) < 0.3] = -0.0
            clouds[3] = clouds[3, 0]  # identical tokens
            stacked = pairwise_euclidean(clouds)
            assert stacked.shape == (5, n, n)
            for cloud, d in zip(clouds, stacked):
                expected = cdist(cloud, cloud).tobytes()
                assert pairwise_euclidean(cloud).tobytes() == expected and d.tobytes() == expected

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(7, 2))
        perm = rng.permutation(7)
        d = pairwise_euclidean(x)
        dp = pairwise_euclidean(x[perm])
        assert np.array_equal(dp, d[np.ix_(perm, perm)])

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            pairwise_euclidean(np.array([[0.0, np.nan], [1.0, 2.0]]))

    def test_point_cloud_validation(self):
        with pytest.raises(InvalidInput):
            pairwise_euclidean(np.zeros((1, 3)))
        with pytest.raises(InvalidInput):
            pairwise_euclidean(np.zeros(4))
        with pytest.raises(InvalidInput):
            pairwise_euclidean(np.array([[np.inf, 0.0], [0.0, 0.0]]))
        assert pairwise_euclidean(np.zeros((2, 3))).shape == (2, 2)
        with pytest.raises(InvalidInput):
            pairwise_euclidean(np.zeros((4, 1, 3)))
        with pytest.raises(InvalidInput):
            pairwise_euclidean(np.array([[[0.0, 0.0], [1.0, np.nan]]]))
        with pytest.raises(InvalidInput):
            pairwise_euclidean(np.zeros((2, 2, 2, 2)))
        assert pairwise_euclidean(np.zeros((4, 2, 3))).shape == (4, 2, 2)


class TestGaussianKernel:
    """The Gaussian kernel behind the Hilbert distance, K = 1 - d_H^2 / 2."""

    def test_unit_diagonal(self):
        rng = np.random.default_rng(2)
        k = 1.0 - hilbert_matrix(rng.normal(size=(6, 2)), 0.7) ** 2 / 2.0
        assert np.array_equal(np.diag(k), np.ones(6))
        assert np.all(k > 0) and np.all(k <= 1)

    def test_analytic_value(self):
        ell = 1.3
        x = np.array([[0.0], [ell * np.sqrt(2.0)]])
        d_h = hilbert_matrix(x, ell)
        assert np.isclose(d_h[0, 1], np.sqrt(2.0 - 2.0 * np.exp(-1.0)))

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 3))
        k = 1.0 - hilbert_matrix(x, 1.0) ** 2 / 2.0
        assert np.allclose(k, kernel_oracle(x, 1.0), atol=1e-12)
        assert np.linalg.eigvalsh(k).min() >= -1e-10

    def test_invalid_bandwidth(self):
        with pytest.raises(InvalidParameter):
            KernelSpec(-1.0)
        with pytest.raises(InvalidParameter):
            KernelSpec(float("nan"))

    def test_monotone_in_distance(self):
        d_h = hilbert_distance(np.array([0.0, 0.5, 2.0, np.inf]), 1.0)
        assert np.all(np.diff(d_h) > 0)


class TestHilbertDistance:
    def test_identical_tokens_zero(self):
        assert np.all(hilbert_matrix(np.zeros((3, 2)), 1.0) == 0.0)

    def test_half_kernel_gives_one(self):
        # exp(-d^2 / 2) = 0.5 at d = sqrt(2 ln 2)
        assert np.isclose(hilbert_distance(np.sqrt(2.0 * np.log(2.0)), 1.0), 1.0)

    def test_saturates_below_sqrt2(self):
        d = hilbert_matrix(np.array([[0.0], [1e6]]), 1.0)[0, 1]
        assert d <= np.sqrt(2.0) and d > 1.41

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(4)
        d = hilbert_matrix(rng.normal(size=(8, 3)), 0.9)
        for _ in range(60):
            i, j, l = rng.integers(0, 8, 3)
            assert d[i, j] <= d[i, l] + d[l, j] + 1e-9

    def test_matches_kernel_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(7, 2))
        k = kernel_oracle(x, 0.8)
        diag = np.diag(k)
        expected = np.sqrt(np.maximum(diag[:, None] + diag[None, :] - 2.0 * k, 0.0))
        assert np.allclose(hilbert_matrix(x, 0.8), expected, atol=1e-12)


class TestMedianNonzero:
    def test_equilateral(self):
        values = 2.5 * (np.ones((3, 3)) - np.eye(3))
        assert np.array_equal(window_sigma(values[None]), [2.5])

    def test_collinear(self):
        d = pairwise_euclidean(np.array([[0.0], [1.0], [3.0]]))
        assert window_sigma(d[None])[0] == 2.0  # distances {1, 2, 3}

    def test_degenerate_fallback(self):
        assert window_sigma(np.zeros((1, 4, 4)))[0] == DEGENERATE_SIGMA
        assert pooled_sigma([np.zeros((4, 4))]) == DEGENERATE_SIGMA

    def test_per_window_and_pooled(self):
        rng = np.random.default_rng(8)
        stack = np.stack([pairwise_euclidean(rng.normal(size=(6, 2))) for _ in range(5)])
        expected = [np.median(m[np.triu_indices(6, k=1)]) for m in stack]
        assert np.array_equal(window_sigma(stack), expected)
        assert pooled_sigma(list(stack)) == float(np.median(expected))


def nanmedian_sigma(d):
    """The np.nanmedian formula window_sigma replaced, kept as its oracle."""
    iu = np.triu_indices(d.shape[-1], k=1)
    upper = d[..., iu[0], iu[1]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        med = np.nanmedian(np.where(upper > 0.0, upper, np.nan), axis=-1)
    return np.where(np.isnan(med), DEGENERATE_SIGMA, med)


class TestSortedMedian:
    """window_sigma sorts the positive entries; it must give the bits of the
    np.nanmedian it replaced, and raise no warning on an all-zero window."""

    @staticmethod
    def stacks():
        rng = np.random.default_rng(41)
        for n in (2, 3, 4, 5, 8, 13, 16, 32):
            # integer lattices: many ties, duplicated tokens, some all-zero windows
            lattice = rng.integers(0, 3, size=(60, n, 2)).astype(float)
            lattice[::7] = 0.0
            for x in (lattice, rng.normal(size=(20, n, 3))):
                d = stacked_euclidean(x)
                yield d
                yield hilbert_distance(d, 0.6)
                yield hilbert_distance(d, 2.5)

    def test_matches_nanmedian_bitwise(self):
        parities = set()
        for d in self.stacks():
            iu = np.triu_indices(d.shape[-1], k=1)
            parities.update(np.count_nonzero(d[..., iu[0], iu[1]] > 0.0, axis=-1) % 2)
            got, expected = window_sigma(d), nanmedian_sigma(d)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        assert parities == {0, 1}  # even and odd positive counts both met

    def test_single_matrix_and_all_zero_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert window_sigma(np.zeros((3, 2, 2))).tolist() == [DEGENERATE_SIGMA] * 3
            d = pairwise_euclidean(np.array([[0.0], [1.0], [3.0], [3.0]]))
            assert window_sigma(d).shape == ()
            assert window_sigma(d) == nanmedian_sigma(d) == 2.0  # positives 1, 2, 2, 3, 3
            for d in self.stacks():
                window_sigma(d)


class TestZscore:
    def test_constant_matrix(self):
        assert np.array_equal(zscore_offdiagonal(np.full((1, 5, 5), 3.0)), np.zeros((1, 5, 5)))

    def test_moments(self):
        rng = np.random.default_rng(5)
        z = zscore_offdiagonal(rng.normal(size=(1, 6, 6)))[0]
        off = z[~np.eye(6, dtype=bool)]
        assert abs(off.mean()) <= 1e-10
        assert abs(off.std() - 1.0) <= 1e-10
        assert np.all(np.diag(z) == 0.0)

    def test_two_pass_oracle(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(3, 5, 5))
        z = zscore_offdiagonal(m)
        off = ~np.eye(5, dtype=bool)
        for w in range(3):
            vals = m[w][off]
            expected = (vals - vals.mean()) / vals.std()
            assert np.allclose(z[w][off], expected, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(1, 5, 5)) * rng.uniform(0.5, 10.0)
        z1 = zscore_offdiagonal(m)
        z2 = zscore_offdiagonal(z1)
        assert np.allclose(z1, z2, atol=1e-9)


def test_symmetrize():
    m = np.arange(8.0).reshape(2, 2, 2)
    assert np.array_equal(symmetrize(m), [[[0.0, 1.5], [1.5, 0.0]], [[0.0, 5.5], [5.5, 0.0]]])


# The helpers as written before their index tables were cached and their
# reductions written out, kept verbatim as oracles.


def old_symmetrize(m):
    m = 0.5 * (m + np.swapaxes(m, -1, -2))
    n = m.shape[-1]
    m[..., np.arange(n), np.arange(n)] = 0.0
    return m


def old_window_sigma(d):
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


def old_zscore_offdiagonal(m):
    n = m.shape[-1]
    off = ~np.eye(n, dtype=bool)
    vals = m[..., off]
    mean = vals.mean(axis=-1, keepdims=True)
    std = vals.std(axis=-1, keepdims=True)
    scaled = np.where(std < 1e-12, 0.0, (vals - mean) / np.where(std < 1e-12, 1.0, std))
    out = np.zeros_like(m)
    out[..., off] = scaled
    return out


def in_order_zscore_offdiagonal(m):
    """old_zscore_offdiagonal of one (N, N) matrix with both sums taken in
    order, entry after entry, in Python floats: the order in which numpy
    sums the off-diagonal rows of a stack of two or more windows."""
    n = m.shape[-1]
    off = ~np.eye(n, dtype=bool)
    vals = m[off]
    mean = functools.reduce(operator.add, vals.tolist()) / vals.size
    dev = vals - mean
    std = np.sqrt(functools.reduce(operator.add, (dev * dev).tolist()) / vals.size)
    out = np.zeros_like(m)
    out[off] = 0.0 if std < 1e-12 else dev / std
    return out


ORACLE_WINDOWS = (1, 7, 300)
ORACLE_TOKENS = (2, 3, 8, 16, 24, 32)


def distance_stacks(n_windows, n_tokens, seed):
    """Distance stacks with ties, zeros, all-equal windows and both parities
    of the positive count, as the campaign's windows and their Hilbert twins."""
    rng = np.random.default_rng(seed)
    lattice = rng.integers(0, 3, size=(n_windows, n_tokens, 2)).astype(float)
    lattice[::5] = 1.0  # identical tokens: every distance 0, sigma DEGENERATE_SIGMA
    for x in (lattice, rng.normal(size=(n_windows, n_tokens, 3))):
        d = stacked_euclidean(x)
        yield d
        yield hilbert_distance(d, 0.7)


def same_bits(got, expected) -> bool:
    got, expected = np.asarray(got), np.asarray(expected)
    return got.shape == expected.shape and got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class TestCachedTablesAndDirectFormulas:
    """window_sigma, zscore_offdiagonal and symmetrize read cached per-size
    index tables and write numpy's reductions out; the bits must be those of
    the generic versions above."""

    @pytest.mark.parametrize("n_windows", ORACLE_WINDOWS)
    def test_window_sigma_matches_oracle(self, n_windows):
        parities, degenerate = set(), 0
        for n_tokens in ORACLE_TOKENS:
            for d in distance_stacks(n_windows, n_tokens, seed=n_tokens):
                got, expected = window_sigma(d), old_window_sigma(d)
                assert same_bits(got, expected), (n_windows, n_tokens)
                assert same_bits(window_sigma(d[0]), old_window_sigma(d[0]))
                iu = np.triu_indices(n_tokens, k=1)
                parities.update(np.count_nonzero(d[..., iu[0], iu[1]] > 0.0, axis=-1) % 2)
                degenerate += int(np.sum(got == DEGENERATE_SIGMA))
        assert parities == {0, 1} and degenerate > 0

    @pytest.mark.parametrize("n_windows", ORACLE_WINDOWS)
    def test_zscore_and_symmetrize_match_oracles(self, n_windows):
        rng = np.random.default_rng(n_windows)
        for n_tokens in ORACLE_TOKENS:
            shape = (n_windows, n_tokens, n_tokens)
            signed_zeros = rng.normal(size=shape)
            signed_zeros[rng.random(shape) < 0.2] = -0.0
            constant = np.full(shape, 2.5)
            constant[::2] = rng.normal(size=constant[::2].shape)
            cases = [rng.normal(size=shape), signed_zeros, constant, np.round(rng.normal(size=shape)),
                     rng.normal(size=shape).transpose(0, 2, 1)]  # the last is not C-contiguous
            cases += list(distance_stacks(n_windows, n_tokens, seed=n_tokens))
            for m in cases:
                before = m.copy()
                z = zscore_offdiagonal(m)
                if n_windows > 1:
                    assert same_bits(z, old_zscore_offdiagonal(m)), (n_windows, n_tokens)
                assert same_bits(symmetrize(m), old_symmetrize(m)), (n_windows, n_tokens)
                # a lone window gets the bits it gets in a stack
                single = in_order_zscore_offdiagonal(m[0])
                assert same_bits(zscore_offdiagonal(m[0]), single) and same_bits(z[0], single)
                assert same_bits(m, before)

    def test_tables_are_cached_and_read_only(self):
        for table in (geometry._diagonal_index, geometry._upper_index, geometry._off_diagonal_index):
            first = table(7)
            assert table(7) is first
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0] = 1
        assert geometry._diagonal_index(4).tolist() == [0, 1, 2, 3]
        assert geometry._upper_index(3).tolist() == [1, 2, 5]
        assert geometry._off_diagonal_index(3).tolist() == [1, 2, 3, 5, 6, 7]


def test_window_blocks_rule():
    # the fewest blocks of at most 2**16 // row_entries rows, at least one
    # row each (one block of float64 rows is at most 512 KB), sizes within
    # one of each other; windows of N tokens are rows of N * N entries, the
    # audit's draws of n units rows of n entries
    windows = [(n_tokens * n_tokens, limit) for n_tokens, limit in ((32, 64), (24, 113), (40, 40), (8, 1024),
                                                                    (150, 2), (300, 1))]
    draws = [(units, 2**16 // units) for units in (9, 27, 63, 189)]
    for row_entries, limit in windows + draws:
        for n_rows in (1, 2, 3, limit, limit + 1, 2 * limit + 1, 300, 2555, 10_000, 100_000):
            blocks = geometry.row_blocks(n_rows, row_entries)
            sizes = [b.stop - b.start for b in blocks]
            assert blocks[0].start == 0 and blocks[-1].stop == n_rows
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1
            assert max(sizes) <= limit and len(blocks) == -(-n_rows // limit), (row_entries, n_rows)
    assert geometry.row_blocks(300, 32 * 32) == tuple(slice(60 * k, 60 * k + 60) for k in range(5))
    assert geometry.row_blocks(3, 150 * 150) == (slice(0, 1), slice(1, 3))
    assert geometry.row_blocks(2, 300 * 300) == (slice(0, 1), slice(1, 2))
    assert geometry.row_blocks(1, 32 * 32) == (slice(0, 1),)
