"""Reference bodies of the audit's resampling statistics, kept as byte oracles.

These are ``audit.bootstrap_ci`` and ``audit.signflip_p`` as they were
before they drew one row block at a time: the Monte Carlo draws one whole
(resamples x units) sign matrix, the bootstrap one whole index matrix, and
exact enumeration runs in chunks of 65,536 sign assignments. The library
versions must return the same values; ``test_audit`` compares them. The
bodies are kept verbatim and are not used by the library.
"""

from __future__ import annotations

import numpy as np

from topoattn.audit import BOOTSTRAP_B, MAX_EXACT_N, SIGNFLIP_B, relative_reduction
from topoattn.errors import InvalidInput


def bootstrap_ci(units, seed: int = 0) -> tuple[float, float]:
    """Percentile 95% interval of the mean relative reduction over
    :data:`BOOTSTRAP_B` resamples of the units."""
    reductions = np.array([relative_reduction(u) for u in units], dtype=np.float64)
    n = len(reductions)
    if n == 0:
        raise InvalidInput("bootstrap needs at least one paired unit")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(BOOTSTRAP_B, n))
    means = reductions[idx].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def signflip_p(improvements, max_exact_n: int = MAX_EXACT_N, n_resamples: int = SIGNFLIP_B, seed: int = 0) -> float:
    """Two-sided paired sign-flip randomization test on the mean signed improvement.

    All 2^n sign assignments are enumerated when n <= ``max_exact_n``;
    otherwise a seeded Monte Carlo with add-one smoothing keeps the
    p-value in (0, 1]. A 1e-12 relative slack on the comparison absorbs
    floating-point summation noise. ``improvements`` holds each unit's
    baseline minus guarded RMSE.
    """
    d = np.asarray(improvements, dtype=np.float64)
    n = len(d)
    if n == 0:
        raise InvalidInput("sign-flip test needs at least one paired unit")
    observed = float(d.mean())
    slack = 1e-12 * max(1.0, abs(observed))

    def exceeds(stats: np.ndarray) -> np.ndarray:
        return np.abs(stats) >= abs(observed) - slack

    if n <= max_exact_n:
        total = 1 << n
        count = 0
        bit_positions = np.arange(n, dtype=np.uint64)
        chunk = 1 << 16
        for start in range(0, total, chunk):
            masks = np.arange(start, min(start + chunk, total), dtype=np.uint64)
            signs = (((masks[:, None] >> bit_positions) & 1) * 2.0 - 1.0)
            stats = signs @ d / n
            count += int(exceeds(stats).sum())
        return count / total

    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(n_resamples, n)) * 2.0 - 1.0
    stats = signs @ d / n
    count = int(exceeds(stats).sum())
    return (1 + count) / (n_resamples + 1)
