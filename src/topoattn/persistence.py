"""Exact Vietoris-Rips persistence (H0-H2) of small clouds and 1-D sublevel H0.

The boundary-matrix reduction is the standard GF(2) column algorithm with
columns stored as Python integers (bitsets), which keeps the XOR chain in
C speed. Filtrations are totally ordered by (value, dimension,
lexicographic vertices); persistence bar multisets do not depend on the
refinement chosen for ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidInput, InvalidParameter

#: Point-count cap for exact persistence.
EXACT_POINT_CAP = 28


@dataclass
class PersistenceDiagram:
    """Bars (birth, death, dim); death may be ``numpy.inf``."""

    bars: list[tuple[float, float, int]]

    def in_dim(self, dim: int) -> "PersistenceDiagram":
        return PersistenceDiagram([b for b in self.bars if b[2] == dim])

    def finite_lifetimes(self) -> np.ndarray:
        return np.asarray([d - b for (b, d, _) in self.bars if np.isfinite(d)], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.bars)


def _reduce_bitset_columns(columns: list[int]) -> list[tuple[int, int]]:
    """In-place GF(2) column reduction; returns the persistence pairs."""
    low_to_col: dict[int, int] = {}
    get = low_to_col.get
    pairs: list[tuple[int, int]] = []
    for j in range(len(columns)):
        col = columns[j]
        while col:
            low = col.bit_length() - 1
            k = get(low)
            if k is None:
                low_to_col[low] = j
                pairs.append((low, j))
                break
            col ^= columns[k]
        columns[j] = col
    return pairs


def _bars_from_reduction(columns, pairs, values, dims, max_hom_dim) -> PersistenceDiagram:
    paired: set[int] = set()
    bars: list[tuple[float, float, int]] = []
    for i, j in pairs:
        paired.add(i)
        paired.add(j)
        dim = dims[i]
        birth, death = values[i], values[j]
        if death > birth and dim <= max_hom_dim:
            bars.append((float(birth), float(death), int(dim)))
    for i in range(len(columns)):
        if i not in paired and columns[i] == 0 and dims[i] <= max_hom_dim:
            bars.append((float(values[i]), np.inf, int(dims[i])))
    bars.sort(key=lambda b: (b[2], b[0], b[1]))
    return PersistenceDiagram(bars=bars)


# static combinatorial structure of the full complex on n points, cached per n
_FULL_CACHE: dict[int, tuple] = {}


def _full_complex_static(n: int):
    if n in _FULL_CACHE:
        return _FULL_CACHE[n]
    simplices = [(i,) for i in range(n)]
    for k in (2, 3, 4):
        simplices.extend(combinations(range(n), k))
    index = {s: i for i, s in enumerate(simplices)}
    total = len(simplices)
    dims = np.fromiter((len(s) - 1 for s in simplices), dtype=np.int64, count=total)

    def pair_pos(i: int, j: int) -> int:  # row-major upper-triangle index
        return i * n - i * (i + 1) // 2 + (j - i - 1)

    pair_idx = np.full((total, 6), -1, dtype=np.int64)
    face_pos = np.full((total, 4), -1, dtype=np.int64)
    for si, s in enumerate(simplices):
        if len(s) < 2:
            continue
        for c, (a, b) in enumerate(combinations(s, 2)):
            pair_idx[si, c] = pair_pos(a, b)
        for c, face in enumerate(combinations(s, len(s) - 1)):
            face_pos[si, c] = index[face]
    _FULL_CACHE[n] = (dims, pair_idx, face_pos)
    return _FULL_CACHE[n]


def capped_exact_diagrams(D) -> PersistenceDiagram:
    """Exact H0-H2 bars of the full Vietoris-Rips filtration of at most 28 points.

    Every simplex up to dimension 3 enters at the maximum pairwise
    distance of its vertices. The combinatorial structure is cached per
    point count and the filtration values are computed vectorized.
    Clouds above :data:`EXACT_POINT_CAP` points raise
    :class:`InvalidParameter`; a matrix that is not square 2-D or has a
    non-finite or negative entry raises :class:`InvalidInput`.
    """
    values = np.asarray(D, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise InvalidInput(f"distance matrix must be square 2-D, got shape {values.shape}")
    if not (np.all(np.isfinite(values)) and np.all(values >= 0.0)):
        raise InvalidInput("distance matrix entries must be finite and nonnegative")
    n = values.shape[0]
    if n > EXACT_POINT_CAP:
        raise InvalidParameter(
            f"{n} points exceed the exact-persistence cap of {EXACT_POINT_CAP}"
        )
    dims, pair_idx, face_pos = _full_complex_static(n)
    iu = np.triu_indices(n, k=1)
    condensed = np.concatenate([values[iu], [0.0]])
    gathered = condensed[np.where(pair_idx >= 0, pair_idx, len(condensed) - 1)]
    vals = gathered.max(axis=1)
    order = np.lexsort((dims, vals))  # stable: ties keep (dim, lex) static order
    sorted_pos = np.empty(len(order), dtype=np.int64)
    sorted_pos[order] = np.arange(len(order))

    pos_list = sorted_pos.tolist()
    fp = face_pos
    columns: list[int] = []
    for static_i in order.tolist():
        col = 0
        for f in fp[static_i]:
            if f >= 0:
                col |= 1 << pos_list[f]
        columns.append(col)
    pairs = _reduce_bitset_columns(columns)
    return _bars_from_reduction(columns, pairs, vals[order], dims[order], 2)


def path_sublevel_h0(series) -> PersistenceDiagram:
    """0-dimensional sublevel-set persistence of a 1-D signal.

    Union-find over values in ascending order; plateaus (consecutive
    equal values) collapse to a single vertex and equal-valued components
    merge left-to-right. The global minimum carries the infinite bar.
    """
    series = np.asarray(series, dtype=np.float64).ravel()
    if series.size == 0:
        return PersistenceDiagram(bars=[])
    # collapse plateaus so every neighbor pair differs strictly
    keep = np.ones(series.size, dtype=bool)
    keep[1:] = series[1:] != series[:-1]
    vals = series[keep]
    n = vals.size
    if n == 1:
        return PersistenceDiagram(bars=[(float(vals[0]), np.inf, 0)])

    parent = np.arange(n)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    # birth of a component = (value, index) of its minimum; smaller is older
    birth = [(float(vals[i]), i) for i in range(n)]
    active = np.zeros(n, dtype=bool)
    bars: list[tuple[float, float, int]] = []
    order = np.lexsort((np.arange(n), vals))
    for idx in order:
        idx = int(idx)
        active[idx] = True
        for nb in (idx - 1, idx + 1):
            if nb < 0 or nb >= n or not active[nb]:
                continue
            ra, rb = find(idx), find(nb)
            if ra == rb:
                continue
            if birth[ra] <= birth[rb]:
                survivor, dead = ra, rb
            else:
                survivor, dead = rb, ra
            death = float(vals[idx])
            b = birth[dead][0]
            if death > b:
                bars.append((b, death, 0))
            parent[dead] = survivor
    root = find(0)
    bars.append((birth[root][0], np.inf, 0))
    bars.sort(key=lambda b: (b[0], b[1]))
    return PersistenceDiagram(bars=bars)


#: Length of the per-diagram feature vector.
DIAGRAM_VECTOR_LEN = 9


def vectorize_diagram(dgm: PersistenceDiagram) -> np.ndarray:
    """Finite-lifetime statistics of one diagram as a fixed 9-vector.

    Layout: top-4 lifetimes (descending, zero-padded), total persistence,
    mean, population std, max, finite-bar count. Infinite bars contribute
    nothing; an empty diagram maps to the zero vector. Bars of every
    dimension count; pass ``dgm.in_dim(k)`` for one dimension.
    """
    lifetimes = dgm.finite_lifetimes()
    out = np.zeros(DIAGRAM_VECTOR_LEN, dtype=np.float64)
    if lifetimes.size == 0:
        return out
    top = np.sort(lifetimes)[::-1][:4]
    out[: top.size] = top
    out[4] = lifetimes.sum()
    out[5] = lifetimes.mean()
    out[6] = lifetimes.std()
    out[7] = lifetimes.max()
    out[8] = float(lifetimes.size)
    return out
