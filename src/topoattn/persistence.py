"""Exact Vietoris-Rips persistence (H0-H2) of small clouds and 1-D sublevel H0.

The engine is persistent cohomology with clearing and apparent pairs, H0
by union-find (Bauer, *Ripser*, arXiv:1908.02518; Bauer-Kerber-
Reininghaus, *Clear and compress*, 2014). Every simplex gets an integer
key that orders the filtration: an edge's key packs (value rank, index),
a triangle's or tetrahedron's packs (key of its latest facet, index). A
simplex enters with its latest facet, so keys rise with value. Kruskal's
spanning tree gives the H0 bars and clears the edge columns; apparent
pairs, found in bulk with numpy, pair most columns at zero persistence;
the few columns left are reduced as Python sets of coface keys, and the
H1 pivot triangles clear the triangle columns. Persistence bar multisets
do not depend on the refinement chosen for ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, InvalidParameter, TopoAttnError

#: Point-count cap for exact persistence.
EXACT_POINT_CAP = 28


@dataclass
class PersistenceDiagram:
    """Bars (birth, death, dim); death may be ``numpy.inf``."""

    bars: list[tuple[float, float, int]]

    def in_dim(self, dim: int) -> "PersistenceDiagram":
        return PersistenceDiagram([b for b in self.bars if b[2] == dim])

    def finite_lifetimes(self) -> np.ndarray:
        return np.asarray([d - b for (b, d, _) in self.bars if math.isfinite(d)], dtype=np.float64)


class _ComplexTables(NamedTuple):
    """Static structure of the full 3-skeleton on n points, all in lexicographic order.

    Incidence tables hold one row per facet or coface slot, so a reduction
    over each simplex's facets or cofaces runs along axis 0.
    """

    edges: np.ndarray  # (E, 2) vertex pairs
    upper: np.ndarray  # (E,) flat position of each edge in an n x n matrix
    tri_facets: np.ndarray  # (3, T) edge indices
    tet_facets: np.ndarray  # (4, Q) triangle indices
    edge_cofaces: np.ndarray  # (n - 2, E) triangle indices
    tri_cofaces: np.ndarray  # (n - 3, T) tetrahedron indices


def _inverse_incidence(facets: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    # every face of the full complex has the same number of cofaces, so a
    # stable sort of the flat facet table lists each face's cofaces in a row
    cofaces = np.argsort(facets.ravel(), kind="stable") // facets.shape[1]
    return cofaces.reshape(shape).T


@lru_cache(maxsize=EXACT_POINT_CAP + 1)
def _complex_tables(n: int) -> _ComplexTables:
    edges = np.column_stack(np.triu_indices(n, k=1))
    edge_id = np.full((n, n), -1, dtype=np.intp)
    edge_id[edges[:, 0], edges[:, 1]] = np.arange(len(edges))
    tris = np.array(list(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)
    tri_facets = edge_id[tris[:, [0, 0, 1]], tris[:, [1, 2, 2]]]
    tri_id = np.full((n, n, n), -1, dtype=np.intp)
    tri_id[tris[:, 0], tris[:, 1], tris[:, 2]] = np.arange(len(tris))
    tets = np.array(list(combinations(range(n), 4)), dtype=np.intp).reshape(-1, 4)
    tet_facets = tri_id[tets[:, [0, 0, 0, 1]], tets[:, [1, 1, 2, 2]], tets[:, [2, 3, 3, 3]]]
    tables = _ComplexTables(
        edges=edges,
        upper=edges[:, 0] * n + edges[:, 1],
        tri_facets=tri_facets.T,
        tet_facets=tet_facets.T,
        edge_cofaces=_inverse_incidence(tri_facets, (len(edges), n - 2)),
        tri_cofaces=_inverse_incidence(tet_facets, (len(tris), max(n - 3, 0))),
    )
    # contiguous rows of intp, which fancy indexing takes without a cast
    tables = _ComplexTables(*(np.ascontiguousarray(t, dtype=np.intp) for t in tables))
    for table in tables:
        table.setflags(write=False)
    return tables


def _packed(high: np.ndarray) -> np.ndarray:
    """Unique keys ordered by (high, index): ``high * size + index``."""
    return high * high.size + np.arange(high.size)


def _kruskal_tree(n: int, ranked_edges: list[list[int]]) -> list[int]:
    """Ranks of the spanning-tree edges, taking edges in rank order: the H0 deaths."""
    parent = list(range(n))
    tree: list[int] = []
    for rank, (u, v) in enumerate(ranked_edges):
        # union-find roots, halving the path on the way
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[v] = u
            tree.append(rank)
            if len(tree) == n - 1:
                break
    return tree


def _cohomology_pairs(
    dim: int,
    face_keys: np.ndarray,
    coface_keys: np.ndarray,
    cofaces: np.ndarray,
    cleared: np.ndarray,
    values: list[float],
    scale: int,
) -> tuple[list[tuple[float, float, int]], np.ndarray]:
    """Bars of dimension ``dim`` by persistent cohomology with clearing.

    Columns are the ``dim``-simplices not in ``cleared``, each the set of
    keys of its cofaces (``cofaces`` holds one row per coface slot),
    reduced in decreasing key order with the lowest key as pivot. A face
    whose earliest coface has it as latest facet forms an apparent pair:
    its column needs no reduction, and the pair has zero persistence.
    ``values`` are the sorted edge values, and ``key // scale`` is the rank
    of the edge a face enters with. Returns the bars with positive
    lifetime and the mask of cofaces that are pivots, which clear the
    columns of dimension ``dim + 1``.
    """
    n_faces, n_cofaces = face_keys.size, coface_keys.size
    slot_keys = coface_keys[cofaces]  # (slots, faces): column f is slot_keys[:, f]
    earliest = slot_keys.min(axis=0)
    apparent = earliest // n_cofaces == face_keys
    pivots = np.zeros(n_cofaces, dtype=bool)
    pivots[earliest[apparent] % n_cofaces] = True

    bars: list[tuple[float, float, int]] = []
    reduced: dict[int, set[int]] = {}
    left = np.flatnonzero(~(cleared | apparent))
    for face in left[face_keys[left].argsort()[::-1]].tolist():
        column = set(slot_keys[:, face].tolist())
        while column:
            low = min(column)
            other = reduced.get(low)
            if other is None:
                latest = low // n_cofaces  # key of the pivot coface's latest facet
                owner = latest % n_faces
                if earliest.item(owner) != low:  # no apparent pair owns the pivot
                    reduced[low] = column
                    pivots[low % n_cofaces] = True
                    birth, death = values[face_keys.item(face) // scale], values[latest // scale]
                    if death > birth:
                        bars.append((birth, death, dim))
                    break
                other = reduced[low] = set(slot_keys[:, owner].tolist())
            column ^= other
        else:
            # the full 3-skeleton has no H1 or H2 classes, so no column may vanish
            raise TopoAttnError(
                f"persistence engine fault: a dimension-{dim} column reduced to zero"
            )
    bars.sort()
    return bars, pivots


def capped_exact_diagrams(D) -> PersistenceDiagram:
    """Exact H0-H2 bars of the full Vietoris-Rips filtration of at most 28 points.

    Every simplex up to dimension 3 enters at the maximum pairwise
    distance of its vertices. H0 comes from union-find over the edges,
    H1 and H2 from cohomology with clearing and apparent pairs over
    complex tables cached per point count. Bars are sorted by dimension,
    then birth, then death. Clouds above :data:`EXACT_POINT_CAP` points
    raise :class:`InvalidParameter`; a matrix that is not square 2-D, has
    a non-finite or negative entry, is not exactly symmetric or has a
    nonzero diagonal raises :class:`InvalidInput`.
    """
    values = np.asarray(D, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise InvalidInput(f"distance matrix must be square 2-D, got shape {values.shape}")
    # min and max propagate NaN, which then fails both comparisons
    if not (values.min(initial=0.0) >= 0.0 and values.max(initial=0.0) < math.inf):
        raise InvalidInput("distance matrix entries must be finite and nonnegative")
    # the filtration reads only the upper triangle
    if not (values == values.T).all() or values.diagonal().any():
        raise InvalidInput("distance matrix must be exactly symmetric with a zero diagonal")
    n = values.shape[0]
    if n > EXACT_POINT_CAP:
        raise InvalidParameter(
            f"{n} points exceed the exact-persistence cap of {EXACT_POINT_CAP}"
        )
    if n < 2:
        return PersistenceDiagram(bars=[(0.0, math.inf, 0)] * n)
    tables = _complex_tables(n)
    edge_values = values.take(tables.upper)
    order = edge_values.argsort(kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    ranked_values = edge_values[order].tolist()
    tree = _kruskal_tree(n, tables.edges[order].tolist())
    bars = [(0.0, ranked_values[r], 0) for r in tree if ranked_values[r] > 0.0]
    bars.append((0.0, math.inf, 0))
    if n >= 3:
        cleared = np.zeros(order.size, dtype=bool)
        cleared[order[tree]] = True
        edge_keys = _packed(rank)
        tri_keys = _packed(edge_keys[tables.tri_facets].max(axis=0))
        h1, killers = _cohomology_pairs(
            1, edge_keys, tri_keys, tables.edge_cofaces, cleared, ranked_values, edge_keys.size
        )
        bars += h1
    if n >= 4:
        tet_keys = _packed(tri_keys[tables.tet_facets].max(axis=0))
        h2, _ = _cohomology_pairs(
            2, tri_keys, tet_keys, tables.tri_cofaces, killers, ranked_values,
            edge_keys.size * tri_keys.size,
        )
        bars += h2
    return PersistenceDiagram(bars=bars)


def path_sublevel_h0(series) -> PersistenceDiagram:
    """0-dimensional sublevel-set persistence of a 1-D signal.

    Plateaus (consecutive equal values) collapse to their first vertex;
    vertices then enter in ascending order of value, equal values left to
    right. Each component is a run of entered vertices, known by its ends.
    A vertex that joins two runs kills the one whose oldest vertex entered
    later (the elder rule), at the joining vertex's value; equal-valued
    components therefore merge left-to-right. The global minimum carries
    the infinite bar. A non-finite value raises :class:`InvalidInput`.
    """
    series = np.asarray(series, dtype=np.float64).ravel()
    if not np.isfinite(series).all():
        raise InvalidInput("path sublevel H0 needs a finite series")
    if series.size == 0:
        return PersistenceDiagram(bars=[])
    values = series.tolist()
    vals = values[:1] + [b for a, b in zip(values, values[1:]) if b != a]
    n = len(vals)
    # at the two ends of each run: the run's other end and its oldest vertex
    other_end = [-1] * n
    oldest = [0] * n
    bars: list[tuple[float, float, int]] = []
    for i in sorted(range(n), key=vals.__getitem__):
        left = i > 0 and other_end[i - 1] >= 0
        right = i + 1 < n and other_end[i + 1] >= 0
        lo = other_end[i - 1] if left else i
        hi = other_end[i + 1] if right else i
        if left and right:
            # the left run's oldest vertex has the smaller index
            elder, younger = oldest[lo], oldest[hi]
            if vals[younger] < vals[elder]:
                elder, younger = younger, elder
            if vals[i] > vals[younger]:
                bars.append((vals[younger], vals[i], 0))
        else:
            elder = oldest[lo] if left else oldest[hi] if right else i
        other_end[lo], other_end[hi] = hi, lo
        oldest[lo] = oldest[hi] = elder
    bars.append((vals[oldest[0]], math.inf, 0))
    bars.sort()
    return PersistenceDiagram(bars=bars)


#: Length of the per-diagram feature vector.
DIAGRAM_VECTOR_LEN = 9


def vectorize_diagram(lifetimes) -> np.ndarray:
    """The finite lifetimes of one diagram as a fixed 9-vector.

    Layout: top-4 lifetimes (descending, zero-padded), total persistence,
    mean, population std, max, finite-bar count. No lifetimes map to the
    zero vector. Pass ``dgm.finite_lifetimes()``, or
    ``dgm.in_dim(k).finite_lifetimes()`` for one dimension. The total,
    mean and std take numpy's own summation steps, so each entry has the
    bits of ``sum``, ``mean`` and ``std``. Lifetimes that are not 1-D,
    or whose total is not finite (a non-finite entry, or finite entries
    whose sum overflows), raise :class:`InvalidInput`.
    """
    lifetimes = np.asarray(lifetimes, dtype=np.float64)
    if lifetimes.ndim != 1:
        raise InvalidInput(f"lifetimes must be 1-D, got shape {lifetimes.shape}")
    count = lifetimes.size
    if count == 0:
        return np.zeros(DIAGRAM_VECTOR_LEN)
    total = float(np.add.reduce(lifetimes))
    if not math.isfinite(total):
        raise InvalidInput("lifetimes must be finite with a finite total")
    ranked = np.sort(lifetimes)
    mean = total / count
    deviation = lifetimes - mean
    deviation *= deviation
    std = math.sqrt(float(np.add.reduce(deviation)) / count)
    top = ranked[:-5:-1].tolist()
    top += [0.0] * (4 - len(top))
    return np.array([*top, total, mean, std, top[0], float(count)])
