"""Reference bodies of the local-path persistence functions, kept as byte oracles.

These are the straightforward numpy versions that the library's
``capped_exact_diagrams``, ``path_sublevel_h0``, ``vectorize_diagram``
and ``PersistenceDiagram.finite_lifetimes`` replaced. The library versions
must return the same bars and bytes; ``test_persistence`` compares them.
Each body here is kept verbatim and is not used by the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from topoattn.errors import InvalidInput, InvalidParameter, TopoAttnError

EXACT_POINT_CAP = 28
DIAGRAM_VECTOR_LEN = 9


@dataclass
class PersistenceDiagram:
    """Bars (birth, death, dim); death may be ``numpy.inf``."""

    bars: list[tuple[float, float, int]]

    def in_dim(self, dim: int) -> "PersistenceDiagram":
        return PersistenceDiagram([b for b in self.bars if b[2] == dim])

    def finite_lifetimes(self) -> np.ndarray:
        return np.asarray([d - b for (b, d, _) in self.bars if np.isfinite(d)], dtype=np.float64)


class _ComplexTables(NamedTuple):
    """Static structure of the full 3-skeleton on n points, all in lexicographic order."""

    edges: np.ndarray  # (E, 2) vertex pairs
    tri_facets: np.ndarray  # (T, 3) edge indices
    tet_facets: np.ndarray  # (Q, 4) triangle indices
    edge_cofaces: np.ndarray  # (E, n - 2) triangle indices
    tri_cofaces: np.ndarray  # (T, n - 3) tetrahedron indices


def _inverse_incidence(facets: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    # every face of the full complex has the same number of cofaces, so a
    # stable sort of the flat facet table lists each face's cofaces in a row
    cofaces = np.argsort(facets.ravel(), kind="stable") // facets.shape[1]
    return cofaces.reshape(shape).astype(np.int32)


@lru_cache(maxsize=EXACT_POINT_CAP + 1)
def _complex_tables(n: int) -> _ComplexTables:
    edges = np.column_stack(np.triu_indices(n, k=1)).astype(np.int32)
    edge_id = np.full((n, n), -1, dtype=np.int32)
    edge_id[edges[:, 0], edges[:, 1]] = np.arange(len(edges))
    tris = np.array(list(combinations(range(n), 3)), dtype=np.int32).reshape(-1, 3)
    tri_facets = edge_id[tris[:, [0, 0, 1]], tris[:, [1, 2, 2]]]
    tri_id = np.full((n, n, n), -1, dtype=np.int32)
    tri_id[tris[:, 0], tris[:, 1], tris[:, 2]] = np.arange(len(tris))
    tets = np.array(list(combinations(range(n), 4)), dtype=np.int32).reshape(-1, 4)
    tet_facets = tri_id[tets[:, [0, 0, 0, 1]], tets[:, [1, 1, 2, 2]], tets[:, [2, 3, 3, 3]]]
    tables = _ComplexTables(
        edges=edges,
        tri_facets=tri_facets,
        tet_facets=tet_facets,
        edge_cofaces=_inverse_incidence(tri_facets, (len(edges), n - 2)),
        tri_cofaces=_inverse_incidence(tet_facets, (len(tris), max(n - 3, 0))),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


class _Ranked(NamedTuple):
    """Filtration values of one dimension with their (value, lexicographic) ranks."""

    values: np.ndarray
    order: np.ndarray  # simplex index at each rank
    rank: np.ndarray  # rank of each simplex


def _ranked(values: np.ndarray) -> _Ranked:
    order = np.argsort(values, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return _Ranked(values, order, rank)


def _find(parent: list[int], x: int) -> int:
    """Union-find root of ``x``, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _kruskal_tree(n: int, edges: np.ndarray, edge_order: np.ndarray) -> np.ndarray:
    """Mask of the spanning-tree edges, taken in rank order: the H0 deaths."""
    parent = list(range(n))
    tree = np.zeros(len(edges), dtype=bool)
    merges = 0
    for e, (u, v) in zip(edge_order.tolist(), edges[edge_order].tolist()):
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            tree[e] = True
            merges += 1
            if merges == n - 1:
                break
    return tree


def _cohomology_pairs(
    dim: int,
    faces: _Ranked,
    cofaces: _Ranked,
    coface_table: np.ndarray,
    facet_table: np.ndarray,
    cleared: np.ndarray,
) -> tuple[list[tuple[float, float, int]], np.ndarray]:
    """Bars of dimension ``dim`` by persistent cohomology with clearing.

    Columns are the ``dim``-simplices not in ``cleared``, each the set of
    ranks of its cofaces, reduced in decreasing rank order with the
    lowest rank as pivot. Apparent pairs (a face whose earliest coface has
    it as latest facet) need no reduction and are read off in bulk.
    Returns the bars with positive lifetime and the mask of cofaces that
    are pivots, which clear the columns of dimension ``dim + 1``.
    """
    n_faces = faces.values.size
    coface_ranks = cofaces.rank[coface_table]
    earliest = coface_table[np.arange(n_faces), coface_ranks.argmin(axis=1)]
    latest = facet_table[np.arange(cofaces.values.size), faces.rank[facet_table].argmax(axis=1)]
    apparent = np.flatnonzero(latest[earliest] == np.arange(n_faces))
    pivots = np.zeros(cofaces.values.size, dtype=bool)
    pivots[earliest[apparent]] = True

    births = faces.values[apparent]
    deaths = cofaces.values[earliest[apparent]]
    alive = deaths > births
    bars = [(b, d, dim) for b, d in zip(births[alive].tolist(), deaths[alive].tolist())]

    def column_of(face: int) -> int:
        return sum(1 << r for r in coface_ranks[face].tolist())

    # an apparent face owns its pivot; its column is built only if reached
    apparent_at = dict(zip(cofaces.rank[earliest[apparent]].tolist(), apparent.tolist()))
    reduced: dict[int, int] = {}
    remaining = ~cleared
    remaining[apparent] = False
    descending = faces.order[::-1]
    for face in descending[remaining[descending]].tolist():
        column = column_of(face)
        while column:
            low = (column & -column).bit_length() - 1
            other = reduced.get(low)
            if other is None:
                owner = apparent_at.get(low)
                if owner is None:
                    reduced[low] = column
                    coface = int(cofaces.order[low])
                    pivots[coface] = True
                    birth, death = float(faces.values[face]), float(cofaces.values[coface])
                    if death > birth:
                        bars.append((birth, death, dim))
                    break
                other = reduced[low] = column_of(owner)
            column ^= other
        else:
            # the full 3-skeleton has no H1 or H2 classes, so no column may vanish
            raise TopoAttnError(
                f"persistence engine fault: a dimension-{dim} column reduced to zero"
            )
    return bars, pivots


def capped_exact_diagrams(D) -> PersistenceDiagram:
    """Exact H0-H2 bars of the full Vietoris-Rips filtration of at most 28 points.

    Every simplex up to dimension 3 enters at the maximum pairwise
    distance of its vertices. H0 comes from union-find over the edges,
    H1 and H2 from cohomology with clearing and apparent pairs over
    complex tables cached per point count. Clouds above
    :data:`EXACT_POINT_CAP` points raise :class:`InvalidParameter`; a
    matrix that is not square 2-D, has a non-finite or negative entry, is
    not exactly symmetric or has a nonzero diagonal raises
    :class:`InvalidInput`.
    """
    values = np.asarray(D, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise InvalidInput(f"distance matrix must be square 2-D, got shape {values.shape}")
    if not (np.all(np.isfinite(values)) and np.all(values >= 0.0)):
        raise InvalidInput("distance matrix entries must be finite and nonnegative")
    # the filtration reads only the upper triangle
    if not np.array_equal(values, values.T) or np.any(np.diagonal(values)):
        raise InvalidInput("distance matrix must be exactly symmetric with a zero diagonal")
    n = values.shape[0]
    if n > EXACT_POINT_CAP:
        raise InvalidParameter(
            f"{n} points exceed the exact-persistence cap of {EXACT_POINT_CAP}"
        )
    if n < 2:
        return PersistenceDiagram(bars=[(0.0, np.inf, 0)] * n)
    tables = _complex_tables(n)
    edges = _ranked(values[tables.edges[:, 0], tables.edges[:, 1]])
    tree = _kruskal_tree(n, tables.edges, edges.order)
    bars = [(0.0, d, 0) for d in edges.values[tree].tolist() if d > 0.0]
    bars.append((0.0, np.inf, 0))
    if n >= 3:
        tris = _ranked(edges.values[tables.tri_facets].max(axis=1))
        h1, killers = _cohomology_pairs(
            1, edges, tris, tables.edge_cofaces, tables.tri_facets, tree
        )
        bars += h1
    if n >= 4:
        tets = _ranked(tris.values[tables.tet_facets].max(axis=1))
        h2, _ = _cohomology_pairs(
            2, tris, tets, tables.tri_cofaces, tables.tet_facets, killers
        )
        bars += h2
    bars.sort(key=lambda b: (b[2], b[0], b[1]))
    return PersistenceDiagram(bars=bars)


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
    order = np.argsort(vals, kind="stable").tolist()
    vals = vals.tolist()
    parent = list(range(n))
    # birth of a component = (value, index) of its minimum; smaller is older
    birth = list(zip(vals, range(n)))
    active = [False] * n
    bars: list[tuple[float, float, int]] = []
    for idx in order:
        active[idx] = True
        for nb in (idx - 1, idx + 1):
            if nb < 0 or nb >= n or not active[nb]:
                continue
            ra, rb = _find(parent, idx), _find(parent, nb)
            if ra == rb:
                continue
            if birth[ra] <= birth[rb]:
                survivor, dead = ra, rb
            else:
                survivor, dead = rb, ra
            death = vals[idx]
            b = birth[dead][0]
            if death > b:
                bars.append((b, death, 0))
            parent[dead] = survivor
    root = _find(parent, 0)
    bars.append((birth[root][0], np.inf, 0))
    bars.sort(key=lambda b: (b[0], b[1]))
    return PersistenceDiagram(bars=bars)


def vectorize_diagram(lifetimes) -> np.ndarray:
    """The finite lifetimes of one diagram as a fixed 9-vector.

    Layout: top-4 lifetimes (descending, zero-padded), total persistence,
    mean, population std, max, finite-bar count. No lifetimes map to the
    zero vector. Pass ``dgm.finite_lifetimes()``, or
    ``dgm.in_dim(k).finite_lifetimes()`` for one dimension.
    """
    lifetimes = np.asarray(lifetimes, dtype=np.float64)
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
