"""Vietoris-Rips persistence: oracle equivalence, known shapes, path H0."""

from math import comb

import numpy as np
import pytest
from itertools import combinations

import reference_persistence as reference
from topoattn import persistence
from topoattn.errors import InvalidInput, InvalidParameter, TopoAttnError
from topoattn.geometry import pairwise_euclidean
from topoattn.persistence import (
    EXACT_POINT_CAP,
    PersistenceDiagram,
    _complex_tables,
    capped_exact_diagrams,
    path_sublevel_h0,
    vectorize_diagram,
)


def naive_reduction_oracle(distances, max_dim=3, max_edge=np.inf):
    """Independent dense GF(2) reduction: own enumeration, own pairing.

    Enumerates every vertex subset up to size max_dim+1 with itertools,
    sorts by (value, dimension, lexicographic vertices), reduces a dense
    0/1 numpy boundary matrix column by column, and reads bars off the
    lowest-one pairing. Deliberately shares no code with the library path.
    """
    n = distances.shape[0]
    simplices = []
    for size in range(1, max_dim + 2):
        for verts in combinations(range(n), size):
            if size == 1:
                value = 0.0
            else:
                value = max(distances[a][b] for a, b in combinations(verts, 2))
            if value <= max_edge:
                simplices.append((value, size - 1, verts))
    simplices.sort(key=lambda s: (s[0], s[1], s[2]))
    index = {s[2]: i for i, s in enumerate(simplices)}
    total = len(simplices)
    matrix = np.zeros((total, total), dtype=bool)
    for j, (_, dim, verts) in enumerate(simplices):
        if dim == 0:
            continue
        for face in combinations(verts, dim):
            matrix[index[face], j] = True

    def low(col):
        nz = np.nonzero(matrix[:, col])[0]
        return int(nz[-1]) if len(nz) else -1

    low_of = {}
    for j in range(total):
        pivot = low(j)
        while pivot >= 0 and pivot in low_of:
            matrix[:, j] ^= matrix[:, low_of[pivot]]
            pivot = low(j)
        if pivot >= 0:
            low_of[pivot] = j

    paired = set()
    bars = []
    for pivot, j in low_of.items():
        paired.add(pivot)
        paired.add(j)
        birth, death = simplices[pivot][0], simplices[j][0]
        dim = simplices[pivot][1]
        if death > birth and dim <= max_dim - 1:
            bars.append((birth, death, dim))
    for i in range(total):
        if i not in paired and not matrix[:, i].any() and simplices[i][1] <= max_dim - 1:
            bars.append((simplices[i][0], np.inf, simplices[i][1]))
    bars.sort(key=lambda b: (b[2], b[0], b[1]))
    return bars


def euclidean_matrix(points):
    points = np.asarray(points, dtype=np.float64)
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(d, 0.0)
    return d


class TestRipsFiltration:
    def test_complete_triangle(self):
        d = np.ones((3, 3)) - np.eye(3)
        tables = _complex_tables(3)
        assert [len(tables.edges), tables.tri_facets.shape[1], tables.tet_facets.shape[1]] == [3, 1, 0]
        # the 2-simplex enters with its edges at 1, so the loop never lives
        assert capped_exact_diagrams(d).bars == [(0.0, 1.0, 0), (0.0, 1.0, 0), (0.0, np.inf, 0)]

    def test_complete_simplex_count_binomial_sum(self):
        for n in (2, 3, 4, 6, EXACT_POINT_CAP):
            tables = _complex_tables(n)
            counts = [len(tables.edges), tables.tri_facets.shape[1], tables.tet_facets.shape[1]]
            assert counts == [comb(n, r) for r in range(2, 5)]
            # one row per facet or coface slot
            assert tables.tri_facets.shape[0] == 3 and tables.tet_facets.shape[0] == 4
            assert tables.edge_cofaces.shape == (n - 2, comb(n, 2))
            assert tables.tri_cofaces.shape == (max(n - 3, 0), comb(n, 3))

    def test_faces_precede_cofaces(self):
        # each facet entry is one dimension down (its vertices are a subset
        # of the coface's, one fewer), the coface tables invert the facet
        # tables, and so no facet's value exceeds its coface's; the packed
        # keys (latest facet's key, index) order each dimension by value,
        # so they refine the filtration into a valid one
        n = 7
        tables = _complex_tables(n)
        tri_facets, tet_facets = tables.tri_facets.T, tables.tet_facets.T
        tris = [tuple(sorted(set(tables.edges[f].ravel().tolist()))) for f in tri_facets]
        assert tris == list(combinations(range(n), 3))
        for t, facets in enumerate(tri_facets):
            assert all(set(tables.edges[e].tolist()) < set(tris[t]) for e in facets)
        for q, facets in enumerate(tet_facets):
            verts = set().union(*(tris[t] for t in facets))
            assert len(verts) == 4 and all(set(tris[t]) < verts for t in facets)
            assert len(set(facets.tolist())) == 4
        for faces, cofaces in ((tri_facets, tables.edge_cofaces.T),
                               (tet_facets, tables.tri_cofaces.T)):
            incidences = {(f, c) for c, row in enumerate(faces.tolist()) for f in row}
            assert {(f, c) for f, row in enumerate(cofaces.tolist()) for c in row} == incidences
        d = euclidean_matrix(np.random.default_rng(4).integers(0, 3, size=(n, 2)).astype(float))
        edge_vals = d.take(tables.upper)
        assert np.array_equal(edge_vals, d[tables.edges[:, 0], tables.edges[:, 1]])
        tri_vals = edge_vals[tri_facets].max(axis=1)
        tet_vals = tri_vals[tet_facets].max(axis=1)
        assert np.all(edge_vals[:, None] <= tri_vals[tables.edge_cofaces.T])
        assert np.all(tri_vals[:, None] <= tet_vals[tables.tri_cofaces.T])
        rank = np.empty(len(edge_vals), dtype=np.intp)
        rank[np.argsort(edge_vals, kind="stable")] = np.arange(len(edge_vals))
        edge_keys = persistence._packed(rank)
        tri_keys = persistence._packed(edge_keys[tables.tri_facets].max(axis=0))
        tet_keys = persistence._packed(tri_keys[tables.tet_facets].max(axis=0))
        for vals, keys in ((edge_vals, edge_keys), (tri_vals, tri_keys), (tet_vals, tet_keys)):
            assert len(set(keys.tolist())) == len(keys)
            assert np.all(np.diff(vals[np.argsort(keys)]) >= 0.0)

    def test_cap_exceeded(self):
        far = np.zeros((41, 41))
        with pytest.raises(InvalidParameter):
            capped_exact_diagrams(far)

    def test_malformed_matrix_rejected(self):
        nan_edge = np.ones((3, 3)) - np.eye(3)
        nan_edge[0, 2] = np.nan
        asymmetric = np.array([[0.0, 1.0], [5.0, 0.0]])
        for bad in (
            np.zeros((3, 4)), nan_edge, np.array([[0.0, -1.0], [-1.0, 0.0]]),
            # only the upper triangle is read: these would give other bars
            asymmetric, asymmetric.T, np.array([[7.0, 1.0], [1.0, 7.0]]),
        ):
            with pytest.raises(InvalidInput):
                capped_exact_diagrams(bad)


class TestReduction:
    def test_two_points(self):
        d = euclidean_matrix([[0.0], [0.75]])
        dgm = capped_exact_diagrams(d)
        assert dgm.bars == [(0.0, 0.75, 0), (0.0, np.inf, 0)]

    def test_unit_square_h1(self):
        d = euclidean_matrix([[0, 0], [1, 0], [1, 1], [0, 1]])
        dgm = capped_exact_diagrams(d)
        h1 = dgm.in_dim(1).bars
        assert len(h1) == 1
        birth, death, _ = h1[0]
        assert abs(birth - 1.0) <= 1e-9
        assert abs(death - np.sqrt(2.0)) <= 1e-9

    def test_equilateral_triangle_no_h1(self):
        d = euclidean_matrix([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
        dgm = capped_exact_diagrams(d)
        assert dgm.in_dim(1).bars == []

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(3, 8))
            p = int(rng.integers(2, 4))
            d = euclidean_matrix(rng.normal(size=(n, p)))
            ours = capped_exact_diagrams(d).bars
            assert ours == naive_reduction_oracle(d)

    def test_one_infinite_h0_bar_per_component(self):
        # two clusters far apart: the full filtration ends connected, and the
        # last H0 merge happens at the shortest inter-cluster distance
        pts = np.concatenate([np.random.default_rng(0).normal(0, 0.1, (4, 2)),
                              np.random.default_rng(1).normal(100, 0.1, (4, 2))])
        d = euclidean_matrix(pts)
        h0 = capped_exact_diagrams(d).in_dim(0).bars
        infinite_h0 = [b for b in h0 if not np.isfinite(b[1])]
        assert len(infinite_h0) == 1
        assert max(b[1] for b in h0 if np.isfinite(b[1])) == d[:4, 4:].min()

    def test_scale_equivariance(self):
        rng = np.random.default_rng(21)
        d = euclidean_matrix(rng.normal(size=(6, 3)))
        base = capped_exact_diagrams(d).bars
        scaled = capped_exact_diagrams(2.5 * d).bars
        assert len(base) == len(scaled)
        for (b1, d1, k1), (b2, d2, k2) in zip(base, scaled):
            assert k1 == k2
            assert np.isclose(b2, 2.5 * b1)
            assert (np.isinf(d1) and np.isinf(d2)) or np.isclose(d2, 2.5 * d1)

    def test_h0_bar_count_matches_component_oracle(self):
        # at threshold t, surviving H0 classes == connected components
        rng = np.random.default_rng(33)
        d = euclidean_matrix(rng.normal(size=(8, 2)))
        dgm = capped_exact_diagrams(d)
        for t in np.quantile(d[np.triu_indices(8, 1)], [0.1, 0.3, 0.6, 0.9]):
            alive = sum(1 for b, death, k in dgm.in_dim(0).bars if b <= t < death)
            parent = list(range(8))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for i in range(8):
                for j in range(i + 1, 8):
                    if d[i, j] <= t:
                        parent[find(i)] = find(j)
            n_components = len({find(i) for i in range(8)})
            assert alive == n_components


class TestFastPath:
    def test_matches_general_path(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            n = int(rng.integers(4, 14))
            d = euclidean_matrix(rng.normal(size=(n, 3)))
            assert capped_exact_diagrams(d).bars == naive_reduction_oracle(d)

    def test_sixteen_point_clouds_match_oracle(self):
        # 16 points is the wide cover subwindow; noisy spheres give H2 bars
        rng = np.random.default_rng(16)
        clouds = []
        for _ in range(10):
            x = rng.normal(size=(16, 3))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            clouds.append(x + rng.normal(0, 0.05, x.shape))
        clouds += [rng.normal(size=(16, 3)) for _ in range(3)]
        h2_bars = 0
        for trial, cloud in enumerate(clouds):
            d = euclidean_matrix(cloud)
            ours = capped_exact_diagrams(d).bars
            assert ours == naive_reduction_oracle(d), f"bar mismatch on cloud {trial}"
            h2_bars += sum(1 for b in ours if b[2] == 2)
        assert h2_bars >= 1


def lattice_clouds(rng, count, sizes):
    """Integer-lattice clouds full of tied distances; every third has a duplicated point."""
    clouds = []
    for i in range(count):
        n = int(rng.integers(sizes[0], sizes[1] + 1))
        points = rng.integers(0, 3, size=(n, 2)).astype(np.float64)
        if i % 3 == 0:
            points[-1] = points[0]
        clouds.append(points)
    return clouds


class TestCohomologyEngine:
    def test_tie_heavy_lattice_clouds_match_oracle(self):
        rng = np.random.default_rng(29)
        for trial, points in enumerate(lattice_clouds(rng, 150, (2, 12))):
            d = euclidean_matrix(points)
            assert capped_exact_diagrams(d).bars == naive_reduction_oracle(d), f"cloud {trial}"

    @pytest.mark.parametrize(
        "points",
        [
            np.zeros((0, 2)),
            [[0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [2.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
            [[0, 0], [1, 0], [1, 1], [0, 1]],
            [[0, 0], [2, 0], [1, 1], [1, 1]],
        ],
    )
    def test_small_point_counts_match_oracle(self, points):
        d = euclidean_matrix(np.asarray(points, dtype=np.float64).reshape(-1, 2))
        assert capped_exact_diagrams(d).bars == naive_reduction_oracle(d)

    @pytest.mark.parametrize("dim, n, table", [(1, 4, "edge_cofaces"), (2, 5, "tri_cofaces")])
    def test_vanishing_column_raises(self, monkeypatch, dim, n, table):
        # the full 3-skeleton has no H1 or H2 class; giving every face the
        # cofaces of face 0 makes uncleared columns cancel, which only a
        # broken engine can do (the table holds one row per coface slot)
        real = persistence._complex_tables(n)
        slots = getattr(real, table)
        broken = real._replace(**{table: np.repeat(slots[:, :1], slots.shape[1], axis=1)})
        monkeypatch.setattr(persistence, "_complex_tables", lambda _n: broken)
        d = euclidean_matrix(np.random.default_rng(n).normal(size=(n, 3)))
        with pytest.raises(TopoAttnError, match=f"dimension-{dim} column"):
            capped_exact_diagrams(d)


class TestCappedExact:
    def test_noop_cap_matches_uncapped(self):
        # below the cap the bars are those of the full, uncapped filtration
        rng = np.random.default_rng(2)
        d = euclidean_matrix(rng.normal(size=(12, 2)))
        assert capped_exact_diagrams(d).bars == naive_reduction_oracle(d)

    def test_parameter_validation(self):
        # the cap is inclusive: 28 points reduce, 29 raise
        rng = np.random.default_rng(3)
        d = euclidean_matrix(rng.normal(size=(EXACT_POINT_CAP + 1, 3)))
        with pytest.raises(InvalidParameter):
            capped_exact_diagrams(d)
        h0 = capped_exact_diagrams(d[:-1, :-1]).in_dim(0).bars
        assert len(h0) == EXACT_POINT_CAP
        assert sum(1 for b in h0 if not np.isfinite(b[1])) == 1

    def test_determinism(self):
        rng = np.random.default_rng(9)
        d = euclidean_matrix(rng.normal(size=(20, 3)))
        a = capped_exact_diagrams(d)
        b = capped_exact_diagrams(d)
        assert a.bars == b.bars


class TestPathSublevel:
    def test_monotone_single_bar(self):
        dgm = path_sublevel_h0([1.0, 2.0, 3.5, 7.0])
        assert dgm.bars == [(1.0, np.inf, 0)]

    def test_hand_enumerated_example(self):
        dgm = path_sublevel_h0([0.0, 2.0, 1.0, 3.0])
        assert dgm.bars == [(0.0, np.inf, 0), (1.0, 2.0, 0)]

    def test_negated_series_gives_other_diagram(self):
        series = np.array([0.0, 2.0, 1.0, 3.0])
        neg = path_sublevel_h0(-series)
        # maxima of the series become minima of the negation
        assert neg.bars == [(-3.0, np.inf, 0), (-2.0, -1.0, 0)]

    def test_bar_count_equals_local_minima(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            series = rng.normal(size=int(rng.integers(1, 24)))
            # collapse plateaus, then count strict local minima
            keep = np.ones(len(series), dtype=bool)
            keep[1:] = series[1:] != series[:-1]
            vals = series[keep]
            minima = sum(
                1
                for i in range(len(vals))
                if (i == 0 or vals[i] < vals[i - 1]) and (i == len(vals) - 1 or vals[i] < vals[i + 1])
            )
            assert len(path_sublevel_h0(series).bars) == minima

    def test_plateau_collapse(self):
        dgm = path_sublevel_h0([1.0, 1.0, 1.0])
        assert dgm.bars == [(1.0, np.inf, 0)]


class TestSummaries:
    def test_vectorize_empty(self):
        assert np.array_equal(vectorize_diagram(PersistenceDiagram([]).finite_lifetimes()), np.zeros(9))

    def test_vectorize_arithmetic(self):
        dgm = PersistenceDiagram([(0.0, 3.0, 1), (1.0, 2.0, 1)])
        vec = vectorize_diagram(dgm.finite_lifetimes())
        assert np.allclose(vec, [3, 1, 0, 0, 4, 2, 1, 3, 2])

    def test_infinite_bars_ignored(self):
        dgm = PersistenceDiagram([(0.0, np.inf, 0), (0.0, 3.0, 0), (1.0, 2.0, 0)])
        with_inf = vectorize_diagram(dgm.finite_lifetimes())
        without = vectorize_diagram(PersistenceDiagram([(0.0, 3.0, 0), (1.0, 2.0, 0)]).finite_lifetimes())
        assert np.array_equal(with_inf, without)

    def test_nan_and_negative_inf_deaths_ignored(self):
        dgm = PersistenceDiagram([(0.0, np.nan, 0), (0.0, 3.0, 0), (0.0, -np.inf, 1), (1.0, 2.0, 0)])
        assert dgm.finite_lifetimes().tolist() == [3.0, 1.0]
        without = PersistenceDiagram([(0.0, 3.0, 0), (1.0, 2.0, 0)]).finite_lifetimes()
        assert np.array_equal(vectorize_diagram(dgm.finite_lifetimes()), vectorize_diagram(without))

    def test_dim_filter(self):
        dgm = PersistenceDiagram([(0.0, 3.0, 0), (0.0, 1.0, 1)])
        assert vectorize_diagram(dgm.in_dim(1).finite_lifetimes())[7] == 1.0


def test_pairwise_euclidean_interop():
    cloud = np.array([[0.0, 0.0], [3.0, 4.0]])
    dm = pairwise_euclidean(cloud)
    dgm = capped_exact_diagrams(dm)
    assert dgm.bars == [(0.0, 5.0, 0), (0.0, np.inf, 0)]


def bar_bits(bars):
    """Bars with each end as an exact hex string: equal iff the float bits are."""
    assert all(type(b) is float and type(d) is float and type(k) is int for b, d, k in bars)
    return [(float.hex(b), float.hex(d), k) for b, d, k in bars]


class TestReferenceBytes:
    """The rewritten functions return the bits of their reference bodies."""

    def test_rips_bars_match_reference_bits(self):
        rng = np.random.default_rng(41)
        sizes = [8] * 70 + [16] * 70 + rng.integers(2, EXACT_POINT_CAP + 1, size=60).tolist()
        for trial, n in enumerate(sizes):
            if trial % 3 == 0:
                cloud = rng.integers(0, 3, size=(n, 2)).astype(np.float64)  # many tied distances
                cloud[-1] = cloud[0]
            elif trial % 3 == 1:
                cloud = np.round(rng.normal(size=(n, 3)), 1)
            else:
                cloud = rng.normal(size=(n, int(rng.integers(1, 4))))
            d = pairwise_euclidean(cloud)
            ours = capped_exact_diagrams(d).bars
            assert bar_bits(ours) == bar_bits(reference.capped_exact_diagrams(d).bars), f"cloud {trial}"

    def test_path_h0_matches_reference_bits(self):
        rng = np.random.default_rng(43)
        for trial in range(600):
            length = int(rng.integers(1, 41))
            if trial % 3 == 0:
                series = rng.normal(size=length)
            elif trial % 3 == 1:
                # repeated values and plateaus, with both signed zeros
                series = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=length)
            else:
                series = np.repeat(rng.normal(size=length), rng.integers(1, 4, size=length))[:length]
            for x in (series, -series):
                ours, ref = path_sublevel_h0(x), reference.path_sublevel_h0(x)
                assert bar_bits(ours.bars) == bar_bits(ref.bars), f"series {trial}"
                lifetimes = ours.finite_lifetimes()
                assert lifetimes.dtype == np.float64
                assert lifetimes.tobytes() == ref.finite_lifetimes().tobytes()

    def test_vectorize_matches_reference_bytes_at_every_count(self):
        # counts of 9 and more cross numpy's 8-lane unrolled sum
        rng = np.random.default_rng(47)
        for count in range(28):
            for trial in range(40):
                kind = trial % 4
                if kind == 0:
                    lifetimes = rng.random(count) * 10.0 ** rng.uniform(-12, 3)
                elif kind == 1:
                    lifetimes = rng.integers(0, 3, size=count).astype(np.float64)  # ties, zeros
                elif kind == 2:
                    lifetimes = 10.0 ** rng.uniform(-12, 3, size=count)
                else:
                    lifetimes = rng.choice([0.0, 1e-12, 0.25, 1e3], size=count)
                ours = vectorize_diagram(lifetimes)
                assert ours.dtype == np.float64 and ours.shape == (9,)
                assert ours.tobytes() == reference.vectorize_diagram(lifetimes).tobytes(), (count, trial)


class TestNonFiniteInput:
    """Non-finite input raises instead of giving wrong persistence."""

    def test_path_h0_infinite_value_raises(self):
        # an infinite value would give a second infinite bar
        with pytest.raises(InvalidInput):
            path_sublevel_h0([0.0, np.inf, -1.0])

    def test_path_h0_nan_raises(self):
        # a NaN would drop the bar born at 1.0
        with pytest.raises(InvalidInput):
            path_sublevel_h0([0.0, np.nan, 1.0])

    @pytest.mark.parametrize("lifetimes", [[np.inf, 1.0], [np.nan], [1.0, -np.inf]])
    def test_vectorize_non_finite_raises(self, lifetimes):
        with pytest.raises(InvalidInput):
            vectorize_diagram(lifetimes)

    def test_vectorize_overflowing_total_raises(self):
        # finite lifetimes whose sum is not finite have no finite summary
        with pytest.raises(InvalidInput), np.errstate(over="ignore"):
            vectorize_diagram([1e308, 1e308])

    @pytest.mark.parametrize("lifetimes", [np.ones((2, 3)), np.float64(1.0)])
    def test_vectorize_not_1d_raises(self, lifetimes):
        with pytest.raises(InvalidInput):
            vectorize_diagram(lifetimes)
