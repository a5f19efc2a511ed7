"""Vietoris-Rips persistence: oracle equivalence, known shapes, path H0."""

from math import comb

import numpy as np
import pytest
from itertools import combinations

from topoattn.errors import InvalidInput, InvalidParameter
from topoattn.geometry import pairwise_euclidean
from topoattn.persistence import (
    EXACT_POINT_CAP,
    PersistenceDiagram,
    _full_complex_static,
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
        dims = _full_complex_static(3)[0]
        assert np.bincount(dims).tolist() == [3, 3, 1]
        # the 2-simplex enters with its edges at 1, so the loop never lives
        assert capped_exact_diagrams(d).bars == [(0.0, 1.0, 0), (0.0, 1.0, 0), (0.0, np.inf, 0)]

    def test_complete_simplex_count_binomial_sum(self):
        n = 6
        dims, pair_idx, face_pos = _full_complex_static(n)
        assert len(dims) == sum(comb(n, r) for r in range(1, 5))
        assert np.bincount(dims).tolist() == [comb(n, r) for r in range(1, 5)]

    def test_faces_precede_cofaces(self):
        # static order puts every face first, and a face's vertex pairs are a
        # subset of its coface's, so its value is never larger: the engine's
        # stable (value, dimension) sort keeps faces before cofaces
        dims, pair_idx, face_pos = _full_complex_static(7)
        for si in range(len(dims)):
            pairs = set(pair_idx[si][pair_idx[si] >= 0].tolist())
            for f in face_pos[si][face_pos[si] >= 0]:
                assert f < si and dims[f] == dims[si] - 1
                assert set(pair_idx[f][pair_idx[f] >= 0].tolist()) <= pairs

    def test_cap_exceeded(self):
        far = np.zeros((41, 41))
        with pytest.raises(InvalidParameter):
            capped_exact_diagrams(far)

    def test_malformed_matrix_rejected(self):
        nan_edge = np.ones((3, 3)) - np.eye(3)
        nan_edge[0, 2] = np.nan
        for bad in (np.zeros((3, 4)), nan_edge, np.array([[0.0, -1.0], [-1.0, 0.0]])):
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
        assert np.array_equal(vectorize_diagram(PersistenceDiagram([])), np.zeros(9))

    def test_vectorize_arithmetic(self):
        dgm = PersistenceDiagram([(0.0, 3.0, 1), (1.0, 2.0, 1)])
        vec = vectorize_diagram(dgm)
        assert np.allclose(vec, [3, 1, 0, 0, 4, 2, 1, 3, 2])

    def test_infinite_bars_ignored(self):
        dgm = PersistenceDiagram([(0.0, np.inf, 0), (0.0, 3.0, 0), (1.0, 2.0, 0)])
        with_inf = vectorize_diagram(dgm)
        without = vectorize_diagram(PersistenceDiagram([(0.0, 3.0, 0), (1.0, 2.0, 0)]))
        assert np.array_equal(with_inf, without)

    def test_dim_filter(self):
        dgm = PersistenceDiagram([(0.0, 3.0, 0), (0.0, 1.0, 1)])
        assert vectorize_diagram(dgm.in_dim(1))[7] == 1.0


def test_pairwise_euclidean_interop():
    cloud = np.array([[0.0, 0.0], [3.0, 4.0]])
    dm = pairwise_euclidean(cloud)
    dgm = capped_exact_diagrams(dm)
    assert dgm.bars == [(0.0, 5.0, 0), (0.0, np.inf, 0)]
