import warnings
from dataclasses import replace
from functools import lru_cache
from itertools import compress, islice, permutations
from itertools import product as iproduct
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from shadowbench import closure, shadowing
from shadowbench.closure import (
    ClosureTrace,
    SamplingParams,
    SetApprox,
    Verdict,
    _ball,
    _balls,
    _greedy_net,
    _pairs,
    _simple_cycles,
    _simple_paths,
    _successors,
    build_graph,
    directed_hausdorff,
    gamma_for,
    hausdorff,
    iterate_closure,
    sample_pseudo_orbits,
    shadowing_closure,
)
from shadowbench.cli import ExperimentConfig, _crovisier_grid, closure_battery
from shadowbench.maximality import GridSet
from shadowbench.shadowing import (PseudoOrbit, ShadowingRefusal, exact_shadow_linear,
                                   newton_shadow, pseudo_orbit_defect)
from shadowbench.torus import (
    ToralAutomorphism,
    TorusPoint,
    cat_map,
    crovisier_product,
    torus_distance,
    torus_distance_array,
    wrap,
)


def brute_hausdorff(P, Q):
    """Oracle: max over both directed sup-inf torus distances, all pairs."""
    def one_way(A, B):
        worst = 0.0
        for a in A:
            best = np.inf
            for b in B:
                delta = np.abs(np.asarray(a) - np.asarray(b))
                delta = np.minimum(delta, 1 - delta)
                best = min(best, np.linalg.norm(delta))
            worst = max(worst, best)
        return worst

    return max(one_way(P, Q), one_way(Q, P))


def brute_keep_first(points, threshold):
    """Oracle: O(n^2) keep-first scan.  A point survives unless its torus
    distance to an earlier survivor is strictly below `threshold`."""
    d = points.shape[1]
    kept = np.empty((0, d))
    for p in points:
        delta = np.abs(kept - p)
        delta = np.minimum(delta, 1.0 - delta)
        if not np.any(np.sqrt(np.sum(delta * delta, axis=1)) < threshold):
            kept = np.vstack([kept, p])
    return kept


def comprehension_edges(sa, images, delta):
    """Reference: every edge (i, j) with d(f(x_i), x_j) < delta strictly,
    by brute force over all net points, in (i, j) order."""
    edges = [(i, j) for i, image in enumerate(images)
             for j in np.nonzero(torus_distance_array(sa.points, image) < delta)[0]]
    return np.array(edges, dtype=int) if edges else np.empty((0, 2), dtype=int)


def boundary_net(d, seed):
    """A set of points in T^d, a radius r, and queries of which many sit
    within a few ulps of torus distance r from a point, or exactly at r."""
    rng = np.random.default_rng(seed)
    r = 0.25
    # dyadic lattice neighbours are exactly r apart, across faces too
    points = wrap(np.vstack([lattice(4, r, d), rng.random((150, d))]))
    centers = points[rng.integers(0, len(points), 60)]
    u = rng.standard_normal((60, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    ulps = np.arange(-4, 5)[:, None, None] * np.finfo(float).eps
    near = wrap(centers + r * (1.0 + ulps) * u).reshape(-1, d)
    ties = lattice(4, r, d)[::3]  # each has 2d lattice neighbours at exactly r
    return SetApprox.build(points, 1e-9), r, np.vstack([near, ties, rng.random((50, d))])


def brute_ball(sa, x, r):
    return np.nonzero(torus_distance_array(sa.points, x) < r)[0]


def exact_delta_net():
    """The cat map fixes x_0 = 0, and x_1 sits at distance exactly 0.25
    from f(x_0): at delta 0.25 the pair (0, 1) is no edge."""
    return cat_map(), SetApprox(np.array([[0.0, 0.0], [0.25, 0.0]]), 0.02), 0.25


def edge_ranks(edges):
    """Position of each edge (u, v) among u's edges, in edge-array order."""
    ranks, seen = {}, {}
    for u, v in edges.tolist():
        ranks[u, v] = seen.get(u, 0)
        seen[u] = ranks[u, v] + 1
    return ranks


def brute_cycles(edges, n, bound):
    """Reference: every node sequence of at most `bound` distinct nodes that
    starts at its smallest node and closes along edges, in the search order
    of `_simple_cycles` (root, then edge ranks along the closed cycle)."""
    ranks = edge_ranks(edges)
    found = []
    for length in range(1, bound + 1):
        for seq in permutations(range(n), length):
            steps = list(zip(seq, seq[1:] + seq[:1]))
            if seq[0] == min(seq) and all(e in ranks for e in steps):
                found.append((seq[0], [ranks[e] for e in steps], seq))
    return [seq for _, _, seq in sorted(found)]


def brute_paths(edges, n, s, t, cutoff):
    """Reference: every simple path s -> t of at most `cutoff` edges, in
    depth-first successor order (lexicographic in edge ranks)."""
    if s == t:
        return [[s]] if cutoff >= 0 else []
    ranks = edge_ranks(edges)
    inner = [v for v in range(n) if v not in (s, t)]
    found = []
    for length in range(min(cutoff, n - 1)):
        for mid in permutations(inner, length):
            path = [s, *mid, t]
            steps = list(zip(path, path[1:]))
            if all(e in ranks for e in steps):
                found.append(([ranks[e] for e in steps], path))
    return [path for _, path in sorted(found)]


def random_edges(seed, shuffled):
    """Seeded small digraph: its node count and edge array, sorted by (i, j)
    unless shuffled."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    adj = rng.random((n, n)) < rng.choice([0.15, 0.35, 0.6])
    edges = np.argwhere(adj).reshape(-1, 2)
    return n, rng.permutation(edges) if shuffled else edges


def lattice(k, spacing, d, offset=0.0):
    """k^d grid points `spacing` apart per axis, shifted by `offset`."""
    axes = np.meshgrid(*[np.arange(k) * spacing] * d, indexing="ij")
    return wrap(np.stack(axes, axis=-1).reshape(-1, d) + offset)


def net_inputs(kind, d, rng):
    """Seeded candidate sets for coarsening, with their threshold."""
    threshold = 0.1
    if kind == "uniform":
        pts = rng.random((150, d))
    elif kind == "clusters":
        centers = rng.random((6, d))
        pts = centers[rng.integers(0, 6, 150)] + rng.normal(0.0, threshold, (150, d))
    elif kind == "duplicates":
        base = rng.random((60, d))
        pts = base[rng.integers(0, 60, 150)]
    elif kind == "wrap":
        pts = rng.random((150, d)) * 0.3 - 0.15  # straddles every face
    elif kind == "lattice_binary":
        threshold = 0.125  # exact in binary: neighbors sit exactly at it
        pts = lattice(8 if d < 4 else 5, threshold, d)
    elif kind == "lattice_decimal":
        # 0.1 steps in floating point land a hair either side of 0.1
        pts = lattice(10 if d < 4 else 5, threshold, d)
    elif kind == "lattice_wrap":
        # diagonal neighbors round to one ulp below 0.3 across the wrap
        threshold = 0.3
        pts = lattice(8 if d < 4 else 5, threshold, d, offset=0.95)
    return wrap(pts[rng.permutation(len(pts))]), threshold


NET_KINDS = ["uniform", "clusters", "duplicates", "wrap",
             "lattice_binary", "lattice_decimal", "lattice_wrap"]


def homoclinic_points(cat, lattice_vec=(1, 0), n_window=4):
    """Exact homoclinic orbit of (0,0): solve t v_u = s v_s + m over R^2,
    so x_n = frac(t lambda_u^n v_u) converges to 0 in both time directions."""
    s = cat.splitting
    vu = s.unstable_basis[:, 0]
    vs = s.stable_basis[:, 0]
    m = np.array(lattice_vec, dtype=float)
    t, _ = np.linalg.solve(np.column_stack([vu, -vs]), m)
    z = wrap(t * vu)
    return cat.orbit_segment(TorusPoint(z), -n_window, n_window)


def parent_connectors(succ, cycles, path_len):
    """Reference: the connector loop of `sample_pseudo_orbits` as it was with
    its budget counters and a padding helper, returning (connectors, whether
    the budget ran out)."""
    def pad(cycle, reps, end_at=None, start_at=None):
        k = cycle.index(start_at) if end_at is None else cycle.index(end_at) + 1
        return list(cycle[k:] + cycle[:k]) * reps

    reps = lambda c: max(1, -(-closure._PAD // len(c)))
    found = []
    budget = closure._CONNECTOR_BUDGET
    for c1, c2 in iproduct(cycles, repeat=2):
        if budget <= 0:
            break
        if c1 == c2:
            continue
        pair_left = closure._CONNECTORS_PER_PAIR
        for s, t in iproduct(c1, c2):
            if pair_left <= 0 or budget <= 0:
                break
            for path in islice(_simple_paths(succ, s, t, path_len), pair_left):
                head = pad(c1, reps(c1), end_at=s)
                tail = pad(c2, reps(c2), start_at=t)
                found.append(head[:-1] + path + tail[1:])
                pair_left -= 1
                budget -= 1
                if pair_left <= 0 or budget <= 0:
                    break
    return found, budget <= 0


def reference_sample(graph, params):
    """Reference: `sample_pseudo_orbits` as it was when it built one
    `PseudoOrbit` per sample, returning (orbits, partial)."""
    p = params
    pts = graph.set.points
    rng = np.random.default_rng(p.seed)
    orbits = []
    partial = False

    def segment(idx):
        seq = np.asarray(idx, dtype=int)
        return PseudoOrbit(pts[seq], periodic=False, start_index=-(len(seq) // 2))

    if graph.materialized:
        succ = _successors(graph.edges, graph.n_nodes)
        cycles = list(islice(_simple_cycles(succ, p.max_cycle_len), closure._CYCLE_CAP + 1))
        if len(cycles) > closure._CYCLE_CAP:
            cycles = cycles[:closure._CYCLE_CAP]
            partial = True
        cycles.sort()
        for cyc in cycles:
            orbits.append(PseudoOrbit(pts[list(cyc)], periodic=True))

        connectors, budget_hit = parent_connectors(succ, cycles, p.path_len)
        orbits.extend(segment(c) for c in connectors)
        partial = partial or budget_hit
        neighbor = succ.__getitem__
    else:
        partial = True
        loops = graph.self_loop_nodes()
        for i in loops[:closure._CYCLE_CAP]:
            orbits.append(PseudoOrbit(pts[[i]], periodic=True))
        neighbor = graph.out_neighbors

    walk_cycles = set()
    for _ in range(p.n_paths):
        node = int(rng.integers(graph.n_nodes))
        walk = [node]
        for _ in range(p.path_len - 1):
            nbrs = neighbor(walk[-1])
            if len(nbrs) == 0:
                break
            nxt = int(nbrs[rng.integers(len(nbrs))])
            if nxt in walk and not graph.materialized:
                cyc = closure._rotate_cycle(walk[walk.index(nxt):])
                if cyc not in walk_cycles and len(walk_cycles) < closure._CYCLE_CAP:
                    walk_cycles.add(cyc)
                    orbits.append(PseudoOrbit(pts[list(cyc)], periodic=True))
            walk.append(nxt)
        if len(walk) >= 2:
            orbits.append(segment(walk))

    return orbits, partial


def complete_net():
    """Five net points at delta 0.9, above every torus distance in T^2, so
    `build_graph` gives the complete digraph with loops: 89 cycles, 65
    through node 0."""
    return SetApprox(lattice(3, 0.3, 2)[:5], 0.01), 0.9


class TestSetApprox:
    @pytest.mark.parametrize("rows", [[[np.nan, 0.1]], [[0.1, 0.2], [np.inf, 0.5]]])
    def test_validated_net_refuses_non_finite_rows(self, rows):
        # a one-point net skips the pair check, so NaN needs its own
        with pytest.raises(ValueError, match="points must have finite coordinates"):
            SetApprox(rows, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_build_refuses_non_finite_rows(self, bad):
        # refused before wrapping, which would warn on an infinite row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="points must have finite coordinates"):
                SetApprox.build([[0.1, 0.2], [bad, 0.5]], 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_merge_refuses_non_finite_rows(self, bad):
        sa = SetApprox(lattice(3, 0.3, 2)[:5], 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="points must have finite coordinates"):
                sa.merge([[0.15, 0.2], [bad, 0.5]])

    @pytest.mark.parametrize("call", ["merge", "distance_to"])
    def test_rows_of_another_dimension_refused(self, call):
        sa = SetApprox(lattice(3, 0.3, 2)[:5], 0.1)
        with pytest.raises(ValueError) as info:
            getattr(sa, call)([[0.15, 0.2, 0.3]])
        assert str(info.value) == "dimension mismatch: net is 2-d, points are 3-d"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_distance_to_refuses_non_finite_rows(self, bad):
        sa = SetApprox(lattice(3, 0.3, 2)[:5], 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="points must have finite coordinates"):
                sa.distance_to([[0.15, 0.2], [bad, 0.5]])

    def test_net_condition_enforced(self):
        with pytest.raises(ValueError, match="net condition"):
            SetApprox(np.array([[0.0, 0.0], [0.001, 0.0]]), resolution=0.1)

    def test_build_coarsens_keep_first(self):
        pts = np.array([[0.0, 0.0], [0.01, 0.0], [0.5, 0.5]])
        sa = SetApprox.build(pts, resolution=0.1)
        assert len(sa) == 2
        assert np.allclose(sa.points[0], [0.0, 0.0])  # earliest survives

    def test_merge_is_monotone(self, rng):
        sa = SetApprox.build(rng.random((30, 2)), resolution=0.05)
        merged, added = sa.merge(rng.random((50, 2)))
        assert len(merged) == len(sa) + added
        assert np.allclose(merged.points[: len(sa)], sa.points)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SetApprox(np.empty((0, 2)), resolution=0.1)
        with pytest.raises(ValueError, match="nonempty"):
            SetApprox.build([], resolution=0.1)

    @pytest.mark.parametrize("resolution", [0.0, -1.0, np.nan])
    def test_bad_resolution_rejected(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            SetApprox.build(np.array([[0.1, 0.2]]), resolution)

    @pytest.mark.parametrize("validate", [True, False])
    def test_infinite_resolution_refused_by_name(self, validate):
        with pytest.raises(ValueError) as info:
            SetApprox(np.array([[0.1, 0.2]]), np.inf, _validate=validate)
        assert str(info.value) == "resolution must be finite, got inf"

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", NET_KINDS)
    def test_build_matches_brute_keep_first(self, kind, d):
        pts, threshold = net_inputs(kind, d, np.random.default_rng(d))
        expected = brute_keep_first(pts, threshold)
        assert np.array_equal(_greedy_net(pts, threshold), expected)
        assert np.array_equal(SetApprox.build(pts, 2 * threshold).points, expected)
        SetApprox(expected, 2 * threshold)  # validates the r/2 net condition

    @pytest.mark.parametrize("d", [2, 4])
    def test_tie_at_half_resolution_is_kept(self, d):
        # dyadic offsets: the torus distance is exactly 0.125 = r/2, directly
        # and across the faces; one ulp closer it is below r/2
        offset = np.full(d, 0.0625) if d == 4 else np.array([0.125, 0.0])
        for pts in (np.vstack([np.zeros(d), offset]), np.vstack([np.zeros(d), 1.0 - offset])):
            assert np.array_equal(_greedy_net(pts, 0.125), pts)
            assert len(SetApprox(pts, 0.25)) == 2
        closer = np.vstack([np.zeros(d), np.nextafter(offset, 0.0)])
        assert len(_greedy_net(closer, 0.125)) == 1
        with pytest.raises(ValueError, match="net condition"):
            SetApprox(closer, 0.25)

    def test_lattice_at_threshold_keeps_every_point(self):
        # neighbors exactly r/2 apart are not closer than r/2
        pts = lattice(8, 0.125, 2)
        assert len(SetApprox.build(pts, 0.25)) == len(pts)
        assert len(SetApprox(pts, 0.25)) == len(pts)
        assert len(SetApprox.build(pts, np.nextafter(0.25, 1.0))) < len(pts)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", NET_KINDS)
    def test_merge_keeps_net_and_coarsens(self, kind, d):
        rng = np.random.default_rng(10 + d)
        cand, threshold = net_inputs(kind, d, rng)
        sa = SetApprox.build(rng.random((40, d)), 2 * threshold, label="net")
        # resampled net points and points next to them must not be added
        cand = np.vstack([cand, sa.points[::3], wrap(sa.points[::5] + 1e-3)])
        merged, added = sa.merge(cand)
        assert np.array_equal(merged.points[: len(sa)], sa.points)
        assert added == len(merged) - len(sa)
        assert merged.label == "net"
        SetApprox(merged.points, merged.resolution)  # validates the r/2 net condition
        assert np.array_equal(merged.points, brute_keep_first(np.vstack([sa.points, cand]),
                                                              threshold))

    @pytest.mark.parametrize("d", [2, 4])
    def test_merge_wraps_its_candidates(self, d):
        rng = np.random.default_rng(30 + d)
        sa = SetApprox.build(rng.random((40, d)), 0.2)
        # coordinates in [1, 2) and in [-1, 0), each row shifted whole
        cand = rng.random((150, d)) + rng.choice([-1.0, 1.0], (150, 1))
        merged, added = sa.merge(cand)
        expected, expected_added = sa.merge(wrap(cand))
        assert added == expected_added > 0
        assert merged.points.tobytes() == expected.points.tobytes()

    def test_nets_built_by_merge_stay_wrapped(self, cat, rng):
        sa = SetApprox.build(rng.random((20, 2)), 0.05)
        for _ in range(3):
            sa, _ = sa.merge(rng.random((30, 2)) * 4.0 - 2.0)
            assert np.all((sa.points >= 0.0) & (sa.points < 1.0))
        window = homoclinic_points(cat, n_window=4)
        trace = iterate_closure(cat, SetApprox.build(np.vstack([[[0.0, 0.0]], window]), 0.004),
                                delta=0.05, u_radius=0.45, max_iter=2,
                                params=SamplingParams(seed=1, n_paths=6))
        assert len(trace.final) > len(trace.iterates[0])
        for net in trace.iterates:
            assert np.all((net.points >= 0.0) & (net.points < 1.0))

    def test_trusted_rows_are_not_frozen_in_place(self):
        pts = lattice(4, 0.25, 2)
        sa = SetApprox(pts, 0.25, _validate=False)
        assert pts.flags.writeable and not sa.points.flags.writeable
        assert sa.points.tobytes() == pts.tobytes()

    def test_merge_of_nothing_relabels(self):
        sa = SetApprox(np.array([[0.1, 0.2]]), 0.1, label="a")
        merged, added = sa.merge(np.empty((0, 2)), label="b")
        assert added == 0 and merged.label == "b"
        assert np.array_equal(merged.points, sa.points)


class TestHausdorff:
    def test_identity(self):
        sa = SetApprox.build(np.array([[0.1, 0.2], [0.5, 0.6]]), 0.05)
        assert hausdorff(sa, sa) == 0.0

    def test_singletons(self):
        a = SetApprox(np.array([[0.0, 0.0]]), 0.05)
        b = SetApprox(np.array([[0.1, 0.0]]), 0.05)
        assert hausdorff(a, b) == pytest.approx(0.1, abs=1e-12)

    def test_asymmetric_sets_against_brute_force(self):
        a = SetApprox(np.array([[0.0, 0.0], [0.5, 0.0]]), 0.05)
        b = SetApprox(np.array([[0.0, 0.0]]), 0.05)
        assert brute_hausdorff(a.points, b.points) == pytest.approx(0.5, abs=1e-12)
        assert hausdorff(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_metric_axioms_random_triples(self, rng):
        for _ in range(200):
            sets = [SetApprox.build(rng.random((rng.integers(1, 8), 2)), 0.01)
                    for _ in range(3)]
            A, B, C = sets
            dab, dba = hausdorff(A, B), hausdorff(B, A)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert hausdorff(A, C) <= dab + hausdorff(B, C) + 1e-12
            assert dab == pytest.approx(brute_hausdorff(A.points, B.points), abs=1e-12)

    @pytest.mark.parametrize("A, B, message", [
        (np.empty((0, 2)), [[0.1, 0.2]], "Hausdorff distance needs nonempty sets"),
        ([[0.1, 0.2]], np.empty((0, 2)), "Hausdorff distance needs nonempty sets"),
        ([[0.1, 0.2]], [[0.1, 0.2, 0.3]], "dimension mismatch"),
        ([[0.1, 0.2, 0.3]], SetApprox(np.array([[0.1, 0.2]]), 0.05), "dimension mismatch"),
        ([[np.nan, 0.1]], SetApprox(np.array([[0.1, 0.2]]), 0.05),
         "points must have finite coordinates"),
        (SetApprox(np.array([[0.1, 0.2]]), 0.05), [[np.inf, 0.1]],
         "points must have finite coordinates"),
    ], ids=["empty-A", "empty-B", "2d-3d", "3d-net", "nan-A", "inf-B"])
    def test_directed_refuses_as_hausdorff_does(self, A, B, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                directed_hausdorff(A, B)
        assert str(info.value) == message

    def test_kdtree_matches_brute_force_near_wrap(self, rng):
        a = SetApprox.build(rng.random((20, 2)) * 0.02, 0.001)
        b = SetApprox.build(1 - rng.random((20, 2)) * 0.02, 0.001)
        assert hausdorff(a, b) == pytest.approx(brute_hausdorff(a.points, b.points), abs=1e-12)


class TestNeighbourRule:
    """`_ball`, `_balls` and `_pairs` against brute-force `torus_distance_array < r`."""

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_helpers_match_brute_force(self, d, seed):
        sa, r, queries = boundary_net(d, seed)
        balls = [brute_ball(sa, x, r) for x in queries]
        dropped = 0
        for x, expected in zip(queries, balls):
            got = _ball(sa.tree, x, r)
            assert got.tolist() == expected.tolist()
            dropped += len(sa.tree.query_ball_point(x, r=r)) - len(got)
        assert dropped > 0  # the closed ball did propose points at distance r
        src, dst = _balls(sa.tree, queries, r)
        assert src.tolist() == np.repeat(np.arange(len(queries)), list(map(len, balls))).tolist()
        assert dst.tolist() == np.concatenate(balls).tolist()
        i, j = np.triu_indices(len(sa), k=1)
        close = torus_distance_array(sa.points[i], sa.points[j]) < r
        assert _pairs(sa, r).tolist() == np.column_stack([i[close], j[close]]).tolist()

    def test_empty_results(self):
        sa = SetApprox(np.array([[0.0, 0.0], [0.5, 0.5]]), 0.1)
        assert _ball(sa.tree, np.array([0.25, 0.25]), 0.1).shape == (0,)
        src, dst = _balls(sa.tree, np.array([[0.25, 0.25]]), 0.1)
        assert src.shape == dst.shape == (0,)
        assert _pairs(sa, 0.1).shape == (0, 2)


class TestBuildGraph:
    def test_wrong_dimension_named(self, cat):
        sa = SetApprox(np.array([[0.1, 0.2, 0.3]]), 0.01)
        with pytest.raises(ValueError, match="map is 2-d, points are 3-d"):
            build_graph(cat, sa, 0.05)

    def test_edge_at_exactly_delta_is_no_edge(self):
        cat, sa, delta = exact_delta_net()
        g = build_graph(cat, sa, delta)
        assert g.edges.tolist() == [[0, 0]] and g.n_edges == 1
        assert g.verify_edges(cat)
        assert g.out_neighbors(0).tolist() == [0]

    def test_lazy_neighbors_at_exactly_delta(self, monkeypatch):
        cat, sa, delta = exact_delta_net()
        monkeypatch.setattr(closure, "_EDGE_CAP", 0)
        g = build_graph(cat, sa, delta)
        assert not g.materialized
        assert g.out_neighbors(0).tolist() == [0]

    def test_fixed_point_self_loop(self, cat):
        sa = SetApprox(np.array([[0.0, 0.0]]), 0.01)
        g = build_graph(cat, sa, delta=0.05)
        assert g.n_edges == 1
        assert np.array_equal(g.edges, [[0, 0]])
        assert g.verify_edges(cat)

    def test_two_fixed_points_no_cross_edges(self, cat):
        # fixed points of A^2 at torus distance ~0.447
        A2 = ToralAutomorphism(cat.matrix @ cat.matrix)
        sa = SetApprox(np.array([[0.0, 0.0], [0.8, 0.6]]), 0.01)
        g = build_graph(A2, sa, delta=0.1)
        assert sorted(map(tuple, g.edges)) == [(0, 0), (1, 1)]

    def test_saturation_complete_graph(self, cat, rng):
        sa = SetApprox.build(rng.random((5, 2)), 0.01)
        g = build_graph(cat, sa, delta=0.8)  # above the torus diameter
        assert g.n_edges == 25

    def test_lazy_above_edge_cap(self, cat, rng, monkeypatch):
        monkeypatch.setattr(closure, "_EDGE_CAP", 10)
        sa = SetApprox.build(rng.random((40, 2)), 0.01)
        g = build_graph(cat, sa, delta=0.8)
        assert not g.materialized and g.n_edges == 1600
        assert len(g.out_neighbors(0)) == 40

    @pytest.mark.parametrize("case", ["small", "saturated", "empty_rows", "edgeless", "chunks",
                                      "filter_parts"])
    def test_edges_match_comprehension(self, cat, rng, case):
        points, delta = {
            "small": (rng.random((12, 2)), 0.3),
            "saturated": (rng.random((5, 2)), 0.8),
            # node 0 is fixed; the images of nodes 1 and 2 are far from the net
            "empty_rows": (np.array([[0.0, 0.0], [0.1, 0.1], [0.5, 0.5]]), 0.05),
            "edgeless": (np.array([[0.1, 0.1]]), 0.05),
            "chunks": (lattice(48, 1 / 48, 2), 0.05),
            # about 200k closed-ball hits, filtered in several parts; the
            # cat map keeps the dyadic lattice, so some hits sit exactly at delta
            "filter_parts": (lattice(32, 1 / 32, 2), 0.25),
        }[case]
        sa = SetApprox.build(points, 0.01)
        g = build_graph(cat, sa, delta=delta)
        expected = comprehension_edges(sa, g.images, delta)
        assert g.edges.dtype == expected.dtype and g.edges.shape == expected.shape
        assert g.edges.tobytes() == expected.tobytes()
        assert g.n_edges == len(expected)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(n=st.integers(1, 3 * closure._COUNT_CHUNK + 7), seed=st.integers(0, 2**32 - 1),
           delta=st.floats(0.005, 0.08), data=st.data())
    def test_bounded_count_agrees_with_exact_count(self, cat, n, seed, delta, data):
        sa = SetApprox.build(np.random.default_rng(seed).random((n, 2)), 1e-4)
        # the lazy-graph gate counts closed-ball hits
        exact = int(np.sum(sa.tree.query_ball_point(cat.apply_array(sa.points), r=delta,
                                                    return_length=True)))
        edge_cap = data.draw(st.one_of(st.sampled_from([max(exact - 1, 0), exact, exact + 1]),
                                       st.integers(0, exact + 1)), label="edge_cap")
        with patch.object(closure, "_EDGE_CAP", edge_cap):
            g = build_graph(cat, sa, delta=delta)
        assert g.materialized == (exact <= edge_cap)
        if g.materialized:
            assert g.n_edges == len(g.edges) == len(comprehension_edges(sa, g.images, delta))
        else:
            assert edge_cap < g.n_edges <= exact

    def test_lazy_count_stops_after_first_chunk(self, cat, monkeypatch):
        queried = []

        class CountingTree(cKDTree):
            def query_ball_point(self, x, *args, **kwargs):
                queried.append(len(np.atleast_2d(x)))
                return super().query_ball_point(x, *args, **kwargs)

        monkeypatch.setattr(closure, "_torus_tree",
                            lambda points: CountingTree(wrap(points), boxsize=1.0))
        sa = SetApprox(lattice(64, 1 / 64, 2), 0.01)  # many chunks of query points
        queried.clear()
        monkeypatch.setattr(closure, "_EDGE_CAP", 100)
        g = build_graph(cat, sa, delta=0.05)
        assert not g.materialized and g.n_edges > 100
        assert 0 < sum(queried) <= closure._COUNT_CHUNK


# a hyperbolic automorphism of T^3 (symmetric, trace 5, det 1)
MAP_3D = ToralAutomorphism([[1, 1, 0], [1, 2, 1], [0, 1, 2]])


def punctured_net(depth):
    """The crovisier Lambda_0 at depth k: the centres of a punctured 4-d
    grid set, a net that knows its lattice, with the map and the closure's
    default delta 4·2^-k."""
    system = crovisier_product()
    grid, _ = _crovisier_grid(system, depth)
    return system.as_automorphism(), grid.as_set_approx(), 4 * grid.width


def assert_balls_match_tree(g, nodes, batch=512):
    """`out_neighbors` on each node equals the tree's filtered ball, batched
    through `_balls`."""
    for start in range(0, len(nodes), batch):
        part = nodes[start:start + batch]
        src, dst = _balls(g.set.tree, g.images[part], g.delta)
        ends = np.searchsorted(src, np.arange(1, len(part)))
        for i, expected in zip(part, np.split(dst, ends)):
            got = g.out_neighbors(i)
            assert got.dtype == expected.dtype and got.tolist() == expected.tolist(), i


def table_rows(table, first, counts):
    """The rows of a `neighbor_rows` table as lists."""
    return [row[a:a + n] for row, a, n in zip(table.tolist(), first.tolist(), counts.tolist())]


def stencil_offsets(st):
    """The stencil's ball as (d, |T|) cell offsets, from the head and tail
    indices it holds."""
    d, side = st.lattice.rank.ndim, len(st.axis)
    box = st.ball[0].astype(np.intp) * side ** (d - d // 2) + st.ball[1]
    return st.axis[np.array(np.unravel_index(box, (side,) * d))]


def near_hole_nodes(g, block=512):
    """The lattice rows one of whose stencil offsets, added to the cell of
    the row's image mod 2^k, lands on an absent cell: brute force on the
    rank array."""
    rank, offsets = g.stencil.lattice.rank, stencil_offsets(g.stencil)
    cells = np.floor(g.images[:g.stencil.lattice.size] * len(rank)).astype(np.intp)
    absent = []
    for part in np.split(cells, range(block, len(cells), block)):
        targets = np.ravel_multi_index(tuple(part.T[:, :, None] + offsets[:, None]), rank.shape,
                                       mode="wrap")
        absent.append((rank.ravel()[targets] < 0).any(axis=1))
    return np.flatnonzero(np.concatenate(absent))


def chunked_closed_count(sa, images, delta):
    """The count pass by the tree: closed-ball hits over `_COUNT_CHUNK`
    rows at a time, stopped at the chunk that passes the cap."""
    total = 0
    for start in range(0, len(images), closure._COUNT_CHUNK):
        total += int(np.sum(sa.tree.query_ball_point(images[start:start + closure._COUNT_CHUNK],
                                                     r=delta, return_length=True)))
        if total > closure._EDGE_CAP:
            break
    return total


class TestLatticeStencil:
    """A grid net's first rows are a lattice, and its graph answers their
    balls with an integer stencil: the same rows as `_ball` on the net's
    tree, in the same order, and the same count as the tree's."""

    @pytest.mark.parametrize("delta", [None, 0.6])
    def test_every_depth_3_node_matches_the_tree(self, delta):
        # 0.6 spans more than half the 8-cell axis: offsets repeat mod 8
        f, sa, default = punctured_net(3)
        g = build_graph(f, sa, default if delta is None else delta)
        assert g.stencil is not None and g.stencil.lattice.size == len(sa)
        assert_balls_match_tree(g, np.arange(len(sa)))

    def test_depth_4_sample_and_every_node_near_an_absent_cell(self):
        f, sa, delta = punctured_net(4)
        g = build_graph(f, sa, delta)
        near_hole = near_hole_nodes(g)
        assert 0 < len(near_hole) < len(sa)
        sample = np.random.default_rng(4).choice(len(sa), 2000, replace=False)
        assert_balls_match_tree(g, np.union1d(sample, near_hole))

    def test_second_step_queries_match_the_full_tree(self, monkeypatch):
        f, sa, delta = punctured_net(4)
        reads = []
        ask = closure.TransitionGraph.neighbor_rows
        monkeypatch.setattr(closure.TransitionGraph, "neighbor_rows",
                            lambda g, rows: reads.append((g, rows, out := ask(g, rows))) or out)
        iterate_closure(f, sa, delta, 3 * delta / 4, 2, max_defect=np.inf)
        second = [(g, i, out) for g, rows, read in reads if len(g.set) > len(sa)
                  for i, out in zip(rows.tolist(), table_rows(*read))]
        g = second[0][0]
        assert g.stencil.lattice is sa.lattice and not g.materialized
        lattice_rows = [(i, out) for _, i, out in second if i < len(sa)]
        assert lattice_rows and any(out[-1] >= len(sa) for _, out in lattice_rows)
        for i, out in lattice_rows:
            assert out == _ball(g.set.tree, g.images[i], delta).tolist()

    @pytest.mark.parametrize("depth,delta,block", [
        (3, None, None), (4, None, None), (3, 0.6, None), (3, 0.3, None),
        (3, 0.6, 1000)])  # one image per block of the count's temporaries
    def test_count_matches_the_tree(self, monkeypatch, depth, delta, block):
        f, sa, default = punctured_net(depth)
        delta = default if delta is None else delta
        if block is not None:
            monkeypatch.setattr(closure, "_TARGET_BLOCK", block)
        g = build_graph(f, sa, delta)
        total = chunked_closed_count(sa, g.images, delta)
        assert g.materialized == (total <= closure._EDGE_CAP)
        assert g.n_edges == (len(g.edges) if g.materialized else total)

    @pytest.mark.parametrize("delta", [0.1, 0.7])
    def test_two_dimensional_grid_with_a_hole(self, cat, delta):
        sa = GridSet.full(2, 5).minus_ball(np.array([0.3, 0.6]), 0.2).as_set_approx()
        g = build_graph(cat, sa, delta)
        assert g.stencil is not None
        assert_balls_match_tree(g, np.arange(len(sa)))
        total = chunked_closed_count(sa, g.images, delta)
        assert g.n_edges == (len(g.edges) if g.materialized else total)

    @pytest.mark.parametrize("depth,delta", [(4, 0.2), (3, 0.6)])
    def test_three_dimensional_grid_with_a_hole(self, depth, delta):
        # an odd d: one axis in the head of an offset, two in its tail
        sa = GridSet.full(3, depth).minus_ball(np.full(3, 0.3), 0.2).as_set_approx()
        g = build_graph(MAP_3D, sa, delta)
        assert g.stencil is not None
        assert_balls_match_tree(g, np.arange(len(sa)))
        total = chunked_closed_count(sa, g.images, delta)
        assert g.n_edges == (len(g.edges) if g.materialized else total)

    def test_two_dimensional_nodes_near_the_hole(self, cat):
        sa = GridSet.full(2, 5).minus_ball(np.array([0.3, 0.6]), 0.2).as_set_approx()
        g = build_graph(cat, sa, 0.1)
        near_hole = near_hole_nodes(g)
        assert 0 < len(near_hole) < len(sa)
        assert_balls_match_tree(g, near_hole)

    @pytest.mark.parametrize("d,depth,delta", [
        (2, 5, 0.1), (2, 5, 0.7), (3, 4, 0.2), (3, 3, 0.6), (4, 3, 0.3), (4, 3, 0.6)])
    def test_ball_offsets_are_the_close_cells(self, cat, d, depth, delta):
        # the head and tail indices decode to each cell offset, mod 2^k, whose
        # centre is delta-close to the first image, once
        f = {2: cat, 3: MAP_3D, 4: crovisier_product().as_automorphism()}[d]
        sa = GridSet.full(d, depth).minus_ball(np.full(d, 0.3), 0.2).as_set_approx()
        g = build_graph(f, sa, delta)
        n = 2 ** depth
        cells = np.indices((n,) * d).reshape(d, -1)
        close = torus_distance_array((cells.T + 0.5) / n, g.images[0]) < delta
        first = np.floor(g.images[0] * n).astype(np.intp)
        got = [tuple(t) for t in (stencil_offsets(g.stencil).T % n).tolist()]
        assert len(got) == len(set(got))
        assert set(got) == {tuple(t) for t in ((cells[:, close].T - first) % n).tolist()}

    @pytest.mark.parametrize("depth,delta", [(2, None), (3, None), (3, 0.6), (4, None)])
    def test_holds_no_array_larger_than_the_rank(self, monkeypatch, depth, delta):
        # the stencil's memory stays flat: after walks and a count pass it
        # holds no table larger than the rank array, at any delta
        counted = []
        hits = closure._Stencil.hits
        monkeypatch.setattr(closure._Stencil, "hits",
                            lambda st, *args: counted.append(1) or hits(st, *args))
        f, sa, default = punctured_net(depth)
        g = build_graph(f, sa, default if delta is None else delta)
        for i in np.linspace(0, len(sa) - 1, 200).astype(int):
            g.out_neighbors(i)
        held, arrays = [v for k, v in vars(g.stencil).items() if k != "lattice"], []
        while held:
            v = held.pop()
            if isinstance(v, (tuple, list)):
                held.extend(v)
            elif isinstance(v, np.ndarray):
                arrays.append(v)
        rank = g.stencil.lattice.rank
        assert counted and len(arrays) >= 3
        assert max(a.nbytes for a in arrays) <= rank.nbytes

    def test_lattice_survives_relabel_and_merge(self):
        f, sa, delta = punctured_net(2)
        trace = iterate_closure(f, sa, delta, 1.0, 2, max_defect=np.inf)
        assert len(trace.final) > len(sa)
        assert all(it.lattice is sa.lattice for it in trace.iterates)

    def test_rows_off_the_lattice_keep_the_tree(self, cat):
        # rows that claim a lattice but sit off it give no stencil
        sa = SetApprox(lattice(8, 1 / 8, 2, offset=1 / 16 + 1e-3), 1 / 8, _validate=False,
                       _lattice=closure._Lattice.of(3, np.ones((8, 8), dtype=bool)))
        g = build_graph(cat, sa, 0.3)
        assert g.stencil is None
        assert g.out_neighbors(5).tolist() == _ball(sa.tree, g.images[5], 0.3).tolist()

    def test_graphs_and_samples_compare_by_identity(self, cat):
        sa = SetApprox(np.array([[0.0, 0.0]]), 0.01)
        g, h = build_graph(cat, sa, 0.05), build_graph(cat, sa, 0.05)
        sample = sample_pseudo_orbits(g)
        assert g == g and g != h and hash(g) != hash(h)
        assert sample == sample and sample != sample_pseudo_orbits(g)
        assert hash(sample) == hash(sample)


@lru_cache(maxsize=None)
def punctured_lambdas(depth):
    """The map, Lambda_0 and Lambda_1 of the crovisier closure at depth k,
    with the CLI's sampling, and its delta."""
    f, sa, delta = punctured_net(depth)
    trace = iterate_closure(f, sa, delta, 3 * delta / 4, 1,
                            params=ExperimentConfig().sampling(), max_defect=np.inf)
    return f, *trace.iterates, delta


def second_step_graph(depth):
    """The lazy graph the crovisier closure's second step samples at depth
    k: Lambda_1's rows, the first step's stencil, and the first graph's
    image rows followed by those of the appended rows."""
    f, lam0, lam1, delta = punctured_lambdas(depth)
    g0 = build_graph(f, lam0, delta)
    images = np.vstack([g0.images, f.apply_array(lam1.points[len(lam0):])])
    return closure.TransitionGraph(lam1, delta, images, None, g0.n_edges, g0.stencil)


class TestNeighborRows:
    """`neighbor_rows` answers a batch of nodes with one read per kind of
    row; each row of its table is that node's `out_neighbors`, and the
    net tree's filtered ball."""

    @staticmethod
    def assert_rows_match(g, rows):
        got = table_rows(*g.neighbor_rows(np.asarray(rows)))
        assert len(got) == len(rows)
        for i, out in zip(rows, got):
            assert out == g.out_neighbors(i).tolist(), i
            assert out == _ball(g.set.tree, g.images[i], g.delta).tolist(), i

    def test_lattice_rows(self):
        f, sa, delta = punctured_net(4)
        g = build_graph(f, sa, delta)
        assert not g.materialized and g.stencil.lattice.size == len(sa)
        rows = np.random.default_rng(5).choice(len(sa), 16, replace=False).tolist()
        self.assert_rows_match(g, rows[:1])
        self.assert_rows_match(g, rows)
        self.assert_rows_match(g, near_hole_nodes(g)[:16].tolist())

    def test_appended_rows(self):
        g = second_step_graph(4)
        size = g.stencil.lattice.size
        assert not g.materialized and size < g.n_nodes
        rng = np.random.default_rng(6)
        lattice_rows = rng.choice(size, 8, replace=False).tolist()
        appended = rng.choice(np.arange(size, g.n_nodes), 8, replace=False).tolist()
        mixed = [i for pair in zip(lattice_rows, appended) for i in pair]
        for rows in (lattice_rows[:1], appended[:1], lattice_rows + appended[:8], appended,
                     mixed, [lattice_rows[0]] * 3 + [appended[0]] * 2):
            self.assert_rows_match(g, rows)
        # some lattice row reaches an appended row
        assert any(out and out[-1] >= size for out in table_rows(*g.neighbor_rows(
            np.arange(0, size, 97))))

    def test_stencil_free_net(self, cat, monkeypatch):
        monkeypatch.setattr(closure, "_EDGE_CAP", 0)
        g = build_graph(cat, SetApprox.build(np.random.default_rng(7).random((60, 2)), 0.02), 0.3)
        assert not g.materialized and g.stencil is None
        rows = np.random.default_rng(8).choice(len(g.set), 16, replace=False).tolist()
        self.assert_rows_match(g, rows[:1])
        self.assert_rows_match(g, rows)

    def test_rows_without_neighbours(self):
        # images far from every net point: empty rows, before and after full ones
        g = dead_end_graph()
        rows = [15, 0, 15, 12]
        _, _, counts = g.neighbor_rows(np.array(rows))
        assert counts.tolist() == [0, 1, 0, 2]
        self.assert_rows_match(g, rows)
        assert [len(a) for a in g.neighbor_rows(np.array([], dtype=np.intp))] == [0, 0, 0]


def dead_end_graph():
    """A lazy graph on twenty points 0.05 apart on a circle of T^2, with
    images set by hand at delta 0.03: nodes 0-9 and 16-19 have one
    neighbour, nodes 10-14 two, and node 15 none."""
    points = np.column_stack([np.arange(20) / 20, np.full(20, 0.5)])
    images = points[(np.arange(20) + 1) % 20].copy()
    images[10:15, 0] += 0.025  # halfway to the next point but one
    images[15] = [0.5, 0.0]
    sa = SetApprox(points, 0.01)
    return closure.TransitionGraph(sa, 0.03, images, None, 0)


def sequential_walks(graph, families, p):
    """Reference: `_with_walks` as it was, one walk after another and one
    `out_neighbors` read a step."""
    draw = closure._bounded_draws(np.random.default_rng(p.seed))
    sequences = list(families.sequences)
    periodic = list(families.periodic)
    lazy = not graph.materialized
    neighbor = graph.out_neighbors if lazy else graph.successors.__getitem__
    walk_cycles = set()
    for _ in range(p.n_paths):
        node = draw(graph.n_nodes)
        walk = [node]
        for _ in range(p.path_len - 1):
            nbrs = neighbor(walk[-1])
            if len(nbrs) == 0:
                break
            nxt = int(nbrs[draw(len(nbrs))])
            if nxt in walk and lazy:
                cyc = closure._rotate_cycle(walk[walk.index(nxt):])
                if cyc not in walk_cycles and len(walk_cycles) < closure._CYCLE_CAP:
                    walk_cycles.add(cyc)
                    sequences.append(list(cyc))
                    periodic.append(True)
            walk.append(nxt)
        if len(walk) >= 2:
            sequences.append(walk)
            periodic.append(False)
    return tuple(sequences), tuple(periodic)


def pass_spy(monkeypatch) -> list[int]:
    """Record the width asked of each `_walk_pass` call."""
    widths = []
    real = closure._walk_pass
    monkeypatch.setattr(closure, "_walk_pass",
                        lambda graph, words, at, width, length:
                        widths.append(width) or real(graph, words, at, width, length))
    return widths


class ZeroedRaw:
    """A generator whose raw PCG64 outputs at the positions `zeroed` are 0,
    which `random_raw` is all the walks read: both words of such an output
    are rejected under any bound that is not a power of 2."""

    def __init__(self, seed, zeroed):
        self.bit_generator = self
        self._raw = np.random.PCG64(seed).random_raw
        self._zeroed = np.asarray(zeroed)
        self._at = 0

    def random_raw(self, size):
        out = self._raw(size)
        out[np.isin(np.arange(self._at, self._at + size), self._zeroed)] = 0
        self._at += size
        return out


class TestLockstepWalks:
    """Lazy walks run in lockstep passes and equal the walks run one after
    another, draw for draw, whatever ends a pass early."""

    @staticmethod
    def assert_matches_sequential(g, p):
        families = closure._graph_families(g, p)
        sampled = closure._with_walks(g, families, p)
        expected = sequential_walks(g, families, p)
        assert (sampled.sequences, sampled.periodic) == expected
        assert len(sampled.sequences) > len(families.sequences)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("graph", ["depth-3-0.6", "depth-4", "depth-4-second"])
    def test_punctured_graphs(self, monkeypatch, graph, seed):
        if graph == "depth-4-second":
            g = second_step_graph(4)
        else:
            f, sa, delta = punctured_net(3 if graph == "depth-3-0.6" else 4)
            g = build_graph(f, sa, 0.6 if graph == "depth-3-0.6" else delta)
        assert not g.materialized
        widths = pass_spy(monkeypatch)
        p = replace(ExperimentConfig().sampling(), seed=seed)
        self.assert_matches_sequential(g, p)
        assert widths == [p.n_paths]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_neighbour_and_dead_ends_restart(self, monkeypatch, seed):
        g = dead_end_graph()
        widths = pass_spy(monkeypatch)
        p = SamplingParams(n_paths=16, path_len=12, seed=seed)
        self.assert_matches_sequential(g, p)
        assert widths[0] == 16 and len(widths) > 1
        walks = closure._with_walks(g, closure._graph_families(g, p), p).sequences
        assert any(walk[-1] == 15 and len(walk) < p.path_len for walk in walks)

    def test_rejected_words_restart(self, monkeypatch):
        f, sa, _ = punctured_net(3)
        g = build_graph(f, sa, 0.6)
        # no node has fewer than two neighbours: only a rejection ends a pass early
        assert min(g.neighbor_rows(rows)[2].min() for rows in np.split(np.arange(len(sa)), 16)) > 1
        p = replace(ExperimentConfig().sampling(), seed=4)
        widths = pass_spy(monkeypatch)
        for zeroed in ([], [3, 100, 170]):
            monkeypatch.setattr(np.random, "default_rng",
                                lambda seed, zeroed=zeroed: ZeroedRaw(seed, zeroed))
            widths.clear()
            self.assert_matches_sequential(g, p)
            assert (len(widths) > 1) == bool(zeroed)

    def test_node_count_outside_32_bits_refused(self):
        graph = SimpleNamespace(n_nodes=2**32 + 1)
        with pytest.raises(ValueError, match=r"draw bound must be in \[1, 2\*\*32\], got 4294967297$"):
            closure._lockstep_walks(graph, SamplingParams(), np.random.default_rng(0))

    def test_passes_are_bounded(self, monkeypatch):
        monkeypatch.setattr(closure, "_WALK_BLOCK", 5)
        f, sa, _ = punctured_net(3)
        g = build_graph(f, sa, 0.6)
        widths = pass_spy(monkeypatch)
        self.assert_matches_sequential(g, SamplingParams(n_paths=12, path_len=9, seed=3))
        assert widths == [5, 5, 2]


class TestSelfLoops:
    """`self_loop_nodes` runs in blocks of rows and equals the one-pass
    expression over every row, bit for bit."""

    @staticmethod
    def assert_blocks_match_one_pass(f, sa, delta):
        g = closure.TransitionGraph(sa, delta, f.apply_array(sa.points), None)
        one_pass = np.nonzero(torus_distance_array(g.images, sa.points) < delta)[0]
        got = g.self_loop_nodes()
        assert len(one_pass) and got.dtype == one_pass.dtype
        assert got.tolist() == one_pass.tolist()

    @pytest.mark.parametrize("block", [None, 1000])
    @pytest.mark.parametrize("depth,step", [(3, 0), (3, 1), (4, 0), (4, 1)])
    def test_punctured_nets(self, monkeypatch, depth, step, block):
        f, *nets, delta = punctured_lambdas(depth)
        if block is not None:
            monkeypatch.setattr(closure, "_LOOP_BLOCK", block)
        self.assert_blocks_match_one_pass(f, nets[step], delta)

    def test_a_net_of_no_whole_number_of_blocks(self, cat, monkeypatch):
        monkeypatch.setattr(closure, "_LOOP_BLOCK", 64)
        sa = SetApprox.build(np.random.default_rng(5).random((3 * 64 + 5, 2)), 1e-4)
        assert len(sa) % 64
        self.assert_blocks_match_one_pass(cat, sa, 0.3)


def default_tree(points):
    """The periodic KD-tree of scipy's default build, median splits over
    shrunk cell rectangles: the reference for `_torus_tree`."""
    return cKDTree(wrap(points), boxsize=1.0)


def assert_trees_agree(points, queries, radii, pair_radii, sets=None):
    """`_torus_tree` and the default build give the same closed-ball counts
    and index sets (of `sets` rows of the queries, by default all), the same
    pairs, and the same nearest distances, bit for bit."""
    new, old = closure._torus_tree(points), default_tree(points)
    assert new.data.tobytes() == old.data.tobytes()
    some = queries if sets is None else queries[sets]
    for r in radii:
        assert np.array_equal(new.query_ball_point(queries, r, return_length=True),
                              old.query_ball_point(queries, r, return_length=True)), r
        assert (new.query_ball_point(some, r, return_sorted=True).tolist()
                == old.query_ball_point(some, r, return_sorted=True).tolist()), r
    for r in pair_radii:
        a, b = (t.query_pairs(r, output_type="ndarray") for t in (new, old))
        assert np.array_equal(a[np.lexsort(a.T[::-1])], b[np.lexsort(b.T[::-1])]), r
    (d_new, _), (d_old, _) = new.query(queries, k=1), old.query(queries, k=1)
    assert d_new.tobytes() == d_old.tobytes()


class TestTreeBuild:
    """The sliding-midpoint build answers every query the library makes as
    the default build does: the nets, queries and radii of the suite and
    the benchmark, and rows at and around ties."""

    @pytest.mark.parametrize("depth,step", [(3, 0), (3, 1), (4, 0), (4, 1)])
    def test_punctured_nets(self, depth, step):
        f, *nets, delta = punctured_lambdas(depth)
        sa, r = nets[step], nets[step].resolution
        rng = np.random.default_rng(depth)
        images = f.apply_array(sa.points)
        if depth == 4:
            # the rows a count pass visits before the cap, and a sample
            images = images[np.union1d(np.arange(2048), rng.choice(len(sa), 1000, replace=False))]
        queries = np.vstack([images, rng.random((500, 4))])
        sets = rng.choice(len(queries), 600, replace=False)
        assert_trees_agree(sa.points, queries, (delta, r / 2, r), (r / 2, r), sets)

    @pytest.mark.parametrize("step", [0, 1])
    def test_battery_nets_and_first_iterates(self, cat, step):
        params = SamplingParams(max_cycle_len=8, n_paths=16, path_len=40, seed=0)
        rng = np.random.default_rng(step)
        for _, sa in closure_battery(cat, 0.02):
            if step:
                sa = iterate_closure(cat, sa, 0.05, 0.35, 1, params=params).iterates[1]
            queries = np.vstack([cat.apply_array(sa.points), rng.random((200, 2))])
            assert_trees_agree(sa.points, queries, (0.05, 0.01, 0.02), (0.01, 0.02, 0.06))

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_duplicates_and_rows_on_cell_faces(self, d, seed):
        rng = np.random.default_rng(seed)
        faces = rng.integers(0, 8, (300, d)) / 8  # on cell faces, and many repeat
        loose = rng.random((100, d))
        # the boundary net's queries sit at and within ulps of 0.25 from its rows
        ties, _, near_ties = boundary_net(d, seed)
        points = np.vstack([faces, loose, loose[:30], faces[:30], ties.points])
        queries = np.vstack([points, near_ties, rng.integers(0, 16, (100, d)) / 16])
        radii = (1 / 8, 0.25, 0.3, 0.5)
        assert_trees_agree(points, queries, radii, radii)


def lazy_chain_net(rng):
    """About 400 net points under the cat map at delta 0.1: each image row
    has about 12 closed-ball hits, so the count passes a cap of 2000 in its
    second chunk."""
    return SetApprox.build(rng.random((400, 2)), 0.01), 0.1, 2000


def count_pass_spy(monkeypatch) -> list[int]:
    """Rows of each count query of `build_graph`, one query per count pass."""
    queried = []

    class CountingTree(cKDTree):
        def query_ball_point(self, x, *args, **kwargs):
            if kwargs.get("return_length"):
                queried.append(len(np.atleast_2d(x)))
            return super().query_ball_point(x, *args, **kwargs)

    monkeypatch.setattr(closure, "_torus_tree",
                        lambda points: CountingTree(wrap(points), boxsize=1.0))
    monkeypatch.setattr(closure, "_COUNT_CHUNK", 10**9)
    return queried


def child_graph(map, parent, child, delta):
    """The graph a closure step on `child` takes from a parent step whose
    graph is `parent`."""
    params = SamplingParams(n_paths=4, path_len=10)
    step = closure._StepGraph(parent, closure._graph_families(parent, params), 0)
    _, _, out = closure._closure_step(map, child, delta, params, max_defect=np.inf, label="",
                                      parent=step)
    return out.graph


class TestInheritedVerdict:
    """A closure step whose parent graph is lazy makes a lazy graph without
    counting: its net keeps the parent's rows first and it queries with the
    parent's image rows, so its count over the parent's chunks can only be
    larger."""

    @pytest.fixture
    def chain(self, cat, rng, monkeypatch):
        sa, delta, cap = lazy_chain_net(rng)
        monkeypatch.setattr(closure, "_EDGE_CAP", cap)
        parent = build_graph(cat, sa, delta)
        child, added = sa.merge(rng.random((50, 2)))
        assert not parent.materialized and added > 0
        return sa, child, delta, cap, parent

    def test_child_inherits_images_and_count(self, cat, chain, monkeypatch):
        _, child, delta, _, parent = chain
        queried = count_pass_spy(monkeypatch)
        g = child_graph(cat, parent, child, delta)
        assert not queried
        assert not g.materialized and g.set is child and g.n_edges == parent.n_edges
        assert g.images.tobytes() == cat.apply_array(child.points).tobytes()

    def test_count_without_parent_agrees(self, cat, chain):
        _, child, delta, cap, parent = chain
        assert not build_graph(cat, child, delta).materialized
        # the parent's chunks: the rows its running count covered to pass the cap
        total = rows = 0
        while total <= cap:
            total += int(np.sum(parent.set.tree.query_ball_point(
                parent.images[rows:rows + closure._COUNT_CHUNK], r=delta, return_length=True)))
            rows += closure._COUNT_CHUNK
        assert total == parent.n_edges and rows < len(parent.set)
        over_child = np.sum(child.tree.query_ball_point(parent.images[:rows], r=delta,
                                                        return_length=True))
        assert over_child >= parent.n_edges

    def test_one_count_pass_per_lazy_chain(self, cat, rng, monkeypatch):
        queried = count_pass_spy(monkeypatch)
        sa, delta, cap = lazy_chain_net(rng)
        monkeypatch.setattr(closure, "_EDGE_CAP", cap)

        def run():
            return iterate_closure(cat, sa, delta, u_radius=1.0, max_iter=3, max_defect=np.inf,
                                   params=SamplingParams(n_paths=4, path_len=10))

        inherited = run()
        assert len(inherited.nus) == 3 and all(s.lazy_graph for s in inherited.step_stats)
        assert len(queried) == 1
        assert len(inherited.final) > len(sa)
        # every step counting on its own reaches the same verdicts and nets
        queried.clear()
        without_reuse(monkeypatch)
        counted = run()
        assert len(queried) == 3
        assert counted.nus == inherited.nus and counted.step_stats == inherited.step_stats
        assert [s.points.tobytes() for s in counted.iterates] == [
            s.points.tobytes() for s in inherited.iterates]

    def test_materialized_parent_changes_nothing(self, cat, chain, monkeypatch):
        sa, child, delta, _, _ = chain
        monkeypatch.setattr(closure, "_EDGE_CAP", 2_000_000)
        parent = build_graph(cat, sa, delta)
        g = child_graph(cat, parent, child, delta)
        fresh = build_graph(cat, child, delta)
        assert parent.materialized and g.materialized
        assert g.edges.tobytes() == fresh.edges.tobytes() and g.n_edges == fresh.n_edges


class TestSamplingParams:
    @pytest.mark.parametrize("field, value", [
        ("n_paths", 2.5), ("max_cycle_len", 8.0), ("path_len", "40"), ("seed", None),
        ("seed", True), ("n_paths", np.float64(2.0)), ("max_cycle_len", np.bool_(True)),
    ])
    def test_non_integer_field_refused_by_name(self, field, value):
        with pytest.raises(ValueError) as info:
            SamplingParams(**{field: value})
        assert str(info.value) == f"{field} must be an integer, got {value!r}"

    def test_numpy_integers_accepted(self):
        p = SamplingParams(max_cycle_len=np.int32(3), n_paths=np.int64(2),
                           path_len=np.uint8(5), seed=np.int64(7))
        values = (p.max_cycle_len, p.n_paths, p.path_len, p.seed)
        assert values == (3, 2, 5, 7) and all(type(v) is int for v in values)

    @pytest.mark.parametrize("field, value, bound", [
        ("max_cycle_len", 0, ">= 1"), ("path_len", -1, ">= 1"), ("n_paths", -1, ">= 0"),
        ("seed", -1, ">= 0"),
    ])
    def test_out_of_range_field_refused_by_name(self, field, value, bound):
        with pytest.raises(ValueError) as info:
            SamplingParams(**{field: value})
        assert str(info.value) == f"{field} must be {bound}, got {value}"

    def test_large_numpy_seed_runs_as_python_seed(self, cat):
        # a numpy seed used to overflow the derived step seed
        # seed * 1_000_003 + i and then be refused as negative
        sa = SetApprox(np.array([[0.8, 0.6], [0.2, 0.4]]), 0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traces = [iterate_closure(cat, sa, 0.05, 0.35, 4,
                                      params=SamplingParams(n_paths=2, seed=seed))
                      for seed in (np.int64(10**13), 10**13)]
        assert traces[0].to_json_dict("all") == traces[1].to_json_dict("all")


class TestBoundedDraws:
    """`_bounded_draws` replays `int(rng.integers(high))` from raw PCG64
    words.  numpy does not promise its bounded rule across releases, so a
    release that changes it fails here."""

    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_matches_rng_integers(self, seed):
        picker = np.random.default_rng(1000 + seed)
        n = 100_000
        bounds = np.where(picker.random(n) < 0.5, picker.integers(1, 65, n),
                          picker.integers(1, 2**32 + 1, n))
        # 1 takes no word, 2**31 + 1 rejects about half of its words and
        # 2**32 returns the word itself
        special = np.array([1, 2, 3, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32])
        every_fifth = slice(None, None, 5)
        bounds[every_fifth] = picker.choice(special, len(bounds[every_fifth]))
        bounds = bounds.tolist()
        assert set(special.tolist()) <= set(bounds)
        # many times the words one bulk call holds
        assert len(bounds) > 20 * 2 * closure._DRAW_CHUNK
        draw = closure._bounded_draws(np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        assert [draw(b) for b in bounds] == [int(rng.integers(b)) for b in bounds]

    @pytest.mark.parametrize("high", [2**32 + 1, 2**40, 0, -3])
    def test_bound_outside_32_bits_refused(self, high):
        draw = closure._bounded_draws(np.random.default_rng(0))
        with pytest.raises(ValueError, match=rf"draw bound must be in \[1, 2\*\*32\], "
                                             rf"got {high}$"):
            draw(high)

    def test_reference_walks_span_bulk_calls(self, cat):
        # the n_paths=40 reference case draws more words than one bulk call holds
        real = closure._bounded_draws
        words = []

        def counting(rng):
            draw = real(rng)

            def counted(high):
                words.append(high > 1)  # a lower bound: rejections take more
                return draw(high)
            return counted

        g, kw = TestSamplePseudoOrbits._reference_graphs(cat)[1]
        with patch.object(closure, "_bounded_draws", counting):
            sample_pseudo_orbits(g, params=SamplingParams(seed=0, **kw))
        assert sum(words) > 2 * closure._DRAW_CHUNK


class TestSamplePseudoOrbits:
    def test_single_self_loop(self, cat):
        sa = SetApprox(np.array([[0.0, 0.0]]), 0.01)
        g = build_graph(cat, sa, delta=0.05)
        sampled = sample_pseudo_orbits(g, params=SamplingParams(n_paths=0))
        cycles = [o for o in sampled.orbits if o.periodic]
        assert len(cycles) == 1 and len(cycles[0]) == 1

    def test_full_shift_on_two_nodes(self, cat):
        sa = SetApprox(np.array([[0.0, 0.0], [0.8, 0.6]]), 0.01)
        g = TestSamplePseudoOrbits._complete_graph(cat, sa)
        sampled = sample_pseudo_orbits(g, params=SamplingParams(max_cycle_len=2, n_paths=0))
        cycles = sorted(tuple(map(tuple, o.points)) for o in sampled.orbits if o.periodic)
        assert len(cycles) == 3  # {p}, {q}, {p,q}

    @staticmethod
    def _complete_graph(cat, sa):
        import numpy as np
        from shadowbench.closure import TransitionGraph

        images = cat.apply_array(sa.points)
        edges = np.array([(i, j) for i in range(2) for j in range(2)])
        return TransitionGraph(sa, 0.9, images, edges, 4)

    def test_connector_pattern(self, cat):
        # two self-loops p, q plus edges p->z->q force the p..p z q..q orbit
        from shadowbench.closure import TransitionGraph

        sa = SetApprox(np.array([[0.0, 0.0], [0.5, 0.5], [0.8, 0.6]]), 0.01)
        images = cat.apply_array(sa.points)
        edges = np.array([(0, 0), (2, 2), (0, 1), (1, 2)])
        g = TransitionGraph(sa, 0.9, images, edges, 4)
        sampled = sample_pseudo_orbits(g, params=SamplingParams(n_paths=0))
        segments = [o for o in sampled.orbits if not o.periodic]
        assert segments, "expected a connecting pseudo-orbit"
        seq = [tuple(row) for row in segments[0].points]
        assert (0.5, 0.5) in seq
        k = seq.index((0.5, 0.5))
        assert all(v == (0.0, 0.0) for v in seq[:k])
        assert all(v == (0.8, 0.6) for v in seq[k + 1:])

    @pytest.mark.parametrize("field, value", [("max_cycle_len", -1), ("max_cycle_len", 0),
                                              ("path_len", 0), ("n_paths", -1)])
    def test_invalid_params_rejected_on_lazy_graph(self, cat, rng, monkeypatch, field, value):
        # a lazy graph never enumerates cycles, so only the params can refuse
        monkeypatch.setattr(closure, "_EDGE_CAP", 0)
        g = build_graph(cat, SetApprox.build(rng.random((40, 2)), 0.02), 0.3)
        assert not g.materialized
        with pytest.raises(ValueError, match=field):
            sample_pseudo_orbits(g, params=SamplingParams(**{field: value}))

    @staticmethod
    def _reference_graphs(cat):
        """(graph, params) for the reference comparison: sparse and complete
        materialized graphs (the complete one hits both caps) and lazy ones.
        The second case's walks take more words than one bulk draw holds."""
        window = homoclinic_points(cat, n_window=4)
        homoclinic = SetApprox.build(np.vstack([[[0.0, 0.0]], window]), 0.004)
        complete, delta = complete_net()
        random_net = SetApprox.build(np.random.default_rng(3).random((40, 2)), 0.02)
        with patch.object(closure, "_EDGE_CAP", 0):
            lazy = [build_graph(cat, homoclinic, 0.05), build_graph(cat, random_net, 0.3)]
        return [
            (build_graph(cat, homoclinic, 0.05), dict(max_cycle_len=12, n_paths=8)),
            (build_graph(cat, homoclinic, 0.05), dict(max_cycle_len=12, n_paths=40)),
            (build_graph(cat, complete, delta), dict(max_cycle_len=5, n_paths=8)),
            (lazy[0], dict(n_paths=8)),
            (lazy[1], dict(n_paths=8, path_len=12)),
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_orbits_match_reference_sampler(self, cat, seed):
        kinds = []
        for g, kw in self._reference_graphs(cat):
            sampled = sample_pseudo_orbits(g, params=SamplingParams(seed=seed, **kw))
            expected, partial = reference_sample(g, SamplingParams(seed=seed, **kw))
            got = sampled.orbits
            assert sampled.partial == partial
            assert len(got) == len(expected) > 0
            for a, b in zip(got, expected):
                assert a.points.tobytes() == b.points.tobytes()
                assert a == b  # rows, periodic and start_index
            kinds.append((g.materialized, {po.periodic for po in got}))
        # both graph kinds, each with cycles and segments
        assert kinds.count((True, {False, True})) == 3
        assert kinds.count((False, {False, True})) == 2

    def test_families_are_the_walk_free_sample(self, cat):
        for g, kw in self._reference_graphs(cat):
            p = SamplingParams(**kw)
            families = closure._graph_families(g, p)
            walk_free = sample_pseudo_orbits(g, params=SamplingParams(**{**kw, "n_paths": 0}))
            sampled = sample_pseudo_orbits(g, params=p)
            n = len(families.sequences)
            assert families.lazy_graph == (not g.materialized)
            for s in (walk_free, sampled):
                assert s.points is families.points is g.set.points
                assert (s.cycle_cap, s.connector_budget, s.lazy_graph) == (
                    families.cycle_cap, families.connector_budget, families.lazy_graph)
            assert (walk_free.sequences, walk_free.periodic) == (families.sequences,
                                                                 families.periodic)
            assert sampled.sequences[:n] == families.sequences and len(sampled.sequences) > n

    def test_connectors_match_parent_loop(self, cat):
        # n_paths=0 leaves the enumerated cycles and the connectors alone
        nets = [SetApprox.build(np.random.default_rng(k).random((12 + 6 * k, 2)), 0.02)
                for k in range(5)] + [complete_net()[0]]
        hits = {"budget": 0, "cap": 0}
        for sa, delta, max_len in iproduct(nets, (0.05, 0.1, 0.2), (2, 4, 8)):
            g = build_graph(cat, sa, delta)
            sampled = sample_pseudo_orbits(g, params=SamplingParams(
                max_cycle_len=max_len, n_paths=0, path_len=40))
            cycles = list(compress(sampled.sequences, sampled.periodic))
            connectors, budget_hit = parent_connectors(_successors(g.edges, g.n_nodes),
                                                       [tuple(c) for c in cycles], 40)
            assert g.materialized and sampled.sequences == tuple(cycles + connectors)
            assert sampled.periodic == (True,) * len(cycles) + (False,) * len(connectors)
            assert sampled.connector_budget == budget_hit
            hits["budget"] += budget_hit
            hits["cap"] += sampled.cycle_cap
        assert hits["budget"] > 0 and hits["cap"] > 0

    def test_determinism(self, cat, rng):
        sa = SetApprox.build(rng.random((12, 2)), 0.02)
        g = build_graph(cat, sa, delta=0.3)
        s1 = sample_pseudo_orbits(g, params=SamplingParams(seed=7))
        s2 = sample_pseudo_orbits(g, params=SamplingParams(seed=7))
        assert len(s1.orbits) == len(s2.orbits)
        for a, b in zip(s1.orbits, s2.orbits):
            assert np.array_equal(a.points, b.points) and a.periodic == b.periodic


class TestGraphSearch:
    """`_simple_cycles` and `_simple_paths` against brute-force enumeration."""

    SHUFFLED = pytest.mark.parametrize("shuffled", [False, True], ids=["sorted", "shuffled"])

    @SHUFFLED
    def test_successors_keep_edge_order(self, shuffled):
        for seed in range(40):
            n, edges = random_edges(seed, shuffled)
            succ = _successors(edges, n)
            assert succ == [[v for u, v in edges.tolist() if u == i] for i in range(n)]

    @SHUFFLED
    def test_cycles_match_brute_force_in_order(self, shuffled):
        for seed, bound in iproduct(range(40), (0, 1, 2, 3, 5)):
            n, edges = random_edges(seed, shuffled)
            assert list(_simple_cycles(_successors(edges, n), bound)) == \
                brute_cycles(edges, n, bound), (seed, bound)

    @SHUFFLED
    def test_paths_match_brute_force_in_order(self, shuffled):
        for seed in range(40):
            n, edges = random_edges(seed, shuffled)
            succ = _successors(edges, n)
            for cutoff, s, t in iproduct((0, 1, 2, 6), range(n), range(n)):
                assert list(_simple_paths(succ, s, t, cutoff)) == \
                    brute_paths(edges, n, s, t, cutoff), (seed, cutoff, s, t)

    def test_negative_cycle_bound_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            next(_simple_cycles([[0]], -1))

    @staticmethod
    def _complete_graph(cat):
        # complete digraph with loops on 5 nodes: 89 cycles, 65 through node 0
        sa = SetApprox(lattice(3, 0.3, 2)[:5], 0.01)
        edges = np.array([(i, j) for i in range(5) for j in range(5)])
        return closure.TransitionGraph(sa, 0.9, cat.apply_array(sa.points), edges, len(edges))

    def test_capped_cycles_come_from_smallest_roots(self, cat, monkeypatch):
        g = self._complete_graph(cat)
        sa = g.set
        every = brute_cycles(g.edges, 5, 5)
        monkeypatch.setattr(closure, "_CYCLE_CAP", 70)
        sampled = sample_pseudo_orbits(g, params=SamplingParams(max_cycle_len=5, n_paths=0))
        kept = [o.points for o in sampled.orbits if o.periodic]
        assert sampled.partial and len(every) == 89
        assert [c[0] for c in every[:70]] == [0] * 65 + [1] * 5
        assert [p.tobytes() for p in kept] == [sa.points[list(c)].tobytes()
                                               for c in sorted(every[:70])]

    def test_connector_budget_caps_segments(self, cat):
        g = self._complete_graph(cat)
        sampled = sample_pseudo_orbits(g, params=SamplingParams(max_cycle_len=5, n_paths=0))
        segments = [o for o in sampled.orbits if not o.periodic]
        assert sampled.partial and len(segments) == closure._CONNECTOR_BUDGET


class TestSamplingCaps:
    """Each cap is named where it fired, in the sample and in the step stats,
    and `partial` is derived from the three."""

    FLAGS = ("cycle_cap", "connector_budget", "lazy_graph")

    @classmethod
    def _fired(cls, record):
        return tuple(getattr(record, name) for name in cls.FLAGS)

    def _check(self, cat, params, expected):
        sa, delta = complete_net()
        g = build_graph(cat, sa, delta)
        sampled = sample_pseudo_orbits(g, params=params)
        _, stats, _ = closure._closure_step(cat, sa, delta, params, max_defect=np.inf, label="")
        assert self._fired(sampled) == self._fired(stats) == expected
        assert sampled.partial == stats.partial_sampling == any(expected)
        assert stats.n_sampled == len(sampled.sequences) == len(sampled.orbits)

    def test_no_cap(self, cat):
        self._check(cat, SamplingParams(max_cycle_len=1, n_paths=2), (False, False, False))

    def test_cycle_cap(self, cat, monkeypatch):
        # 3 cycles give at most 6 * 5 connectors, well inside the budget
        monkeypatch.setattr(closure, "_CYCLE_CAP", 3)
        self._check(cat, SamplingParams(max_cycle_len=5, n_paths=2), (True, False, False))

    def test_connector_budget(self, cat, monkeypatch):
        # 15 cycles of at most 2 nodes, below the cycle cap
        monkeypatch.setattr(closure, "_CONNECTOR_BUDGET", 4)
        self._check(cat, SamplingParams(max_cycle_len=2, n_paths=2), (False, True, False))

    def test_lazy_graph(self, cat, monkeypatch):
        monkeypatch.setattr(closure, "_EDGE_CAP", 0)
        self._check(cat, SamplingParams(n_paths=2), (False, False, True))

    def test_trace_keeps_one_partial_key(self, cat):
        sa, delta = complete_net()
        trace = iterate_closure(cat, sa, delta, u_radius=1.0, max_iter=1, max_defect=np.inf,
                                params=SamplingParams(max_cycle_len=5, n_paths=2))
        assert self._fired(trace.step_stats[0]) == (False, True, False)
        assert trace.to_json_dict()["steps"] == [
            {"sampled": trace.step_stats[0].n_sampled, "refused": trace.step_stats[0].n_refused,
             "added": trace.step_stats[0].n_added, "partial": True}]


class TestShadowingClosure:
    def test_fixed_point_unchanged(self, cat):
        sa = SetApprox(np.array([[0.0, 0.0]]), 0.01)
        out = shadowing_closure(cat, sa, delta=0.05)
        assert len(out) == 1
        assert torus_distance(TorusPoint(out.points[0]), TorusPoint((0, 0))) < 1e-12

    def test_disconnected_loops_unchanged(self, cat):
        A2 = ToralAutomorphism(cat.matrix @ cat.matrix)
        sa = SetApprox(np.array([[0.0, 0.0], [0.8, 0.6]]), 0.01)
        out = shadowing_closure(A2, sa, delta=0.05)
        assert len(out) == 2

    def test_monotone_contains_input(self, cat, rng):
        pts = cat.orbit_segment(TorusPoint((0.31, 0.47)), 0, 10)
        sa = SetApprox.build(pts, 0.02)
        out = shadowing_closure(cat, sa, delta=0.05,
                                params=SamplingParams(seed=3, n_paths=10))
        assert len(out) >= len(sa)
        assert np.allclose(out.points[: len(sa)], sa.points)

    def test_homoclinic_growth_against_direct_shadow(self, cat):
        # seed: fixed point + exact homoclinic window; the graph closes the
        # excursion into a cycle whose shadow the closure must contain
        window = homoclinic_points(cat, n_window=4)
        sa = SetApprox.build(np.vstack([[[0.0, 0.0]], window]), 0.004)
        delta = 0.05
        out = shadowing_closure(cat, sa, delta=delta,
                                params=SamplingParams(seed=1, n_paths=0,
                                                      max_cycle_len=12))
        assert len(out) > len(sa)
        # oracle: shadow the hand-built excursion cycle directly
        cycle_pts = np.vstack([[[0.0, 0.0]], window])
        po = PseudoOrbit.from_map(cat, cycle_pts, periodic=True)
        assert pseudo_orbit_defect(cat, po.points, periodic=True) < delta
        res = newton_shadow(cat, po)
        dists = out.distance_to(res.orbit)
        assert np.max(dists) <= out.resolution / 2 + 1e-9

    def test_step_builds_no_per_orbit_pseudo_orbit_or_result(self, cat, monkeypatch):
        calls = {"from_map": 0, "result": 0}
        from_map = PseudoOrbit.from_map.__func__
        shadow_result = shadowing.ShadowResult

        def counted_from_map(cls, *args, **kwargs):
            calls["from_map"] += 1
            return from_map(cls, *args, **kwargs)

        def counted_result(*args, **kwargs):
            calls["result"] += 1
            return shadow_result(*args, **kwargs)

        monkeypatch.setattr(PseudoOrbit, "from_map", classmethod(counted_from_map))
        monkeypatch.setattr(shadowing, "ShadowResult", counted_result)
        sa = SetApprox.build(np.vstack([[[0.0, 0.0]], homoclinic_points(cat, n_window=3)]), 0.02)
        out = shadowing_closure(cat, sa, delta=0.05,
                                params=SamplingParams(seed=5, n_paths=8, max_cycle_len=10))
        assert len(out) > len(sa)
        assert calls == {"from_map": 0, "result": 0}
        # the counters see the per-orbit path when it runs
        exact_shadow_linear(cat, PseudoOrbit.from_map(cat, out.points[:1], periodic=True),
                            max_defect=np.inf)
        assert calls == {"from_map": 1, "result": 1}

    def test_step_builds_no_pseudo_orbit(self, cat, monkeypatch):
        calls = []
        post_init = PseudoOrbit.__post_init__

        def counted(self):
            calls.append(len(self.points))
            post_init(self)

        monkeypatch.setattr(PseudoOrbit, "__post_init__", counted)
        sa = SetApprox.build(np.vstack([[[0.0, 0.0]], homoclinic_points(cat, n_window=3)]), 0.02)
        params = SamplingParams(seed=5, n_paths=8, max_cycle_len=10)
        merged, stats, _ = closure._closure_step(cat, sa, 0.05, params, max_defect=None,
                                                 label="")
        assert stats.n_sampled > 0 and len(merged) > len(sa)
        assert calls == []
        # the sampler builds none either; the derived view builds one per sample
        sampled = sample_pseudo_orbits(build_graph(cat, sa, 0.05), params=params)
        assert calls == []
        orbits = sampled.orbits
        assert len(calls) == len(orbits) == stats.n_sampled


class TestGamma:
    def test_cat_map_value(self, cat):
        lam_u = cat.splitting.lambda_u
        expected = 0.1 / (4 * lam_u) * 0.9
        assert gamma_for(cat, 0.1) == pytest.approx(expected, rel=1e-12)
        # operator norm of the symmetric cat matrix equals its spectral radius
        assert np.linalg.norm(cat.matrix.astype(float), 2) == pytest.approx(lam_u, abs=1e-12)

    def test_degenerate_delta(self, cat):
        with pytest.raises(ValueError, match="delta must be positive, got 0.0"):
            gamma_for(cat, 0.0)

    def test_nan_delta(self, cat):
        with pytest.raises(ValueError, match="delta must be positive, got nan"):
            gamma_for(cat, float("nan"))

    def test_infinite_delta_refused_by_name(self, cat):
        with pytest.raises(ValueError) as info:
            gamma_for(cat, np.inf)
        assert str(info.value) == "delta must be finite, got inf"


class TestIterateClosure:
    @pytest.mark.parametrize("delta, u_radius, message", [
        (float("nan"), 0.35, "delta must be positive, got nan"),
        (0.05, float("nan"), "u_radius must be positive, got nan"),
        (0.05, 0.0, "u_radius must be positive, got 0.0"),
    ], ids=["delta-nan", "u_radius-nan", "u_radius-zero"])
    def test_nan_knobs_refused(self, cat, delta, u_radius, message):
        # NaN fails every comparison: a `<= 0` guard lets it through, and the
        # run then reads as stabilized at index 0 without sampling an orbit
        sa = SetApprox(np.array([[0.8, 0.6], [0.2, 0.4]]), 0.02, label="2cyc")
        with pytest.raises(ValueError, match=message):
            iterate_closure(cat, sa, delta, u_radius, 25)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_refused(self, cat, max_iter):
        # no step would run, and the trace would read budget_exhausted(0)
        sa = SetApprox(np.array([[0.8, 0.6], [0.2, 0.4]]), 0.02, label="2cyc")
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            iterate_closure(cat, sa, 0.05, 0.35, max_iter)

    @pytest.mark.parametrize("max_iter", [2.5, True, np.float64(3.0), "3", None])
    def test_non_integer_max_iter_refused_by_name(self, cat, max_iter):
        sa = SetApprox(np.array([[0.8, 0.6], [0.2, 0.4]]), 0.02, label="2cyc")
        with pytest.raises(ValueError) as info:
            iterate_closure(cat, sa, 0.05, 0.35, max_iter)
        assert str(info.value) == f"max_iter must be an integer, got {max_iter!r}"

    def test_numpy_integer_max_iter_accepted(self, cat):
        sa = SetApprox(np.array([[0.8, 0.6], [0.2, 0.4]]), 0.02, label="2cyc")
        trace = iterate_closure(cat, sa, 0.05, 0.35, np.int64(1))
        assert trace.verdict == Verdict("budget_exhausted", 1)
        assert type(trace.to_json_dict()["verdict"]["index"]) is int

    def test_lambda_0_gets_one_tree(self, cat, monkeypatch):
        # the escape test queries the tree the first step built over Lambda_0
        window = homoclinic_points(cat, n_window=4)
        sa = SetApprox.build(np.vstack([[[0.0, 0.0]], window]), 0.004)
        built = []
        make_tree = closure._torus_tree
        monkeypatch.setattr(closure, "_torus_tree",
                            lambda points: built.append(points) or make_tree(points))
        trace = iterate_closure(cat, sa, delta=0.05, u_radius=0.45, max_iter=2,
                                params=SamplingParams(seed=1, n_paths=6))
        assert len(trace.final) > len(sa)
        assert sum(np.shares_memory(points, sa.points) for points in built) == 1

    def test_build_graph_refuses_nan_delta(self, cat):
        sa = SetApprox(np.array([[0.8, 0.6], [0.2, 0.4]]), 0.02)
        with pytest.raises(ValueError, match="delta must be positive, got nan"):
            build_graph(cat, sa, float("nan"))

    def test_build_graph_refuses_infinite_delta(self, cat):
        sa = SetApprox(np.array([[0.8, 0.6], [0.2, 0.4]]), 0.02)
        with pytest.raises(ValueError) as info:
            build_graph(cat, sa, np.inf)
        assert str(info.value) == "delta must be finite, got inf"

    def test_fixed_point_stabilizes_immediately(self, cat):
        sa = SetApprox(np.array([[0.0, 0.0]]), 0.01, label="fp")
        trace = iterate_closure(cat, sa, delta=0.05, u_radius=0.2, max_iter=10)
        assert trace.verdict.kind == "stabilized"
        assert trace.verdict.index == 0
        assert all(nu <= trace.stab_tol for nu in trace.nus)

    def test_period_two_net_stabilizes(self, cat):
        sa = SetApprox(np.array([[0.8, 0.6], [0.2, 0.4]]), 0.01, label="2cyc")
        trace = iterate_closure(cat, sa, delta=0.05, u_radius=0.2, max_iter=10)
        assert trace.verdict.kind == "stabilized"

    def test_homoclinic_battery_entry_stabilizes(self, cat):
        window = homoclinic_points(cat, n_window=3)
        sa = SetApprox.build(np.vstack([[[0.0, 0.0]], window]), 0.02, label="homoclinic")
        trace = iterate_closure(cat, sa, delta=0.05, u_radius=0.35, max_iter=25,
                                params=SamplingParams(seed=5, n_paths=8, max_cycle_len=10))
        assert trace.verdict.kind == "stabilized"
        assert len(trace.final) >= len(sa)

    def test_idempotence_after_stabilization(self, cat):
        window = homoclinic_points(cat, n_window=3)
        sa = SetApprox.build(np.vstack([[[0.0, 0.0]], window]), 0.02)
        trace = iterate_closure(cat, sa, delta=0.05, u_radius=0.35, max_iter=25,
                                params=SamplingParams(seed=5, n_paths=8, max_cycle_len=10))
        assert trace.verdict.kind == "stabilized"
        # the confirmation window means the recorded tail increments are quiet
        j = trace.verdict.index
        assert all(nu <= trace.stab_tol for nu in trace.nus[j:])

    def test_step_without_samples_keeps_net(self, cat):
        # f(0.1, 0.3) = (0.5, 0.4): no edge, no cycle, and no walks requested
        sa = SetApprox(np.array([[0.1, 0.3]]), 0.01, label="lone")
        trace = iterate_closure(cat, sa, delta=0.05, u_radius=0.2, max_iter=4,
                                params=SamplingParams(n_paths=0))
        assert [s.n_sampled for s in trace.step_stats] == [0] * 4
        assert [s.label for s in trace.iterates] == [f"Lambda_{i}" for i in range(5)]
        assert all(np.array_equal(s.points, sa.points) for s in trace.iterates)

    def test_budget_exhausted_is_verdict_not_error(self, cat):
        window = homoclinic_points(cat, n_window=4)
        sa = SetApprox.build(np.vstack([[[0.0, 0.0]], window]), 0.004)
        trace = iterate_closure(cat, sa, delta=0.05, u_radius=0.45, max_iter=2,
                                params=SamplingParams(seed=1, n_paths=6))
        assert trace.verdict.kind in ("budget_exhausted", "stabilized")

    def test_trace_serialization(self, cat):
        sa = SetApprox(np.array([[0.0, 0.0]]), 0.01)
        trace = iterate_closure(cat, sa, delta=0.05, u_radius=0.2, max_iter=6)
        d = trace.to_json_dict()
        assert d["verdict"]["kind"] == "stabilized"
        assert len(d["nus"]) == len(trace.nus)

    def test_trace_refuses_unknown_iterate_choice(self, cat):
        sa = SetApprox(np.array([[0.0, 0.0]]), 0.01)
        trace = iterate_closure(cat, sa, delta=0.05, u_radius=0.2, max_iter=1)
        assert "final" not in trace.to_json_dict("none")
        assert len(trace.to_json_dict("all")["iterates"]) == 2
        with pytest.raises(ValueError) as info:
            trace.to_json_dict("bogus")
        assert str(info.value) == ("include_iterates must be 'none', 'final' or 'all', "
                                   "got 'bogus'")

    def test_trace_rejects_misaligned_increments(self):
        sa = SetApprox(np.array([[0.0, 0.0]]), 0.01)
        with pytest.raises(ValueError, match="one increment"):
            ClosureTrace((sa, sa), (), 0.01, Verdict("stabilized", 0), 0.05, 0.2, 0.0045)

    def test_dichotomy_report_on_growing_trace(self, cat):
        window = homoclinic_points(cat, n_window=4)
        sa = SetApprox.build(np.vstack([[[0.0, 0.0]], window]), 0.004)
        trace = iterate_closure(cat, sa, delta=0.05, u_radius=0.45, max_iter=4,
                                params=SamplingParams(seed=1, n_paths=6))
        rows = trace.dichotomy(slack=0.5)
        for row in rows:
            assert row["holds"], f"dichotomy failed at {row}"


def without_reuse(monkeypatch):
    """Every closure step from scratch: `_closure_step` is handed no parent
    step."""
    step = closure._closure_step
    monkeypatch.setattr(closure, "_closure_step",
                        lambda *args, parent=None, **kwargs: step(*args, **kwargs))


def trace_record(trace):
    return ([(s.points.tobytes(), s.label) for s in trace.iterates], trace.nus,
            trace.step_stats, trace.verdict, trace.to_json_dict("all"))


def quiet_steps(trace) -> int:
    """Steps whose net is the one their parent step's graph was built on."""
    return sum(s.n_added == 0 for s in trace.step_stats[:-1])


class TestQuietStepReuse:
    """A step whose net did not change reuses its parent step's graph and
    families and shadows only its walks; every trace equals the one of
    steps run from scratch, bit for bit."""

    @staticmethod
    def _both(monkeypatch, nets, run):
        reused = [run(sa) for sa in nets]
        without_reuse(monkeypatch)
        fresh = [run(sa) for sa in nets]
        assert sum(map(quiet_steps, reused)) > 0
        for a, b in zip(reused, fresh):
            assert trace_record(a) == trace_record(b)
        return reused

    def test_battery_nets(self, cat, monkeypatch):
        cfg = ExperimentConfig(seed=0)
        nets = [sa for _, sa in closure_battery(cat, cfg.resolution)]
        traces = self._both(monkeypatch, nets, lambda sa: iterate_closure(
            cat, sa, cfg.delta, cfg.u_radius, cfg.max_iter, params=cfg.sampling()))
        assert len(traces) == 10
        assert all(t.verdict.kind == "stabilized" for t in traces)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_nets(self, cat, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        nets = [SetApprox.build(rng.random((n, 2)), 0.02) for n in (3, 12, 40)]
        self._both(monkeypatch, nets, lambda sa: iterate_closure(
            cat, sa, 0.05, 1.0, 8, params=SamplingParams(n_paths=6, path_len=12, seed=seed)))

    def test_gate_refusing_cycles_in_quiet_steps(self, cat, monkeypatch):
        cfg = ExperimentConfig(seed=0)
        nets = [sa for _, sa in closure_battery(cat, cfg.resolution)][4:]
        traces = self._both(monkeypatch, nets, lambda sa: iterate_closure(
            cat, sa, cfg.delta, cfg.u_radius, cfg.max_iter, params=cfg.sampling(),
            max_defect=0.03))
        refused_when_quiet = [s.n_refused for t in traces
                              for before, s in zip(t.step_stats, t.step_stats[1:])
                              if before.n_added == 0]
        assert min(refused_when_quiet) > 0

    def test_lazy_graph(self, cat, monkeypatch):
        cfg = ExperimentConfig(seed=0)
        nets = [sa for _, sa in closure_battery(cat, cfg.resolution)]
        monkeypatch.setattr(closure, "_EDGE_CAP", 0)
        traces = self._both(monkeypatch, nets, lambda sa: iterate_closure(
            cat, sa, cfg.delta, cfg.u_radius, cfg.max_iter,
            params=SamplingParams(n_paths=8, path_len=20, seed=3)))
        assert all(s.lazy_graph for t in traces for s in t.step_stats)

    def test_successor_lists_built_once_per_graph(self, cat, monkeypatch):
        built, graphs = [], []
        successors, build = closure._successors, closure.build_graph

        def spy_successors(edges, n_nodes):
            built.append(n_nodes)
            return successors(edges, n_nodes)

        def spy_build(*args):
            graphs.append(build(*args))
            return graphs[-1]

        monkeypatch.setattr(closure, "_successors", spy_successors)
        monkeypatch.setattr(closure, "build_graph", spy_build)
        cfg = ExperimentConfig(seed=0)
        sa = closure_battery(cat, cfg.resolution)[0][1]
        trace = iterate_closure(cat, sa, cfg.delta, cfg.u_radius, cfg.max_iter,
                                params=cfg.sampling())
        # quiet steps walk their parent's graph on the lists it already holds
        assert quiet_steps(trace) > 0 and all(g.materialized for g in graphs)
        assert built == [g.n_nodes for g in graphs]

    def test_only_unchanged_nets_skip_families_and_shadowing(self, cat, monkeypatch):
        log = []  # per step: graphs built, families enumerated, orbits shadowed
        step, build = closure._closure_step, closure.build_graph
        families, shadow = closure._graph_families, closure._shadow_windows

        def spy_step(*args, **kwargs):
            log.append({"built": 0, "families": None, "shadowed": 0})
            return step(*args, **kwargs)

        def spy_build(*args, **kwargs):
            log[-1]["built"] += 1
            return build(*args, **kwargs)

        def spy_families(*args):
            out = families(*args)
            log[-1]["families"] = len(out.sequences)
            return out

        def spy_shadow(map, X, *args):
            log[-1]["shadowed"] += len(X)
            return shadow(map, X, *args)

        for name, spy in [("_closure_step", spy_step), ("build_graph", spy_build),
                          ("_graph_families", spy_families), ("_shadow_windows", spy_shadow)]:
            monkeypatch.setattr(closure, name, spy)
        window = homoclinic_points(cat, n_window=3)
        sa = SetApprox.build(np.vstack([[[0.0, 0.0]], window]), 0.02)
        trace = iterate_closure(cat, sa, delta=0.05, u_radius=0.35, max_iter=25,
                                params=SamplingParams(seed=5, n_paths=8, max_cycle_len=10))
        assert len(log) == len(trace.step_stats)
        unchanged = [False] + [s.n_added == 0 for s in trace.step_stats[:-1]]
        assert sum(unchanged) >= 3 and not all(unchanged[1:])
        for entry, stats, reused in zip(log, trace.step_stats, unchanged):
            if reused:
                assert entry["built"] == 0 and entry["families"] is None
                assert entry["shadowed"] == stats.n_sampled - n_families > 0
            else:
                n_families = entry["families"]
                assert entry["built"] == 1 and n_families > 0
                assert entry["shadowed"] == stats.n_sampled

    def test_all_refused_in_reused_step(self, cat, monkeypatch):
        # edges 0 -> 0 (defect above the gate) and 0 -> 1 (below): seed 1
        # walks 0 -> 1, which adds nothing; seed 0 walks from node 1, which
        # has no successor, so its one sample is the refused self-loop
        x = np.array([0.1, 0.3])
        sa = SetApprox(np.vstack([x, wrap(cat.matrix.astype(float) @ x + 0.001)]), 0.02)
        delta = 0.5
        p1, p0 = SamplingParams(n_paths=1, path_len=2, seed=1), SamplingParams(
            n_paths=1, path_len=2, seed=0)
        merged, stats, parent = closure._closure_step(cat, sa, delta, p1, max_defect=None,
                                                      label="")
        assert (stats.n_sampled, stats.n_refused, stats.n_added) == (2, 1, 0)
        with pytest.raises(ShadowingRefusal) as fresh:
            closure._closure_step(cat, merged, delta, p0, max_defect=None, label="")
        monkeypatch.setattr(closure, "_graph_families", None)  # a reused step reads none
        with pytest.raises(ShadowingRefusal) as reused:
            closure._closure_step(cat, merged, delta, p0, max_defect=None, label="",
                                  parent=parent)
        assert str(reused.value) == str(fresh.value)
        assert (reused.value.defect, reused.value.limit) == (fresh.value.defect, fresh.value.limit)


class TestRefusalAndEscape:
    def test_all_samples_refused_raises(self, cat):
        # one edge whose defect exceeds the gate: the only sampled
        # pseudo-orbit is refused, which must surface as an error
        from shadowbench.shadowing import ShadowingRefusal

        x = np.array([0.1, 0.3])
        y = wrap(cat.matrix.astype(float) @ x + np.array([0.11, 0.1]))
        sa = SetApprox(np.vstack([x, y]), 0.01)
        delta = 0.2
        assert delta > cat.splitting.max_shadow_defect
        with pytest.raises(ShadowingRefusal, match=r"all \d+ sampled pseudo-orbits refused: "
                                                   r"smallest defect \S+ >= delta_0") as info:
            shadowing_closure(cat, sa, delta=delta,
                              params=SamplingParams(seed=0, n_paths=8, path_len=4))
        assert info.value.defect >= info.value.limit == cat.splitting.max_shadow_defect

    def test_gate_override_lets_loose_closure_run(self, cat):
        x = np.array([0.1, 0.3])
        y = wrap(cat.matrix.astype(float) @ x + np.array([0.11, 0.1]))
        sa = SetApprox(np.vstack([x, y]), 0.01)
        out = shadowing_closure(cat, sa, delta=0.2, max_defect=np.inf,
                                params=SamplingParams(seed=0, n_paths=8, path_len=4))
        assert len(out) >= len(sa)

    def test_escaped_neighborhood_verdict(self, cat):
        window = homoclinic_points(cat, n_window=4)
        sa = SetApprox.build(np.vstack([[[0.0, 0.0]], window]), 0.004)
        # the first shadowed excursion orbits land well beyond this radius
        trace = iterate_closure(cat, sa, delta=0.05, u_radius=0.01, max_iter=5,
                                params=SamplingParams(seed=1, n_paths=6))
        assert trace.verdict.kind == "escaped_neighborhood"
