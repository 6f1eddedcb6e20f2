import json
from dataclasses import replace
from itertools import product as iproduct

import numpy as np
import pytest

from shadowbench import maximality
from shadowbench.closure import SetApprox, _pairs
from shadowbench.maximality import (
    BracketError,
    GridSet,
    LPSFailure,
    LPSReport,
    _brackets,
    NonPremaxWitness,
    b_direction_heteroclinic_family,
    bracket,
    bracket_delta_for,
    constant_family,
    crovisier_set,
    local_product_check,
    maximal_invariant_set,
    unstable_segment_family,
    verify_nonpremax_witness,
)
from shadowbench.torus import (
    ToralAutomorphism,
    TorusPoint,
    cat_map,
    crovisier_product,
    golden_map,
    minimal_lift,
    torus_distance,
    two_fixed_point_map,
    wrap,
)


def parent_bracket(map, x, y):
    """Reference: the scalar bracket formula as `bracket` had it before the
    shared row kernel, returning (point coords, s_distance, u_distance)."""
    s = map.splitting
    w = minimal_lift(y.coords - x.coords)
    z = s.basis_inv @ w
    z[: s.stable_dim] = 0.0
    wu = s.basis @ z
    if np.all(w == 0.0):
        return x.coords, 0.0, 0.0
    return wrap(x.coords + wu), float(np.linalg.norm(w - wu)), float(np.linalg.norm(wu))


def parent_lps(map, sa, eps, delta, membership_tol):
    """Reference: `local_product_check` as it was with its own inline bracket
    (no eps < 1/4 or conditioning check)."""
    s = map.splitting
    pts = sa.points
    pairs = _pairs(sa, delta)
    if len(pairs) == 0:
        return LPSReport(eps, delta, membership_tol, 0, ())
    ii = np.concatenate([pairs[:, 0], pairs[:, 1]])
    jj = np.concatenate([pairs[:, 1], pairs[:, 0]])
    w = minimal_lift(pts[jj] - pts[ii])
    z = w @ s.basis_inv.T
    z[:, : s.stable_dim] = 0.0
    wu = z @ s.basis.T
    ws = w - wu
    comp = np.maximum(np.linalg.norm(wu, axis=1), np.linalg.norm(ws, axis=1))
    if np.any(comp > eps):
        raise BracketError("bracket components exceed eps for some pair")
    brackets = wrap(pts[ii] + wu)
    dists = sa.distance_to(brackets)
    bad = np.nonzero(dists > membership_tol)[0]
    failures = tuple(
        LPSFailure(pts[ii[k]].copy(), pts[jj[k]].copy(), brackets[k].copy(), float(dists[k]))
        for k in bad
    )
    return LPSReport(eps, delta, membership_tol, len(ii), failures)


class TestBracket:
    def test_bracket_of_point_with_itself(self, cat):
        x = TorusPoint((0.3, 0.7))
        b = bracket(cat, x, x, eps=0.1)
        assert b.point == x and b.s_distance == 0.0 and b.u_distance == 0.0

    def test_against_two_by_two_line_solve(self, cat, rng):
        # oracle: solve x + alpha v_u = y + beta v_s directly
        s = cat.splitting
        vu, vs = s.unstable_basis[:, 0], s.stable_basis[:, 0]
        for _ in range(50):
            x = TorusPoint(rng.random(2))
            w = rng.uniform(-0.05, 0.05, 2)
            y = TorusPoint(wrap(x.coords + w))
            lift = minimal_lift(y.coords - x.coords)
            alpha, _ = np.linalg.solve(np.column_stack([vu, -vs]), lift)
            expected = wrap(x.coords + alpha * vu)
            b = bracket(cat, x, y, eps=0.2)
            assert torus_distance(b.point, TorusPoint(expected)) < 1e-12

    def test_forward_backward_convergence_rates(self, cat, rng):
        # d(f^n(b), f^n(y)) <= C lambda_s^n eps, and the backward analog to x.
        # The matrix is integer, so f^n(b) - f^n(y) = A^n (b - y) mod 1
        # exactly; iterating the difference keeps relative precision where
        # subtracting two separately wrapped orbits floors out at
        # lambda_u^n * machine-eps.
        # doubles resolve the decay down to lambda_u^n * eps_mach; past
        # n ~ 14 the full-window check needs extended precision and lives in
        # the acceptance suite
        s = cat.splitting
        eps = 0.1
        for _ in range(20):
            x = TorusPoint(rng.random(2))
            y = TorusPoint(wrap(x.coords + rng.uniform(-0.03, 0.03, 2)))
            b = bracket(cat, x, y, eps=eps).point
            fb, fy = b, y
            bb, bx = b, x
            for n in range(15):
                assert torus_distance(fb, fy) <= s.C * s.lambda_s ** n * eps + 1e-12
                assert torus_distance(bb, bx) <= s.C * s.lambda_s ** n * eps + 1e-12
                fb, fy = cat.apply(fb), cat.apply(fy)
                bb, bx = cat.apply_inverse(bb), cat.apply_inverse(bx)

    def test_too_far_apart(self, cat):
        with pytest.raises(BracketError, match="no local bracket"):
            bracket(cat, TorusPoint((0, 0)), TorusPoint((0.4, 0.4)), eps=0.1)

    def test_eps_lift_gate(self, cat):
        with pytest.raises(BracketError, match="unique lift"):
            bracket(cat, TorusPoint((0, 0)), TorusPoint((0.01, 0)), eps=0.3)

    def test_wrap_invariance(self, cat):
        x = TorusPoint((0.99, 0.01))
        y = TorusPoint((0.01, 0.99))
        b1 = bracket(cat, x, y, eps=0.2)
        assert b1.s_distance <= 0.2 and b1.u_distance <= 0.2
        # consistency: bracket lies on W^u(x) and W^s(y)
        s = cat.splitting
        wu = minimal_lift(b1.point.coords - x.coords)
        assert np.linalg.norm(s.stable_component(wu)) < 1e-12
        ws = minimal_lift(b1.point.coords - y.coords)
        assert np.linalg.norm(s.unstable_component(ws)) < 1e-12


class TestLocalProductCheck:
    @pytest.mark.parametrize("name", ["eps", "delta", "membership_tol"])
    @pytest.mark.parametrize("value", [float("nan"), 0.0])
    def test_knobs_must_be_positive(self, cat, name, value):
        # NaN fails every comparison, so a NaN delta finds no pair and passes
        sa = SetApprox(np.array([[0.0, 0.0], [0.01, 0.0]]), 0.01)
        knobs = {"eps": 0.1, "delta": 0.05, "membership_tol": 0.02, name: value}
        with pytest.raises(ValueError, match=f"{name} must be positive") as info:
            local_product_check(cat, sa, **knobs)
        assert not isinstance(info.value, BracketError)

    def test_wrong_dimension_named(self, cat):
        sa = SetApprox(np.array([[0.1, 0.2, 0.3]]), 0.01)
        with pytest.raises(ValueError, match="map is 2-d, points are 3-d"):
            local_product_check(cat, sa, 0.1, 0.05, 0.02)

    def test_pair_at_exactly_delta_is_not_tested(self, cat):
        # d(x, y) = 0.25 exactly: not a pair at delta 0.25, two ordered pairs above it
        sa = SetApprox(np.array([[0.0, 0.0], [0.25, 0.0]]), 0.02)
        assert local_product_check(cat, sa, 0.24, 0.25, 0.04).pairs_tested == 0
        assert local_product_check(cat, sa, 0.24, np.nextafter(0.25, 1.0), 0.04).pairs_tested == 2

    @pytest.mark.parametrize("points", [[[0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]])
    def test_eps_at_or_above_a_quarter_refused(self, cat, points):
        # the pair's components are 0.213 and 0.131, so only the lift rule refuses it
        sa = SetApprox(np.array(points), 0.02)
        for eps in (0.25, 0.3):
            with pytest.raises(BracketError, match="unique lift"):
                local_product_check(cat, sa, eps, np.nextafter(0.25, 1.0), 0.04)

    def test_singleton_passes_vacuously(self, cat):
        sa = SetApprox(np.array([[0.0, 0.0]]), 0.01)
        report = local_product_check(cat, sa, eps=0.1, delta=0.05, membership_tol=0.02)
        assert report.passed and report.pairs_tested == 0

    def test_full_torus_net_passes(self, cat):
        # the Anosov case: everything is in the set, brackets land in T^2
        n = 32
        grid = np.stack(np.meshgrid(*(np.arange(n) / n,) * 2), -1).reshape(-1, 2)
        sa = SetApprox(grid, resolution=1 / n, _validate=False)
        delta = bracket_delta_for(cat.splitting, 0.1)
        report = local_product_check(cat, sa, eps=0.1, delta=min(delta, 0.06),
                                     membership_tol=1 / n)
        assert report.pairs_tested > 0
        assert report.passed

    def test_two_periodic_points_fail_without_closure(self, cat):
        # nearest pair of period-4 points: their bracket is off the pair set
        pts = np.array([p.coords for p in cat.fixed_points(4)])
        best = (np.inf, None)
        for i in range(len(pts)):
            for j in range(len(pts)):
                if i < j:
                    d = torus_distance(TorusPoint(pts[i]), TorusPoint(pts[j]))
                    if 1e-9 < d < best[0]:
                        best = (d, (i, j))
        d, (i, j) = best
        assert d < 0.25
        sa = SetApprox(pts[[i, j]], 0.001)
        report = local_product_check(cat, sa, eps=0.24, delta=d * 1.05,
                                     membership_tol=0.002)
        assert report.pairs_tested == 2
        assert not report.passed and len(report.failures) == 2
        for f in report.failures:
            assert f.distance_to_set > 0.002

    def test_report_serialization(self, cat):
        sa = SetApprox(np.array([[0.0, 0.0]]), 0.01)
        d = local_product_check(cat, sa, 0.1, 0.05, 0.02).to_json_dict()
        assert d["passed"] is True and d["failures"] == []


class TestBracketKernel:
    """`bracket` and `local_product_check` run one kernel, `_brackets`."""

    @staticmethod
    def _maps():
        return [cat_map(), golden_map(), two_fixed_point_map(),
                crovisier_product().as_automorphism()]

    def test_bracket_matches_parent_scalar_formula(self, rng):
        for map in self._maps():
            s = map.splitting
            eps = 0.2
            delta = bracket_delta_for(s, eps)
            for _ in range(200):
                x = TorusPoint(rng.random(map.dim))
                w = rng.uniform(-1, 1, map.dim) * 0.99 * delta / np.sqrt(map.dim)
                y = TorusPoint(wrap(x.coords + w))
                b = bracket(map, x, y, eps)
                point, ss, su = parent_bracket(map, x, y)
                assert torus_distance(b.point, TorusPoint(point)) <= 1e-15
                assert abs(b.s_distance - ss) <= 1e-15 and abs(b.u_distance - su) <= 1e-15

    def test_lps_reports_match_parent_inline_bracket(self, cat, crovisier, rng):
        F = crovisier.as_automorphism()
        period_four = np.array([p.coords for p in cat.fixed_points(4)])
        cases = [
            (cat, SetApprox.build(rng.random((400, 2)), 0.02), 0.1, 0.06, 0.04),
            (cat, SetApprox(period_four, 0.001, _validate=False), 0.24, 0.2, 0.002),
            (golden_map(), SetApprox.build(rng.random((300, 2)), 0.03), 0.2, 0.09, 0.06),
            (F, SetApprox.build(rng.random((600, 4)), 0.05), 0.2, 0.15, 0.1),
            (F, crovisier_set(crovisier, TorusPoint((0.5, 0.0)), TorusPoint((0.0, 0.0)),
                              0.25, 3, 2).as_set_approx(), 0.24, 0.2, 0.125),
        ]
        failing = 0
        for map, sa, eps, delta, tol in cases:
            delta = min(delta, bracket_delta_for(map.splitting, eps))
            got = local_product_check(map, sa, eps, delta, tol)
            want = parent_lps(map, sa, eps, delta, tol)
            assert got.pairs_tested > 0
            assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
            failing += not got.passed
        assert 0 < failing < len(cases)

    @pytest.mark.parametrize("eps, delta, match", [
        (0.25, 0.1, "unique lift"),
        (0.3, 0.1, "unique lift"),
        (0.01, 0.1, "component distances"),
    ])
    def test_bracket_and_lps_refuse_alike(self, cat, eps, delta, match):
        x, y = TorusPoint((0.0, 0.0)), TorusPoint((0.05, 0.0))
        with pytest.raises(BracketError, match=match):
            bracket(cat, x, y, eps, delta)
        with pytest.raises(BracketError, match=match):
            local_product_check(cat, SetApprox(np.array([x.coords, y.coords]), 0.02),
                                eps, delta, 0.04)

    def test_pair_at_delta_refused_by_bracket_and_skipped_by_lps(self, cat):
        # d(x, y) = 0.05 exactly: LPS forms no pair, the kernel refuses the row
        x, y = TorusPoint((0.0, 0.0)), TorusPoint((0.05, 0.0))
        with pytest.raises(BracketError, match=r"d\(x,y\) = 0.05 >= delta"):
            bracket(cat, x, y, 0.2, 0.05)
        sa = SetApprox(np.array([x.coords, y.coords]), 0.02)
        assert local_product_check(cat, sa, 0.2, 0.05, 0.04).pairs_tested == 0
        with pytest.raises(BracketError, match=r"d\(x,y\)"):
            _brackets(cat.splitting, sa.points, sa.points[::-1], 0.2, 0.05)

    def test_kernel_check_order(self, cat):
        s, X, Y = cat.splitting, np.array([[0.0, 0.0]]), np.array([[0.3, 0.0]])
        ill = replace(s, C=1e9)
        for splitting, eps, delta, match in [
            (ill, 0.3, 0.1, "unique lift"),
            (ill, 0.2, 0.1, "conditioning 1.00e\\+09"),
            (s, 0.2, 0.1, r"d\(x,y\) = 0.3 >= delta"),
            (s, 0.01, 0.5, "component distances"),
        ]:
            with pytest.raises(BracketError, match=match):
                _brackets(splitting, X, Y, eps, delta)
        with pytest.raises(BracketError, match=r"d\(x,y\) = nan"):
            _brackets(s, np.array([[np.nan, 0.0]]), Y, 0.2, 0.1)


class TestGridSet:
    def test_full_count(self):
        g = GridSet.full(2, 3)
        assert g.count == 64 and g.width == 0.125

    def test_minus_ball_and_contains(self):
        g = GridSet.full(2, 4).minus_ball(np.array([0.5, 0.5]), 0.1)
        assert g.count < 256
        assert not g.contains(TorusPoint((0.5, 0.5)))
        assert g.contains(TorusPoint((0.0, 0.0)))

    @pytest.mark.parametrize("center, radius", [
        ([0.5, 0.5], np.nan), ([0.5, 0.5], np.inf), ([np.nan, 0.5], 0.1), ([0.5, np.inf], 0.0)])
    def test_minus_ball_refuses_non_finite(self, center, radius):
        with pytest.raises(ValueError, match="ball needs a center of 2 finite coordinates and "
                                             "a finite radius"):
            GridSet.full(2, 2).minus_ball(center, radius)

    @pytest.mark.parametrize("point", [
        [np.nan, 0.1], [0.1, -np.inf], [0.1, 0.2, 0.3], TorusPoint((0.1, 0.2, 0.3))])
    def test_contains_refuses_bad_points_by_name(self, point):
        # NaN used to become an int index and a 3-D point three indices:
        # both raised IndexError
        with pytest.raises(ValueError, match=r"point must have 2 finite coordinates, got \["):
            GridSet.full(2, 2).contains(point)

    def test_rle_roundtrip(self, rng):
        mask = rng.random((16, 16)) < 0.4
        if not mask.any():
            mask[0, 0] = True
        g = GridSet(2, 4, mask)
        back = GridSet.from_rle(g.to_rle())
        assert np.array_equal(back.mask, g.mask)

    @pytest.mark.parametrize("make", [
        lambda: GridSet.full(4, 7),
        lambda: GridSet.from_rle({"dim": 4, "depth": 7, "runs": [[0, 1]]}),
        lambda: GridSet(4, 7, np.ones(1, dtype=bool)),
        lambda: GridSet.full(1, 10**9),
    ])
    def test_grid_past_the_cell_bound_refused_before_allocation(self, make):
        with pytest.raises(ValueError, match=r"^depth \d+ in dimension \d gives 2\^\d+ cells, "
                                             r"above the grid bound of 2\^24$"):
            make()

    def test_grid_at_the_cell_bound_accepted(self):
        assert GridSet.full(2, 12).count == 2 ** 24

    def test_equal_grids_compare_and_hash_equal(self):
        # the dataclass __eq__ compared masks inside a tuple and raised
        # ValueError; __hash__ raised TypeError on the array field
        a, b = GridSet.full(2, 3), GridSet.full(2, 3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_other_mask_differs(self):
        a = GridSet.full(2, 3)
        b = a.minus_ball(np.array([0.5, 0.5]), 0.2)
        assert b.count < a.count
        assert a != b and b != a

    def test_other_depth_differs(self):
        assert GridSet.full(2, 3) != GridSet.full(2, 2)
        # one cell per axis at depth 0: same one-cell mask bytes, other dim
        assert GridSet.full(1, 0) != GridSet.full(2, 0)

    def test_coarsen(self):
        g = GridSet.full(2, 4).minus_ball(np.array([0.25, 0.25]), 0.2)
        coarse = g.coarsen()
        assert coarse.depth == 3
        # occupied children imply occupied parent
        for cell in g.cells():
            assert coarse.mask[tuple(cell // 2)]


class TestMaximalInvariantSet:
    def test_negative_n_iter_refused(self, cat):
        with pytest.raises(ValueError, match="n_iter must be >= 0, got -1"):
            maximal_invariant_set(cat, GridSet.full(2, 2), -1)

    def test_full_torus_invariant(self, cat):
        U = GridSet.full(2, 4)
        out = maximal_invariant_set(cat, U, n_iter=10)
        assert out.count == U.count  # Anosov: I_f(T^2) = T^2

    def test_block_without_invariant_points_empties(self, cat):
        U = GridSet.full(2, 5)
        mask = np.zeros_like(U.mask)
        mask[10:12, 3:5] = True  # block around (0.33, 0.11), no low-period points
        U = GridSet(2, 5, mask)
        centers = U.centers()
        # oracle: every cell center escapes the block quickly
        block_lo, block_hi = 3 / 32, 12 / 32
        for c in centers:
            x = TorusPoint(c)
            escaped = False
            for _ in range(8):
                x = cat.apply(x)
                if not (10 / 32 <= x.coords[0] < 12 / 32 and 3 / 32 <= x.coords[1] < 5 / 32):
                    escaped = True
                    break
            assert escaped
        out = maximal_invariant_set(cat, U, n_iter=20)
        assert out.count == 0

    def test_punctured_torus_keeps_origin(self, cat):
        U = GridSet.full(2, 4).minus_ball(np.array([0.3, 0.7]), 0.08)
        out = maximal_invariant_set(cat, U, n_iter=10)
        assert out.count > 0
        assert out.contains(TorusPoint((0.0, 0.0)))

    def test_idempotence(self, cat):
        U = GridSet.full(2, 4).minus_ball(np.array([0.3, 0.7]), 0.1)
        once = maximal_invariant_set(cat, U, n_iter=30)
        twice = maximal_invariant_set(cat, once, n_iter=5)
        assert np.array_equal(once.mask, twice.mask)

    def test_outer_approximation_contains_periodic_orbits(self, cat):
        # true invariant content of U is a subset of the grid answer
        U = GridSet.full(2, 5).minus_ball(np.array([0.55, 0.85]), 0.05)
        out = maximal_invariant_set(cat, U, n_iter=15)
        for p in cat.fixed_points(2):
            orbit_inside = all(
                U.contains(cat.iterate(p, k)) for k in range(2)
            )
            if orbit_inside:
                assert out.contains(p)

    def test_monotone_under_subdivision(self, cat):
        U4 = GridSet.full(2, 4).minus_ball(np.array([0.3, 0.7]), 0.1)
        # refine the same region so both computations start from one U
        refined = np.repeat(np.repeat(U4.mask, 2, axis=0), 2, axis=1)
        U5 = GridSet(2, 5, refined)
        out4 = maximal_invariant_set(cat, U4, n_iter=8)
        out5 = maximal_invariant_set(cat, U5, n_iter=8)
        # deeper subdivision never adds cells at the coarser projection
        assert not np.any(out5.coarsen().mask & ~out4.mask)


def float_sweep(mask: np.ndarray, M: np.ndarray, depth: int) -> np.ndarray:
    """Byte-equality reference for `maximality._sweep`: the float enclosure
    it replaced, floored to cells and scanned one box offset at a time."""
    dim = mask.ndim
    n = 2 ** depth
    w = 1.0 / n
    idx = np.argwhere(mask)
    if len(idx) == 0:
        return mask.copy()
    centers = (idx + 0.5) * w
    img_c = centers @ M.T
    hw = (np.abs(M) @ np.full(dim, w / 2.0))
    lo = img_c - hw
    hi = img_c + hw
    base = np.floor(lo / w).astype(np.int64)
    span = np.floor(hi / w).astype(np.int64) - base  # per-cell, varies by +-1
    max_span = span.max(axis=0)
    flat = mask.ravel()
    strides = np.array([n ** (dim - 1 - k) for k in range(dim)], dtype=np.int64)
    keep = np.zeros(len(idx), dtype=bool)
    for off in iproduct(*(range(int(s) + 1) for s in max_span)):
        off_arr = np.array(off, dtype=np.int64)
        valid = ~keep & np.all(off_arr <= span, axis=1)
        if not np.any(valid):
            continue
        cells = (base[valid] + off_arr) % n
        keep[valid] = flat[cells @ strides]
    out = np.zeros_like(mask)
    out[tuple(idx[keep].T)] = True
    return out


class TestIntegerSweep:
    @staticmethod
    def _assert_matches(map, mask, depth):
        for M in (map.matrix, map.inverse_matrix):
            got = maximality._sweep(mask, M, depth)
            assert got.dtype == mask.dtype
            assert np.array_equal(got, float_sweep(mask, M.astype(float), depth))

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_crovisier_map_matches_float_sweep(self, crovisier, rng, depth):
        F = crovisier.as_automorphism()
        shape = (2 ** depth,) * 4
        for mask in (rng.random(shape) < 0.7, np.ones(shape, dtype=bool)):
            self._assert_matches(F, mask, depth)

    @pytest.mark.parametrize("matrix", [[[2, 1], [1, 1]], [[1, 1], [1, 0]],
                                        [[3, 1], [2, 1]]])
    @pytest.mark.parametrize("depth", [3, 4, 7])
    def test_planar_maps_match_float_sweep(self, rng, matrix, depth):
        map = ToralAutomorphism(matrix)
        for density in (0.3, 0.7, 1.0):
            self._assert_matches(map, rng.random((2 ** depth,) * 2) < density, depth)

    def test_empty_mask(self, cat):
        self._assert_matches(cat, np.zeros((8, 8), dtype=bool), 3)

    def test_crovisier_set_matches_float_sweep(self, crovisier, monkeypatch):
        q, r = TorusPoint((0.5, 0.0)), TorusPoint((0.0, 0.0))
        exact = crovisier_set(crovisier, q, r, 2 / 16, depth=4, n_iter=4)
        monkeypatch.setattr(maximality, "_sweep", lambda mask, M, depth:
                            float_sweep(mask, M.astype(float), depth))
        reference = crovisier_set(crovisier, q, r, 2 / 16, depth=4, n_iter=4)
        assert exact.count == 65456
        assert np.array_equal(exact.mask, reference.mask)

    def test_boxes_wider_than_the_torus(self):
        # every image box wraps the torus many times over: rolls stop at
        # n - 1 per axis, where the float sweep would scan Π(s_i + 1) ≈ 4·10^16
        # offsets.  No ToralAutomorphism takes this matrix (its float
        # eigenvalues are refused), so the sweep gets it and its exact
        # inverse as `maximal_invariant_set` would pass them.
        k = 10 ** 8
        full = GridSet.full(2, 3).mask
        for M in ([[k + 1, k], [k, k - 1]], [[-(k - 1), k], [k, -(k + 1)]]):
            assert maximality._sweep(full, np.array(M, dtype=np.int64), 3).all()


class TestCrovisierSet:
    def test_zero_radius_full_grid(self, crovisier):
        q = TorusPoint((0.5, 0.0))
        r = TorusPoint((0.0, 0.0))
        out = crovisier_set(crovisier, q, r, v_radius=0.0, depth=3, n_iter=3)
        assert out.count == 8 ** 4

    def test_excludes_puncture_keeps_far_fixed_point(self, crovisier):
        q = TorusPoint((0.5, 0.0))
        r = TorusPoint((0.0, 0.0))
        out = crovisier_set(crovisier, q, r, v_radius=2 / 16, depth=4, n_iter=4)
        assert not out.contains(TorusPoint((0.5, 0.0, 0.0, 0.0)))
        assert out.contains(TorusPoint((0.0, 0.0, 0.0, 0.0)))  # (p, r) stays
        assert 0 < out.count < 16 ** 4

    def test_q_must_be_fixed(self, crovisier):
        with pytest.raises(ValueError, match="not fixed"):
            crovisier_set(crovisier, TorusPoint((0.3, 0.3)), TorusPoint((0.0, 0.0)),
                          v_radius=0.1, depth=3, n_iter=2)

    @pytest.mark.parametrize("q_period", [0, -2, 1.0, True, np.float64(1.0), "1"])
    def test_q_period_must_be_an_integer_at_least_one(self, crovisier, q_period):
        # A^0 fixes every q: the precondition would hold vacuously
        with pytest.raises(ValueError) as info:
            crovisier_set(crovisier, TorusPoint((0.5, 0.0)), TorusPoint((0.0, 0.0)),
                          v_radius=0.1, depth=3, n_iter=2, q_period=q_period)
        assert str(info.value) == (f"q_period must be >= 1, got {q_period}" if q_period in (0, -2)
                                   else f"q_period must be an integer, got {q_period!r}")

    def test_numpy_integer_q_period_accepted(self, crovisier):
        q, r = TorusPoint((0.5, 0.0)), TorusPoint((0.0, 0.0))
        out = crovisier_set(crovisier, q, r, v_radius=0.1, depth=3, n_iter=2,
                            q_period=np.int64(2))
        expected = crovisier_set(crovisier, q, r, v_radius=0.1, depth=3, n_iter=2)
        assert np.array_equal(out.mask, expected.mask)

    def test_nan_radius_rejected(self, crovisier):
        with pytest.raises(ValueError, match="v_radius must be nonnegative, got nan"):
            crovisier_set(crovisier, TorusPoint((0.5, 0.0)), TorusPoint((0.0, 0.0)),
                          v_radius=float("nan"), depth=3, n_iter=2)

    def test_v_swallowing_grid_rejected(self, crovisier):
        with pytest.raises(ValueError, match="swallows"):
            crovisier_set(crovisier, TorusPoint((0.5, 0.0)), TorusPoint((0.0, 0.0)),
                          v_radius=1.1, depth=3, n_iter=2)

    def test_cat_map_variant_with_period_two_q(self, product):
        # the spec's default pairing: cat-map A has no second fixed point, so
        # q is realized as a period-2 point
        q = TorusPoint((0.8, 0.6))
        r = TorusPoint((0.0, 0.0))
        out = crovisier_set(product, q, r, v_radius=0.1, depth=3, n_iter=3,
                            q_period=2)
        assert 0 < out.count <= 8 ** 4


def family_loop(map, seg, n_window):
    """Reference: the rows of `_family_from_segment` as a forward and a
    backward loop of batch steps over the whole segment."""
    rows, fwd = [wrap(seg)], wrap(seg)
    for _ in range(n_window):
        fwd = map.apply_array(fwd)
        rows.append(fwd)
    bwd_rows, bwd = [], wrap(seg)
    for _ in range(n_window):
        bwd = map.apply_inverse_array(bwd)
        bwd_rows.append(bwd)
    return np.stack(bwd_rows[::-1] + rows)


class TestWitness:
    def test_constant_family_inside_set(self, cat):
        lam = SetApprox(np.array([[0.0, 0.0]]), 0.01)
        fam = constant_family(cat, TorusPoint((0.0, 0.0)), n_window=20,
                              n_params=9, a=0.2)
        report = verify_nonpremax_witness(cat, lam, fam, tol=1e-6)
        assert report.conditions() == (True, True, True, False)

    def test_unstable_segments_do_not_return(self, cat):
        lam = SetApprox(np.array([[0.0, 0.0]]), 0.01)
        fam = unstable_segment_family(cat, TorusPoint((0.0, 0.0)), a=0.2,
                                      n_window=20, n_params=17)
        report = verify_nonpremax_witness(cat, lam, fam, tol=0.01)
        assert report.exact_orbit and report.base_in_set and report.leaves_set
        assert not report.uniform_approach

    def test_product_heteroclinic_family_all_four_pass(self, crovisier):
        # Lambda: net of the two invariant pieces {q} x T^2 and T^2 x {r}
        q = TorusPoint((0.5, 0.0))
        r = TorusPoint((0.0, 0.0))
        n = 16
        grid = np.stack(np.meshgrid(*(np.arange(n) / n,) * 2), -1).reshape(-1, 2)
        fiber_q = np.hstack([np.tile(q.coords, (len(grid), 1)), grid])
        slab_r = np.hstack([grid, np.tile(r.coords, (len(grid), 1))])
        lam = SetApprox.build(np.vstack([fiber_q, slab_r]), resolution=1 / n,
                              label="fiber-union")
        fam = b_direction_heteroclinic_family(
            crovisier, q, r, s_offset=0.25, a=0.2, n_window=30, n_params=21
        )
        report = verify_nonpremax_witness(crovisier.as_automorphism(), lam, fam,
                                          tol=1 / n)
        assert report.conditions() == (True, True, True, True), report.details

    def test_families_match_the_loop(self, orbit_maps):
        for name, f in orbit_maps.items():
            for seed in (0, 1):
                center = TorusPoint(np.random.default_rng(seed).random(f.dim))
                for n_window in (0, 3, 12):
                    fam = unstable_segment_family(f, center, 0.2, n_window, 7)
                    v = f.splitting.unstable_basis[:, 0]
                    seg = center.coords[None, :] + np.linspace(0.0, 0.2, 7)[:, None] * v[None, :]
                    assert fam.xi.tobytes() == family_loop(f, seg, n_window).tobytes(), name
                    fam = constant_family(f, center, n_window, 4, 0.2)
                    seg = np.tile(center.coords, (4, 1))
                    assert fam.xi.tobytes() == family_loop(f, seg, n_window).tobytes(), name
                    assert fam.n_start == -n_window

    def test_witness_window_must_contain_zero(self):
        with pytest.raises(ValueError, match="contain n = 0"):
            NonPremaxWitness(np.zeros((3, 2, 2)), n_start=1, a=0.1)
