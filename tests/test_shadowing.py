import gc
import json
import sys
import weakref
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from shadowbench.closure import SamplingParams, SetApprox, build_graph, sample_pseudo_orbits
from shadowbench.shadowing import (
    FlowPseudoTrajectory,
    FlowShadowResult,
    PseudoOrbit,
    ShadowResult,
    ShadowingRefusal,
    _adapted_blocks,
    _cyclic_matrices,
    _defect,
    _max_defect,
    _newton_jacobian,
    _newton_lu,
    _power,
    _series_corrections,
    _shadow_windows,
    _step_pairs,
    exact_shadow_linear,
    expansivity_test,
    flow_defect,
    flow_shadow,
    newton_shadow,
    pseudo_orbit_defect,
    shadow_operator,
    shift_pseudo,
    suspend_pseudo_orbit,
)
from shadowbench.torus import (
    SuspensionFlow,
    ToralAutomorphism,
    TorusPoint,
    minimal_lift,
    torus_distance,
    torus_distance_array,
    wrap,
)


def noisy_orbit(map, rng, length, eps, start=None):
    """Pseudo-orbit with each step perturbed by a vector of norm < eps."""
    x = rng.random(map.dim) if start is None else np.asarray(start, float)
    pts = [x]
    for _ in range(length - 1):
        direction = rng.standard_normal(map.dim)
        direction *= rng.uniform(0, eps) / np.linalg.norm(direction)
        x = wrap(map.matrix.astype(float) @ x + direction)
        pts.append(x)
    return np.array(pts)


def lifted_errors(map, po):
    """e_j = x_{j+1} - A x_j lifted minimally: the errors the exact series takes."""
    images, successors = _step_pairs(map, po.points, po.periodic)
    return minimal_lift(successors - images)


class TestDefect:
    def test_true_orbit_zero_defect(self, cat):
        pts = cat.orbit_segment(TorusPoint((0.1, 0.2)), 0, 30)
        assert pseudo_orbit_defect(cat, pts) < 1e-12

    def test_single_step_definition(self, cat):
        pts = np.array([[0.0, 0.0], [0.01, 0.0]])
        assert pseudo_orbit_defect(cat, pts) == pytest.approx(0.01, abs=1e-15)

    def test_noise_bound(self, cat, rng):
        # perturbing orbit points by vectors of norm <= amp gives defect
        # d(A(x+n_j), x_{j+1}+n_{j+1}) <= (||A||_2 + 1) * amp
        amp = 1e-3
        exact = cat.orbit_segment(TorusPoint(rng.random(2)), 0, 50)
        noise = rng.standard_normal(exact.shape)
        noise *= (amp * rng.random((len(exact), 1))) / np.linalg.norm(noise, axis=1, keepdims=True)
        defect = pseudo_orbit_defect(cat, wrap(exact + noise))
        bound = (np.linalg.norm(cat.matrix.astype(float), 2) + 1.0) * amp
        assert 0 < defect <= bound

    def test_needs_two_points(self, cat):
        with pytest.raises(ValueError):
            pseudo_orbit_defect(cat, np.zeros((0, 2)))

    def test_wrong_dimension_named(self, cat):
        pts = np.full((4, 3), 0.25)
        with pytest.raises(ValueError, match="map is 2-d, points are 3-d"):
            PseudoOrbit.from_map(cat, pts)
        with pytest.raises(ValueError, match="map is 2-d, points are 3-d"):
            pseudo_orbit_defect(cat, pts)
        for shadow in (exact_shadow_linear, newton_shadow, shadow_operator):
            with pytest.raises(ValueError, match="map is 2-d, points are 3-d"):
                shadow(cat, PseudoOrbit(pts))


class TestExactShadow:
    def test_true_orbit_shadows_itself(self, cat):
        pts = cat.orbit_segment(TorusPoint((0.3, 0.55)), -10, 10)
        po = PseudoOrbit.from_map(cat, pts, start_index=-10)
        res = exact_shadow_linear(cat, po)
        assert res.sup_distance < 1e-12
        assert torus_distance(res.point, TorusPoint((0.3, 0.55))) < 1e-12

    @pytest.mark.parametrize("shadow", [exact_shadow_linear, newton_shadow])
    def test_one_point_segment_is_its_own_shadow(self, product, shadow):
        po = PseudoOrbit(np.array([[0.3, 0.7, 0.1, 0.9]]))
        res = shadow(product.as_automorphism(), po)
        assert np.array_equal(res.orbit, po.points)
        assert res.sup_distance == 0.0 and res.residual == 0.0
        assert res.converged and res.iterations == (shadow is newton_shadow)

    def test_single_error_k_bound_and_newton_cross_check(self, cat, rng):
        # length 41 centered at index 0, one injected error of 1e-4 at index 0
        eps = 1e-4
        pts = cat.orbit_segment(TorusPoint(rng.random(2)), -20, 0)
        x = pts[-1]
        direction = rng.standard_normal(2)
        x = wrap(cat.matrix.astype(float) @ x + eps * direction / np.linalg.norm(direction) * 0.999)
        tail = [x]
        for _ in range(19):
            x = wrap(cat.matrix.astype(float) @ x)
            tail.append(x)
        po = PseudoOrbit.from_map(cat, np.vstack([pts, tail]), start_index=-20)
        assert 0 < pseudo_orbit_defect(cat, po.points) <= eps
        res = exact_shadow_linear(cat, po)
        K = cat.splitting.shadow_bound(adapted=False)
        assert K == pytest.approx(2.2360679, abs=1e-6)
        assert res.sup_distance <= K * eps
        newton = newton_shadow(cat, po)
        assert torus_distance(res.point, newton.point) < 1e-10

    def test_periodic_two_cycle_against_affine_fixed_point_solve(self, cat):
        # brute-force oracle: periodic corrections solve (I - A^2) u0 = -(A e0 + e1)
        cycle = np.array([[0.80, 0.60], [0.21, 0.40]])  # near the genuine 2-cycle
        po = PseudoOrbit.from_map(cat, cycle, periodic=True)
        A = cat.matrix.astype(float)
        e0 = minimal_lift(cycle[1] - A @ cycle[0])
        e1 = minimal_lift(cycle[0] - A @ cycle[1])
        u0 = np.linalg.solve(np.eye(2) - A @ A, -(A @ e0 + e1))
        expected = wrap(cycle[0] + u0)
        res = exact_shadow_linear(cat, po)
        assert torus_distance(res.point, TorusPoint(expected)) < 1e-12
        # the shadow is a genuine periodic orbit
        p2 = cat.iterate(res.point, 2)
        assert torus_distance(p2, res.point) < 1e-10

    def test_refusal_above_gate(self, cat):
        pts = np.array([[0.0, 0.0], [0.4, 0.0], [0.0, 0.4]])
        po = PseudoOrbit.from_map(cat, pts)
        assert pseudo_orbit_defect(cat, pts) > cat.splitting.max_shadow_defect
        with pytest.raises(ShadowingRefusal):
            exact_shadow_linear(cat, po)

    def test_gate_override(self, cat):
        pts = np.array([[0.0, 0.0], [0.4, 0.0], [0.0, 0.4]])
        po = PseudoOrbit.from_map(cat, pts)
        res = exact_shadow_linear(cat, po, max_defect=np.inf)
        assert res.residual < 1e-10  # still an exact orbit, just a loose shadow

    def test_shadow_bound_across_defect_scales(self, cat, rng):
        K = cat.splitting.shadow_bound(adapted=False)
        for eps in (1e-2, 1e-3, 1e-4):
            for _ in range(20):
                po = PseudoOrbit.from_map(cat, noisy_orbit(cat, rng, 120, eps))
                res = exact_shadow_linear(cat, po)
                assert res.sup_distance <= K * max(pseudo_orbit_defect(cat, po.points), 1e-300)

    def test_periodic_long_cycle_numerically_stable(self, cat, rng):
        po = PseudoOrbit.from_map(cat, noisy_orbit(cat, rng, 400, 1e-3), periodic=False)
        pts = po.points
        # close it up into a periodic pseudo-orbit by jumping back to the start
        gap = torus_distance_array(cat.apply_array(pts[-1:]), pts[:1])[0]
        if gap < cat.splitting.max_shadow_defect:
            per = PseudoOrbit.from_map(cat, pts, periodic=True)
            res = exact_shadow_linear(cat, per)
            assert res.residual < 1e-9


class TestNewtonShadow:
    def test_true_orbit_converges_immediately(self, cat):
        pts = cat.orbit_segment(TorusPoint((0.12, 0.34)), 0, 40)
        po = PseudoOrbit.from_map(cat, pts)
        res = newton_shadow(cat, po)
        assert res.converged and res.iterations <= 1
        assert torus_distance(res.point, TorusPoint((0.12, 0.34))) < 1e-12

    def test_matches_exact_linear_formula(self, cat, rng):
        for _ in range(30):
            po = PseudoOrbit.from_map(cat, noisy_orbit(cat, rng, 100, 1e-3))
            exact = exact_shadow_linear(cat, po)
            newton = newton_shadow(cat, po)
            assert newton.converged
            assert torus_distance(exact.point, newton.point) < 1e-10
            assert newton.residual < 1e-10

    def test_matches_exact_on_periodic(self, cat, rng):
        cycle = wrap(np.array([[0.8, 0.6], [0.2, 0.4]]) + rng.uniform(-1e-3, 1e-3, (2, 2)))
        po = PseudoOrbit.from_map(cat, cycle, periodic=True)
        exact = exact_shadow_linear(cat, po)
        newton = newton_shadow(cat, po)
        assert torus_distance(exact.point, newton.point) < 1e-10

    def test_refusal_above_gate(self, cat):
        pts = np.array([[0.0, 0.0], [0.4, 0.0], [0.0, 0.4]])
        po = PseudoOrbit.from_map(cat, pts)
        assert pseudo_orbit_defect(cat, pts) >= 0.4 - 1e-12
        with pytest.raises(ShadowingRefusal):
            newton_shadow(cat, po)

    def test_non_convergence_reported_not_raised(self, cat, rng, monkeypatch):
        monkeypatch.setattr("shadowbench.shadowing._NEWTON_MAX_ITER", 0)
        po = PseudoOrbit.from_map(cat, noisy_orbit(cat, rng, 40, 1e-3))
        res = newton_shadow(cat, po)
        assert not res.converged and res.iterations == 1
        # no step taken: the orbit is the pseudo-orbit, whose residual is its defect
        assert res.orbit.tobytes() == po.points.tobytes()
        assert res.residual > 1e-12

    def test_product_system_four_dimensional(self, product, rng):
        F = product.as_automorphism()
        x = rng.random(4)
        pts = [x]
        for _ in range(60):
            x = wrap(F.matrix.astype(float) @ x + rng.uniform(-5e-4, 5e-4, 4))
            pts.append(x)
        po = PseudoOrbit.from_map(F, np.array(pts))
        exact = exact_shadow_linear(F, po)
        newton = newton_shadow(F, po)
        assert newton.converged
        assert torus_distance(exact.point, newton.point) < 1e-10


class TestMeasuredGate:
    """Every shadower gates on the defect it measures from the points under
    the map it is given, once per pseudo-orbit and map."""

    @pytest.mark.parametrize("shadow", [exact_shadow_linear, newton_shadow, shadow_operator])
    def test_random_rows_refused_with_their_defect(self, cat, shadow):
        # a declared defect of 0 let these rows through, at sup distance 0.575
        pts = np.random.default_rng(0).random((50, 2))
        with pytest.raises(ShadowingRefusal) as info:
            shadow(cat, PseudoOrbit(pts))
        assert info.value.defect == pseudo_orbit_defect(cat, pts) == 0.6960055446115904
        assert info.value.limit == cat.splitting.max_shadow_defect

    def test_measured_per_map(self, cat, golden):
        po = PseudoOrbit.from_map(cat, cat.orbit_segment(TorusPoint((0.3, 0.55)), -10, 10),
                                  start_index=-10)
        assert exact_shadow_linear(cat, po).sup_distance < 1e-12
        with pytest.raises(ShadowingRefusal) as info:
            exact_shadow_linear(golden, po)
        assert info.value.defect == pseudo_orbit_defect(golden, po.points)
        assert info.value.limit == golden.splitting.max_shadow_defect

    @staticmethod
    def _counted(monkeypatch):
        calls = []

        def counted(*pairs):
            calls.append(pairs[0].shape)
            return _max_defect(*pairs)

        monkeypatch.setattr("shadowbench.shadowing._max_defect", counted)
        return calls

    def test_one_measurement_over_a_verify_item(self, cat, rng, monkeypatch):
        # the calls of one benchmark shadow-verify item
        calls = self._counted(monkeypatch)
        po = PseudoOrbit.from_map(cat, noisy_orbit(cat, rng, 200, 1e-3), start_index=-100)
        exact = exact_shadow_linear(cat, po)
        newton = newton_shadow(cat, po)
        shadow_operator(cat, shift_pseudo(po, 1))
        shadow_operator(cat, po)
        assert calls == [(199, 2)]
        assert exact.converged and newton.converged

    def test_periodic_shift_measures_the_rolled_rows(self, cat, monkeypatch):
        rows, x = [], (1, 0)  # the period-10 orbit of (1/5, 0), with noise
        for _ in range(10):
            rows.append(x)
            x = ((2 * x[0] + x[1]) % 5, (x[0] + x[1]) % 5)
        pts = wrap(np.array(rows) / 5 + np.random.default_rng(1).uniform(-1e-3, 1e-3, (10, 2)))
        po = PseudoOrbit.from_map(cat, pts, periodic=True)
        shadow_operator(cat, po)
        calls = self._counted(monkeypatch)
        shifted = shift_pseudo(po, 3)
        shadow_operator(cat, shifted)
        shadow_operator(cat, shifted)
        assert calls == [(10, 2)]
        rolled = pseudo_orbit_defect(cat, np.roll(pts, -3, axis=0), periodic=True)
        assert shifted._defects == {cat.matrix.tobytes(): rolled}

    def test_defect_argument_refused(self):
        # the declared defect is gone; a positional second argument would
        # otherwise read as `periodic`
        with pytest.raises(TypeError):
            PseudoOrbit(np.zeros((3, 2)), 0.05)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_empty_refused(self, cat, periodic):
        empty = np.empty((0, 2))
        for build in (lambda: PseudoOrbit(empty, periodic=periodic),
                      lambda: PseudoOrbit.from_map(cat, empty, periodic=periodic),
                      lambda: pseudo_orbit_defect(cat, empty, periodic=periodic),
                      lambda: FlowPseudoTrajectory(empty, np.empty(0), h=1.0)):
            with pytest.raises(ValueError, match="need at least one point"):
                build()

    def test_value_equality_and_hash(self, cat, rng):
        pts = noisy_orbit(cat, rng, 20, 1e-3)
        a = PseudoOrbit.from_map(cat, pts, start_index=-10)
        b = PseudoOrbit(pts.copy(), start_index=-10)
        exact_shadow_linear(cat, a)  # the measured defect takes no part
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert "_defects" not in repr(a)
        for other in (PseudoOrbit(pts, start_index=-9),
                      PseudoOrbit(pts, periodic=True, start_index=-10),
                      PseudoOrbit(wrap(pts + 1e-9), start_index=-10)):
            assert a != other
        assert a != pts.tolist()


def series_loop(map, errors, n, periodic):
    """Reference: the per-orbit time loop of `exact_shadow_linear` before the
    batched kernel; corrections (n, d) from one orbit's lifted errors."""
    s = map.splitting
    d = map.dim
    ds = s.stable_dim
    A_ad = s.basis_inv @ map.matrix.astype(float) @ s.basis
    As, Au = A_ad[:ds, :ds], A_ad[ds:, ds:]
    Au_inv = np.linalg.inv(Au)
    eta = errors @ s.basis_inv.T
    eta_s, eta_u = eta[:, :ds], eta[:, ds:]

    zeta_s = np.zeros((n, ds))
    zeta_u = np.zeros((n, d - ds))
    if periodic:
        run = np.zeros(ds)
        Ms = np.eye(ds)
        for j in range(n):
            run = As @ run - eta_s[j]
            Ms = As @ Ms
        zeta_s[0] = np.linalg.solve(np.eye(ds) - Ms, run)

        du = d - ds
        run = np.zeros(du)
        Mu = np.eye(du)
        for j in range(n - 1, -1, -1):
            run = Au_inv @ (run + eta_u[j])
            Mu = Au_inv @ Mu
        zeta_u[0] = np.linalg.solve(np.eye(du) - Mu, run)

    for j in range(n - 1):
        zeta_s[j + 1] = As @ zeta_s[j] - eta_s[j]
    for j in reversed(range(int(periodic), len(eta))):
        zeta_u[j] = Au_inv @ (zeta_u[(j + 1) % n] + eta_u[j])
    return np.hstack([zeta_s, zeta_u]) @ s.basis.T


# 3-D maps with a 1x1 stable and 2x2 unstable block, and the reverse
THREE_D = {"3d_stable1": [[2, 1, 0], [1, 1, 1], [0, 1, 1]],
           "3d_stable2": [[2, 1, 1], [1, 1, 0], [1, 0, 0]]}


@pytest.fixture(params=["cat", "golden", "3d_stable1", "3d_stable2", "crovisier"])
def series_map(request):
    if request.param in THREE_D:
        map = ToralAutomorphism(THREE_D[request.param])
        assert map.splitting.stable_dim == int(request.param[-1])
        return map
    fixture = request.getfixturevalue(request.param)
    return fixture.as_automorphism() if request.param == "crovisier" else fixture


def assert_kernel_matches_loop(map, errors, n, periodic):
    """The kernel on the whole stack (m > 1, numpy row operations) and on
    each orbit alone (m = 1: Python floats on a 2-D map, numpy rows
    otherwise) gives the reference loop's corrections bit for bit."""
    stacked = _series_corrections(map, errors, n, periodic)
    assert stacked.shape == (len(errors), n, map.dim)
    for k, orbit_errors in enumerate(errors):
        expected = series_loop(map, orbit_errors, n, periodic).tobytes()
        assert stacked[k].tobytes() == expected
        assert _series_corrections(map, orbit_errors[None], n, periodic)[0].tobytes() == expected


def cat_closure_samples(cat):
    """Pseudo-orbits sampled on a 7 x 7 net around the fixed point (0, 0),
    grouped by (length, periodic) in sample order."""
    axis = np.arange(-3, 4) * 0.011
    sa = SetApprox(wrap(np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)), 0.02)
    sampled = sample_pseudo_orbits(build_graph(cat, sa, 0.025),
                                   params=SamplingParams(max_cycle_len=3, n_paths=12,
                                                         path_len=6, seed=2))
    groups: dict = {}
    for po in sampled.orbits:
        groups.setdefault((len(po), po.periodic), []).append(po)
    return groups


class TestSeriesKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 40, 200])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_matches_loop(self, series_map, n, periodic, rng):
        # n = 1 periodic is a one-point cycle and n = 2 a single-step
        # segment: the edge cases of the scalar route that the m = 1 calls
        # take on 2-D maps; n = 200 is a long single orbit
        orbits = [PseudoOrbit(noisy_orbit(series_map, rng, n, 1e-2), periodic=periodic)
                  for _ in range(6)]
        errors = np.stack([lifted_errors(series_map, po) for po in orbits])
        assert_kernel_matches_loop(series_map, errors, n, periodic)

    def test_true_orbits_and_empty_stack(self, series_map):
        d = series_map.dim
        assert_kernel_matches_loop(series_map, np.zeros((3, 4, d)), 4, True)
        assert_kernel_matches_loop(series_map, np.zeros((3, 3, d)), 4, False)
        assert _series_corrections(series_map, np.zeros((0, 4, d)), 4, True).shape == (0, 4, d)

    def test_exact_shadow_is_the_loop_result(self, series_map, rng):
        for periodic in (False, True):
            po = PseudoOrbit.from_map(series_map, noisy_orbit(series_map, rng, 30, 1e-3),
                                      periodic=periodic)
            res = exact_shadow_linear(series_map, po, max_defect=np.inf)
            corrections = series_loop(series_map, lifted_errors(series_map, po), len(po),
                                      periodic)
            ref = ShadowResult(series_map, po, wrap(po.points + corrections), converged=True,
                               iterations=0, method="exact")
            assert res.orbit.tobytes() == ref.orbit.tobytes()
            assert res.per_index.tobytes() == ref.per_index.tobytes()
            assert res.sup_distance_adapted == ref.sup_distance_adapted

    def test_cat_closure_samples(self, cat):
        groups = cat_closure_samples(cat)
        assert any(p and len(g) > 1 for (_, p), g in groups.items())
        assert any(not p and len(g) > 1 for (_, p), g in groups.items())
        for (n, periodic), orbits in groups.items():
            X = np.stack([po.points for po in orbits])
            images, successors = _step_pairs(cat, X, periodic)
            errors = minimal_lift(successors - images)
            for po, orbit_errors in zip(orbits, errors):
                assert orbit_errors.tobytes() == lifted_errors(cat, po).tobytes()
            assert_kernel_matches_loop(cat, errors, n, periodic)

    @pytest.mark.parametrize("matrix", [[[2, 1], [1, 1]], THREE_D["3d_stable1"],
                                        THREE_D["3d_stable2"]])
    def test_cyclic_matrices_memoized_per_period(self, matrix, rng):
        # a fresh map, so that the first periodic call below builds I - B^n
        map = ToralAutomorphism(matrix)
        periods = (1, 2, 7, 40)
        for n in periods:
            errors = np.stack([lifted_errors(map, PseudoOrbit(
                noisy_orbit(map, rng, n, 1e-2), periodic=True)) for _ in range(3)])
            expected = [series_loop(map, e, n, True).tobytes() for e in errors]
            _series_corrections(map, errors[:, 1:], n, False)  # a segment builds none
            assert ("cyclic_matrices", n) not in map._memo
            for _ in range(2):  # first call builds, the repeat reads the memo
                stacked = _series_corrections(map, errors, n, True)
                assert [c.tobytes() for c in stacked] == expected
                assert _series_corrections(map, errors[:1], n, True)[0].tobytes() == expected[0]
                mats = map._memo[("cyclic_matrices", n)]
                assert _cyclic_matrices(map, n) is mats
            for M, B in zip(mats, _adapted_blocks(map)):
                assert M.tobytes() == (np.eye(len(B)) - _power(B, n)).tobytes()
                assert not M.flags.writeable
        assert sorted(k[1] for k in map._memo
                      if isinstance(k, tuple) and k[0] == "cyclic_matrices") == list(periods)

    def test_closure_windows_match_per_orbit_gate_and_loop(self, cat):
        groups = cat_closure_samples(cat)
        defects = {id(po): pseudo_orbit_defect(cat, po.points, periodic=po.periodic)
                   for orbits in groups.values() for po in orbits}
        # the gate admits every sample, about half of them, then none
        for limit in (np.inf, float(np.median(list(defects.values()))), 0.0):
            admitted_any = refused_any = False
            for (n, periodic), orbits in groups.items():
                windows, admitted = _shadow_windows(
                    cat, np.stack([po.points for po in orbits]), periodic, limit)
                assert admitted.tolist() == [defects[id(po)] < limit for po in orbits]
                expected = [wrap(po.points + series_loop(cat, lifted_errors(cat, po),
                                                         n, periodic))
                            for po, ok in zip(orbits, admitted) if ok]
                assert windows.shape == (len(expected), n, 2)
                assert [w.tobytes() for w in windows] == [w.tobytes() for w in expected]
                admitted_any |= bool(admitted.any())
                refused_any |= not admitted.all()
            assert (admitted_any, refused_any) == (limit > 0, limit < np.inf)


class TestNewtonJacobian:
    @staticmethod
    def _dense_reference(map, n, periodic):
        d, ds = map.dim, map.splitting.stable_dim
        A, minus_I = map.matrix.astype(float), -np.eye(d)
        if periodic:
            return np.kron(np.eye(n), A) + np.kron(np.roll(np.eye(n), 1, axis=1), minus_I)
        orbit_rows = np.kron(np.eye(n - 1, n), A) + np.kron(np.eye(n - 1, n, k=1), minus_I)
        clamp = np.zeros((d, n * d))
        clamp[:ds, :d] = map.splitting.basis_inv[:ds]
        clamp[ds:, -d:] = map.splitting.basis_inv[ds:]
        return np.vstack([orbit_rows, clamp])

    @pytest.mark.parametrize("system", ["cat", "crovisier"])
    @pytest.mark.parametrize("n, periodic", [(5, False), (2, False), (5, True),
                                             (2, True), (1, True)])
    def test_matches_dense_blocks_with_explicit_zeros(self, system, n, periodic, request):
        fixture = request.getfixturevalue(system)
        map = fixture.as_automorphism() if system == "crovisier" else fixture
        d = map.dim
        J = _newton_jacobian(map, n, periodic)
        assert np.array_equal(J.toarray(), self._dense_reference(map, n, periodic))
        if periodic:
            expected_nnz = d * d if n == 1 else 2 * n * d * d
        else:
            expected_nnz = 2 * (n - 1) * d * d + d * d
        assert J.nnz == expected_nnz


def newton_loop(map, po, tol=1e-12, max_iter=20):
    """Reference: `newton_shadow` before the per-map factorization, which
    rebuilt the Jacobian and ran `spsolve` on it in every iteration."""
    s = map.splitting
    n, d = po.points.shape
    ds = s.stable_dim
    x = po.points
    n_eq = n if po.periodic else n - 1

    def residual_rows(v):
        y = wrap(x + v)
        images = map.apply_array(y)
        if po.periodic:
            return minimal_lift(images - np.roll(y, -1, axis=0))
        return minimal_lift(images[:-1] - y[1:])

    v = np.zeros((n, d))
    res = residual_rows(v)
    res_norm = float(np.max(np.linalg.norm(res, axis=1))) if len(res) else 0.0
    iterations = 0
    converged = res_norm < tol
    while not converged and iterations < max_iter:
        J = _newton_jacobian(map, n, po.periodic)
        rhs = np.zeros(n * d)
        rhs[: n_eq * d] = -res.ravel()
        if not po.periodic:
            rhs[n_eq * d: n_eq * d + ds] = -(s.basis_inv[:ds, :] @ v[0])
            rhs[n_eq * d + ds:] = -(s.basis_inv[ds:, :] @ v[n - 1])
        v = v + spla.spsolve(J, rhs).reshape(n, d)
        res = residual_rows(v)
        res_norm = float(np.max(np.linalg.norm(res, axis=1))) if len(res) else 0.0
        iterations += 1
        converged = res_norm < tol
    return ShadowResult(map, po, wrap(x + v), converged=converged,
                        iterations=max(iterations, 1), method="newton")


class TestNewtonFactorization:
    def test_matches_spsolve_loop(self, series_map, rng):
        # two passes over every (n, periodic), each on fresh orbits: the
        # second pass solves with the factorizations memoized by the first,
        # interleaved across lengths and kinds
        for _ in range(2):
            for n in (1, 2, 3, 5, 40, 200):
                for periodic in (False, True):
                    po = PseudoOrbit.from_map(series_map,
                                              noisy_orbit(series_map, rng, n, 1e-3),
                                              periodic=periodic)
                    res = newton_shadow(series_map, po, max_defect=np.inf)
                    ref = newton_loop(series_map, po)
                    assert res.orbit.tobytes() == ref.orbit.tobytes()
                    assert res.per_index.tobytes() == ref.per_index.tobytes()
                    assert res.residual == ref.residual
                    assert (res.iterations, res.converged) == (ref.iterations, ref.converged)

    def test_memo_dies_with_the_map(self, rng):
        map = ToralAutomorphism([[2, 1], [1, 1]])
        po = PseudoOrbit.from_map(map, noisy_orbit(map, rng, 20, 1e-3))
        exact_shadow_linear(map, po)
        newton_shadow(map, po)
        block_refs = [weakref.ref(B) for B in _adapted_blocks(map)]
        lu = _newton_lu(map, len(po), po.periodic)
        lu_refs = sys.getrefcount(lu)
        map_ref = weakref.ref(map)
        del map
        gc.collect()
        assert map_ref() is None
        assert all(ref() is None for ref in block_refs)
        assert sys.getrefcount(lu) == lu_refs - 1  # the map's reference is gone


@dataclass(frozen=True)
class EagerResult:
    """Reference: `ShadowResult` as it was when every value was stored."""

    point: TorusPoint
    sup_distance: float
    per_index: np.ndarray
    start_index: int
    converged: bool
    iterations: int
    orbit: np.ndarray = field(repr=False)
    sup_distance_adapted: float = 0.0
    residual: float = 0.0
    method: str = "exact"

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "converged": self.converged,
            "iterations": self.iterations,
            "sup_distance": self.sup_distance,
            "sup_distance_adapted": self.sup_distance_adapted,
            "residual": self.residual,
            "start_index": self.start_index,
            "point": self.point.coords.tolist(),
            "per_index": [
                {"index": int(j), "distance": float(v)}
                for j, v in zip(
                    range(self.start_index, self.start_index + len(self.per_index)),
                    self.per_index,
                )
            ],
        }


def _result_from_orbit(map: ToralAutomorphism, po: PseudoOrbit, corrections: np.ndarray,
                       *, iterations: int, converged: bool, method: str) -> EagerResult:
    """Reference: the eager result builder that every shadower called."""
    s = map.splitting
    orbit = wrap(po.points + corrections)
    per_index = torus_distance_array(orbit, po.points)
    lifts = minimal_lift(orbit - po.points)
    adapted = float(np.max(np.linalg.norm(lifts @ s.basis_inv.T, axis=1)))
    zero_idx = (0 - po.start_index) % len(po) if po.periodic else -po.start_index
    return EagerResult(
        point=TorusPoint(orbit[zero_idx]),
        sup_distance=float(np.max(per_index)),
        per_index=per_index,
        start_index=po.start_index,
        converged=converged,
        iterations=iterations,
        orbit=orbit,
        sup_distance_adapted=adapted,
        residual=_defect(map, orbit, po.periodic),
        method=method,
    )


@pytest.fixture(params=["cat", "golden", "3-1-2-1", "3d_stable1", "3d_stable2", "crovisier"])
def result_map(request):
    if request.param == "3-1-2-1":
        return ToralAutomorphism([[3, 1], [2, 1]])
    if request.param in THREE_D:
        return ToralAutomorphism(THREE_D[request.param])
    fixture = request.getfixturevalue(request.param)
    return fixture.as_automorphism() if request.param == "crovisier" else fixture


class TestShadowResult:
    def test_stores_the_orbit_and_the_solver_outcome_only(self):
        assert [f.name for f in fields(ShadowResult)] == [
            "map", "pseudo_orbit", "orbit", "converged", "iterations", "method"]
        assert all(f.default is MISSING and f.default_factory is MISSING
                   for f in fields(ShadowResult))

    # (periodic, index window): a segment starting at 0, centred, or ending at
    # 0, and a periodic orbit indexed from 0 or from 7
    @pytest.mark.parametrize("periodic, window", [(False, "first"), (False, "centre"),
                                                  (False, "last"), (True, 0), (True, 7)])
    def test_derived_values_match_eager_builder(self, result_map, periodic, window, rng):
        map = result_map
        for n in (1, 2, 5, 40, 200):
            start = {"first": 0, "centre": -(n // 2), "last": -(n - 1)}.get(window, window)
            po = PseudoOrbit.from_map(map, noisy_orbit(map, rng, n, 1e-3), periodic=periodic,
                                      start_index=start)
            series = _series_corrections(map, lifted_errors(map, po)[None], n, periodic)[0]
            exact = exact_shadow_linear(map, po, max_defect=np.inf)
            assert exact.orbit.tobytes() == wrap(po.points + series).tobytes()
            # the series shadow, and a window that is no orbit (residual > 0)
            loose = 1e-3 * rng.standard_normal((n, map.dim))
            for corrections, outcome in ((series, (0, True, "exact")),
                                         (loose, (4, False, "newton"))):
                iterations, converged, method = outcome
                ref = _result_from_orbit(map, po, corrections, iterations=iterations,
                                         converged=converged, method=method)
                res = ShadowResult(map, po, wrap(po.points + corrections),
                                   converged=converged, iterations=iterations, method=method)
                assert_matches_eager(res, ref)
            assert_matches_eager(exact, _result_from_orbit(
                map, po, series, iterations=0, converged=True, method="exact"))

    def test_newton_result_matches_eager_builder(self, result_map, rng):
        for periodic, start in ((False, -20), (True, 3)):
            po = PseudoOrbit.from_map(result_map, noisy_orbit(result_map, rng, 40, 1e-3),
                                      periodic=periodic, start_index=start)
            res = newton_shadow(result_map, po, max_defect=np.inf)
            ref = _result_from_orbit(result_map, po, res.orbit - po.points,
                                     iterations=res.iterations, converged=res.converged,
                                     method="newton")
            assert_matches_eager(res, ref)


def assert_matches_eager(res, ref):
    assert res.orbit.tobytes() == ref.orbit.tobytes()
    assert res.point.coords.tobytes() == ref.point.coords.tobytes()
    assert res.per_index.tobytes() == ref.per_index.tobytes()
    for name in ("sup_distance", "sup_distance_adapted", "residual", "start_index",
                 "converged", "iterations", "method"):
        value, expected = getattr(res, name), getattr(ref, name)
        assert (type(value), repr(value)) == (type(expected), repr(expected)), name
    assert json.dumps(res.to_json_dict()) == json.dumps(ref.to_json_dict())


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_points_must_be_finite(self, cat, bad):
        pts = np.array([[0.1, 0.2], [0.3, bad], [0.5, 0.6]])
        with pytest.raises(ValueError, match="finite"):
            PseudoOrbit(pts)
        with pytest.raises(ValueError, match="finite"):
            PseudoOrbit.from_map(cat, pts)
        with pytest.raises(ValueError, match="finite"):
            pseudo_orbit_defect(cat, pts)

    @pytest.mark.parametrize("shadow", [exact_shadow_linear, newton_shadow])
    def test_nan_gate_refuses(self, cat, shadow):
        po = PseudoOrbit.from_map(cat, cat.orbit_segment(TorusPoint((0.3, 0.55)), 0, 5))
        with pytest.raises(ShadowingRefusal):
            shadow(cat, po, max_defect=float("nan"))

    def test_windows_admit_none_under_nan_limit(self, cat, rng):
        X = np.stack([noisy_orbit(cat, rng, 6, 1e-3) for _ in range(3)])
        windows, admitted = _shadow_windows(cat, X, False, float("nan"))
        assert not admitted.any() and windows.shape == (0, 6, 2)


class TestShiftEquivariance:
    def test_zero_shift_is_identity(self, cat, rng):
        po = PseudoOrbit.from_map(cat, noisy_orbit(cat, rng, 50, 1e-3), start_index=-25)
        assert np.array_equal(shift_pseudo(po, 0).points, po.points)
        assert shift_pseudo(po, 0).start_index == po.start_index

    @pytest.mark.parametrize("n", [1, -1, 3])
    def test_operator_equivariance(self, cat, rng, n):
        # T(sigma^n po) and f^n(T(po)) computed independently by the series
        po = PseudoOrbit.from_map(cat, noisy_orbit(cat, rng, 200, 1e-3), start_index=-100)
        lhs = shadow_operator(cat, shift_pseudo(po, n)).point
        rhs = cat.iterate(shadow_operator(cat, po).point, n)
        assert torus_distance(lhs, rhs) < 1e-9

    def test_equivariance_on_periodic(self, cat):
        po = PseudoOrbit.from_map(cat, np.array([[0.8, 0.6], [0.2, 0.4]]), periodic=True)
        lhs = shadow_operator(cat, shift_pseudo(po, 1)).point
        rhs = cat.apply(shadow_operator(cat, po).point)
        assert torus_distance(lhs, rhs) < 1e-9


def expansivity_loop(map, p, q, a, N):
    """Reference: `expansivity_test` as a scalar loop, one `M @ p` step per
    point and one distance per step, stopping at the first separation."""
    if torus_distance(p, q) >= a:
        return False
    fp, fq, bp, bq = p, q, p, q
    for _ in range(N):
        fp, fq = (TorusPoint(wrap(map.matrix @ x.coords)) for x in (fp, fq))
        if torus_distance(fp, fq) >= a:
            return False
        bp, bq = (TorusPoint(wrap(map.inverse_matrix @ x.coords)) for x in (bp, bq))
        if torus_distance(bp, bq) >= a:
            return False
    return True


class TestExpansivity:
    def test_identical_points(self, cat):
        p = TorusPoint((0.3, 0.4))
        assert expansivity_test(cat, p, p, a=0.1, N=50)

    def test_unstable_pair_separates_quickly(self, cat):
        v = cat.splitting.unstable_basis[:, 0]
        p = TorusPoint((0.3, 0.4))
        q = TorusPoint(wrap(p.coords + 1e-3 * v))
        assert not expansivity_test(cat, p, q, a=0.1, N=50)
        # separation step oracle: 1e-3 * lambda_u^n > 0.1 first at n = 5
        lam = cat.splitting.lambda_u
        predicted = int(np.ceil(np.log(100) / np.log(lam)))
        assert predicted == 5
        d = 0.0
        fp, fq = p, q
        for n in range(1, 13):
            fp, fq = cat.apply(fp), cat.apply(fq)
            d = torus_distance(fp, fq)
            if d >= 0.1:
                break
        assert 4 <= n <= 6

    def test_stops_at_the_first_separation(self, cat, monkeypatch):
        # the pair separates 4 to 6 steps forward, inside the third window
        # (steps 3..7), so neither the rest of N nor the backward half is run
        windows = []
        kernel = ToralAutomorphism._orbit

        def spy(self, P, n_min, n_max):
            windows.append(n_max - n_min)
            return kernel(self, P, n_min, n_max)

        p = TorusPoint((0.3, 0.4))
        q = TorusPoint(wrap(p.coords + 1e-3 * cat.splitting.unstable_basis[:, 0]))
        monkeypatch.setattr(ToralAutomorphism, "_orbit", spy)
        assert not expansivity_test(cat, p, q, a=0.1, N=1000)
        assert windows == [1, 1, 2, 2, 4, 4]

    def test_generic_pair_fails(self, cat, rng):
        for _ in range(20):
            p = TorusPoint(rng.random(2))
            direction = rng.standard_normal(2)
            q = TorusPoint(wrap(p.coords + 1e-3 * direction / np.linalg.norm(direction)))
            assert not expansivity_test(cat, p, q, a=0.1, N=50)

    def test_verdicts_match_the_scalar_loop(self, orbit_maps):
        verdicts = set()
        for name, f in orbit_maps.items():
            for seed in (0, 1):
                rng = np.random.default_rng(seed)
                for x in rng.random((10, f.dim)):
                    p = TorusPoint(x)
                    q = TorusPoint(x + 10.0 ** rng.uniform(-9, -2) * rng.standard_normal(f.dim))
                    for N in (0, 1, 5, 30):
                        for a in (0.05, 0.1, 0.3):
                            verdict = expansivity_test(f, p, q, a, N)
                            assert verdict is expansivity_loop(f, p, q, a, N), (name, seed, N, a)
                            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_negative_window_refused(self, cat):
        p = TorusPoint((0.3, 0.4))
        with pytest.raises(ValueError, match="N must be >= 0, got -1"):
            expansivity_test(cat, p, p, a=0.1, N=-1)

    def test_wrong_dimension_refused_at_window_zero(self, cat):
        p3 = TorusPoint((0.1, 0.2, 0.3))
        with pytest.raises(ValueError, match="dimension mismatch: map is 2-d"):
            expansivity_test(cat, p3, p3, a=0.1, N=0)

    def test_uniqueness_of_shadowing_via_expansivity(self, cat, rng):
        # two shadow candidates for one pseudo-orbit must coincide
        po = PseudoOrbit.from_map(cat, noisy_orbit(cat, rng, 150, 1e-3), start_index=-75)
        a = cat.splitting.expansivity_estimate
        r1 = exact_shadow_linear(cat, po)
        r2 = newton_shadow(cat, po)
        assert r1.sup_distance < a / 2 and r2.sup_distance < a / 2
        assert torus_distance(r1.point, r2.point) < 1e-9


def suspend_loop(po, h):
    """Reference: the samples of `suspend_pseudo_orbit` as nested loops over
    base points and fiber steps."""
    m = round(1.0 / h)
    base, fibers = [], []
    for j in range(len(po)):
        for k in range(m if j < len(po) - 1 else 1):
            base.append(po.points[j])
            fibers.append(k * h)
    return np.array(base), np.array(fibers)


def flow_defect_loop(flow, traj):
    """Reference: `flow_defect` as a scalar loop over samples and offsets,
    flowing each state with iterated scalar maps and measuring it with the
    glued metric on `TorusPoint`s."""
    def state(i):
        return TorusPoint(traj.base_points[i]), float(traj.fibers[i])

    def distance(s1, s2):
        (p, a), (q, b) = s1, s2
        return float(min(np.hypot(torus_distance(p, q), a - b),
                         np.hypot(torus_distance(flow.base.apply(p), q), (a - 1.0) - b),
                         np.hypot(torus_distance(p, flow.base.apply(q)), a - (b - 1.0))))

    n = len(traj)
    steps = int(np.ceil(1.0 / traj.h)) - 1
    worst = 0.0
    for i in range(n):
        point, s = state(i)
        for k in range(-steps, steps + 1):
            if k == 0 or not 0 <= i + k < n:
                continue
            total = s + k * traj.h
            m = int(np.floor(total))
            new_s = total - m
            if new_s >= 1.0:
                new_s, m = new_s - 1.0, m + 1
            worst = max(worst, distance(state(i + k), (flow.base.iterate(point, m), new_s)))
    return worst


class TestFlowShadowing:
    def test_flow_objects_store_their_samples_and_base_shadow_only(self):
        # the defect and the state are derived, so neither can go stale
        assert [f.name for f in fields(FlowPseudoTrajectory)] == [
            "base_points", "fibers", "h", "t0"]
        assert [f.name for f in fields(FlowShadowResult)] == ["base_result", "sup_distance"]

    @pytest.mark.parametrize("system", ["cat", "golden", "product"])
    def test_suspension_and_defect_match_the_loops(self, system, request):
        flow = SuspensionFlow.over(request.getfixturevalue(system))
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            po = PseudoOrbit.from_map(flow.base, noisy_orbit(flow.base, rng, 15, 1e-3),
                                      start_index=-7)
            for h in (1, 0.5, 0.25, 0.1):
                traj = suspend_pseudo_orbit(flow, po, h)
                base, fibers = suspend_loop(po, h)
                assert traj.base_points.tobytes() == base.tobytes()
                assert traj.fibers.tobytes() == fibers.tobytes()
                assert flow_defect(flow, traj) == flow_defect_loop(flow, traj)
                # fibers off the grid cross the roof at other offsets
                jittered = np.clip(traj.fibers + rng.uniform(-0.02, 0.02, len(traj)), 0.0, 0.999)
                off_grid = replace(traj, fibers=jittered)
                assert flow_defect(flow, off_grid) == flow_defect_loop(flow, off_grid)

    @pytest.mark.parametrize("window", [40, 60])
    def test_long_window_reads_the_base_shadow(self, cat, window):
        # flowing the index-0 shadow point out to |t| = window lost
        # lambda_u^|t| in precision, and these windows were refused
        flow = SuspensionFlow.over(cat)
        rng = np.random.default_rng(100)
        po = PseudoOrbit.from_map(cat, noisy_orbit(cat, rng, 2 * window + 1, 1e-5),
                                  start_index=-window)
        traj = suspend_pseudo_orbit(flow, po, h=0.5)
        delta = 2 * cat.splitting.shadow_bound(adapted=False) * 1e-5
        res = flow_shadow(flow, traj, delta=delta)
        assert abs(res.sup_distance - res.base_result.sup_distance) <= 1e-12
        assert res.sup_distance < delta
        assert res.base_result.pseudo_orbit.indices().tolist() == list(range(-window, window + 1))

    def test_samples_before_the_first_integer_time(self, cat):
        flow = SuspensionFlow.over(cat)
        orbit = cat.orbit_segment(TorusPoint((0.3, 0.55)), -1, 4)
        # t = -0.5, 0, 0.5, ..., 4: the first sample sits on f^-1 of the window
        base = np.concatenate([orbit[:1], np.repeat(orbit[1:-1], 2, axis=0), orbit[-1:]])
        fibers = np.concatenate([[0.5], np.tile([0.0, 0.5], 4), [0.0]])
        traj = FlowPseudoTrajectory(base, fibers, h=0.5, t0=-0.5)
        res = flow_shadow(flow, traj, delta=1e-6)
        assert res.sup_distance < 1e-12
        assert res.base_result.start_index == 0

    def test_integer_times_must_be_consecutive(self, cat):
        flow = SuspensionFlow.over(cat)
        # h = 0.3 lands on t = 0 and t = 3 only
        traj = FlowPseudoTrajectory(np.zeros((11, 2)), np.zeros(11), h=0.3)
        with pytest.raises(ValueError, match="consecutive"):
            flow_shadow(flow, traj, delta=0.1)

    @pytest.mark.parametrize("fiber", [1.7, -0.3, 1.0])
    def test_fiber_outside_the_unit_interval_refused(self, cat, fiber):
        flow = SuspensionFlow.over(cat)
        po = PseudoOrbit.from_map(cat, cat.orbit_segment(TorusPoint((0.3, 0.55)), 0, 2))
        traj = suspend_pseudo_orbit(flow, po, h=0.5)
        bad = traj.fibers.copy()
        bad[1] = fiber
        with pytest.raises(ValueError, match=r"fibers must lie in \[0, 1\)"):
            replace(traj, fibers=bad)

    def test_one_fiber_per_base_point(self):
        with pytest.raises(ValueError, match="one fiber per base point"):
            FlowPseudoTrajectory(np.zeros((3, 2)), np.zeros(2), h=0.5)

    def test_exact_trajectory_identity_reparameterization(self, cat):
        flow = SuspensionFlow.over(cat)
        orbit = cat.orbit_segment(TorusPoint((0.3, 0.55)), 0, 10)
        po = PseudoOrbit.from_map(cat, orbit)
        traj = suspend_pseudo_orbit(flow, po, h=0.25)
        assert flow_defect(flow, traj) < 1e-12
        res = flow_shadow(flow, traj, delta=1e-6)
        assert res.sup_distance < 1e-10
        # alpha is the identity: the base window's indices are the integer times
        assert res.state == (res.base_result.point, 0.0)
        assert res.base_result.pseudo_orbit.indices().tolist() == list(range(11))

    def test_noisy_base_orbit_shadowed(self, cat, rng):
        flow = SuspensionFlow.over(cat)
        po = PseudoOrbit.from_map(cat, noisy_orbit(cat, rng, 30, 1e-3))
        traj = suspend_pseudo_orbit(flow, po, h=0.5)
        K = cat.splitting.shadow_bound(adapted=False)
        res = flow_shadow(flow, traj, delta=2 * K * 1e-3)
        assert res.sup_distance <= K * pseudo_orbit_defect(cat, po.points) + 1e-9
        assert res.state == (res.base_result.point, 0.0)
        assert res.base_result.pseudo_orbit.indices().tolist() == list(range(30))

    @pytest.mark.parametrize("attr, sample", [
        ("base_points", [np.nan, 0.4]),
        ("fibers", np.nan),
        ("fibers", np.inf),
    ])
    def test_non_finite_sample_refused(self, cat, attr, sample):
        # max(worst, nan) keeps worst, so flow_defect and flow_shadow would
        # read a NaN sample as distance 0
        flow = SuspensionFlow.over(cat)
        po = PseudoOrbit.from_map(cat, cat.orbit_segment(TorusPoint((0.3, 0.55)), 0, 2))
        traj = suspend_pseudo_orbit(flow, po, h=0.5)
        bad = getattr(traj, attr).copy()
        bad[1] = sample  # t = 0.5, between the integer-time samples
        with pytest.raises(ValueError, match="finite"):
            flow_defect(flow, replace(traj, **{attr: bad}))
        with pytest.raises(ValueError, match="finite"):
            flow_shadow(flow, replace(traj, **{attr: bad}), delta=1e-6)

    def test_insufficient_samples(self, cat):
        flow = SuspensionFlow.over(cat)
        traj = FlowPseudoTrajectory(np.array([[0.1, 0.2]]), np.array([0.0]), h=1.0)
        with pytest.raises(ValueError, match="insufficient samples"):
            flow_shadow(flow, traj, delta=0.1)

    @pytest.mark.parametrize("delta", [float("nan"), 0.0, -1.0])
    def test_delta_must_be_positive(self, cat, delta):
        flow = SuspensionFlow.over(cat)
        po = PseudoOrbit.from_map(cat, cat.orbit_segment(TorusPoint((0.3, 0.55)), 0, 5))
        traj = suspend_pseudo_orbit(flow, po, h=0.5)
        with pytest.raises(ValueError, match="delta must be positive") as info:
            flow_shadow(flow, traj, delta=delta)
        assert not isinstance(info.value, ShadowingRefusal)

    def test_refusal_names_the_sup_distance(self, cat, rng):
        flow = SuspensionFlow.over(cat)
        po = PseudoOrbit.from_map(cat, noisy_orbit(cat, rng, 12, 1e-3))
        traj = suspend_pseudo_orbit(flow, po, h=0.5)
        with pytest.raises(ShadowingRefusal, match=r"flow shadow too far: sampled sup distance "
                                                   r"\S+ >= delta = 1\.000e-06$") as info:
            flow_shadow(flow, traj, delta=1e-6)
        assert info.value.defect >= info.value.limit == 1e-6

    def test_flow_defect_matches_base_defect_scale(self, cat, rng):
        flow = SuspensionFlow.over(cat)
        po = PseudoOrbit.from_map(cat, noisy_orbit(cat, rng, 12, 1e-3))
        traj = suspend_pseudo_orbit(flow, po, h=0.5)
        defect = pseudo_orbit_defect(cat, po.points)
        assert defect <= flow_defect(flow, traj) <= 3 * defect + 1e-12

