import tracemalloc
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from shadowbench.torus import (
    NotHyperbolicError,
    _det_and_inverse,
    _integer_inverse,
    _mod1,
    _unimodular,
    ProductSystem,
    SuspensionFlow,
    ToralAutomorphism,
    TorusPoint,
    cat_map,
    compute_splitting,
    minimal_lift,
    system_from_config,
    system_to_config,
    torus_distance,
    torus_distance_array,
    wrap,
)


def brute_force_distance(p, q):
    """Oracle: minimize Euclidean distance over the translate lattice {-1,0,1}^d."""
    pa, qa = np.asarray(p, float), np.asarray(q, float)
    best = np.inf
    for shift in iproduct((-1.0, 0.0, 1.0), repeat=len(pa)):
        best = min(best, float(np.linalg.norm(pa - qa + np.array(shift))))
    return best


class TestTorusDistance:
    def test_identity(self):
        assert torus_distance(TorusPoint((0, 0)), TorusPoint((0, 0))) == 0.0

    def test_wraparound(self):
        d = torus_distance(TorusPoint((0.9, 0.0)), TorusPoint((0.1, 0.0)))
        assert d == pytest.approx(0.2, abs=1e-15)

    def test_against_brute_force_lattice(self):
        p, q = (0.25, 0.25), (0.75, 0.75)
        expected = brute_force_distance(p, q)
        assert expected == pytest.approx(np.sqrt(0.5), abs=1e-15)
        assert torus_distance(TorusPoint(p), TorusPoint(q)) == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            torus_distance(TorusPoint((0, 0)), TorusPoint((0, 0, 0)))

    def test_metric_axioms_random_triples(self, rng):
        for _ in range(1000):
            p, q, r = (TorusPoint(rng.random(2)) for _ in range(3))
            dpq, dqp = torus_distance(p, q), torus_distance(q, p)
            assert dpq == pytest.approx(dqp, abs=1e-12)
            assert torus_distance(p, r) <= dpq + torus_distance(q, r) + 1e-12
            assert torus_distance(p, p) == 0.0
            assert dpq <= np.sqrt(2) / 2 + 1e-12

    def test_scalar_is_the_symmetric_array_kernel(self, rng):
        assert torus_distance([0.1, 0.0], [0.0, 0.0]) == torus_distance([0.0, 0.0], [0.1, 0.0])
        for _ in range(200):
            p, q = rng.random(4), rng.random(4)
            d = torus_distance(p, q)
            assert d == torus_distance(q, p) == torus_distance_array(p[None], q[None])[0]

    def test_array_kernel_symmetric(self, rng):
        a, b = np.array([[0.0, 0.0]]), np.array([[0.1, 0.0]])
        assert torus_distance_array(a, b)[0] == torus_distance_array(b, a)[0] == 0.1
        for d in (2, 3, 4):
            # cubes crowd near 0, where coordinates carry finer bits than 1 + Δ
            P, Q = rng.random((500, d)) ** 3, rng.random((500, d)) ** 3
            assert np.array_equal(torus_distance_array(P, Q), torus_distance_array(Q, P))
            for p, q, dist in zip(P[:50], Q[:50], torus_distance_array(P[:50], Q[:50])):
                assert dist == pytest.approx(brute_force_distance(p, q), abs=1e-15)

    def test_array_kernel_rounds_as_periodic_kd_tree(self, rng):
        P, Q = rng.random((300, 2)) ** 3, rng.random((300, 2)) ** 3
        for p, q, dist in zip(P, Q, torus_distance_array(P, Q)):
            assert cKDTree(q[None, :], boxsize=1.0).query(p)[0] == dist

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=4))
    def test_bounded_by_half_diagonal(self, coords):
        p = TorusPoint(coords)
        q = TorusPoint([0.0] * len(coords))
        assert torus_distance(p, q) <= np.sqrt(len(coords)) / 2 + 1e-12


class TestApply:
    def test_fixed_point(self, cat):
        assert cat.apply(TorusPoint((0, 0))) == TorusPoint((0, 0))

    def test_exact_rational_arithmetic(self, cat):
        # [[2,1],[1,1]] @ (1/2, 1/2) = (3/2, 1) = (1/2, 0) mod 1
        p = TorusPoint((Fraction(1, 2), Fraction(1, 2)))
        image = cat.apply(p)
        assert image.exact == (Fraction(1, 2), Fraction(0))

    def test_inverse_roundtrip_random(self, cat, rng):
        for _ in range(100):
            p = TorusPoint(rng.random(2))
            back = cat.apply_inverse(cat.apply(p))
            assert torus_distance(p, back) < 1e-12

    def test_apply_array_matches_pointwise(self, cat, rng):
        P = rng.random((50, 2))
        imgs = cat.apply_array(P)
        for row, img in zip(P, imgs):
            assert torus_distance(cat.apply(TorusPoint(row)), TorusPoint(img)) < 1e-12

    def test_maps_compare_and_hash_by_matrix(self, cat, golden, product):
        twin = cat_map()
        assert cat == twin and hash(cat) == hash(twin) and len({cat, twin, golden}) == 2
        assert cat != golden and cat != "cat"
        assert twin._memo is not cat._memo  # each map keeps its own operators
        assert ProductSystem(product.factor_a, product.factor_b) == product
        assert SuspensionFlow.over(twin) == SuspensionFlow.over(cat)
        assert SuspensionFlow.over(golden) != SuspensionFlow.over(cat)


def scalar_step(M, p):
    """Reference: one map step as `_apply_matrix` took it before the orbit
    kernel, `M @ p` on a float point and Fraction sums on an exact one,
    building a `TorusPoint` per step."""
    if p.exact is not None:
        d = len(M)
        return TorusPoint(tuple(sum(Fraction(int(M[i, j])) * p.exact[j] for j in range(d)) % 1
                                for i in range(d)))
    return TorusPoint(wrap(M @ p.coords))


def iterate_loop(map, p, n):
    """Reference: `iterate` as a loop of scalar steps."""
    M = map.matrix if n >= 0 else map.inverse_matrix
    for _ in range(abs(n)):
        p = scalar_step(M, p)
    return p


def orbit_segment_loop(map, p, n_min, n_max):
    """Reference: `orbit_segment` as a forward and a backward scalar loop."""
    fwd, q = [p.coords], p
    for _ in range(n_max):
        q = scalar_step(map.matrix, q)
        fwd.append(q.coords)
    bwd, q = [], p
    for _ in range(-n_min):
        q = scalar_step(map.inverse_matrix, q)
        bwd.append(q.coords)
    return np.array(bwd[::-1] + fwd)


class TestOrbitKernel:
    def test_steps_match_the_scalar_loops(self, orbit_maps):
        # a one-row call rounds as the scalar step on every map, entries >= 3
        # included, where a row in a batch may not
        for name, f in orbit_maps.items():
            for seed in (0, 1):
                rng = np.random.default_rng(seed)
                for p in [TorusPoint(x) for x in rng.random((8, f.dim))]:
                    assert (f.orbit_segment(p, -20, 20).tobytes()
                            == orbit_segment_loop(f, p, -20, 20).tobytes()), name
                    for n, got in ((1, f.apply(p)), (-1, f.apply_inverse(p)),
                                   (7, f.iterate(p, 7)), (-7, f.iterate(p, -7))):
                        assert got.coords.tobytes() == iterate_loop(f, p, n).coords.tobytes(), (name, n)

    @pytest.mark.parametrize("n", [2500, -2500])
    def test_long_iterates_match_the_scalar_loop(self, cat, n):
        # iterate runs its window in pieces; the pieces join bit for bit
        p = TorusPoint((0.31, 0.47))
        assert cat.iterate(p, n).coords.tobytes() == iterate_loop(cat, p, n).coords.tobytes()

    def test_exact_points_take_exact_steps(self, cat):
        for p in cat.fixed_points(3):
            for n in (-4, -3, 1, 3):
                got, want = cat.iterate(p, n), iterate_loop(cat, p, n)
                assert got.exact == want.exact and got.coords.tobytes() == want.coords.tobytes()
            assert cat.iterate(p, 3) == p and cat.apply(cat.apply_inverse(p)) == p

    def test_iterate_holds_a_bounded_window(self, cat, monkeypatch):
        rows = []
        kernel = ToralAutomorphism._orbit

        def spy(self, P, n_min, n_max):
            out = kernel(self, P, n_min, n_max)
            rows.append(out.shape[0] * out.shape[1])
            return out

        p = TorusPoint((0.31, 0.47))
        monkeypatch.setattr(ToralAutomorphism, "_orbit", spy)
        cat.iterate(p, 10**5)
        assert sum(rows) - len(rows) == 10**5 and max(rows) <= 1025
        monkeypatch.undo()
        # and in bytes: a window of 10**4 two-float rows would take 160 kB
        tracemalloc.start()
        try:
            cat.iterate(p, -10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_wrong_dimension_refused_before_any_step(self, cat):
        for p3 in (TorusPoint((0.1, 0.2, 0.3)), TorusPoint((Fraction(1, 2),) * 3)):
            for call in (lambda: cat.iterate(p3, 0), lambda: cat.orbit_segment(p3, 0, 0),
                         lambda: cat.apply(p3)):
                with pytest.raises(ValueError, match="dimension mismatch: map is 2-d.*3"):
                    call()

    def test_orbit_window_must_contain_zero(self, cat):
        with pytest.raises(ValueError, match=r"must contain index 0, got \[1, 3\]"):
            cat.orbit_segment(TorusPoint((0.1, 0.2)), 1, 3)

    @pytest.mark.parametrize("period", [0, -1, 1.5])
    def test_fixed_point_period_must_be_positive(self, cat, period):
        with pytest.raises(ValueError) as info:
            cat.fixed_points(period)
        assert str(info.value) == (f"period must be >= 1, got {period}" if period < 1
                                   else f"period must be an integer, got {period!r}")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_refused(self, bad):
        with pytest.raises(ValueError, match="points must have finite coordinates"):
            TorusPoint((bad, 0.1))


class TestSplitting:
    def test_cat_eigenvalues_from_characteristic_polynomial(self, cat):
        # roots of t^2 - 3t + 1
        roots = np.roots([1.0, -3.0, 1.0])
        lam_u, lam_s = max(roots), min(roots)
        assert cat.splitting.lambda_u == pytest.approx(lam_u, abs=1e-12)
        assert cat.splitting.lambda_s == pytest.approx(lam_s, abs=1e-12)
        assert cat.splitting.lambda_s == pytest.approx(1 / cat.splitting.lambda_u, abs=1e-12)

    def test_golden_ratio(self, golden):
        roots = np.roots([1.0, -1.0, -1.0])
        assert golden.splitting.lambda_u == pytest.approx(max(roots), abs=1e-12)

    def test_shear_not_hyperbolic(self):
        with pytest.raises(NotHyperbolicError):
            compute_splitting([[1, 1], [0, 1]])

    @pytest.mark.parametrize("k", [10**8, 2**26])
    def test_large_unimodular_accepted_with_exact_inverse(self, k):
        # det = (k+1)(k-1) - k^2 = -1, but a float det or inverse loses it;
        # the determinant check passes, and the float eigenvalues are refused
        # after it (test_inexact_eigenvalues_refused)
        M, inv = _unimodular([[k + 1, k], [k, k - 1]])
        inverse = _integer_inverse(inv)
        assert np.array_equal(inverse, [[-(k - 1), k], [k, -(k + 1)]])
        assert np.array_equal(M @ inverse, np.eye(2, dtype=np.int64))

    @pytest.mark.parametrize("k, product", [(10**8, "0.0"), (2**26, "2.0")])
    def test_inexact_eigenvalues_refused(self, k, product):
        # float eig gives lambda_s = 0.0 at k = 10^8 and lambda_s * lambda_u = 2
        # at k = 2^26, though |det| = 1 makes the product of moduli 1
        matrix = [[k + 1, k], [k, k - 1]]
        message = rf"product of their moduli is {product}, not \|det\| = 1"
        with pytest.raises(ValueError, match=message):
            ToralAutomorphism(matrix)
        with pytest.raises(ValueError, match=message):
            compute_splitting(matrix)

    def test_named_maps_pass_the_eigenvalue_gate(self, cat, golden, crovisier):
        # the Crovisier factors are [[3, 1], [2, 1]] and the golden map; every
        # product of moduli sits 1000 times inside the gate's 1e-9
        maps = (cat, golden, crovisier.factor_a, crovisier.factor_b,
                crovisier.as_automorphism())
        for f in maps:
            moduli = np.abs(np.linalg.eigvals(f.matrix.astype(float)))
            assert abs(np.prod(moduli) - 1.0) < 1e-12
        for f in maps[:4]:
            assert f.splitting.lambda_s * f.splitting.lambda_u == pytest.approx(1.0, abs=1e-12)

    def test_det_and_inverse_one_pass(self):
        # a row swap flips the determinant's sign; a singular matrix has no
        # pivot in some column and returns no inverse
        assert _det_and_inverse(np.array([[0, 1], [1, 1]])) == (-1, [[-1, 1], [1, 0]])
        assert _det_and_inverse(np.array([[1, 2], [2, 4]])) == (0, None)

    @pytest.mark.parametrize("matrix", [
        [[2.5, 1], [1, 1]],                 # int64 would truncate it to the cat map
        np.array([[2.0, 1.0], [1.0, 1.0]]),
        [[10**20, 1], [1, 1]],              # int64 would overflow
        [[-2**63 - 1, 1], [1, 1]],
        [[float("nan"), 1], [1, 1]],
        [["2", 1], [1, 1]],
    ], ids=["non-integral", "float-array", "overflow", "underflow", "nan", "string"])
    def test_non_integer_entries_rejected(self, matrix):
        with pytest.raises(ValueError, match="integers within int64"):
            ToralAutomorphism(matrix)
        with pytest.raises(ValueError, match="integers within int64"):
            compute_splitting(matrix)

    def test_det_two_rejected(self):
        with pytest.raises(ValueError, match=r"\|det\| must be 1, got 2"):
            ToralAutomorphism([[3, 1], [1, 1]])
        with pytest.raises(ValueError, match=r"\|det\| must be 1, got 2"):
            compute_splitting([[3, 1], [1, 1]])

    def test_one_gauss_jordan_pass_per_construction(self, monkeypatch, crovisier):
        from shadowbench import torus
        matrices = ([[2, 1], [1, 1]], [[1, 1], [1, 0]], crovisier.as_automorphism().matrix)
        calls = []

        def counted(M):
            calls.append(M)
            return _det_and_inverse(M)

        monkeypatch.setattr(torus, "_det_and_inverse", counted)
        for M in matrices:
            calls.clear()
            f = ToralAutomorphism(M)
            assert len(calls) == 1
            assert np.array_equal(f.matrix @ f.inverse_matrix, np.eye(f.dim, dtype=np.int64))
        calls.clear()
        compute_splitting([[2, 1], [1, 1]])
        assert len(calls) == 1

    def test_stable_contraction_in_adapted_norm(self, cat):
        s = cat.splitting
        for col in s.stable_basis.T:
            img = s.matrix.astype(float) @ col
            assert s.adapted_norm(img) <= s.lambda_s * s.adapted_norm(col) * (1 + 1e-9)

    def test_unstable_expansion_in_adapted_norm(self, cat):
        s = cat.splitting
        for col in s.unstable_basis.T:
            img = s.matrix.astype(float) @ col
            assert s.adapted_norm(img) >= s.lambda_u * s.adapted_norm(col) * (1 - 1e-9)

    def test_splitting_spans_space(self, cat):
        s = cat.splitting
        assert s.stable_basis.shape[1] + s.unstable_basis.shape[1] == 2
        assert abs(np.linalg.det(s.basis)) > 1e-9

    def test_cat_splitting_orthonormal(self, cat):
        assert cat.splitting.C == pytest.approx(1.0, abs=1e-12)

    def test_component_decomposition(self, cat, rng):
        s = cat.splitting
        v = rng.standard_normal(2)
        recon = s.stable_component(v) + s.unstable_component(v)
        assert np.allclose(recon, v, atol=1e-12)

    def test_methods_act_on_rows(self, crovisier, rng):
        # a stack (m, n, d) goes through the row products `v @ basis_inv.T`
        # and `z @ basis.T`, as the vectorized callers wrote them
        s = crovisier.as_automorphism().splitting
        V = rng.standard_normal((3, 5, 4))
        Z = V @ s.basis_inv.T
        assert s.to_adapted(V).tobytes() == Z.tobytes()
        assert s.from_adapted(Z).tobytes() == (Z @ s.basis.T).tobytes()
        assert s.adapted_norm(V).tobytes() == np.linalg.norm(Z, axis=-1).tobytes()
        Zu = Z.copy()
        Zu[..., : s.stable_dim] = 0.0
        assert s.unstable_component(V).tobytes() == (Zu @ s.basis.T).tobytes()
        Zs = Z - Zu
        assert s.stable_component(V).tobytes() == (Zs @ s.basis.T).tobytes()
        assert np.allclose(s.stable_component(V) + s.unstable_component(V), V, atol=1e-12)


class TestFixedPoints:
    def test_cat_has_single_fixed_point(self, cat):
        assert cat.fixed_points() == [TorusPoint((0, 0))]

    def test_cat_period_two_count(self, cat):
        # |det(A^2 - I)| = 5 solutions of A^2 x = x
        pts = cat.fixed_points(2)
        assert len(pts) == 5
        for p in pts:
            assert torus_distance(cat.iterate(p, 2), p) < 1e-12

    def test_two_fixed_point_matrix(self):
        auto = ToralAutomorphism([[3, 1], [2, 1]])
        pts = auto.fixed_points()
        assert TorusPoint((0, 0)) in pts
        assert TorusPoint((Fraction(1, 2), Fraction(0))) in pts
        assert len(pts) == 2


class TestProductSystem:
    def test_domination_holds_for_default(self, product):
        sa = product.factor_a.splitting
        sb = product.factor_b.splitting
        assert sa.lambda_u > sb.lambda_u
        assert sa.lambda_s < sb.lambda_s

    def test_domination_violation_rejected(self, golden):
        with pytest.raises(ValueError, match="domination"):
            ProductSystem(golden, cat_map())

    def test_block_action(self, product, rng):
        F = product.as_automorphism()
        x, y = rng.random(2), rng.random(2)
        img = F.apply(TorusPoint(np.concatenate([x, y])))
        ax = product.factor_a.apply(TorusPoint(x))
        by = product.factor_b.apply(TorusPoint(y))
        assert np.allclose(img.coords, np.concatenate([ax.coords, by.coords]), atol=1e-12)


class TestSuspensionFlow:
    def test_time_zero_identity(self, cat):
        flow = SuspensionFlow.over(cat)
        state = (TorusPoint((0.3, 0.7)), 0.25)
        point, s = flow.flow_at(state, 0.0)
        assert point == state[0] and s == 0.25

    def test_fixed_point_integer_times(self, cat):
        flow = SuspensionFlow.over(cat)
        point, s = flow.flow_at((TorusPoint((0, 0)), 0.0), 3.0)
        assert point == TorusPoint((0, 0)) and s == pytest.approx(0.0, abs=1e-12)

    def test_integer_time_is_base_map(self, cat, rng):
        flow = SuspensionFlow.over(cat)
        p = TorusPoint(rng.random(2))
        point, s = flow.flow_at((p, 0.0), 1.0)
        assert torus_distance(point, cat.apply(p)) < 1e-12
        assert s == pytest.approx(0.0, abs=1e-12)

    def test_group_law_random_times(self, cat, rng):
        flow = SuspensionFlow.over(cat)
        for _ in range(50):
            state = (TorusPoint(rng.random(2)), float(rng.random()))
            t1, t2 = rng.uniform(-5, 5, size=2)
            p1, s1 = flow.flow_at(flow.flow_at(state, t1), t2)
            p2, s2 = flow.flow_at(state, t1 + t2)
            assert torus_distance(p1, p2) < 1e-10
            assert min(abs(s1 - s2), 1 - abs(s1 - s2)) < 1e-10

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_non_finite_time_refused(self, cat, t):
        flow = SuspensionFlow.over(cat)
        with pytest.raises(ValueError, match="flow time must be finite"):
            flow.flow_at((TorusPoint((0.3, 0.7)), 0.25), t)

    def test_suspension_distance_respects_gluing(self, cat):
        flow = SuspensionFlow.over(cat)
        p = TorusPoint((0.3, 0.7))
        near_roof = (p, 0.999)
        past_roof = (cat.apply(p), 0.001)
        assert flow.distance(near_roof, past_roof) == pytest.approx(0.002, abs=1e-12)


class TestConfig:
    def test_single_matrix_roundtrip(self, cat):
        cfg = system_to_config(cat)
        rebuilt = system_from_config(cfg)
        assert np.array_equal(rebuilt.matrix, cat.matrix)

    def test_product_roundtrip(self, crovisier):
        cfg = system_to_config(crovisier)
        rebuilt = system_from_config(cfg)
        assert np.array_equal(rebuilt.factor_a.matrix, crovisier.factor_a.matrix)
        assert np.array_equal(rebuilt.factor_b.matrix, crovisier.factor_b.matrix)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            system_from_config({"nonsense": 1})

    @pytest.mark.parametrize("cfg, entry", [
        (5, "JSON object"),
        ({"matrix": None}, "'matrix'"),
        ({"matrix": [[2.5, 1], [1, 1]]}, "'matrix'"),  # int64 would truncate it to cat
        ({"matrix": [[True, 1], [1, 1]]}, "'matrix'"),
        ({"product": {"a": [[3, 1], [2, 1]]}}, "'product.b'"),
        ({"product": [[2, 1], [1, 1]]}, "'product'"),
    ])
    def test_malformed_config_names_the_entry(self, cfg, entry):
        with pytest.raises(ValueError, match=entry):
            system_from_config(cfg)


def test_minimal_lift_halfopen():
    v = minimal_lift(np.array([0.5, -0.5, 0.75, 0.25]))
    assert np.allclose(v, [0.5, 0.5, -0.25, 0.25])


def test_mod1_is_float_remainder_bit_for_bit(rng):
    tiny = np.finfo(float).smallest_subnormal
    edges = np.array([0.0, -0.0, tiny, -tiny, 1e-300, -1e-300, 1e-17, -1e-17, 0.5, -0.5,
                      np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0), 1.0, -1.0, 2.0, -2.0,
                      2.5, -2.5, 2.0 ** 52 + 1, -(2.0 ** 52) - 1, 1e300, -1e300,
                      np.inf, -np.inf, np.nan])
    samples = [edges] + [rng.standard_normal(4000) * 10.0 ** k for k in range(-20, 21, 4)]
    samples.append(rng.random(4000) ** 3)  # fine bits near 0, as the kernels meet
    with np.errstate(invalid="ignore"):
        for x in samples:
            assert _mod1(x).tobytes() == (x % 1.0).tobytes()
    # wrap folds the 1.0 that tiny negatives round to
    assert wrap(np.array([-tiny, -1e-17, -0.0])).tolist() == [0.0, 0.0, 0.0]
