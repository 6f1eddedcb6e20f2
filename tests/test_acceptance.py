"""Acceptance battery: one test per criterion, at its stated tolerance.

Each test prints a one-line PASS record with the measured quantities (run
pytest -s to see them).  Heavy shared computations (the stabilization
battery, the punctured-torus run) are session fixtures reused across
criteria.
"""

import filecmp
import time
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from shadowbench.cli import ExperimentConfig, _noisy_orbit, closure_battery, main
from shadowbench.closure import (
    SamplingParams,
    SetApprox,
    gamma_for,
    hausdorff,
    iterate_closure,
)
from shadowbench.maximality import (
    bracket,
    bracket_delta_for,
    crovisier_set,
    local_product_check,
)
from shadowbench.shadowing import (
    PseudoOrbit,
    exact_shadow_linear,
    expansivity_test,
    newton_shadow,
    shadow_operator,
    shift_pseudo,
)
from shadowbench.symbolic import (
    PeriodicWord,
    SubshiftPresentation,
    equality_witness,
    is_locally_maximal,
    shift_metric,
    stabilization_check,
)
from shadowbench.torus import TorusPoint, cat_map, crovisier_product, torus_distance, wrap

SEED = 20240817


@pytest.fixture(scope="session")
def acceptance_cat():
    return cat_map()


@pytest.fixture(scope="session")
def battery_traces(acceptance_cat):
    """Criterion 4/6 battery: seeded stabilization runs over >= 10 inputs."""
    cfg = ExperimentConfig(seed=SEED)
    out = []
    for name, sa in closure_battery(acceptance_cat, cfg.resolution):
        trace = iterate_closure(acceptance_cat, sa, cfg.delta, cfg.u_radius,
                                cfg.max_iter, params=cfg.sampling())
        out.append((name, trace))
    return out


@pytest.fixture(scope="session")
def crovisier_trace():
    """Criterion 6/7: grid punctured-torus set and its closure iteration at
    depth 4 (16^4 cells), V_radius two cells, delta = 4 cells, U = 3 cells."""
    system = crovisier_product()
    width = 2.0 ** -4
    grid = crovisier_set(system, TorusPoint((0.5, 0.0)), TorusPoint((0.0, 0.0)),
                         v_radius=2 * width, depth=4, n_iter=4)
    F = system.as_automorphism()
    trace = iterate_closure(
        F, grid.as_set_approx("crovisier"), delta=4 * width, u_radius=3 * width,
        max_iter=6,
        params=SamplingParams(max_cycle_len=2, n_paths=16, path_len=30, seed=SEED),
        max_defect=np.inf)
    return grid, trace


def test_criterion_1_shadowing_quantitative(acceptance_cat):
    """Newton converges on 500 random pseudo-orbits per defect scale and the
    sup/defect ratio stays below K = C(1/(1-l_s) + 1/(l_u-1)) in the adapted
    norm; exact and Newton shadows agree to 1e-10."""
    t0 = time.time()
    map = acceptance_cat
    rng = np.random.default_rng(SEED)
    K = map.splitting.shadow_bound(adapted=True)
    assert K == pytest.approx(np.sqrt(5), abs=1e-12)  # the spec's ~2.24
    worst_ratio, worst_gap = 0.0, 0.0
    for eps in (1e-2, 1e-3, 1e-4):
        for _ in range(500):
            po = PseudoOrbit.from_map(map, _noisy_orbit(map, rng, 200, eps),
                                      start_index=-100)
            exact = exact_shadow_linear(map, po)
            newt = newton_shadow(map, po)
            assert newt.converged
            worst_ratio = max(worst_ratio, exact.sup_distance_adapted / eps)
            worst_gap = max(worst_gap, torus_distance(exact.point, newt.point))
    elapsed = time.time() - t0
    assert worst_ratio <= K + 1e-12
    assert worst_gap < 1e-10
    assert elapsed < 30.0
    print(f"\nPASS criterion 1: sup/eps <= {worst_ratio:.4f} (K = {K:.4f}), "
          f"exact-newton gap {worst_gap:.2e}, {elapsed:.1f}s")


def test_criterion_2_equivariance(acceptance_cat):
    """T(sigma po) = f(T(po)) within 1e-9 over 200 random pseudo-orbits."""
    t0 = time.time()
    map = acceptance_cat
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(200):
        po = PseudoOrbit.from_map(map, _noisy_orbit(map, rng, 200, 1e-3),
                                  start_index=-100)
        lhs = shadow_operator(map, shift_pseudo(po, 1)).point
        rhs = map.apply(shadow_operator(map, po).point)
        worst = max(worst, torus_distance(lhs, rhs))
    elapsed = time.time() - t0
    assert worst < 1e-9
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: equivariance discrepancy {worst:.2e} < 1e-9, "
          f"{elapsed:.1f}s")


def test_criterion_3_expansivity(acceptance_cat):
    """Random pairs at distance 1e-3 always separate beyond a = 0.1 within
    |n| <= 50 (their splitting components never both vanish)."""
    t0 = time.time()
    map = acceptance_cat
    s = map.splitting
    rng = np.random.default_rng(SEED + 2)
    assert 0.1 < s.expansivity_estimate
    for _ in range(100):
        p = TorusPoint(rng.random(2))
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        q = TorusPoint(wrap(p.coords + 1e-3 * direction))
        w = q.coords - p.coords
        degenerate = (np.linalg.norm(s.stable_component(w)) < 1e-12
                      and np.linalg.norm(s.unstable_component(w)) < 1e-12)
        assert not degenerate  # never for random pairs
        assert expansivity_test(map, p, q, a=0.1, N=50) is False
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 3: 100/100 random pairs separate, {elapsed:.1f}s")


def test_criterion_4_stabilized_sets_have_local_product_structure(
        acceptance_cat, battery_traces):
    """Every stabilized trace's final set passes local_product_check at
    membership tolerance 2 * resolution; zero failures over the battery."""
    t0 = time.time()
    map = acceptance_cat
    assert len(battery_traces) >= 10
    eps = 0.1
    failures = 0
    for name, trace in battery_traces:
        assert trace.verdict.kind == "stabilized", name
        delta_pair = min(bracket_delta_for(map.splitting, eps),
                         3 * trace.final.resolution)
        report = local_product_check(map, trace.final, eps, delta_pair,
                                     2 * trace.final.resolution)
        failures += len(report.failures)
    elapsed = time.time() - t0
    assert failures == 0
    assert elapsed < 300.0
    print(f"\nPASS criterion 4: {len(battery_traces)} stabilized inputs, "
          f"0 bracket failures, {elapsed:.1f}s")


def test_criterion_5_symbolic_premaximality():
    """One-step stabilization on 100 random presentations for k in 1..4,
    exactly; window detection on the three named shifts."""
    t0 = time.time()
    rng = np.random.default_rng(SEED + 3)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        gens = []
        for _ in range(int(rng.integers(1, 4))):
            L = tuple(int(v) for v in rng.integers(n, size=rng.integers(1, 4)))
            core = tuple(int(v) for v in rng.integers(n, size=rng.integers(0, 4)))
            R = tuple(int(v) for v in rng.integers(n, size=rng.integers(1, 4)))
            gens.append(PeriodicWord(L, core, R, n))
        s = SubshiftPresentation(n, tuple(gens))
        for k in (1, 2, 3, 4):
            assert stabilization_check(s, k), (s, k)
            checked += 1

    full = SubshiftPresentation(2, (PeriodicWord.constant(0, 2),
                                    PeriodicWord.constant(1, 2),
                                    PeriodicWord.from_cycle((0, 1), 2)))
    golden = SubshiftPresentation(2, tuple(
        PeriodicWord.from_cycle(c, 2)
        for c in ((0,), (0, 1), (0, 0, 1), (0, 0, 0, 1))))
    even = SubshiftPresentation(2, tuple(
        PeriodicWord.from_cycle(c, 2)
        for c in [(0,), (1,)] + [(0,) + (1,) * (2 * m) for m in range(1, 6)]))
    assert is_locally_maximal(full, 8) == 1
    assert is_locally_maximal(golden, 8) == 2
    assert is_locally_maximal(even, 8, period_bound=16) is None
    witness = None
    for k in range(1, 9):
        witness = equality_witness(even, k, period_bound=16)
        assert witness is not None, f"no witness at k={k}"
    cyc = witness.periodic_root()
    runs = _cyclic_one_runs(cyc)
    assert any(r % 2 == 1 for r in runs), cyc
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 5: {checked} stabilization checks exact, "
          f"windows (full, golden, even) = (1, 2, None), "
          f"odd-run witness {''.join(map(str, cyc))}, {elapsed:.1f}s")


def _cyclic_one_runs(cycle):
    n = len(cycle)
    if all(s == 1 for s in cycle):
        return [n]
    runs, i = [], 0
    doubled = list(cycle) + list(cycle)
    while i < n:
        prev = doubled[i - 1] if i else cycle[-1]
        if doubled[i] == 1 and prev == 0:
            j = i
            while doubled[j] == 1:
                j += 1
            runs.append(j - i)
            i = j
        else:
            i += 1
    return runs


def test_criterion_6_claim_dichotomy(battery_traces, crovisier_trace):
    """On every non-stabilized consecutive increment pair across the battery
    and the punctured-torus run: max(nu_j, nu_{j+1}) >= 0.5 * gamma."""
    t0 = time.time()
    rows_checked = 0
    for name, trace in battery_traces:
        rows = trace.dichotomy(slack=0.5)
        rows_checked += len(rows)
        assert all(r["holds"] for r in rows), (name, rows)
    _, trace = crovisier_trace
    rows = trace.dichotomy(slack=0.5)
    rows_checked += len(rows)
    assert all(r["holds"] for r in rows), rows
    assert trace.dichotomy_pass_rate(0.5) == 1.0
    elapsed = time.time() - t0
    print(f"\nPASS criterion 6: dichotomy held on {rows_checked} consecutive "
          f"pairs (pass rate 100%), {elapsed:.1f}s")


def test_criterion_7_crovisier_never_stabilizes(crovisier_trace):
    """The punctured 4-torus grid set at depth 4 never stabilizes: the run
    ends escaped or budget-exhausted with cumulative Hausdorff displacement
    strictly increasing and gaining >= gamma every two steps.  The paper's
    full theorem (only T^4 is locally maximal above it) is not claimed."""
    grid, trace = crovisier_trace
    assert grid.count > 0
    assert trace.verdict.kind in ("escaped_neighborhood", "budget_exhausted")
    assert trace.verdict.kind != "stabilized"
    nus = list(trace.nus)
    assert all(nu > 0 for nu in nus)  # cumulative displacement strictly increases
    gamma = trace.gamma
    pair_gains = [nus[i] + nus[i + 1] for i in range(len(nus) - 1)]
    assert all(g >= gamma for g in pair_gains)
    print(f"\nPASS criterion 7: verdict {trace.verdict}, "
          f"min two-step gain {min(pair_gains):.4f} >= gamma {gamma:.4f}")


def test_criterion_8_bracket_correctness(acceptance_cat):
    """Forward orbit of the bracket converges to y's orbit at rate
    C lambda_s^n up to n = 30 (backward to x's); bracket(x, x) = x exactly.

    A double holds d(f^n b, f^n y) only down to lambda_u^n * eps_machine,
    which crosses the n = 30 bound; the orbits are therefore iterated in
    extended precision after checking the float bracket agrees with the
    extended-precision bracket.
    """
    t0 = time.time()
    map = acceptance_cat
    s = map.splitting
    rng = np.random.default_rng(SEED + 4)
    eps = 0.1

    x0 = TorusPoint(rng.random(2))
    assert bracket(map, x0, x0, eps).point == x0  # exact identity

    with mp.workdps(60):
        disc = mp.sqrt(5)
        lam_s = (3 - disc) / 2
        vu = mp.matrix([2 / mp.sqrt(10 - 2 * disc), (disc - 1) / mp.sqrt(10 - 2 * disc)])
        # orthonormal: stable direction is the rotation of vu
        vs = mp.matrix([-vu[1], vu[0]])
        A = mp.matrix([[2, 1], [1, 1]])
        Ainv = mp.matrix([[1, -1], [-1, 2]])
        worst_agreement = 0.0
        for _ in range(200):
            x = TorusPoint(rng.random(2))
            w = rng.uniform(-0.03, 0.03, 2)
            y = TorusPoint(wrap(x.coords + w))
            b_float = bracket(map, x, y, eps).point

            lift = mp.matrix([_mp_minlift(y.coords[i] - x.coords[i]) for i in range(2)])
            zu = lift[0] * vu[0] + lift[1] * vu[1]
            wu = mp.matrix([zu * vu[0], zu * vu[1]])
            b_mp = mp.matrix([_mp_wrap(mp.mpf(float(x.coords[i])) + wu[i]) for i in range(2)])
            agreement = max(abs(float(b_mp[i]) - b_float.coords[i]) % 1.0 for i in range(2))
            agreement = min(agreement, 1 - agreement)
            worst_agreement = max(worst_agreement, agreement)

            fy = mp.matrix([mp.mpf(float(y.coords[i])) for i in range(2)])
            fb = +b_mp
            bx = mp.matrix([mp.mpf(float(x.coords[i])) for i in range(2)])
            bb = +b_mp
            for n in range(31):
                bound = s.C * float(lam_s) ** n * eps + 1e-12
                assert _mp_torus_dist(fb, fy) <= bound
                assert _mp_torus_dist(bb, bx) <= bound
                fb, fy = _mp_apply(A, fb), _mp_apply(A, fy)
                bb, bx = _mp_apply(Ainv, bb), _mp_apply(Ainv, bx)
        assert worst_agreement < 1e-12
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 8: 200 pairs decay at rate lambda_s through n=30, "
          f"float/extended bracket gap {worst_agreement:.1e}, {elapsed:.1f}s")


def _mp_minlift(v: float):
    z = mp.mpf(float(v))
    z = z - mp.floor(z)
    return z - 1 if z > mp.mpf("0.5") else z


def _mp_wrap(z):
    return z - mp.floor(z)


def _mp_apply(M, v):
    return mp.matrix([_mp_wrap(M[0, 0] * v[0] + M[0, 1] * v[1]),
                      _mp_wrap(M[1, 0] * v[0] + M[1, 1] * v[1])])


def _mp_torus_dist(u, v) -> float:
    total = mp.mpf(0)
    for i in range(2):
        d = abs(u[i] - v[i])
        d = min(d, 1 - d)
        total += d * d
    return float(mp.sqrt(total))


def test_criterion_9_metric_axioms(acceptance_cat):
    """torus_distance, hausdorff, shift_metric: identity, symmetry, and the
    triangle inequality on 1000 random triples each (shift_metric exactly)."""
    t0 = time.time()
    rng = np.random.default_rng(SEED + 5)
    for _ in range(1000):
        p, q, r = (TorusPoint(rng.random(2)) for _ in range(3))
        dpq = torus_distance(p, q)
        assert abs(dpq - torus_distance(q, p)) < 1e-12
        assert torus_distance(p, r) <= dpq + torus_distance(q, r) + 1e-12
        assert torus_distance(p, p) == 0.0

    for _ in range(1000):
        A, B, C = (SetApprox.build(rng.random((int(rng.integers(1, 6)), 2)), 0.01)
                   for _ in range(3))
        dab = hausdorff(A, B)
        assert abs(dab - hausdorff(B, A)) < 1e-12
        assert hausdorff(A, C) <= dab + hausdorff(B, C) + 1e-12
        assert hausdorff(A, A) == 0.0

    def rand_word():
        L = tuple(int(v) for v in rng.integers(2, size=rng.integers(1, 4)))
        core = tuple(int(v) for v in rng.integers(2, size=rng.integers(0, 4)))
        R = tuple(int(v) for v in rng.integers(2, size=rng.integers(1, 4)))
        return PeriodicWord(L, core, R, 2, offset=int(rng.integers(-2, 3)))

    for _ in range(1000):
        a, b, c = rand_word(), rand_word(), rand_word()
        dab = shift_metric(a, b)
        assert dab == shift_metric(b, a)                       # exact
        assert shift_metric(a, c) <= dab + shift_metric(b, c)  # exact
        assert shift_metric(a, a) == 0.0
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 9: 3 x 1000 random triples satisfy the metric "
          f"axioms, {elapsed:.1f}s")


def test_criterion_10_suite_determinism(tmp_path):
    """Two suite runs with one seed produce byte-identical output trees."""
    t0 = time.time()
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = main(["suite", "--out", str(out), "--scale", "quick",
                     "--seed", str(SEED)])
        assert code == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors
    elapsed = time.time() - t0
    print(f"\nPASS criterion 10: {len(names)} output files byte-identical "
          f"across reruns, {elapsed:.1f}s")
