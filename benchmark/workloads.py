"""The four benchmark workloads: seeded inputs, the job, and its checks.

Each workload is one closed-loop job run by a single thread.  `make_inputs`
builds everything the job consumes from the workload seed; `run` does the
job once and returns per-item intervals, per-item check outcomes and a
summary that `run.py` compares against `reference.json` at the default seed.

Inputs are generated here rather than taken from the library's own helpers,
and the library is reached only through names in each module's `__all__`
plus `cli.main`, so moving or deleting private helpers cannot change what
the benchmark runs.  Library functions are looked up on their module at call
time (`shadowing.exact_shadow_linear`, not an imported alias) so that the
traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from shadowbench import cli, closure, maximality, shadowing, symbolic, torus


@dataclass
class Outcome:
    """One job: item intervals (start, end) on the system-wide monotonic
    clock, item check failures with reasons, and the summary compared
    against the reference file."""

    items: list[tuple[float, float]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def item(self, label: str, fn) -> None:
        """Time `fn()` as one item; a False result or an exception fails it."""
        t0 = time.monotonic()
        try:
            ok = fn()
        except Exception:  # an unexpected exception is a failed item, not a crash
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.items.append((t0, time.monotonic()))
        if not ok:
            self.failures.append(label)


# ---------------------------------------------------------------------------
# shadow-verify: long single orbits, exact series against Newton


EPSILONS = (1e-2, 1e-3, 1e-4)
ORBITS_PER_EPS = 250
ORBIT_LEN = 200


def noisy_orbits(map, rng, n: int, length: int, eps: float) -> np.ndarray:
    """`n` eps-pseudo-orbits of `map`, shape (n, length, d): uniform start,
    then each step perturbed in a uniform direction by a uniform(0, eps)
    amount."""
    d = map.dim
    A = map.matrix.astype(float)
    x = rng.random((n, d))
    steps = rng.standard_normal((n, length - 1, d))
    steps *= (rng.uniform(0.0, eps, (n, length - 1))
              / np.linalg.norm(steps, axis=2))[..., None]
    out = np.empty((n, length, d))
    out[:, 0] = x
    for j in range(length - 1):
        x = torus.wrap(x @ A.T + steps[:, j])
        out[:, j + 1] = x
    return out


def shadow_inputs(seed: int) -> dict:
    cat = torus.cat_map()
    rng = np.random.default_rng(seed)
    per_eps = [[(eps, pts) for pts in noisy_orbits(cat, rng, ORBITS_PER_EPS, ORBIT_LEN, eps)]
               for eps in EPSILONS]
    # The three ε alternate, so each ε's orbits, and the costliest of them
    # that make the tail, are spread over the whole job: the host's speed
    # drifts over seconds, and the probe corrects that drift only in part.
    return {"map": cat, "orbits": [o for trio in zip(*per_eps) for o in trio]}


def shadow_run(inp: dict) -> Outcome:
    cat = inp["map"]
    K = cat.splitting.shadow_bound(adapted=True)
    out = Outcome()
    worst = {eps: 0.0 for eps in EPSILONS}
    newton_iters = 0

    def one(eps, pts) -> bool:
        nonlocal newton_iters
        po = shadowing.PseudoOrbit.from_map(cat, pts, start_index=-(len(pts) // 2))
        exact = shadowing.exact_shadow_linear(cat, po)
        newt = shadowing.newton_shadow(cat, po)
        lhs = shadowing.shadow_operator(cat, shadowing.shift_pseudo(po, 1)).point
        rhs = cat.apply(shadowing.shadow_operator(cat, po).point)
        ratio = exact.sup_distance_adapted / eps
        worst[eps] = max(worst[eps], ratio)
        newton_iters += newt.iterations
        return (newt.converged and ratio <= K + 1e-12
                and torus.torus_distance(exact.point, newt.point) < 1e-10
                and torus.torus_distance(lhs, rhs) < 1e-9)

    for i, (eps, pts) in enumerate(inp["orbits"]):
        out.item(f"orbit {i} (eps={eps:g})", lambda: one(eps, pts))
    out.summary = {"orbits": len(inp["orbits"]),
                   "worst_ratio": {f"{eps:g}": worst[eps] for eps in EPSILONS},
                   "newton_iterations": newton_iters}
    return out


# ---------------------------------------------------------------------------
# closure-2d: the cat-map stabilization battery


RESOLUTION = 0.02
DELTA = 0.05
U_RADIUS = 0.35
MAX_ITER = 25
LPS_EPS = 0.1


def closure_battery(map, resolution: float) -> list[tuple[str, "closure.SetApprox"]]:
    """Fixed point, periodic nets and homoclinic windows of the cat map:
    the ten stabilization inputs of the acceptance battery."""
    SetApprox = closure.SetApprox
    entries = [
        ("fixed-point", SetApprox(np.array([[0.0, 0.0]]), resolution, "fp")),
        ("two-cycle", SetApprox(np.array([[0.8, 0.6], [0.2, 0.4]]), resolution, "2cyc")),
        ("three-cycle", SetApprox(np.array([[0.75, 0.5], [0.0, 0.25], [0.25, 0.25]]),
                                  resolution, "3cyc")),
        ("cycles-union", SetApprox(np.array([[0.8, 0.6], [0.2, 0.4], [0.75, 0.5],
                                             [0.0, 0.25], [0.25, 0.25]]),
                                   resolution, "union")),
    ]
    s = map.splitting
    vu, vs = s.unstable_basis[:, 0], s.stable_basis[:, 0]

    def homoclinic(lattice, n_win: int, tag: str):
        # the point where the unstable line through 0 meets the stable line
        # through the lattice point, with its orbit window
        t, _ = np.linalg.solve(np.column_stack([vu, -vs]), np.array(lattice, float))
        window = map.orbit_segment(torus.TorusPoint(torus.wrap(t * vu)), -n_win, n_win)
        name = f"homoclinic-{tag}"
        return name, SetApprox.build(np.vstack([[[0.0, 0.0]], window]), resolution, name)

    for tag, lattice in (("m10", (1, 0)), ("m01", (0, 1)), ("m11", (1, 1))):
        entries.append(homoclinic(lattice, 3, tag))
    for n_win, tag in ((2, "short"), (4, "long"), (5, "longer")):
        entries.append(homoclinic((1, 0), n_win, tag))
    return entries


def closure_inputs(seed: int) -> dict:
    cat = torus.cat_map()
    return {
        "map": cat,
        "battery": closure_battery(cat, RESOLUTION),
        "params": closure.SamplingParams(max_cycle_len=8, n_paths=16, path_len=40,
                                         seed=seed),
        "pair_delta": min(maximality.bracket_delta_for(cat.splitting, LPS_EPS),
                          3 * RESOLUTION),
    }


def closure_run(inp: dict) -> Outcome:
    cat = inp["map"]
    out = Outcome()

    def one(name, sa) -> bool:
        trace = closure.iterate_closure(cat, sa, DELTA, U_RADIUS, MAX_ITER,
                                        params=inp["params"])
        lps = maximality.local_product_check(cat, trace.final, LPS_EPS,
                                             inp["pair_delta"], 2 * RESOLUTION)
        out.summary[name] = {
            "verdict": [trace.verdict.kind, trace.verdict.index],
            "sizes": [len(s) for s in trace.iterates],
            "nus": list(trace.nus),
            "lps_pairs": lps.pairs_tested,
        }
        return (trace.verdict.kind == "stabilized" and lps.passed
                and trace.dichotomy_pass_rate() == 1.0)

    for name, sa in inp["battery"]:
        out.item(name, lambda: one(name, sa))
    return out


# ---------------------------------------------------------------------------
# punctured-4d: the depth-4 punctured-torus closure through the CLI


def crovisier_inputs(seed: int) -> dict:
    return {"argv": ["crovisier", "--depth", "4", "--closure", "--max-iter", "2",
                     "--seed", str(seed)]}


def crovisier_run(inp: dict) -> Outcome:
    out = Outcome()

    def one() -> bool:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(inp["argv"])
        payload = json.loads(buf.getvalue())
        trace = payload["closure"]
        nus = trace["nus"]
        out.summary = {"exit_code": code, "cells": payload["cells"],
                       "verdict": [trace["verdict"]["kind"], trace["verdict"]["index"]],
                       "sizes": trace["sizes"], "nus": nus, "gamma": trace["gamma"]}
        gains = [a + b for a, b in zip(nus, nus[1:])]
        return (code in (0, 3) and trace["verdict"]["kind"] != "stabilized"
                and len(nus) >= 2 and all(nu > 0 for nu in nus)
                and all(g >= trace["gamma"] for g in gains))

    out.item("crovisier", one)
    return out


# ---------------------------------------------------------------------------
# symbolic: window detection and one-step stabilization on shift spaces


KMAX = 8
EVEN_PERIOD_BOUND = 16
N_PRESENTATIONS = 1000


def named_shifts() -> dict:
    PW, SP = symbolic.PeriodicWord, symbolic.SubshiftPresentation
    return {
        "full": SP(2, (PW.constant(0, 2), PW.constant(1, 2), PW.from_cycle((0, 1), 2))),
        "golden": SP(2, tuple(PW.from_cycle(c, 2)
                              for c in ((0,), (0, 1), (0, 0, 1), (0, 0, 0, 1)))),
        "even": SP(2, tuple(PW.from_cycle(c, 2) for c in
                            [(0,), (1,)] + [(0,) + (1,) * (2 * m) for m in range(1, 6)])),
    }


def random_presentation(rng) -> "symbolic.SubshiftPresentation":
    """Two or three symbols, one to three generators with random tails and core."""
    n = int(rng.integers(2, 4))
    gens = []
    for _ in range(int(rng.integers(1, 4))):
        L = tuple(int(v) for v in rng.integers(n, size=rng.integers(1, 4)))
        core = tuple(int(v) for v in rng.integers(n, size=rng.integers(0, 4)))
        R = tuple(int(v) for v in rng.integers(n, size=rng.integers(1, 4)))
        gens.append(symbolic.PeriodicWord(L, core, R, n))
    return symbolic.SubshiftPresentation(n, tuple(gens))


def symbolic_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"shifts": named_shifts(),
            "presentations": [random_presentation(rng) for _ in range(N_PRESENTATIONS)]}


def _odd_one_run(cycle) -> bool:
    """Does the periodic word cycle^infinity contain a maximal run of 1s of
    odd length?"""
    if all(s == 1 for s in cycle):
        return False
    k = list(cycle).index(0)
    rotated = list(cycle[k:]) + list(cycle[:k])  # starts with a 0
    runs = "".join(map(str, rotated)).split("0")
    return any(len(r) % 2 == 1 for r in runs)


def symbolic_run(inp: dict) -> Outcome:
    shifts = inp["shifts"]
    out = Outcome()
    expected_window = {"full": 1, "golden": 2, "even": None}
    window_bound = {"full": None, "golden": None, "even": EVEN_PERIOD_BOUND}
    windows: dict = {}
    witnesses: list = []

    def window(name) -> bool:
        windows[name] = symbolic.is_locally_maximal(shifts[name], KMAX,
                                                    period_bound=window_bound[name])
        return windows[name] == expected_window[name]

    def witness(k) -> bool:
        # the even shift is no SFT, so every window admits a periodic point
        # outside it: one with an odd run of 1s
        w = symbolic.equality_witness(shifts["even"], k)
        witnesses.append(w.to_text() if w is not None else None)
        return w is not None and _odd_one_run(w.periodic_root())

    calls = [(f"window {name}", lambda name=name: window(name)) for name in shifts]
    calls += [(f"witness even k={k}", lambda k=k: witness(k)) for k in range(1, KMAX + 1)]
    checks = [(f"stabilization {i} k={k}",
               lambda s=s, k=k: symbolic.stabilization_check(s, k))
              for i, s in enumerate(inp["presentations"]) for k in range(1, KMAX + 1)]
    # The checks go in equal blocks around the window calls, so their
    # latencies sample the whole job rather than one stretch of it: the
    # host's speed drifts over tens of seconds.
    block = -(-len(checks) // (len(calls) + 1))
    for j in range(len(calls) + 1):
        for label, fn in checks[j * block:(j + 1) * block] + calls[j:j + 1]:
            out.item(label, fn)
    failed_checks = sum(f.startswith("stabilization") for f in out.failures)
    out.summary = {"windows": windows, "witnesses": witnesses,
                   "stabilized": len(checks) - failed_checks}
    return out


WORKLOADS = {
    "shadow-verify": (shadow_inputs, shadow_run),
    "closure-2d": (closure_inputs, closure_run),
    "punctured-4d": (crovisier_inputs, crovisier_run),
    "symbolic": (symbolic_inputs, symbolic_run),
}
