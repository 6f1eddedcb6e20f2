"""Command-line workbench: shadow, closure, sft, maximality, crovisier, and
the full experiment suite.

All numerical experiments are seeded and deterministic: the same config and
seed produce byte-identical output trees.  JSON carries structured results,
CSV carries plot series.  Exit codes: 0 success, 1 input error, 2
mathematical refusal (a precondition gate fired), 3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import maximality as maximality_mod
from .closure import ClosureTrace, SamplingParams, SetApprox, iterate_closure
from .maximality import GridSet, LPSReport, crovisier_set, local_product_check
from .shadowing import (
    PseudoOrbit,
    ShadowingRefusal,
    exact_shadow_linear,
    newton_shadow,
    pseudo_orbit_defect,
    shadow_operator,
    shift_pseudo,
)
from .symbolic import (
    PeriodicWord,
    SubshiftPresentation,
    equality_witness,
    is_locally_maximal,
    is_member,
    language,
    sft_closure,
    stabilization_check,
)
from .torus import (
    ProductSystem,
    ToralAutomorphism,
    TorusPoint,
    cat_map,
    crovisier_product,
    system_from_config,
    torus_distance,
    wrap,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REFUSAL = 2
EXIT_BUDGET = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for the numerical experiments; every tolerance must be
    positive and a fixed seed pins all sampled randomness.  Refuses an
    invalid knob on construction."""

    delta: float = 0.05
    resolution: float = 0.02
    u_radius: float = 0.35
    max_iter: int = 25
    max_cycle_len: int = 8
    n_paths: int = 16
    path_len: int = 40
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # a config file can hold any JSON value
            value, number = getattr(self, f.name), isinstance(f.default, float)
            if isinstance(value, bool) or not isinstance(value, (int, float) if number else int):
                raise ValueError(f"invalid config: {f.name} must be "
                                 f"{'a number' if number else 'an integer'}, got {value!r}")
        problems = [f"{name} must be positive, got {getattr(self, name)}"
                    for name in ("delta", "resolution", "u_radius")
                    if not getattr(self, name) > 0]  # NaN included
        # an infinite u_radius is allowed: it means no escape test
        problems += [f"{name} must be finite, got inf" for name in ("delta", "resolution")
                     if getattr(self, name) == np.inf]
        if self.max_iter < 1:
            problems.append(f"max_iter must be >= 1, got {self.max_iter}")
        if problems:
            raise ValueError("invalid config: " + "; ".join(problems))
        self.sampling()  # SamplingParams owns the sampling rules

    def sampling(self) -> SamplingParams:
        return SamplingParams(max_cycle_len=self.max_cycle_len, n_paths=self.n_paths,
                              path_len=self.path_len, seed=self.seed)


# the syntax of int() and float(), so that a row is checked before it is converted
_DIGITS = r"\d(?:_?\d)*"
_INT = re.compile(rf"\s*[+-]?{_DIGITS}\s*")
_FLOAT = re.compile(rf"\s*[+-]?(?:(?:{_DIGITS})?\.{_DIGITS}|{_DIGITS}\.?)(?:e[+-]?{_DIGITS})?\s*"
                    r"|\s*[+-]?(?:inf(?:inity)?|nan)\s*", re.IGNORECASE)


def _read_rows(path: str | Path, header: str, indexed: bool) -> tuple[list[int], np.ndarray]:
    """Indices and coordinates of `index,x0,x1,...` rows, or of `x0,x1,...`
    rows indexed by line, skipping blank lines and a first line whose first
    field starts with `header`; a malformed row is refused by line number."""
    indices, rows = [], []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or lineno == 1 and row[0].strip().lower().startswith(header):
                continue
            coords = row[1:] if indexed else row
            bad = [v for v in coords if not _FLOAT.fullmatch(v)]
            problem = (f"invalid literal for int() with base 10: {row[0]!r}"
                       if indexed and not _INT.fullmatch(row[0]) else
                       f"could not convert string to float: {bad[0]!r}" if bad else
                       "fewer than 2 coordinates" if len(coords) < 2 else
                       f"{len(coords)} coordinates, the first row has {len(rows[0])}"
                       if rows and len(coords) != len(rows[0]) else None)
            if problem:
                raise ValueError(f"malformed CSV row at line {lineno}: {problem}")
            indices.append(int(row[0]) if indexed else lineno)
            rows.append([float(v) for v in coords])
    return indices, np.array(rows)


def _read_pseudo_orbit(path: str | Path) -> tuple[np.ndarray, int]:
    """The points of a pseudo-orbit file in index order, and its first index."""
    indices, points = _read_rows(path, "index", indexed=True)
    if not indices:
        raise ValueError("empty pseudo-orbit file")
    start = min(indices)
    if sorted(indices) != list(range(start, start + len(indices))):
        raise ValueError("pseudo-orbit indices must be consecutive")
    return points[np.argsort(indices)], start


def _read_net(path: str | Path, resolution: float) -> SetApprox:
    """The r-net of the points of a point file, coarsened keep-first."""
    return SetApprox.build(_read_rows(path, "x", indexed=False)[1], resolution)


def _write_trace(trace: ClosureTrace, path: str | Path) -> None:
    """The (j, nu_j, set size) rows of a closure trace; the last names the verdict."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "nu_j", "set_size", "verdict"])
        writer.writerow([0, "", len(trace.iterates[0]), ""])
        for j, nu in enumerate(trace.nus, start=1):
            tag = str(trace.verdict) if j == len(trace.nus) else ""
            writer.writerow([j, repr(float(nu)), len(trace.iterates[j]), tag])


def _emit(payload: dict, path: str | Path | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _error(kind: str, message: str, code: int) -> int:
    sys.stdout.write(json.dumps({"error": {"kind": kind, "message": message}},
                                sort_keys=True) + "\n")
    return code


def _load_config(args) -> ExperimentConfig:
    entries = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            entries = json.load(fh)
        if not isinstance(entries, dict):
            raise ValueError(f"config file must hold a JSON object, "
                             f"got {type(entries).__name__}")
    names = ExperimentConfig.__dataclass_fields__
    if unknown := sorted(set(entries) - set(names)):
        raise ValueError(f"config file has unknown keys: {', '.join(unknown)}")
    knobs = dict(entries)
    # the flags override the file
    knobs.update((k, getattr(args, k)) for k in names if getattr(args, k, None) is not None)
    return ExperimentConfig(**knobs)


def _load_system(args, default) -> ToralAutomorphism | ProductSystem:
    if not args.system:
        return default()
    with open(args.system) as fh:
        return system_from_config(json.load(fh))


def _load_map(args) -> ToralAutomorphism:
    system = _load_system(args, cat_map)
    return system.as_automorphism() if isinstance(system, ProductSystem) else system


def _lps(map: ToralAutomorphism, sa: SetApprox, resolution: float, eps: float | None = None,
         delta: float | None = None, tol: float | None = None) -> LPSReport:
    """The local-product check on a net of resolution r, by default at
    eps 0.1, pair delta min(bracket_delta_for(eps), 3r) and tolerance 2r."""
    eps = 0.1 if eps is None else eps
    if delta is None:
        delta = min(maximality_mod.bracket_delta_for(map.splitting, eps), 3 * resolution)
    return local_product_check(map, sa, eps, delta, 2 * resolution if tol is None else tol)


def _crovisier_grid(system: ProductSystem, depth: int, q: list[float] | None = None,
                    r: list[float] | None = None, v_radius: float | None = None,
                    n_iter: int | None = None, q_period: int = 1) -> tuple[GridSet, float]:
    """The punctured-torus grid set at depth k and its V radius, by default
    punctured at q = (1/2, 0), r = (0, 0) with radius 2·2^-k, after 4 sweeps."""
    v_radius = 2 * 2.0 ** -depth if v_radius is None else v_radius
    grid = crovisier_set(system, TorusPoint(q or (0.5, 0.0)), TorusPoint(r or (0.0, 0.0)),
                         v_radius, depth, 4 if n_iter is None else n_iter, q_period=q_period)
    return grid, v_radius


def _punctured_closure(system: ProductSystem, grid: GridSet, max_iter: int,
                       params: SamplingParams, delta: float | None = None,
                       u_radius: float | None = None) -> ClosureTrace:
    """The closure of a punctured-torus grid set, by default at delta 4w and
    U radius 3w for cell width w, with no defect gate."""
    return iterate_closure(system.as_automorphism(), grid.as_set_approx(),
                           4 * grid.width if delta is None else delta,
                           3 * grid.width if u_radius is None else u_radius,
                           max_iter, params=params, max_defect=np.inf)


# ---------------------------------------------------------------------------
# subcommands


def cmd_shadow(args) -> int:
    map = _load_map(args)
    points, start = _read_pseudo_orbit(args.orbit)
    po = PseudoOrbit.from_map(map, points, periodic=args.periodic,
                              start_index=0 if args.periodic else start)
    solver = newton_shadow if args.method == "newton" else exact_shadow_linear
    result = solver(map, po)
    payload = {"pseudo_orbit": {"defect": pseudo_orbit_defect(map, po.points, periodic=po.periodic),
                                "length": len(po), "periodic": po.periodic},
               "result": result.to_json_dict()}
    _emit(payload, args.out)
    return EXIT_OK


def cmd_closure(args) -> int:
    cfg = _load_config(args)
    map = _load_map(args)
    sa = _read_net(args.points, cfg.resolution)
    trace = iterate_closure(map, sa, cfg.delta, cfg.u_radius, cfg.max_iter,
                            params=cfg.sampling())
    if args.out_csv:
        _write_trace(trace, args.out_csv)
    _emit(trace.to_json_dict(include_iterates=args.include), args.out)
    return EXIT_BUDGET if trace.verdict.kind == "budget_exhausted" else EXIT_OK


def cmd_sft(args) -> int:
    if args.member is not None and args.window is None:
        raise ValueError("--member needs --window")
    s = SubshiftPresentation.from_text(Path(args.words).read_text(), args.alphabet)
    payload: dict = {"alphabet": args.alphabet,
                     "generators": [g.to_text() for g in s.generators]}
    if args.language is not None:
        k = args.language
        payload["language"] = {"k": k, "words": ["".join(map(str, w))
                                                 for w in language(s, k)]}
    if args.closure is not None:
        k = args.closure
        t = sft_closure(s, k)
        payload["closure"] = {"k": k, "admissible": ["".join(map(str, w))
                                                     for w in t.sorted_words()],
                              "stabilizes": stabilization_check(s, k)}
    if args.maximal is not None:
        k = is_locally_maximal(s, args.maximal)
        entry: dict = {"kmax": args.maximal, "k": k}
        if k is None:  # every window has a witness, so the first one does
            entry["witness"] = equality_witness(s, 1).to_text()
        payload["locally_maximal"] = entry
    if args.member is not None:
        w = PeriodicWord.from_text(args.member, args.alphabet)
        t = sft_closure(s, args.window)
        payload["member"] = {"word": w.to_text(), "window": args.window,
                             "in_closure": is_member(t, w)}
    _emit(payload, args.out)
    return EXIT_OK


def cmd_maximality(args) -> int:
    cfg = _load_config(args)
    map = _load_map(args)
    sa = _read_net(args.points, cfg.resolution)
    report = _lps(map, sa, cfg.resolution, args.eps, args.pair_delta, args.membership_tol)
    _emit(report.to_json_dict(), args.out)
    return EXIT_OK


def cmd_crovisier(args) -> int:
    cfg = _load_config(args)
    system = _load_system(args, crovisier_product)
    if not isinstance(system, ProductSystem):
        raise ValueError("crovisier needs a product system (a 'product' entry), "
                         "not a single matrix")
    grid, v_radius = _crovisier_grid(system, args.depth, args.q, args.r, args.v_radius,
                                     args.n_iter, args.q_period)
    payload: dict = {"depth": args.depth, "v_radius": v_radius,
                     "cells": grid.count, "grid": grid.to_rle()}
    exit_code = EXIT_OK
    if args.closure:
        trace = _punctured_closure(system, grid, cfg.max_iter, cfg.sampling(),
                                   args.closure_delta, args.closure_u_radius)
        if args.out_csv:
            _write_trace(trace, args.out_csv)
        payload["closure"] = trace.to_json_dict(include_iterates="none")
        if trace.verdict.kind == "budget_exhausted":
            exit_code = EXIT_BUDGET
    _emit(payload, args.out)
    return exit_code


# ---------------------------------------------------------------------------
# suite


def _suite_shadow(cfg: ExperimentConfig, map, out_dir: Path, quick: bool) -> dict:
    rng = np.random.default_rng(cfg.seed)
    K = map.splitting.shadow_bound(adapted=True)
    n_orbits = 20 if quick else 200
    length = 100 if quick else 200
    worst_ratio = 0.0
    worst_gap = 0.0
    for eps in (1e-2, 1e-3, 1e-4):
        for _ in range(n_orbits):
            pts = _noisy_orbit(map, rng, length, eps)
            po = PseudoOrbit.from_map(map, pts, start_index=-(length // 2))
            exact = exact_shadow_linear(map, po)
            newt = newton_shadow(map, po)
            worst_ratio = max(worst_ratio, exact.sup_distance_adapted / eps)
            worst_gap = max(worst_gap, torus_distance(exact.point, newt.point))
    result = {"orbits_per_scale": n_orbits, "length": length,
              "K_adapted": K, "worst_ratio": worst_ratio,
              "worst_exact_newton_gap": worst_gap,
              "bound_holds": bool(worst_ratio <= K)}
    _emit(result, out_dir / "shadow.json")
    return result


def _noisy_orbit(map, rng, length, eps):
    x = rng.random(map.dim)
    pts = [x]
    for _ in range(length - 1):
        step = rng.standard_normal(map.dim)
        step *= rng.uniform(0, eps) / np.linalg.norm(step)
        x = wrap(map.matrix.astype(float) @ x + step)
        pts.append(x)
    return np.array(pts)


def _suite_equivariance(cfg: ExperimentConfig, map, out_dir: Path, quick: bool) -> dict:
    rng = np.random.default_rng(cfg.seed + 1)
    n = 20 if quick else 200
    worst = 0.0
    for _ in range(n):
        pts = _noisy_orbit(map, rng, 120, 1e-3)
        po = PseudoOrbit.from_map(map, pts, start_index=-60)
        lhs = shadow_operator(map, shift_pseudo(po, 1)).point
        rhs = map.apply(shadow_operator(map, po).point)
        worst = max(worst, torus_distance(lhs, rhs))
    result = {"cases": n, "worst_discrepancy": worst, "passes": bool(worst < 1e-9)}
    _emit(result, out_dir / "equivariance.json")
    return result


def closure_battery(map, resolution: float = 0.02) -> list[tuple[str, SetApprox]]:
    """Seeded stabilization inputs: fixed points, periodic nets, and
    homoclinic (horseshoe-generating) windows."""
    entries: list[tuple[str, SetApprox]] = [
        ("fixed-point", SetApprox(np.array([[0.0, 0.0]]), resolution, "fp")),
        ("two-cycle", SetApprox(np.array([[0.8, 0.6], [0.2, 0.4]]), resolution, "2cyc")),
        ("three-cycle", SetApprox(np.array([[0.75, 0.5], [0.0, 0.25], [0.25, 0.25]]),
                                  resolution, "3cyc")),
        ("cycles-union", SetApprox(np.array([[0.8, 0.6], [0.2, 0.4],
                                             [0.75, 0.5], [0.0, 0.25], [0.25, 0.25]]),
                                   resolution, "union")),
    ]
    s = map.splitting
    vu, vs = s.unstable_basis[:, 0], s.stable_basis[:, 0]

    def homoclinic(tag: str, lattice: tuple[int, int], n_win: int):
        # the fixed point 0 plus the orbit window of W^u(0) ∩ (W^s(0) + lattice)
        t, _ = np.linalg.solve(np.column_stack([vu, -vs]), np.array(lattice, float))
        window = map.orbit_segment(TorusPoint(wrap(t * vu)), -n_win, n_win)
        pts = np.vstack([[[0.0, 0.0]], window])
        return f"homoclinic-{tag}", SetApprox.build(pts, resolution, f"homoclinic-{tag}")

    entries += [homoclinic(tag, lattice, 3)
                for tag, lattice in (("m10", (1, 0)), ("m01", (0, 1)), ("m11", (1, 1)))]
    entries += [homoclinic(tag, (1, 0), n_win)
                for n_win, tag in ((2, "short"), (4, "long"), (5, "longer"))]
    return entries


def _suite_closure(cfg: ExperimentConfig, map, out_dir: Path, quick: bool) -> dict:
    entries = closure_battery(map, cfg.resolution)
    if quick:
        entries = entries[:3]
    results = {}
    for name, sa in entries:
        trace = iterate_closure(map, sa, cfg.delta, cfg.u_radius, cfg.max_iter,
                                params=cfg.sampling())
        lps = _lps(map, trace.final, cfg.resolution)
        _write_trace(trace, out_dir / f"closure_{name}.csv")
        results[name] = {
            "verdict": {"kind": trace.verdict.kind, "index": trace.verdict.index},
            "nus": list(trace.nus),
            "final_size": len(trace.final),
            "gamma": trace.gamma,
            "dichotomy_pass_rate": trace.dichotomy_pass_rate(),
            "lps_passed": lps.passed,
            "lps_pairs": lps.pairs_tested,
        }
    _emit(results, out_dir / "closure.json")
    return results


def _suite_sft(cfg: ExperimentConfig, out_dir: Path, quick: bool) -> dict:
    rng = np.random.default_rng(cfg.seed + 2)
    full = SubshiftPresentation(2, (PeriodicWord.constant(0, 2),
                                    PeriodicWord.constant(1, 2),
                                    PeriodicWord.from_cycle((0, 1), 2)))
    golden = SubshiftPresentation(2, tuple(
        PeriodicWord.from_cycle(c, 2)
        for c in ((0,), (0, 1), (0, 0, 1), (0, 0, 0, 1))))
    even = SubshiftPresentation(2, tuple(
        PeriodicWord.from_cycle(c, 2)
        for c in [(0,), (1,)] + [(0,) + (1,) * (2 * m) for m in range(1, 6)]))
    kmax_even = 4 if quick else 8
    # the window-1 closure contains every window-k closure, so the first
    # window with a witness is 1 or there is none
    witness = equality_witness(even, 1, period_bound=2 * kmax_even)
    n_random = 20 if quick else 100
    k_values = (1, 2, 3) if quick else (1, 2, 3, 4)
    stab_all = all(
        stabilization_check(_random_presentation(rng), k)
        for _ in range(n_random) for k in k_values
    )
    result = {
        "full_shift_k": is_locally_maximal(full, 4),
        "golden_mean_k": is_locally_maximal(golden, 4),
        "even_shift_k": is_locally_maximal(even, kmax_even, period_bound=2 * kmax_even),
        "even_shift_witness": witness.to_text() if witness else None,
        "random_stabilization_all_true": bool(stab_all),
        "random_cases": n_random * len(k_values),
    }
    _emit(result, out_dir / "sft.json")
    return result


def _random_presentation(rng) -> SubshiftPresentation:
    n = int(rng.integers(2, 4))
    gens = []
    for _ in range(int(rng.integers(1, 4))):
        L = tuple(int(v) for v in rng.integers(n, size=rng.integers(1, 4)))
        core = tuple(int(v) for v in rng.integers(n, size=rng.integers(0, 4)))
        R = tuple(int(v) for v in rng.integers(n, size=rng.integers(1, 4)))
        gens.append(PeriodicWord(L, core, R, n))
    return SubshiftPresentation(n, tuple(gens))


def _suite_crovisier(cfg: ExperimentConfig, out_dir: Path, quick: bool) -> dict:
    system = crovisier_product()
    depth = 3 if quick else 4
    grid, _ = _crovisier_grid(system, depth)
    trace = _punctured_closure(
        system, grid, 3 if quick else 6,
        SamplingParams(max_cycle_len=2, n_paths=cfg.n_paths,
                       path_len=min(cfg.path_len, 30), seed=cfg.seed + 3))
    result = {
        "depth": depth,
        "cells": grid.count,
        "verdict": {"kind": trace.verdict.kind, "index": trace.verdict.index},
        "nus": list(trace.nus),
        "gamma": trace.gamma,
        "dichotomy_pass_rate": trace.dichotomy_pass_rate(),
        "never_stabilized": trace.verdict.kind != "stabilized",
    }
    _write_trace(trace, out_dir / "crovisier.csv")
    _emit(result, out_dir / "crovisier.json")
    return result


def cmd_suite(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    quick = args.scale == "quick"
    map = cat_map()

    shadow = _suite_shadow(cfg, map, out_dir, quick)
    equi = _suite_equivariance(cfg, map, out_dir, quick)
    closure = _suite_closure(cfg, map, out_dir, quick)
    sft = _suite_sft(cfg, out_dir, quick)
    crov = _suite_crovisier(cfg, out_dir, quick)

    summary = {
        "scale": args.scale,
        "seed": cfg.seed,
        "shadow_bound_holds": shadow["bound_holds"],
        "equivariance_passes": equi["passes"],
        "closure_all_stabilized_pass_lps": all(
            v["verdict"]["kind"] != "stabilized" or v["lps_passed"]
            for v in closure.values()),
        "dichotomy_all": all(v["dichotomy_pass_rate"] == 1.0 for v in closure.values())
        and crov["dichotomy_pass_rate"] == 1.0,
        "sft": {k: sft[k] for k in ("full_shift_k", "golden_mean_k", "even_shift_k",
                                    "random_stabilization_all_true")},
        "crovisier_never_stabilized": crov["never_stabilized"],
    }
    _emit(summary, out_dir / "summary.json")
    sys.stdout.write(json.dumps({"out": str(out_dir), "summary": summary},
                                sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_config_flags(p: argparse.ArgumentParser,
                      names=tuple(ExperimentConfig.__dataclass_fields__)) -> None:
    """`--config` plus one override flag for each config field the subcommand
    reads; the whole file is validated either way."""
    p.add_argument("--config", help="JSON config file; flags override its entries")
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), dest=name,
                       type=type(getattr(ExperimentConfig, name)), default=None)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as input errors (exit 1 with a JSON error line)
    instead of argparse's exit 2, which is the refusal code here."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shadowbench",
        description="Shadowing, shadowing-closure stabilization, local product "
                    "structure, and symbolic dynamics on toral systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shadow", help="shadow a pseudo-orbit file")
    p.add_argument("--orbit", required=True, help="CSV of index,x0,x1,...")
    p.add_argument("--system", help="system JSON (default: cat map)")
    p.add_argument("--method", choices=("exact", "newton"), default="exact")
    p.add_argument("--periodic", action="store_true")
    p.add_argument("--out", help="result JSON path (default: stdout)")
    p.set_defaults(func=cmd_shadow)

    p = sub.add_parser("closure", help="iterate the shadowing closure")
    p.add_argument("--points", required=True, help="CSV point list for Lambda_0")
    p.add_argument("--system", help="system JSON (default: cat map)")
    p.add_argument("--include", choices=("none", "final", "all"), default="final")
    p.add_argument("--out", help="trace JSON path (default: stdout)")
    p.add_argument("--out-csv", dest="out_csv", help="(j, nu_j) CSV path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("sft", help="language/closure/maximality on word files")
    p.add_argument("--words", required=True, help="file of (cycle)core(cycle) lines")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--language", type=int, metavar="K")
    p.add_argument("--closure", type=int, metavar="K")
    p.add_argument("--maximal", type=int, metavar="KMAX")
    p.add_argument("--member", metavar="WORD")
    p.add_argument("--window", type=int, metavar="K")
    p.add_argument("--out", help="result JSON path (default: stdout)")
    p.set_defaults(func=cmd_sft)

    p = sub.add_parser("maximality", help="local-product-structure report")
    p.add_argument("--points", required=True)
    p.add_argument("--system", help="system JSON (default: cat map)")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--pair-delta", dest="pair_delta", type=float, default=None)
    p.add_argument("--membership-tol", dest="membership_tol", type=float, default=None)
    p.add_argument("--out", help="report JSON path (default: stdout)")
    _add_config_flags(p, ("resolution",))
    p.set_defaults(func=cmd_maximality)

    p = sub.add_parser("crovisier", help="punctured 4-torus grid set")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--v-radius", dest="v_radius", type=float, default=None)
    p.add_argument("--n-iter", dest="n_iter", type=int, default=None)
    p.add_argument("--q", type=float, nargs=2, default=None)
    p.add_argument("--r", type=float, nargs=2, default=None)
    p.add_argument("--q-period", dest="q_period", type=int, default=1)
    p.add_argument("--system", help="product system JSON")
    p.add_argument("--closure", action="store_true",
                   help="also run the stabilization iteration on the grid")
    p.add_argument("--closure-delta", dest="closure_delta", type=float, default=None)
    p.add_argument("--closure-u-radius", dest="closure_u_radius", type=float, default=None)
    p.add_argument("--out", help="result JSON path (default: stdout)")
    p.add_argument("--out-csv", dest="out_csv", help="(j, nu_j) CSV path")
    _add_config_flags(p, ("max_iter", "max_cycle_len", "n_paths", "path_len", "seed"))
    p.set_defaults(func=cmd_crovisier)

    p = sub.add_parser("suite", help="run the full experiment battery")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scale", choices=("quick", "full"), default="full")
    _add_config_flags(p)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; every error becomes one JSON line and an exit code."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ShadowingRefusal, maximality_mod.BracketError) as exc:  # ValueErrors too
        return _error("refusal", str(exc), EXIT_REFUSAL)
    except (OSError, ValueError) as exc:
        return _error("input", str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
