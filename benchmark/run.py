"""shadowbench benchmark: time to a verified result on four workloads.

    python3 benchmark/run.py                          # all workloads, seed 0
    python3 benchmark/run.py --workload closure-2d --seed 3 --seconds 10
    python3 benchmark/run.py --workload symbolic --trace 1

Every set-up and every run happens in a fresh `worker.py` process with BLAS
threads pinned to 1, on one CPU shared with the host probe; this process
only starts them and reports.  An untraced run (`--trace 0`) starts six
set-up probes and one run, and reports the end-to-end metrics: `setup_s` is
the median set-up time over the seven processes, the others come from the
run, and every time is scaled to a reference host speed by `hostprobe.py`.
A traced run (`--trace 1`) runs the job once untraced and once traced, in
two processes, without the probe, and reports the per-layer metrics plus
the tracing overhead between the two.

Outputs are checked in the workers; at the default seed the job summaries
are also compared with `reference.json`.  The last line on stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the lines
before it give every metric by name and unit, the environment and the base
of each ratio.  Full results and spans are written under `benchmark/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import hostprobe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

CPUS = sorted(os.sched_getaffinity(0))
WORKLOADS = ("shadow-verify", "closure-2d", "punctured-4d", "symbolic")
DEFAULT_SEED = 0
SETUP_SAMPLES = 7      # set-up is timed in this many fresh processes per run;
                       # each probe adds about 0.7 s to a run
RUN_DEADLINE_S = 170   # a single-workload run ends well inside 180 s
NU_TOL = 1e-9          # reference tolerance for floats; everything else is exact

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("item_p50_ms", "ms"),
              ("item_tail_ms", "ms"), ("peak_rss_mb", "MB"))


class WorkerError(RuntimeError):
    pass


def _layer_metrics() -> list[tuple[str, str, object]]:
    """(name, unit, value from the traced job) for every per-layer metric;
    counts and times are per job, ratios give their base in the name."""

    def calls(n):
        return lambda t: t["calls"].get(n, 0)

    def secs(n):
        return lambda t: t["s"].get(n, 0.0)

    def self_s(n):
        return lambda t: t["self_s"].get(n, 0.0)

    def count(n, key):
        return lambda t: t["counters"].get(n, {}).get(key, 0)

    def ratio(num, den):
        return lambda t: num(t) / den(t) if den(t) else 0.0

    out: list = []

    def layer(n, *extra):
        out.append((f"{n}.calls", "count", calls(n)))
        out.append((f"{n}.s", "s", secs(n)))
        out.extend(extra)

    g, sm, mg = "closure.build_graph", "closure.sample", "closure.merge"
    layer(g, (f"{g}.nodes", "count", count(g, "nodes")),
          (f"{g}.edges", "count", count(g, "edges")),
          (f"{g}.lazy_ratio", "ratio", ratio(count(g, "lazy"), calls(g))))
    layer(sm, (f"{sm}.orbits", "count", count(sm, "orbits")),
          (f"{sm}.unique_ratio", "ratio", ratio(count(sm, "unique"), count(sm, "orbits"))),
          (f"{sm}.partial_ratio", "ratio", ratio(count(sm, "partial"), calls(sm))))
    layer(mg, (f"{mg}.points_in", "count", count(mg, "points_in")),
          (f"{mg}.points_added", "count", count(mg, "points_added")),
          (f"{mg}.added_ratio", "ratio",
           ratio(count(mg, "points_added"), count(mg, "points_in"))))
    it = "closure.iterate"
    layer(it, (f"{it}.steps", "count", count(it, "steps")),
          (f"{it}.self_s", "s", self_s(it)))
    ex = "shadowing.exact"
    layer(ex, (f"{ex}.points", "count", count(ex, "points")),
          (f"{ex}.refused", "count", count(ex, "refused")))
    layer("shadowing.from_map")
    layer("shadowing.newton",
          ("shadowing.newton.iterations", "count", count("shadowing.newton", "iterations")))
    layer("shadowing.operator")
    layer("maximality.maximal_invariant_set")
    out.append(("maximality.cells", "count",
                count("maximality.maximal_invariant_set", "cells")))
    layer("maximality.crovisier_set")
    layer("maximality.lps", ("maximality.lps.pairs", "count", count("maximality.lps", "pairs")))
    pc = "symbolic.periodic_cycles"
    layer(pc, (f"{pc}.candidates", "count", count(pc, "candidates")),
          (f"{pc}.cycles", "count", count(pc, "cycles")),
          (f"{pc}.yield", "ratio", ratio(count(pc, "cycles"), count(pc, "candidates"))))
    for n in ("is_locally_maximal", "equality_witness", "stabilization_check",
              "sft_closure", "as_presentation"):
        layer(f"symbolic.{n}")
    layer("torus.apply_array",
          ("torus.apply_array.points", "count", count("torus.apply_array", "points")))
    layer("torus.compute_splitting")
    out.append(("cli.main.calls", "count", calls("cli.main")))
    out.append(("cli.main.self_s", "s", self_s("cli.main")))
    out.append(("bench.unattributed_s", "s", lambda t: t["unattributed_s"]))
    out.append(("bench.counting_s", "s", lambda t: t["counting_s"]))
    out.append(("bench.wall_s", "s", lambda t: t["wall_s"]))
    out.append(("bench.traced_wall_s", "s", lambda t: t["traced_wall_s"]))
    out.append(("bench.tracing_overhead_ratio", "ratio",
                lambda t: (t["traced_wall_s"] - t["wall_s"]) / t["wall_s"]))
    return out


LAYER_METRICS = _layer_metrics()
UNITS = {**{name: unit for name, unit, _ in LAYER_METRICS}, **dict(END_TO_END)}


# ---------------------------------------------------------------------------
# workers


def _spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float,
           spans_out: Path | None = None) -> tuple[list[float], dict | None]:
    """Start one worker and wait for it; returns ([start, ready] on the
    monotonic clock, result)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"{workload}: no time left for a {mode} worker")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload}: {mode} worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise WorkerError(f"{workload}: {mode} worker failed with exit code {proc.returncode}")
    setup = [started, float(lines[0].split()[1])]
    return setup, (None if mode == "probe" else json.loads(lines[-1]))


class _Probe:
    """The host probe (`hostprobe.py`) as a process beside the workers."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "hostprobe.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise WorkerError("host probe failed to start")

    def close(self) -> hostprobe.Samples | None:
        """Stop the probe, wait for it, and return its samples."""
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return None
        lines = out.splitlines()
        if self.proc.returncode != 0 or not lines:
            return None
        data = json.loads(lines[-1])
        return hostprobe.Samples(data["starts"], data["ends"]) if data["starts"] else None


def _timed(res: dict, samples: hostprobe.Samples | None) -> None:
    """Turn a worker's intervals into times: scaled to the reference host
    speed with the probe's samples, raw without them (traced runs)."""
    raw = samples.raw if samples is not None else (lambda t0, t1: t1 - t0)
    scaled = samples.scaled if samples is not None else raw
    for rep in res["reps"]:
        t0, t1 = rep.pop("interval")
        rep["raw_wall_s"] = raw(t0, t1)
        rep["wall_s"] = scaled(t0, t1)
        rep["item_s"] = [scaled(a, b) for a, b in rep.pop("items")]


# ---------------------------------------------------------------------------
# checks


def _matches(got, want) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        return (isinstance(got, (int, float)) and isinstance(want, (int, float))
                and not isinstance(got, bool) and abs(got - want) <= NU_TOL)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_matches(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_matches(a, b) for a, b in zip(got, want)))
    return type(got) is type(want) and got == want


def _verify(workload: str, seed: int, results: list[dict], notes: list[str]) -> tuple[int, int]:
    """(attempted, failed): every item of every repetition, plus, at the
    default seed, one comparison per top-level entry of the reference; a
    missing reference entry is a mismatch."""
    attempted = failed = 0
    for res in results:
        for rep in res["reps"]:
            attempted += len(rep["item_s"])
            failed += len(rep["failures"])
            notes.extend(f"check failed: {f}" for f in rep["failures"][:20])
    if seed == DEFAULT_SEED:
        want = json.loads(REFERENCE.read_text()).get(workload, {}) if REFERENCE.is_file() else {}
        for res in results:
            for rep in res["reps"]:
                got = rep["summary"]
                for key in sorted(set(want) | set(got)):
                    attempted += 1
                    if key not in want or key not in got or not _matches(got[key], want[key]):
                        failed += 1
                        notes.append(f"reference mismatch in {key!r}")
    return attempted, failed


# ---------------------------------------------------------------------------
# metrics


def _latencies(reps: list[dict]) -> list[float]:
    """Item latencies of every repetition of the run.  With ten items or
    fewer in a job no percentile has ten samples beyond it, so the job is
    the one item, at its median over the repetitions, like `wall_s`."""
    if len(reps[0]["item_s"]) <= 10:
        return [statistics.median(r["wall_s"] for r in reps)]
    return [x for r in reps for x in r["item_s"]]


def _tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0], "the whole job as one item (10 items or fewer)"
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.2f} of {n} items, 10 beyond"


def _end_to_end(setups: list[float], res: dict, probe_ms: float, notes: list[str]) -> dict:
    reps = res["reps"]
    latencies = _latencies(reps)
    tail = _tail(latencies)
    notes.append(f"setup_s: median of {len(setups)} fresh processes "
                 f"({', '.join(f'{s:.3f}' for s in setups)} s)")
    notes.append(f"wall_s, item_*: median over {len(reps)} repetition(s) of the job and "
                 f"over the items of all of them, scaled to the reference host speed; "
                 f"raw wall "
                 f"{statistics.median(r['raw_wall_s'] for r in reps):.3f} s, "
                 f"mean host probe {probe_ms:.3f} ms (reference "
                 f"{1000.0 * hostprobe.REF_S:.3f} ms)")
    notes.append(f"item_tail_ms: {tail[1]}")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "item_p50_ms": 1000.0 * statistics.median(latencies),
        "item_tail_ms": 1000.0 * tail[0],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def _per_layer(plain: dict, traced: dict, notes: list[str]) -> dict:
    t = traced["trace"]
    n_reps = len(traced["reps"])
    wall = statistics.median(r["raw_wall_s"] for r in plain["reps"])
    traced_wall = statistics.median(r["raw_wall_s"] for r in traced["reps"])
    per_job = {"calls": {k: v / n_reps for k, v in t["calls"].items()},
               "s": {k: v / n_reps for k, v in t["s"].items()},
               "self_s": {k: v / n_reps for k, v in t["self_s"].items()},
               "counters": {k: {c: v / n_reps for c, v in cs.items()}
                            for k, cs in t["counters"].items()},
               "unattributed_s": (sum(r["raw_wall_s"] for r in traced["reps"])
                                  - t["root_s"] - t["counting_s"]) / n_reps,
               "counting_s": t["counting_s"] / n_reps,
               "wall_s": wall, "traced_wall_s": traced_wall}
    metrics = {name: fn(per_job) for name, _, fn in LAYER_METRICS}
    if t["missing"]:
        notes.append(f"not traced (absent): {', '.join(t['missing'])}")
    largest = max(per_job["self_s"].items(), key=lambda kv: kv[1], default=("none", 0.0))
    notes.append(f"largest layer by self time: {largest[0]} {largest[1]:.3f} s "
                 f"({100.0 * largest[1] / traced_wall:.1f}% of traced wall_s)")
    notes.append(f"tracing overhead: traced wall {traced_wall:.3f} s vs untraced "
                 f"{wall:.3f} s, both raw (not scaled to the reference host); "
                 f"ratios use traced figures of one job")
    return metrics


def _environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "networkx"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "affinity": len(CPUS), "pinned_cpu": CPUS[-1],
            "cpu": cpu, "python": platform.python_version(), **versions}


# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    notes: list[str] = []
    if trace:
        # unscaled: the probe would preempt the traced job inside its spans
        _, plain = _spawn(workload, seed, seconds, "run", deadline)
        _, traced = _spawn(workload, seed, seconds, "trace", deadline,
                           spans_out=OUT_DIR / f"spans-{workload}-seed{seed}.json")
        _timed(plain, None)
        _timed(traced, None)
        attempted, failed = _verify(workload, seed, [plain, traced], notes)
        metrics = _per_layer(plain, traced, notes)
        raw = {"plain": plain, "traced": traced}
    else:
        probe = _Probe()
        try:
            setups = [_spawn(workload, seed, seconds, "probe", deadline)[0]
                      for _ in range(SETUP_SAMPLES - 1)]
            setup, res = _spawn(workload, seed, seconds, "run", deadline)
            setups.append(setup)
        finally:
            samples = probe.close()
        if samples is None:
            raise WorkerError("host probe returned no samples")
        _timed(res, samples)
        attempted, failed = _verify(workload, seed, [res], notes)
        metrics = _end_to_end([samples.scaled(t0, t1) for t0, t1 in setups], res,
                              samples.probe_ms(), notes)
        raw = {"run": res}
    notes.append(f"failed_ratio = {failed}/{attempted} = {failed / attempted:.6g} "
                 f"(base: items checked plus reference entries compared)")
    env = _environment()
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                    "env": env, "metrics": metrics, "attempted": attempted,
                    "failed": failed, "notes": notes,
                    "wall_s": {k: [r["wall_s"] for r in v["reps"]] for k, v in raw.items()},
                    "summary": next(iter(raw.values()))["reps"][0]["summary"]},
                   indent=1) + "\n")
    print(f"== {workload} (seed {seed}, trace {int(trace)})")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {UNITS[name]}")
    for note in notes:
        print(f"  # {note}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure at least this long; the job repeats until then")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # the workers and the host probe share one CPU, so the probe measures
    # the speed the job gets
    os.sched_setaffinity(0, {CPUS[-1]})

    if not (ROOT / "src" / "shadowbench" / "__init__.py").is_file():
        print(f"benchmark: no shadowbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            parts = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                     for w in WORKLOADS}
            result = {"correct": all(p["correct"] for p in parts.values()),
                      "attempted": sum(p["attempted"] for p in parts.values()),
                      "failed": sum(p["failed"] for p in parts.values()),
                      "metrics": {f"{w}.{k}": v for w, p in parts.items()
                                  for k, v in p["metrics"].items()}}
    except WorkerError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
