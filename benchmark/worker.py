"""One benchmark process: set up a workload, then optionally run it.

Started by `run.py`, never by hand.  It imports shadowbench from the `src/`
directory of the checkout it sits in, builds the workload inputs from the
seed and prints `ready` with the system-wide monotonic clock the moment the
inputs exist; the parent times set-up from just before it started the
process to that reading.  In `probe` mode it exits there.  In `run`
and `trace` modes it repeats the job until `--seconds` have been measured,
at least once, and prints one JSON line with the per-repetition results:
the job's and every item's start and end on the same clock, which the
parent turns into times (see `hostprobe.py`)."""

from __future__ import annotations

import os

# BLAS pools are pinned before numpy loads; the benchmark is single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SHADOWBENCH_THREADS", None)

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def _import_library():
    if not (SRC / "shadowbench" / "__init__.py").is_file():
        sys.exit(f"worker: no shadowbench sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import shadowbench

    if Path(shadowbench.__file__).resolve().parent != (SRC / "shadowbench").resolve():
        sys.exit(f"worker: imported shadowbench from {shadowbench.__file__}, not {SRC}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    _import_library()
    from workloads import WORKLOADS

    make_inputs, run = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    print("ready", time.monotonic(), flush=True)
    if args.mode == "probe":
        return 0

    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    reps = []
    measured = time.monotonic()
    while True:
        t0 = time.monotonic()
        outcome = run(inputs)
        reps.append({"interval": [t0, time.monotonic()], "items": outcome.items,
                     "failures": outcome.failures, "summary": outcome.summary})
        if time.monotonic() - measured >= args.seconds:
            break
        # fresh inputs, so no state is carried between repetitions; their
        # construction is set-up, so it is neither timed nor traced.  The old
        # inputs and outcome are dropped first, so peak memory does not
        # depend on how many repetitions fit in the run.
        if tracer is not None:
            tracer.uninstall()
        inputs = outcome = None
        inputs = make_inputs(args.seed)
        if tracer is not None:
            tracer.install()
    result = {"reps": reps,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        calls, incl, self_s, root, counting = tracer.layer_times()
        result["trace"] = {
            "calls": calls, "s": incl, "self_s": self_s, "root_s": root,
            "counting_s": counting,
            "counters": {k: dict(v) for k, v in tracer.counters.items()},
            "missing": tracer.missing,
        }
        if args.spans_out:
            tracer.write(Path(args.spans_out), {"workload": args.workload,
                                                "seed": args.seed, "reps": len(reps)})
    print(json.dumps(result), flush=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())
