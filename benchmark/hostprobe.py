"""Host-speed probe: scales measured times to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed for the same
single-threaded work swings by up to a factor of two within seconds, with
the neighbours' load.  Medians over a run do not remove that: a run that
falls in a slow stretch reads slow throughout.  So `run.py` pins itself, and
with it every process it starts, to one CPU, and runs this file there as a
second process for the whole run.  Every `PERIOD_S` seconds the probe wakes,
preempting the worker, and times a fixed kernel: small numpy calls, integer
and dictionary work, and tuple words in a set, in about equal parts, the
kinds of work the library does.  No single kind of work tracked every
workload over time (numpy calls on many small arrays tracked the shadowing
and closure jobs best in one stretch and read one symbolic job 40% slow in
another); the mix follows all of them within about 20%.  Being a process of
its own, the probe also runs while the worker sits in one long C call, as
`build_graph` does for seconds at a time.

`Samples` turns a worker's measured interval into the time it would have
taken on a host where the kernel takes `REF_S`: the probe's own time inside
the interval is taken out, and the rest is scaled by `REF_S` over the mean
kernel time of the probes near it.  The kernel calls nothing in the library,
so a change to the library moves the scaled times as much as the raw ones.

    python3 hostprobe.py    # prints `ready`, probes until stdin closes,
                            # then prints the samples as one JSON line
"""

from __future__ import annotations

import bisect
import itertools
import json
import select
import sys
import time

import numpy as np

PERIOD_S = 0.02   # one probe per 20 ms of wall time
REF_S = 3e-4      # kernel time on the reference host
WINDOW_S = 0.1    # probes this close to an interval judge its speed

_M = np.array([[2.0, 1.0], [1.0, 1.0]])


def _kernel() -> None:
    # small numpy calls, as in shadowing and closure
    x = np.array([0.3, 0.7])
    for _ in range(35):
        x = _M @ x
        x -= np.floor(x)
    # integer and dictionary work
    acc: dict = {}
    s = 0
    for i in range(700):
        s += i * i % 7
        acc[i % 97] = s
    # tuple words in a set, as in symbolic
    seen = set()
    w = (0, 1, 1, 0, 2)
    for i in range(200):
        w = w[1:] + (w[0] ^ (i & 1),)
        seen.add(w)


def main() -> int:
    _kernel()  # first-call costs stay out of the samples
    print("ready", flush=True)
    starts: list[float] = []
    ends: list[float] = []
    # waiting on stdin is the sleep between probes; it ends when the parent
    # closes the pipe
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        starts.append(time.monotonic())
        _kernel()
        ends.append(time.monotonic())
    print(json.dumps({"starts": starts, "ends": ends}), flush=True)
    return 0


class Samples:
    """The probe's samples, on the system-wide monotonic clock."""

    def __init__(self, starts: list[float], ends: list[float]) -> None:
        self.starts = starts
        self.ends = ends
        self.mids = [0.5 * (a + b) for a, b in zip(starts, ends)]
        self.kernel_s = [b - a for a, b in zip(starts, ends)]
        self._busy = [0.0, *itertools.accumulate(self.kernel_s)]

    def probe_ms(self) -> float:
        return 1000.0 * sum(self.kernel_s) / len(self.kernel_s)

    def _hidden(self, t0: float, t1: float) -> float:
        """Probe time inside [t0, t1], when the worker could not run."""
        lo = bisect.bisect_left(self.ends, t0)     # first probe ending after t0
        hi = bisect.bisect_right(self.starts, t1)  # probes starting by t1
        if hi <= lo:
            return 0.0
        inside = self._busy[hi] - self._busy[lo]
        inside -= max(0.0, t0 - self.starts[lo])    # the part before t0
        inside -= max(0.0, self.ends[hi - 1] - t1)  # the part after t1
        return max(0.0, inside)

    def _factor(self, t0: float, t1: float) -> float:
        """REF_S over the mean kernel time of the probes within WINDOW_S of
        [t0, t1], or of the three nearest if fewer fall there."""
        lo = bisect.bisect_left(self.mids, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.mids, t1 + WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.mids, 0.5 * (t0 + t1))
            hi = min(len(self.mids), max(mid + 2, 3))
            lo = max(0, hi - 3)
        window = self.kernel_s[lo:hi]
        if not window:
            raise RuntimeError("host probe: no samples")
        return REF_S * len(window) / sum(window)

    def raw(self, t0: float, t1: float) -> float:
        """The worker's own time in [t0, t1]."""
        return t1 - t0 - self._hidden(t0, t1)

    def scaled(self, t0: float, t1: float) -> float:
        """The worker's time in [t0, t1] at the reference host speed."""
        return self.raw(t0, t1) * self._factor(t0, t1)


if __name__ == "__main__":
    sys.exit(main())
