"""Per-layer spans and counters recorded from outside the library.

`Tracer.install` replaces each traced function with a wrapper at every name
its callers look it up under: the defining module, every other shadowbench
module that imported it by name (`closure.exact_shadow_linear`,
`cli.iterate_closure`, ...), or the class attribute for methods.  A wrapper
records one span (name, parent span, start, end, counting) on an in-memory
list and updates the layer's counters from the call's arguments and result
after the span has closed.  That update still runs inside the parent span,
so its duration is stored with the span as `counting` and taken out of every
enclosing span's time: counting is tracing overhead, not layer time.  The
library itself carries no timing code.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from shadowbench.shadowing import ShadowingRefusal

_clock = time.perf_counter


def _count_points(c, args, kwargs, result):
    # the point array or pseudo-orbit is the second argument of both
    # `ToralAutomorphism.apply_array` and `exact_shadow_linear`
    c["points"] += len(args[1])


def _refused(c, exc):
    if isinstance(exc, ShadowingRefusal):
        c["refused"] += 1


def _count_newton(c, args, kwargs, result):
    c["iterations"] += result.iterations


def _count_build_graph(c, args, kwargs, result):
    c["nodes"] += result.n_nodes
    c["edges"] += result.n_edges
    c["lazy"] += not result.materialized


def _count_sample(c, args, kwargs, result):
    orbits = result.orbits
    c["orbits"] += len(orbits)
    c["unique"] += len({(po.points.tobytes(), po.start_index, po.periodic)
                        for po in orbits})
    c["partial"] += bool(result.partial)


def _count_merge(c, args, kwargs, result):
    new_points = args[1] if len(args) > 1 else kwargs["new_points"]
    c["points_in"] += len(new_points)
    c["points_added"] += result[1]


def _count_iterate(c, args, kwargs, result):
    c["steps"] += len(result.nus)


def _count_grid(c, args, kwargs, result):
    c["cells"] += result.count


def _count_lps(c, args, kwargs, result):
    c["pairs"] += result.pairs_tested


def _count_periodic_cycles(c, args, kwargs, result):
    sft = args[0]
    max_period = args[1] if len(args) > 1 else kwargs["max_period"]
    # the words the enumeration tries: every word over the alphabet up to the bound
    c["candidates"] += sum(sft.alphabet_size ** p for p in range(1, max_period + 1))
    c["cycles"] += len(result)


# (span name, defining module, attribute, counter on result, counter on error)
TARGETS = [
    ("torus.apply_array", "torus", "ToralAutomorphism.apply_array", _count_points, None),
    ("torus.compute_splitting", "torus", "compute_splitting", None, None),
    ("shadowing.from_map", "shadowing", "PseudoOrbit.from_map", None, None),
    ("shadowing.exact", "shadowing", "exact_shadow_linear", _count_points, _refused),
    ("shadowing.newton", "shadowing", "newton_shadow", _count_newton, _refused),
    ("shadowing.operator", "shadowing", "shadow_operator", None, _refused),
    ("closure.build_graph", "closure", "build_graph", _count_build_graph, None),
    ("closure.sample", "closure", "sample_pseudo_orbits", _count_sample, None),
    ("closure.merge", "closure", "SetApprox.merge", _count_merge, None),
    ("closure.iterate", "closure", "iterate_closure", _count_iterate, None),
    ("maximality.maximal_invariant_set", "maximality", "maximal_invariant_set",
     _count_grid, None),
    ("maximality.crovisier_set", "maximality", "crovisier_set", None, None),
    ("maximality.lps", "maximality", "local_product_check", _count_lps, None),
    ("symbolic.periodic_cycles", "symbolic", "SFT.periodic_cycles",
     _count_periodic_cycles, None),
    ("symbolic.is_locally_maximal", "symbolic", "is_locally_maximal", None, None),
    ("symbolic.equality_witness", "symbolic", "equality_witness", None, None),
    ("symbolic.stabilization_check", "symbolic", "stabilization_check", None, None),
    ("symbolic.sft_closure", "symbolic", "sft_closure", None, None),
    ("symbolic.as_presentation", "symbolic", "as_presentation", None, None),
    ("cli.main", "cli", "main", None, None),
]


class Tracer:
    """Spans as [name, parent index or -1, start, end, counting seconds] in
    call order; a span's counting runs after its end, inside its parent."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, on_result, on_error):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = _clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[3] = _clock()
                stack.pop()
                if on_error is not None:
                    on_error(counters[name], exc)
                    rec[4] = _clock() - rec[3]
                raise
            rec[3] = _clock()
            stack.pop()
            if on_result is not None:
                on_result(counters[name], args, kwargs, result)
                rec[4] = _clock() - rec[3]
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.missing = []
        modules = [m for key, m in sorted(sys.modules.items())
                   if key.startswith("shadowbench.") and m is not None]
        for name, module_name, attr, on_result, on_error in TARGETS:
            module = sys.modules.get(f"shadowbench.{module_name}")
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if raw is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(
                        self._wrap(name, raw.__func__, on_result, on_error)))
                else:
                    self._patch(cls, meth, self._wrap(name, raw, on_result, on_error))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, fn, on_result, on_error)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # derived figures

    def layer_times(self) -> tuple[dict, dict, dict, float, float]:
        """(calls, inclusive seconds, self seconds, root seconds, counting
        seconds) per span name, the last two as totals.

        Every span's time leaves out the counting done inside it.  Inclusive
        time counts only the outermost span of a name, so a layer that calls
        itself is not counted twice; self time is a span's time minus that of
        its direct children.
        """
        spans = self.spans
        child = [0.0] * len(spans)   # direct children's durations and counting
        inside = [0.0] * len(spans)  # counting done within a span's interval
        for i in range(len(spans) - 1, -1, -1):  # children follow their parent
            _, parent, start, end, counting = spans[i]
            if parent >= 0:
                child[parent] += end - start + counting
                inside[parent] += inside[i] + counting
        calls: dict = defaultdict(int)
        incl: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        root = counting_total = 0.0
        for i, (name, parent, start, end, counting) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            counting_total += counting
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            if p < 0:
                incl[name] += end - start - inside[i]
            if parent < 0:
                root += end - start - inside[i]
        return calls, incl, self_s, root, counting_total

    def write(self, path: Path, meta: dict) -> None:
        """Spans as JSON: names are indexed, times are seconds from the first
        span's start."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "names": names,
                       "fields": ["name", "parent", "start", "end", "counting"],
                       "spans": [[index[n], p, round(s - t0, 9), round(e - t0, 9), round(c, 9)]
                                 for n, p, s, e, c in self.spans]}, fh, separators=(",", ":"))
