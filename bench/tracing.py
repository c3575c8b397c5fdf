"""In-memory spans at ladderkit's layer boundaries, and their arithmetic.

``Tracer.installed()`` replaces each traced function, in every ladderkit
module namespace that binds it (``factorization.expm``, ``gn.oracle_element``,
``phase.bessel_jn``, ...), with a wrapper that records a span
[name, start, end, parent, op id] and feeds the layer's work counters.  On
exit the originals are put back.  Spans stay in memory until the run ends.
"""

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager


def _window(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["window"]


def _states_built(counters, args, kwargs, result):
    counters["algebra.states_built"] += _window(args, kwargs).size


def _expm_size(counters, args, kwargs, result):
    n = result.matrix.shape[0]
    counters["expm.expm.dim_max"] = max(counters["expm.expm.dim_max"], n)
    counters["expm.expm.n3_sum"] += n ** 3


def _antinormal_terms(counters, args, kwargs, result):
    # one inner-sum term per (n, m, j) with max(n, m) <= j <= j_max
    w = _window(args, kwargs)
    core = range(w.core_lo, w.core_hi + 1)
    counters["factorization.antinormal_core.terms"] += sum(
        w.j_max - max(n, m) + 1 for n in core for m in core)


def _diagram_nodes(counters, args, kwargs, result):
    counters["triangles.generate.nodes"] += sum(len(row) for row in result.rows)


def _auto_route(counters, args, kwargs, result):
    counters["gn.gn_auto.oracle_calls"] += result.route == "oracle"


# span name "<module>.<function>" -> counter hook(counters, args, kwargs, result)
TRACED = {
    "algebra.build_matrices": _states_built,
    "expm.expm": _expm_size,
    "expm.oracle_element": None,
    "expm.pad_sufficiency": None,
    "factorization.factorization_residual": None,
    "factorization.ordered_product": None,
    "factorization.antinormal_core": _antinormal_terms,
    "gn.gn_closed": None,
    "gn.gn_series": None,
    "gn.gn_oracle": None,
    "gn.gn_auto": _auto_route,
    "gn.hyp2f1_series": None,
    "gn.bessel_jn": None,
    "phase.phase_element": None,
    "phase.phase_oracle_element": None,
    "triangles.generate": _diagram_nodes,
    "triangles.render_ascii": None,
    "triangles.to_records": None,
    "triangles.sumrule_check": None,
    "rotations.rotation_factorized": None,
    "rotations.antinormal_rotation": None,
    "rotations.rotation_direct": None,
    "cli.main": None,
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counters = Counter()
        self.op_id = -1
        self._stack = []

    def _enter(self, name):
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-2] if len(self._stack) > 1 else -1,
                           self.op_id])

    def _exit(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "ladderkit" or key.startswith("ladderkit.")]
        patched = []
        try:
            for name, hook in TRACED.items():
                module, attr = name.rsplit(".", 1)
                original = getattr(sys.modules["ladderkit." + module], attr)
                wrapper = self._wrap(name, original, hook)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            patched.append((m, key, original))
            yield self
        finally:
            for m, key, original in reversed(patched):
                setattr(m, key, original)


def covered_length(intervals, start, end):
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = {}
    for name, s, e, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((s, e))
    return [e - s - covered_length(children.get(i, ()), s, e)
            for i, (_, s, e, _, _) in enumerate(spans)]


def layer_metrics(spans, counters):
    """Per-layer calls and self time over ``spans``, plus the work counters
    and the route fractions derived from them."""
    out = {}
    for name in TRACED:
        out[name + ".calls"] = 0
        out[name + ".self_s"] = 0.0
    for (name, *_), own in zip(spans, self_times(spans)):
        if name in TRACED:
            out[name + ".calls"] += 1
            out[name + ".self_s"] += own
    for key in ("algebra.states_built", "expm.expm.dim_max", "expm.expm.n3_sum",
                "factorization.antinormal_core.terms", "triangles.generate.nodes"):
        out[key] = counters[key]
    residuals = [i for i, sp in enumerate(spans)
                 if sp[0] == "factorization.factorization_residual"]
    exact = {sp[3] for sp in spans if sp[0] == "factorization.antinormal_core"}
    out["factorization.exact_route_frac"] = (
        sum(i in exact for i in residuals) / len(residuals) if residuals else 0.0)
    autos = out["gn.gn_auto.calls"]
    out["gn.gn_auto.oracle_frac"] = (
        counters["gn.gn_auto.oracle_calls"] / autos if autos else 0.0)
    return out
