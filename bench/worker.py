"""One workload process: set up, time every op repeatedly, check outputs.

Started by run.py with the BLAS thread count pinned in its environment:

    python3 bench/worker.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 bench/worker.py --workload certify --seed 1 --setup-only

It prints ``ready <import seconds>`` once the first op could run.  With
--setup-only it stops there.  Otherwise it times every op ``op.samples``
times (a fixed count per workload and size class, see workloads.SAMPLES) in
rounds spread over --seconds, checking each output, and the parts of the
reference loop once per round on each CPU, and prints one JSON line with
every op's latency samples, the reference loop's best time, the failures
and the versions in use.
With --trace 1 it instead times every op untraced and traced in turn, for
a fixed number of passes, and adds per-layer metrics; the spans are written
to bench/out/ after the last pass.
"""

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# traced passes: at most this many, and no more than the fewest samples of
# any op; spans stay in memory until the run ends, ~1 MB per pass
TRACED_PASSES = 5


def digest(obj) -> str:
    """Bit-exact fingerprint of an op's output (floats and arrays pickle
    their exact bytes)."""
    return hashlib.sha256(pickle.dumps(obj, protocol=5)).hexdigest()


# The reference loop: fixed work that calls no ladderkit code, ~2 ms each of
# the kinds the ops do.  The sum of its parts' best times in a run says how
# fast the machine ran during that run.

def _ref_integers():
    """Interpreter-bound integer arithmetic."""
    s = 0
    for i in range(30_000):
        s += i * i % 7
    return s


def _ref_dicts():
    """Big-integer dict updates, as in diagrams."""
    row = {0: 1}
    for _ in range(140):
        nxt = {}
        for n, v in row.items():
            nxt[n - 1] = nxt.get(n - 1, 0) + v
            nxt[n + 1] = nxt.get(n + 1, 0) + v
        row = nxt
    return row[0]


def _ref_fractions():
    """Fraction arithmetic."""
    q = Fraction(0)
    for k in range(1, 800):
        q += Fraction(1, k)
    return q


def _ref_matrices():
    """6x6 complex matrix products."""
    import numpy as np  # after workloads, so that import_s counts numpy
    a = np.arange(36, dtype=complex).reshape(6, 6) / 50
    for _ in range(500):
        b = a @ a
        a = b / (np.abs(b).max() + 1)
    return a


REFERENCE_PARTS = (_ref_integers, _ref_dicts, _ref_fractions, _ref_matrices)


class Run:
    """Latency samples and check results of one worker run.

    Each op's output is checked the first time; a later output with the
    same digest has the same verdict.  A different digest marks the run
    non-deterministic and is checked on its own.  Only the first sample of
    each op counts as attempted.
    """

    def __init__(self, ops):
        self.ops = ops
        self.samples = [[] for _ in ops]
        self.traced = [[] for _ in ops]
        self.first = {}
        self.deterministic = True
        self.attempted = 0
        self.failed = []
        self.reference = [[] for _ in REFERENCE_PARTS]

    def sample(self, i, tracer=None, counted=True):
        op = self.ops[i]
        error = None
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.span("op." + op.kind):
                    out = op.run()
        except Exception as exc:  # a raising op is a failed op, not a failed run
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        key = digest(error or out)
        if i in self.first and key == self.first[i][0]:
            verdict = self.first[i][1]
        else:
            verdict = judge(op, out, error)
            if i in self.first:
                self.deterministic = False
            else:
                self.first[i] = (key, verdict)
        (self.samples if tracer is None else self.traced)[i].append(elapsed)
        if counted:
            self.attempted += 1
            if verdict[0] is not None:
                self.failed.append((op.kind, *verdict))

    def result(self):
        return {
            "samples": self.samples,
            "attempted": self.attempted,
            "failed": len(self.failed),
            "unexpected": sum(v == "unexpected" for _, v, _, _ in self.failed),
            "failures": _failure_groups(self.failed),
            "deterministic": self.deterministic,
            "reference_s": (sum(min(t) for t in self.reference)
                            if self.reference[0] else None),
        }


def judge(op, out, error):
    """(None if the op passed, else its known defect or "unexpected";
    the score that decided it, or the error)."""
    if error:
        return "unexpected", math.inf, error
    score = float(op.check(out))
    if not score <= 1.0:
        return "unexpected", score, None
    if op.known is None:
        return None, score, None
    known = float(op.known.check(out))
    if known <= 1.0:
        return None, max(score, known), None
    if known <= op.known.ceiling:
        return op.known.defect, known, None
    return "unexpected", known, None


def _failure_groups(failed):
    """[kind, known defect or "unexpected", count, first error or worst score]."""
    groups = {}
    for kind, verdict, score, err in failed:
        g = groups.setdefault((kind, verdict),
                              {"count": 0, "score": 0.0, "error": None})
        g["count"] += 1
        g["score"] = max(g["score"], score)
        g["error"] = g["error"] or err
    return [[kind, verdict, g["count"], g["error"] or f"{g['score']:.3g} x tolerance"]
            for (kind, verdict), g in sorted(groups.items())]


def rounds_due(samples, rounds):
    """Rounds in which an op with ``samples`` samples runs: sample k in
    round ceil(k * rounds / samples), so round 0 and then evenly spaced."""
    return {-(-k * rounds // samples) for k in range(samples)}


def measure(run, seconds):
    """Time every op ``op.samples`` times, in rounds spread over ``seconds``.

    Round 0 runs every op once; its samples are the checked, counted ones.
    A round that ends ahead of its share of ``seconds`` waits, so each op's
    samples are spread over the whole run.  An op's k-th sample runs on
    the (k mod n)-th of the n allowed CPUs: a vCPU whose host core is busy
    runs 1.3-1.6x slower, for seconds at a time and independently of the
    other vCPU.  Each round ends with one sample of each part of the
    reference loop on each allowed CPU.
    """
    rounds = max(op.samples for op in run.ops)
    due = [rounds_due(op.samples, rounds) for op in run.ops]
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    start = time.perf_counter()
    try:
        for r in range(rounds):
            batch = sorted((len(run.samples[i]) % len(cpus), i)
                           for i in range(len(run.ops)) if r in due[i])
            for slot, i in batch:
                if os.sched_getaffinity(0) != {cpus[slot]}:
                    os.sched_setaffinity(0, {cpus[slot]})
                run.sample(i, counted=r == 0)
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                for part, times in zip(REFERENCE_PARTS, run.reference):
                    t0 = time.perf_counter()
                    part()
                    times.append(time.perf_counter() - t0)
            if r + 1 < rounds:
                time.sleep(max(0.0, start + (r + 1) * seconds / rounds
                               - time.perf_counter()))
    finally:
        os.sched_setaffinity(0, allowed)


def measure_traced(run, passes):
    """``passes`` passes that time each op untraced and then traced, so
    both samples of an op see the same machine load; returns each pass's
    spans (parents indexed within the pass) and per-layer metrics."""
    from tracing import Tracer, layer_metrics
    spans, layers = [], []
    for p in range(passes):
        tracer = Tracer()
        for i in range(len(run.ops)):
            run.sample(i, counted=p == 0)
            with tracer.installed():
                run.sample(i, tracer, counted=False)
        spans.append(tracer.spans)
        layers.append(layer_metrics(tracer.spans, tracer.counters))
    return spans, layers


def versions():
    import mpmath
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0
    ops = workloads.build(args.workload, args.seed)
    workloads.warm_up(ops)
    print(f"ready {import_s!r}", flush=True)
    if args.setup_only:
        return 0

    run = Run(ops)
    if not args.trace:
        measure(run, args.seconds)
        result = run.result()
    else:
        passes = min(TRACED_PASSES, *(op.samples for op in ops))
        spans, layers = measure_traced(run, passes)
        counts = [{k: v for k, v in m.items() if not k.endswith(".self_s")}
                  for m in layers]
        result = {**run.result(), "traced_samples": run.traced,
                  "layers": {k: min(m[k] for m in layers) if k.endswith(".self_s")
                             else layers[0][k] for k in layers[0]},
                  "layer_counts_repeat": all(c == counts[0] for c in counts),
                  "slowest_spans": _slowest(spans),
                  "spans_file": _write_spans(spans, args)}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = versions()
    print(json.dumps(result), flush=True)
    return 0


def _slowest(passes):
    out = {}
    for spans in passes:
        for name, s, e, _, _ in spans:
            if not name.startswith("op.") and e - s > out.get(name, 0.0):
                out[name] = e - s
    return out


def _write_spans(passes, args):
    from tracing import self_times
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for p, spans in enumerate(passes):
            for (name, s, e, parent, op_id), own in zip(spans, self_times(spans)):
                fh.write(json.dumps([p, name, s, e, parent, op_id, own]) + "\n")
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
