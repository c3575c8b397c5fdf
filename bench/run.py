"""ladderkit benchmark: the certify, sweep and tables workloads.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

With --trace 0 a run starts SETUP_PROBES fresh interpreters that import
ladderkit, build the seeded inputs and warm up, half before and half after
the measurement, alternating between the allowed CPUs, and takes the median
time to the first op ready as setup_s.  One worker process (BLAS pinned to
one thread) times every op a fixed number of times over --seconds, checks
every output and times the parts of a fixed reference loop in every round.
An op's latency is its minimum over its samples; wall_s sums it over the op
list, and op_p50_ms and op_p90_ms are percentiles over the ops.  The
reported wall_ref, op_p50_ref and op_p90_ref are the same figures divided
by the reference loop's best time in the run (the sum of its parts' best
times).  With --trace 1 the worker runs traced instead.
A summary goes to stdout, then one JSON line
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Metric names and units
come from BENCHMARK.json.  ``failed / attempted`` is the error fraction.
``correct`` is false when an op fails other than by its known defect, or
worse than that defect's ceiling, when repeated or traced passes give
different outputs, or when per-layer counts differ between traced passes.
A record with provenance is written to bench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
WORKLOADS = ("certify", "sweep", "tables")
SETUP_PROBES = 6
BLAS_THREADS = "1"
TIMEOUT_S = 170.0


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def op_latencies(samples):
    """Each op's minimum latency over its samples in a run.

    On a shared machine other tenants slow whole stretches of a run by up to
    2x; the minimum over repeats is the op's cost with the least
    interference, and it varies far less between runs than a mean.
    """
    return [min(times) for times in samples]


def count_beyond(values, q):
    cut = percentile(values, q)
    return sum(v > cut for v in values)


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker_cmd(args, workload, *extra):
    return [sys.executable, str(WORKER), "--workload", workload,
            "--seed", str(args.seed), *extra]


def setup_probes(args, workload, count):
    """Time from process start to the worker's ``ready`` line, and the
    import time it reports, for ``count`` fresh interpreters.  Probe k runs
    on the k-th allowed CPU in turn (the child inherits this process's
    affinity)."""
    cpus = sorted(os.sched_getaffinity(0))
    out = []
    try:
        for k in range(count):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            t0 = time.perf_counter()
            proc = subprocess.Popen(_worker_cmd(args, workload, "--setup-only"),
                                    stdout=subprocess.PIPE, text=True,
                                    env=_child_env(), cwd=ROOT)
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=TIMEOUT_S) != 0 or not line.startswith("ready"):
                raise RuntimeError(f"setup probe for {workload} failed")
            out.append((elapsed, float(line.split()[1])))
    finally:
        os.sched_setaffinity(0, cpus)
    return out


def run_worker(args, workload, trace):
    cmd = _worker_cmd(args, workload, "--seconds", str(args.seconds),
                      "--trace", str(trace))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env=_child_env(), cwd=ROOT, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _git_sha():
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def raw_times(res):
    """wall_s, op_p50_ms and op_p90_ms in plain seconds and milliseconds."""
    op_s = op_latencies(res["samples"])
    return {"wall_s": sum(op_s),
            "op_p50_ms": percentile(op_s, 0.5) * 1e3,
            "op_p90_ms": percentile(op_s, 0.9) * 1e3,
            "reference_ms": res["reference_s"] * 1e3}


def end_to_end_metrics(setup_s, res):
    """The reported metrics: op times in units of the reference loop's best
    time in the same run, which cancels most of the host's slowdown (it
    slows the loop and the ops alike), and setup_s and peak_rss_mb as
    measured."""
    raw = raw_times(res)
    ref_ms = raw["reference_ms"]
    return {
        "setup_s": setup_s,
        "wall_ref": raw["wall_s"] * 1e3 / ref_ms,
        "op_p50_ref": raw["op_p50_ms"] / ref_ms,
        "op_p90_ref": raw["op_p90_ms"] / ref_ms,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def run_workload(args, workload, spec):
    if args.trace:
        res = run_worker(args, workload, 1)
        probes, end_to_end = [], {}
        layers = dict(res["layers"])
        layers["trace.overhead_s"] = (sum(op_latencies(res["traced_samples"]))
                                      - sum(op_latencies(res["samples"])))
        values, wanted = layers, spec["per_layer"]
    else:
        probes = setup_probes(args, workload, SETUP_PROBES // 2)
        res = run_worker(args, workload, 0)
        probes += setup_probes(args, workload, SETUP_PROBES - len(probes))
        end_to_end = end_to_end_metrics(statistics.median(t for t, _ in probes), res)
        end_to_end.update(raw_times(res))
        layers = {}
        values, wanted = end_to_end, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = (res["unexpected"] == 0 and res["deterministic"]
               and res.get("layer_counts_repeat", True))
    provenance = {"git_sha": _git_sha(), "nproc": os.cpu_count(),
                  **res["versions"], "workload": workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace}
    record = {"provenance": provenance, "correct": correct,
              "attempted": res["attempted"], "failed": res["failed"],
              "error_frac": res["failed"] / res["attempted"],
              "import_s": (statistics.median(i for _, i in probes)
                           if probes else None),
              "ops": len(res["samples"]),
              "ops_beyond_p90": count_beyond(op_latencies(res["samples"]), 0.9),
              "end_to_end": end_to_end,
              "layers": layers,
              "failures": res["failures"],
              "slowest_spans": res.get("slowest_spans"),
              "spans_file": res.get("spans_file")}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record, {"correct": correct, "attempted": res["attempted"],
                    "failed": res["failed"], "metrics": metrics}


def print_summary(rec):
    p = rec["provenance"]
    print(f"# {p['workload']} seed={p['seed']} git={p['git_sha']} nproc={p['nproc']}"
          f" python={p['python']} numpy={p['numpy']} mpmath={p['mpmath']}"
          f" blas_threads={p['blas_threads']} correct={rec['correct']}")
    print(f"#   {rec['ops']} ops, {rec['ops_beyond_p90']} beyond p90,"
          f" error_frac {rec['error_frac']:.4f} ({rec['failed']}/{rec['attempted']})")
    e = rec["end_to_end"]
    if e:
        print(f"#   setup_s {e['setup_s']:.3f} s (import {rec['import_s']:.3f} s)"
              f"   peak_rss_mb {e['peak_rss_mb']:.1f} MB")
        print(f"#   wall_s {e['wall_s']:.3f} s   op_p50_ms {e['op_p50_ms']:.3f} ms"
              f"   op_p90_ms {e['op_p90_ms']:.3f} ms   reference loop {e['reference_ms']:.3f} ms")
        print(f"#   wall_ref {e['wall_ref']:.2f} ref   op_p50_ref {e['op_p50_ref']:.4f} ref"
              f"   op_p90_ref {e['op_p90_ref']:.4f} ref")
    for kind, defect, count, detail in rec["failures"]:
        print(f"#   failed {count} x {kind}: {detail} [{defect}]")
    for name, value in rec["layers"].items():
        print(f"#   {name} {value:.6g}")
    if rec["slowest_spans"]:
        print("#   slowest span: " + ", ".join(
            f"{name} {t:.3f} s" for name, t in rec["slowest_spans"].items() if t > 0.01))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "ladderkit" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no ladderkit sources under {ROOT / 'src'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(args, w, spec) for w in names}
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    for record, _ in results.values():
        print_summary(record)
    if args.workload == "all":
        print(json.dumps({w: line for w, (_, line) in results.items()}))
    else:
        print(json.dumps(results[args.workload][1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
