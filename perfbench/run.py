"""ccp-forge benchmark runner.

    python3 perfbench/run.py --workload construct-chain --seed 1 \
        --seconds 25 --trace 0

runs one workload in this process against the library in ../src and prints
a human-readable summary followed, as the last line, by one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones from a
traced run.  --workload all runs every workload, each in a fresh process.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("construct-chain", "certify-files", "p2-sweep")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
TAIL_MIN_ABOVE = 10

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "item_ms.p50": "ms",
    "item_ms.tail": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, span name, field); fields are "calls", "s",
# "self_s" from the span summary, or "count" for a tracer counter.
PER_LAYER = {
    "mesh.build_polyhedron.calls": ("count", "mesh.build_polyhedron", "calls"),
    "mesh.build_polyhedron.s": ("s", "mesh.build_polyhedron", "s"),
    "mesh.build_polyhedron.faces": ("count", None, "count"),
    "mesh.build_polyhedron.edges": ("count", None, "count"),
    "surgery.connect_sum.calls": ("count", "surgery.connect_sum", "calls"),
    "surgery.connect_sum.self_s": ("s", "surgery.connect_sum", "self_s"),
    "surgery.drill.calls": ("count", "surgery.drill", "calls"),
    "surgery.drill.self_s": ("s", "surgery.drill", "self_s"),
    "surgery.drill_repeat.calls": ("count", "surgery.drill_repeat", "calls"),
    "surgery.drill_repeat.self_s": ("s", "surgery.drill_repeat", "self_s"),
    "surgery.retile_pierced_face.calls": (
        "count", "surgery.retile_pierced_face", "calls"),
    "surgery.retile_pierced_face.self_s": (
        "s", "surgery.retile_pierced_face", "self_s"),
    "metrics.self_intersections.s": ("s", "metrics.self_intersections", "s"),
    "metrics.self_intersections.face_pairs": ("count", None, "count"),
    "metrics.self_intersections.witnesses": ("count", None, "count"),
    "metrics.defect_profile.s": ("s", "metrics.defect_profile", "s"),
    "metrics.descartes_residual.s": ("s", "metrics.descartes_residual", "s"),
    "mesh.classify.s": ("s", "mesh.classify", "s"),
    "verify.verify.self_s": ("s", "verify.verify", "self_s"),
    "fileio.save_mesh.s": ("s", "fileio.save_mesh", "s"),
    "fileio.save_mesh.bytes": ("bytes", None, "count"),
    "fileio.load_mesh.self_s": ("s", "fileio.load_mesh", "self_s"),
    "fileio.load_mesh.bytes": ("bytes", None, "count"),
    "generators.generate_family.self_s": (
        "s", "generators.generate_family", "self_s"),
    "generators.solve_block_params.calls": (
        "count", "generators.solve_block_params", "calls"),
    "generators.solve_block_params.s": (
        "s", "generators.solve_block_params", "s"),
}
DERIVED_PER_LAYER = {
    "surgery.drill.useful_ratio": "ratio",
    "trace.pass_s": "s",
    "trace.overhead_frac": "ratio",
}

now = time.perf_counter


def import_library() -> float:
    """Import ccpforge from this checkout's src/ and return the seconds it
    took.  Exits with an error when the sources are absent."""
    src = ROOT / "src"
    if not (src / "ccpforge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ccpforge sources under {src}")
    sys.path.insert(0, str(src))
    t0 = now()
    import ccpforge
    elapsed = now() - t0
    if src.resolve() not in Path(ccpforge.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported ccpforge from "
                         f"{ccpforge.__file__}, not from {src}")
    return elapsed


class Tally:
    """Checks item records against the reference and counts failures."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, item, record, error):
        self.attempted += 1
        if error is None:
            bad = workloads.mismatches(record, self.reference[item.ref_key])
            error = "; ".join(bad) if bad else None
        if error is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{item.item_id}: {error}")


def run_pass(items, order_rng, tally, g, tracer=None):
    """One pass over the items in a seed-drawn order.  Returns the pass
    time, the per-item times, both in gauge-scaled seconds, and the raw
    wall time of the items."""
    order = order_rng.permutation(len(items))
    gc.collect()
    g.scale(0.0)
    times, raw = [], 0.0
    for i in order:
        item = items[i]
        record, error = None, None
        root = len(tracer.spans) if tracer is not None else None
        t0 = now()
        try:
            if tracer is None:
                record = item.run()
            else:
                with tracer.span("item"):
                    record = item.run()
        except Exception as exc:   # a failing item is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = now() - t0
        raw += wall
        times.append(g.scale(wall))
        if tracer is not None:
            tracer.scale[root] = times[-1] / wall
        tally.check(item, record, error)
    return sum(times), times, raw


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_MIN_ABOVE of n samples
    above it (linear interpolation between order statistics); 100 when
    there are too few samples."""
    if n <= TAIL_MIN_ABOVE:
        return 100
    return math.ceil(100 * (n - TAIL_MIN_ABOVE) / (n - 1)) - 1


def percentile(values, p):
    xs = sorted(values)
    h = p / 100 * (len(xs) - 1)
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pass_count(workload: str, seconds: float) -> int:
    return max(2, round(seconds / workloads.NOMINAL_PASS_S[workload]))


def layer_metrics(summary: dict, counts: dict) -> dict[str, float]:
    out = {}
    for name, (_, span, field) in PER_LAYER.items():
        if field == "count":
            out[name] = counts.get(name, 0)
        else:
            out[name] = summary.get(span, {}).get(field, 0)
    drills = out["surgery.drill.calls"]
    out["surgery.drill.useful_ratio"] = (
        counts.get("surgery.drill.kept", 0) / drills if drills else 0.0)
    return out


def measure(workload, seed, seconds, trace, import_s, limit=None):
    """Set up and run one workload; returns (result, summary lines,
    tracers of the traced passes)."""
    # numpy loads here, after main() has pinned its thread count
    import numpy as np

    import gauge

    reference = json.loads((HERE / "reference.json").read_text())[workload]
    order_rng = np.random.default_rng([seed, 1])
    tally = Tally(reference)
    g = gauge.Gauge()
    import_s = g.scale(import_s)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        setup_times = []
        for _ in range(SETUP_REPS if limit is None else 1):
            t0 = now()
            items = workloads.SETUP[workload](np.random.default_rng(seed),
                                              Path(tmp), limit)
            setup_times.append(g.scale(now() - t0))
        warm_s, _, _ = run_pass(items, order_rng, tally, g)
        setup_s = import_s + statistics.median(setup_times) + warm_s

        n_passes = 1 if limit is not None else pass_count(workload, seconds)
        if trace:
            n_passes = max(n_passes, 2)
        plain, traced = [], []
        for i in range(n_passes):
            if trace and i % 2 == 1:
                tracer = tracing.Tracer()
                with tracer.installed():
                    scaled, _, _ = run_pass(items, order_rng, tally, g,
                                            tracer)
                traced.append((scaled, tracer))
            else:
                plain.append(run_pass(items, order_rng, tally, g))

    pass_times = [w for w, _, _ in plain]
    pass_s = statistics.median(pass_times)
    q1, q3 = quartiles(pass_times)
    raw_s = statistics.median([r for _, _, r in plain])
    speed = gauge.REFERENCE_S / statistics.median(g.samples)
    lines = [
        f"workload {workload}  seed {seed}  trace {trace}  "
        f"python {platform.python_version()}  numpy {np.__version__}  "
        f"nproc {len(os.sched_getaffinity(0))}",
        f"pass_s {pass_s:.4f} s  (median of {len(pass_times)} untraced "
        f"passes of {len(items)} items; q1 {q1:.4f}, q3 {q3:.4f}; "
        f"raw wall {raw_s:.4f} s at gauge speed {speed:.3f})",
        f"failed_frac {tally.failed / tally.attempted:.4g}  "
        f"({tally.failed} of {tally.attempted} items, warm-up included)",
    ]
    lines += [f"  FAILED {m}" for m in tally.messages]
    if trace:
        metrics, units = per_layer(traced, pass_s, lines)
    else:
        lines.append(
            f"setup_s {setup_s:.4f} s  (import {import_s:.4f} + median of "
            f"{len(setup_times)} input builds "
            f"{statistics.median(setup_times):.4f} + warm-up pass "
            f"{warm_s:.4f})")
        item_times = [t for _, ts, _ in plain for t in ts]
        metrics, units = end_to_end(setup_s, pass_s, item_times, lines)

    for name, value in metrics.items():
        line = f"{name} {value:.6g} {units[name]}"
        if trace and units[name] == "s":
            line += f"  ({value / metrics['trace.pass_s']:.1%} of traced pass)"
        lines.append(line)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines, [t for _, t in traced]


def end_to_end(setup_s, pass_s, item_times, lines):
    p_tail = tail_percentile(len(item_times))
    tail = percentile(item_times, p_tail)
    above = sum(1 for t in item_times if t > tail)
    lines.append(f"item_ms.tail is p{p_tail} of {len(item_times)} items "
                 f"({above} above it)")
    metrics = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "item_ms.p50": 1e3 * statistics.median(item_times),
        "item_ms.tail": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, END_TO_END


def per_layer(traced, pass_s, lines):
    """Per-pass layer metrics: the median over traced passes for times,
    the value of the first pass for counts, which must repeat."""
    units = {name: spec[0] for name, spec in PER_LAYER.items()}
    units.update(DERIVED_PER_LAYER)
    per_pass = [layer_metrics(t.summary(), t.counts) for _, t in traced]
    metrics = {}
    for name in per_pass[0]:
        vals = [m[name] for m in per_pass]
        if units[name] == "s":
            metrics[name] = statistics.median(vals)
        else:
            metrics[name] = vals[0]
            if len(set(vals)) > 1:
                lines.append(f"  WARNING {name} differs between traced "
                             f"passes: {vals}")
    traced_s = statistics.median([w for w, _ in traced])
    metrics["trace.pass_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / pass_s - 1
    lines.append(f"per-layer values are per pass, median of {len(traced)} "
                 f"traced passes")
    return metrics, units


def write_spans(tracers, workload, seed):
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    passes = [{"spans": t.spans, "counts": dict(t.counts)} for t in tracers]
    path.write_text(json.dumps(passes))
    return path


def run_all(args) -> int:
    """Run each workload in a fresh process and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out:
            print(f"perfbench: {workload} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(out[:-1]))
        res = json.loads(out[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"][f"{workload}:{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    # single-threaded numerics; must precede the first numpy import
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)

    import_s = import_library()
    result, lines, tracers = measure(args.workload, args.seed, args.seconds,
                                     args.trace, import_s)
    if tracers:
        lines.append(f"spans written to "
                     f"{write_spans(tracers, args.workload, args.seed)}")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
