#!/usr/bin/env python3
"""Benchmark of the isotopelab library and CLI, run from the repository root:

    python3 perfbench/run.py --workload certify-gn --seed 1 --seconds 30 --trace 0

Workloads, their op classes and the per-layer metric mapping are in
``perfbench/spec.json``.  Load is a closed loop with one client: one op at a
time (in ``cli-catalog`` one child process at a time), in rounds of a fixed
class mix, until ``--seconds`` have passed and at least ``MIN_OPS`` ops ran.
Every answer is checked; a failed op counts as the slowest op of the run.
Times are reported scaled by a speed probe (see ``PROBE_REF_S``), with the
raw times printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
op list three times (untraced, with spans, with counters) and reports the
per-layer metrics; it fails when a metric the mapping assigns to the
workload reads zero.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` of the tree this file sits in; the
benchmark exits with status 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SHIM = os.path.join(HERE, "cli_shim.py")
MIN_OPS = 100
SETUP_SAMPLES = 9
# Shared machines (like the 2-vCPU VM the bounds were measured on) change
# speed by a third within seconds.  Times are therefore also measured
# against a probe (a fixed slice of pure-Python work run between ops,
# outside the timed region) and reported scaled to the probe duration
# PROBE_REF_S; the raw times are printed beside them.  An op uses the median
# of the probes around it.  The probe tracks in-process ops closely and CLI
# calls, which are mostly interpreter start-up, only in part.
PROBE_REF_S = 0.0018
PROBE_WINDOW = 4
END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("cpu_ms_per_op", "ms"), ("peak_rss_mb", "MB")]

with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_library():
    if not os.path.isfile(os.path.join(SRC, "isotopelab", "__init__.py")):
        fail(f"library source not found under {SRC}")
    sys.path.insert(0, SRC)
    import isotopelab

    if not os.path.abspath(isotopelab.__file__).startswith(SRC + os.sep):
        fail(f"isotopelab imported from {isotopelab.__file__}, not from {SRC}")
    return isotopelab


def make_workload(name, seed, tiny):
    import workloads

    work_dir = os.path.join(WORK, f"{name}-{os.getpid()}")
    if workloads.WORKLOADS[name].in_process:
        lab = import_library()
        return workloads.WORKLOADS[name](lab, SPEC["workloads"][name], seed, tiny, work_dir)
    if not os.path.isfile(os.path.join(SRC, "isotopelab", "cli.py")):
        fail(f"library source not found under {SRC}")
    return workloads.CliCatalog(None, SPEC["workloads"][name], seed, tiny, work_dir, ROOT)


def source_id():
    """Commit from .git when there is one, and a digest of the library source."""
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "isotopelab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return commit[:12], digest.hexdigest()[:12]


def probe():
    """Duration of a fixed slice of pure-Python work (Fraction and small-int
    arithmetic, list and dict traffic, as in the library and its CLI); the
    faster of two runs, so that caches left cold by an op do not count."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 120):
            acc += Fraction(i, i + 2) * Fraction(7, 3)
        v = [i * 7 % 13 for i in range(4500)]
        counts = {}
        for x in v:
            counts[x] = counts.get(x, 0) + x * x % 5
        best = min(best, time.perf_counter() - t0)
    return best


def speed_factors(probes, n):
    """Factor for op i: PROBE_REF_S over the median of the probes around it
    (probe i runs just before op i, probe i + 1 just after)."""
    return [PROBE_REF_S / statistics.median(probes[max(0, i - PROBE_WINDOW + 1):i + PROBE_WINDOW + 1])
            for i in range(n)]


class Sample:
    __slots__ = ("cls", "latency", "cpu", "ok", "rss_kb")

    def __init__(self, cls, latency, cpu, ok, rss_kb):
        self.cls = cls
        self.latency = latency
        self.cpu = cpu
        self.ok = ok
        self.rss_kb = rss_kb


def run_ops(wl, ops, around=None, first_id=0, probes=None):
    """Run ops one after another; time each call, then check its answer.
    With a ``probes`` list, a probe runs before the first op and after each."""
    samples = []
    if probes is not None and not probes:
        probes.append(probe())
    for i, op in enumerate(ops, start=first_id):
        call = op.call if around is None else (lambda: around(i, op))
        result, error = None, None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an op that raises is a failed op
            error = exc
        t1 = time.perf_counter()
        c1 = time.process_time()
        ok = False
        if error is None:
            try:
                ok = op.ok(result)
            except Exception as exc:  # an unreadable answer is a wrong answer
                error = exc
        if error is not None:
            print(f"# op {i} ({op.cls}) raised {type(error).__name__}: {error}", file=sys.stderr)
        elif not ok:
            print(f"# op {i} ({op.cls}) gave a wrong answer", file=sys.stderr)
        if wl.in_process:
            samples.append(Sample(op.cls, t1 - t0, c1 - c0, ok, 0))
        else:
            cpu = result.cpu_s if error is None else 0.0
            rss = result.maxrss_kb if error is None else 0
            samples.append(Sample(op.cls, t1 - t0, cpu, ok, rss))
        if probes is not None:
            probes.append(probe())
    return samples


def percentile(sorted_values, q):
    """Nearest-rank percentile: (value, rank, samples beyond it)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(q * n))
    return sorted_values[rank - 1], rank, n - rank


def measure_setup(args):
    """Median wall time of several complete set-ups, each in a fresh process:
    interpreter start, library import, input generation and warm-up.
    Returns (scaled to the probe, raw)."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--size", "tiny"] if args.tiny else [])
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        probes = [probe() for _ in range(2 * PROBE_WINDOW)]
        t0 = time.perf_counter()
        rc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL).returncode
        elapsed = time.perf_counter() - t0
        if rc != 0:
            fail(f"set-up exited with status {rc}")
        probes += [probe() for _ in range(2 * PROBE_WINDOW)]
        raw.append(elapsed)
        scaled.append(elapsed * PROBE_REF_S / statistics.median(probes))
    return statistics.median(scaled), statistics.median(raw)


def header(args, wl):
    commit, digest = source_id()
    spec = SPEC["workloads"][args.workload]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} size={args.size} "
          f"python={platform.python_version()} nproc={os.cpu_count()} "
          f"commit={commit} source_sha256={digest}")
    classes = ", ".join(f"{c}={n}" for c, n in wl.counts.items())
    print(f"# loop={spec['loop']} clients={spec['clients']} "
          f"ops per round={len(spec['round'])}: {classes}")


def end_to_end(args, wl, setup):
    min_ops = 0 if args.tiny else MIN_OPS
    samples, probes = [], []
    rounds = 0
    t_start = time.perf_counter()
    while True:
        samples += run_ops(wl, wl.round(rounds), first_id=len(samples), probes=probes)
        rounds += 1
        wall = time.perf_counter() - t_start
        if wall >= args.seconds and len(samples) >= min_ops:
            break
    attempted = len(samples)
    failed = sum(1 for s in samples if not s.ok)
    factors = speed_factors(probes, attempted)
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(s.rss_kb for s in samples)

    def summary(lat, cpu):
        busy = sum(lat)
        # a failed op counts as the slowest possible op: the whole run
        ranked = sorted(x if s.ok else busy for x, s in zip(lat, samples))
        return {
            "ops_per_s": (attempted - failed) / busy,
            "op_p50_ms": percentile(ranked, 0.5)[0] * 1000,
            "op_p90_ms": percentile(ranked, 0.9)[0] * 1000,
            "cpu_ms_per_op": sum(cpu) / attempted * 1000,
        }

    raw = summary([s.latency for s in samples], [s.cpu for s in samples])
    raw.update(setup_s=setup[1], peak_rss_mb=rss_kb / 1024)
    values = summary([s.latency * f for s, f in zip(samples, factors)],
                     [s.cpu * f for s, f in zip(samples, factors)])
    values.update(setup_s=setup[0], peak_rss_mb=rss_kb / 1024)

    by_class = {}
    for s in samples:
        by_class.setdefault(s.cls, []).append(s.latency * 1000)
    print(f"# rounds={rounds} ops={attempted} wall_s={wall:.3f} "
          f"op class counts: " + ", ".join(f"{c}={len(v)}" for c, v in by_class.items()))
    print("# op class median ms (raw): " + ", ".join(
        f"{c}={statistics.median(v):.1f}"
        for c, v in sorted(by_class.items(), key=lambda kv: statistics.median(kv[1]))))
    q = statistics.quantiles(probes, n=4) if len(probes) > 1 else probes * 3
    print(f"# probe ms: median {statistics.median(probes) * 1000:.4f}, quartiles "
          f"{q[0] * 1000:.4f} / {q[2] * 1000:.4f}, reference {PROBE_REF_S * 1000:.4f}; "
          f"times below are scaled to the reference, raw in brackets")
    _, r50, b50 = percentile(range(attempted), 0.5)
    _, r90, b90 = percentile(range(attempted), 0.9)
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} set-ups",
        "ops_per_s": f"{attempted - failed} ok ops",
        "op_p50_ms": f"nearest rank {r50} of {attempted} samples, {b50} beyond",
        "op_p90_ms": f"nearest rank {r90} of {attempted} samples, {b90} beyond",
        "cpu_ms_per_op": "child processes" if not wl.in_process else "this process",
        "peak_rss_mb": "peak of the child processes" if not wl.in_process else "this process",
    }
    for name, unit in END_TO_END:
        print(f"# {name} = {values[name]:.6g} {unit} [raw {raw[name]:.6g}] ({notes[name]})")
    print(f"# failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced(args, wl):
    import tracer

    spec = SPEC["workloads"][args.workload]
    ops = [op for r in range(spec["trace_rounds"]) for op in wl.round(r)]
    agg = tracer.Aggregate()
    recorded = []

    def scaled_busy(samples, probes):
        return sum(s.latency * f for s, f in zip(samples, speed_factors(probes, len(samples))))

    probes = []
    samples = run_ops(wl, ops, probes=probes)
    busy_plain = scaled_busy(samples, probes)

    if wl.in_process:
        rec = tracer.SpanRecorder()
        patches = tracer.install_spans(rec)
        try:
            probes = []
            spanned = run_ops(wl, ops, around=lambda i, op: rec.root(i, "op.root", op.call),
                              probes=probes)
        finally:
            patches.restore()
        agg.spans(rec.spans)
        recorded = rec.spans
        counts = {}
        patches = tracer.install_counters(counts)
        try:
            samples += run_ops(wl, ops)
        finally:
            patches.restore()
    else:
        out_path = os.path.join(wl.work_dir, "trace.json")
        plain_argv = wl.argv

        def child_record(into):
            def around(i, op):
                result = op.call()
                with open(out_path, encoding="utf-8") as fh:
                    record = json.load(fh)
                os.remove(out_path)
                record["op"] = i
                record["t_spawn"] = result.t_spawn
                into.append(record)
                return result

            return around

        counted = []
        try:
            wl.argv = lambda a: [sys.executable, SHIM, "spans", out_path, "--", *a]
            probes = []
            spanned = run_ops(wl, ops, around=child_record(recorded), probes=probes)
            wl.argv = lambda a: [sys.executable, SHIM, "count", out_path, "--", *a]
            samples += run_ops(wl, ops, around=child_record(counted))
        finally:
            wl.argv = plain_argv
        for record in recorded:
            agg.spans([tuple(s) for s in record["spans"]])
            agg.add("cli.spawn_s", record["t_import"] - record["t_spawn"])
        counts = {}
        for record in counted:
            for key, n in record["counts"].items():
                counts[key] = counts.get(key, 0) + n
    for key, n in counts.items():
        agg.add(key, n)
    busy_traced = scaled_busy(spanned, probes)
    samples += spanned
    agg.add("trace.overhead", busy_traced / busy_plain)

    names = [m["name"] for m in SPEC["per_layer"]]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = agg.metrics(names)
    missing = [m["name"] for m in SPEC["per_layer"]
               if args.workload in m["workloads"] and not values[m["name"]] > 0]
    os.makedirs(WORK, exist_ok=True)
    span_file = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "spans": recorded}, fh)
    attempted = len(samples)
    failed = sum(1 for s in samples if not s.ok)
    print(f"# traced {len(ops)} ops three times (plain, spans, counters); scaled busy time "
          f"plain {busy_plain:.3f} s, spans {busy_traced:.3f} s; spans in {span_file}")
    for name in names:
        print(f"# {name} = {values[name]:.6g} {units[name]}")
    print(f"# failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    if missing:
        print("error: layer coverage: zero on this workload: " + ", ".join(missing), file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    return {"correct": failed == 0 and not missing, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smallest parameters and one round, for the smoke test")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="make one expected answer per class wrong, to test the checks")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.tiny = args.size == "tiny"
    sys.path.insert(0, HERE)
    # one CPU for this process and its children, so that the probe and the
    # ops it scales run on the same processor
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    wl = make_workload(args.workload, args.seed, args.tiny)
    try:
        wl.setup()
        wl.warmup()
        if args.setup_only:
            return 0
        if args.corrupt_expected:
            import workloads

            for pool in wl.pools.values():
                pool[0].expected = workloads.corrupt(pool[0].expected)
        header(args, wl)
        if args.trace:
            result = traced(args, wl)
        else:
            result = end_to_end(args, wl, measure_setup(args))
    finally:
        wl.cleanup()
    print(json.dumps(result))
    return 0 if result["correct"] or args.corrupt_expected else 1


if __name__ == "__main__":
    sys.exit(main())
