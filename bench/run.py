"""finarith benchmark: closed-loop job streams with verified verdicts.

Run one workload (from the repository root):

    python3 bench/run.py --workload digits --seed 1 --seconds 20 --trace 0

One client in one thread runs the workload's seeded jobs back to back,
checks every verdict against an oracle outside the timed region, and
prints, as its last line, {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run runs every block of jobs twice, traced and untraced, and reports
per-layer self times, call counts and the tracing overhead instead.  --record FILE
appends the result with the run facts to a JSON-lines file, and

    python3 bench/run.py --compare OLD.jsonl NEW.jsonl

compares two such files under the bounds in BENCHMARK.json.  See
bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_JOBS = 100  # p90 needs at least ten samples beyond it
SETUP_PROBES = 9
PROBE_READY = "setup-ready"
# The host's speed drifts by up to about 30% over minutes, in CPU time as
# well as in wall time, and by as much within a run (see README, "Noise").
# Runs therefore also time a fixed pure-Python loop that does not touch
# finarith, every REF_EVERY seconds of job time, and scale each job's time
# by REFERENCE_S over the median of the REF_WINDOW loop times taken nearest
# to it: a reported time is the time on a host where the loop takes
# REFERENCE_S, about what it took on the machine used to size the benchmark.
REFERENCE_S = 0.0027
REF_EVERY = 0.1
REF_WINDOW = 5
# Set-up is mostly interpreter start and imports, which follow the host's
# speed far less than that loop does.  Set-up probes therefore alternate
# with a fresh interpreter that imports a fixed set of standard-library
# modules, and set-up time is scaled by SETUP_REFERENCE_S over its median
# CPU time, about what it took on the machine used to size the benchmark.
SETUP_REFERENCE_S = 0.125
SETUP_REFERENCE_CODE = (
    "import time, argparse, ast, dataclasses, decimal, email.parser, enum, fractions,"
    " http.client, inspect, json, logging, platform, statistics, subprocess, typing,"
    " unittest, xml.dom.minidom; print(time.process_time())"
)


@dataclass(frozen=True)
class _Node:
    op: str
    left: object
    right: object


def reference_loop():
    """Fixed interpreter work in the style of finarith's evaluators, but
    without finarith: frozen dataclass trees hashed into a memo dict and
    taken apart by pattern matching."""
    leaves = [_Node("v", str(i), None) for i in range(8)]
    trees = [
        _Node("&", leaves[i % 8], _Node("|", leaves[i * 3 % 8], leaves[i * 5 % 8]))
        for i in range(40)
    ]
    memo = {}
    hits = 0
    for rnd in range(12):
        for i, tree in enumerate(trees):
            key = (tree, i % 5)
            if key in memo:
                hits += 1
            else:
                memo[key] = rnd
            match tree:
                case _Node("&", left, _Node(_, a, b)):
                    hits += (left == a) + (a == b)
    return hits


def time_reference(clock=time.thread_time):
    start = clock()
    reference_loop()
    return clock() - start


def _import_library():
    """Put the checkout's sources first on the path and import the
    benchmark modules; exit 2 when the sources are missing."""
    if not (ROOT / "src" / "finarith" / "__init__.py").is_file():
        print(f"error: no finarith sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    global tracing, workloads
    import tracing
    import workloads


def setup(workload, seed, seconds):
    """Everything a run does before its first job: load the packaged
    corpora and generate the jobs the run is expected to need."""
    ctx = workloads.Context(workloads.Corpora())
    stream = workloads.JobStream(workload, seed, ctx)
    per_block = sum(count for _, _, count in workload.block)
    needed = max(MIN_JOBS, seconds * workload.rate)
    blocks = [stream.block() for _ in range(math.ceil(needed / per_block))]
    return ctx, stream, blocks


def measure_setup(args):
    """Median over fresh processes of the CPU time from process start to
    the point where the first job could run, and the median CPU time of
    the set-up reference interpreters run between them."""
    argv = [
        sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        child = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=60)
        word, _, value = child.stdout.strip().partition(" ")
        if child.returncode != 0 or word != PROBE_READY:
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}: {child.stderr}")
        times.append(float(value))
        ref = subprocess.run(
            [sys.executable, "-c", SETUP_REFERENCE_CODE],
            capture_output=True, text=True, cwd=ROOT, timeout=60, check=True,
        )
        refs.append(float(ref.stdout))
    return statistics.median(times), statistics.median(refs)


def _cpu_jiffies():
    """(steal, total) jiffies of the host CPU line of /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def run_jobs(workload, blocks, ctx, seconds, traced=False, min_jobs=MIN_JOBS, stream=None):
    """Run whole blocks until `seconds` of timed work and `min_jobs` jobs
    are done, drawing more blocks from `stream` if the list runs out.
    When traced, every block runs twice, traced and untraced in alternating
    order, so the two passes measure the same jobs.  Returns one (kind,
    CPU seconds, ok, traced, wall seconds) row per job run, the tracer, the
    first few failure descriptions, and the reference loop times as (number
    of jobs run before it, seconds) pairs."""
    tracer = tracing.Tracer() if traced else None
    apis = {False: tracing.Api(), True: tracing.Api(tracer) if traced else None}
    job_spans = {}
    rows = []
    failures = []
    timed = 0.0
    # Jobs are single-threaded and CPU-bound, so their CPU time is their
    # latency on an idle machine; unlike wall time it leaves out host steal
    # (see README, "Noise").
    clock = time.thread_time
    refs = [(0, time_reference(clock))]
    since_ref = 0.0
    number = 0
    while number < len(blocks) or stream is not None:
        if number == len(blocks):
            blocks.append(stream.block())
        block = blocks[number]
        number += 1
        passes = ((True, False) if number % 2 else (False, True)) if traced else (False,)
        for in_trace in passes:
            api = apis[in_trace]
            for job in block:
                kind = workloads.KINDS[job["kind"]]
                inputs = kind.prepare(job, ctx)
                run = kind.run
                if in_trace:
                    tracer.job = job["id"]
                    run = job_spans.setdefault(job["kind"], tracer.wrap(f"job.{job['kind']}", kind.run))
                error = None
                start, wall = clock(), time.perf_counter()
                try:
                    verdict = run(api, job, inputs)
                except Exception as exc:  # a failed job is counted and the run goes on
                    verdict, error = None, exc
                elapsed, wall = clock() - start, time.perf_counter() - wall
                timed += elapsed
                ok = False
                if error is None:
                    try:
                        ok = bool(kind.check(job, inputs, verdict, ctx))
                    except Exception as exc:
                        error = exc
                if not ok and len(failures) < 5:
                    why = repr(error) if error else "verdict disagrees with the oracle"
                    failures.append(f"job {job['id']} ({job['kind']}): {why}")
                rows.append((job["kind"], elapsed, ok, in_trace, wall))
                del verdict, inputs
                since_ref += elapsed
                if since_ref >= REF_EVERY:
                    refs.append((len(rows), time_reference(clock)))
                    since_ref = 0.0
        if timed >= seconds and len(rows) >= min_jobs:
            break
    return rows, tracer, failures, refs


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def local_scales(refs, count):
    """For each of `count` jobs, REFERENCE_S over the median of the
    REF_WINDOW reference loop times taken nearest to it."""
    positions = [pos for pos, _ in refs]
    times = [t for _, t in refs]
    width = min(REF_WINDOW, len(times))
    scales = []
    for job in range(count):
        after = bisect.bisect_right(positions, job)  # first loop timed after the job
        low = max(0, min(after - width // 2, len(times) - width))
        scales.append(REFERENCE_S / statistics.median(times[low:low + width]))
    return scales


def end_to_end(rows, setup_s, scales=None):
    """The end-to-end metrics, each job time multiplied by its entry in
    `scales` (unscaled when None)."""
    scales = scales or [1.0] * len(rows)
    times = [row[1] * scale for row, scale in zip(rows, scales, strict=True)]
    verified = sum(row[2] for row in rows)
    return {
        "jobs_per_s": (verified / sum(times), "1/s"),
        "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "job_p90_ms": (_quantile(times, 90) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def ground_ops_per_op(blocks, ctx, lift_jobs=20):
    """Ground plus/times calls per lifted operation over the first
    `lift_jobs` lift jobs of the list, counted through the library's
    InstrumentedStructure; exact and repeatable for a given seed."""
    from finarith import build_plus_model, make_truncation
    from finarith.interp import InstrumentedStructure

    calls = ops = 0
    jobs = [job for block in blocks for job in block if job["kind"] == "lift"][:lift_jobs]
    for job in jobs:
        ground = InstrumentedStructure(make_truncation(job["n"]))
        model = build_plus_model(ground, width=workloads.WIDTH)
        ground.reset()
        batch = workloads.prepare_lift(job, ctx)
        workloads.digit_batch(tracing.Api(), model, batch)
        calls += len(ground.requests)
        ops += len(batch)
    return calls / ops if ops else 0.0


def per_layer(rows, tracer, blocks, ctx):
    """Mean self time per call of every span name, with call and raise
    counts, median job time per kind, and the tracing overhead."""
    times, raised = tracer.self_times()
    scale = {"us": 1e6, "ms": 1e3}
    out = {}
    for name, unit in sorted(tracing.SPAN_UNITS.items()):
        spans = times.get(name, [])
        mean = sum(spans) / len(spans) * scale[unit] if spans else 0.0
        out[f"{name}_{unit}"] = (mean, unit)
        out[f"{name}.calls"] = (len(spans), "count")
        out[f"{name}.errors"] = (raised.get(name, 0), "count")
    for kind in workloads.KINDS:
        durations = [t for k, t, _, traced, _ in rows if k == kind and traced]
        out[f"job.{kind}_ms"] = (statistics.median(durations) * 1e3 if durations else 0.0, "ms")
    rate = {}
    for traced in (True, False):
        part = [(t, ok) for _, t, ok, tr, _ in rows if tr == traced]
        rate[traced] = sum(ok for _, ok in part) / sum(t for t, _ in part)
    out["trace.overhead"] = (rate[True] / rate[False], "ratio")
    out["interp.ground_ops_per_op"] = (ground_ops_per_op(blocks, ctx), "count")
    return out


def run_facts(args, rows, cpu_wall, steal_share):
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": len(rows),
        "jobs_by_kind": {k: sum(1 for r in rows if r[0] == k) for k in sorted({r[0] for r in rows})},
        "jobs_per_s_wall": sum(r[2] for r in rows) / sum(r[4] for r in rows),
        "cpu_wall_ratio": round(cpu_wall, 4),
        "steal_share": None if steal_share is None else round(steal_share, 4),
    }


def run(args):
    _import_library()
    workload = workloads.WORKLOADS[args.workload]
    if args.trace == 0:
        setup_raw, setup_ref = measure_setup(args)
    ctx, stream, blocks = setup(workload, args.seed, args.seconds)

    jiffies0, cpu0, wall0 = _cpu_jiffies(), os.times(), time.perf_counter()
    rows, tracer, failures, refs = run_jobs(
        workload, blocks, ctx, args.seconds, traced=args.trace == 1, stream=stream
    )
    jiffies1, cpu1, wall1 = _cpu_jiffies(), os.times(), time.perf_counter()
    cpu_wall = (cpu1.user + cpu1.system - cpu0.user - cpu0.system) / (wall1 - wall0)
    steal_share = None
    if jiffies0 and jiffies1 and jiffies1[1] > jiffies0[1]:
        steal_share = (jiffies1[0] - jiffies0[0]) / (jiffies1[1] - jiffies0[1])

    reference = statistics.median(t for _, t in refs)
    if args.trace == 0:
        setup_s = setup_raw * SETUP_REFERENCE_S / setup_ref
        metrics = end_to_end(rows, setup_s, local_scales(refs, len(rows)))
    else:
        metrics = per_layer(rows, tracer, blocks, ctx)
    if tracer is not None:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans_{args.workload}_{args.seed}.tsv")
    failed = sum(not row[2] for row in rows)
    facts = run_facts(args, rows, cpu_wall, steal_share)
    facts["failed_share"] = failed / len(rows)
    facts["reference_ms"] = reference * 1e3
    if args.trace == 0:
        facts["setup_reference_s"] = setup_ref
        unscaled = end_to_end(rows, setup_raw)
        facts["unscaled"] = {name: value for name, (value, _) in unscaled.items() if name != "peak_rss_mb"}
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**result, "facts": facts}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


# --- comparison of two recorded sets of runs ---

def _stats(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def compare(old_path, new_path, out=None):
    """One row per workload and end-to-end metric: each side's median and
    quartiles and a verdict.  A win needs the new side to win nine tenths
    of the seed-paired runs and the medians to differ by more than the old
    side's quartile spread; a regression is a median worse by more than
    the metric's bound; a side whose own spread exceeds the bound leaves
    the metric unresolved unless every new run beats every old one."""
    out = out or sys.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def load(path):
        runs = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["facts"]["trace"] == 0:
                    runs.setdefault(rec["facts"]["workload"], []).append(rec)
        return runs

    old, new = load(old_path), load(new_path)
    print(f"{'workload':13s} {'metric':12s} {'old median [q1, q3]':30s} "
          f"{'new median [q1, q3]':30s} {'new/old':>8s} {'pairs':>5s}  verdict", file=out)
    for workload in sorted(set(old) & set(new)):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "higher" else -1
            a = {r["facts"]["seed"]: r["metrics"][name]["value"] for r in old[workload]}
            b = {r["facts"]["seed"]: r["metrics"][name]["value"] for r in new[workload]}
            (am, a1, a3), (bm, b1, b3) = _stats(list(a.values())), _stats(list(b.values()))
            seeds = sorted(set(a) & set(b))
            wins = sum(sign * (b[s] - a[s]) > 0 for s in seeds)
            all_better = all(sign * (y - x) > 0 for x in a.values() for y in b.values())
            if max((a3 - a1) / am, (b3 - b1) / bm) > bound and not all_better:
                verdict = "unresolved"
            elif seeds and wins >= 0.9 * len(seeds) and abs(bm - am) > a3 - a1:
                verdict = "win"
            elif sign * (bm - am) / am < -bound:
                verdict = "regression"
            else:
                verdict = "no change beyond bound"
            print(f"{workload:13s} {name:12s} {am:10.4g} [{a1:.4g}, {a3:.4g}]".ljust(57)
                  + f" {bm:10.4g} [{b1:.4g}, {b3:.4g}]".ljust(31)
                  + f" {bm / am:8.3f} {len(seeds):5d}  {verdict}", file=out)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("digits", "first_order", "modal_search", "translation"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result and run facts to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        _import_library()
        setup(workloads.WORKLOADS[args.workload], args.seed, args.seconds)
        print(PROBE_READY, time.process_time(), flush=True)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
