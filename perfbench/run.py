#!/usr/bin/env python3
"""Benchmark for padicbuilding, run from outside the package.

    python3 perfbench/run.py --workload classes --seed 1 --trace 0

One process, one thread, closed loop: each op starts when the previous
one has returned and its answer has been checked.  `--trace 0` prints the
end-to-end metrics; `--trace 1` re-runs fixed batches of the same inputs
with every public function wrapped in a span and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it
repeat every metric with its unit, the failure ratio and run metadata.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
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
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# p99.9 is left out: at these sample counts it measured collector and host
# pauses rather than the program.
TAIL_LADDER = (90.0, 99.0)
SETUP_RUNS = 9           # this process plus eight fresh ones
COLD_START_RUNS = 20
IMPORT_RUNS = 5
TRACE_BATCHES = 4
RSS_BATCHES = 10         # peak memory is read after a fixed amount of work, not of time
CHILD_TIMEOUT_S = 120
PROBE_REF_S = 0.010

E2E_UNITS = {"ops_per_s": "1/s", "lat_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

# One representative request per workload, started as a fresh interpreter.
COLD_START = {
    "classes": (["stab", "--p", "3", "--n", "3",
                 "--g", '[["1/1","1/1","0/1"],["0/1","1/1","0/1"],["0/1","0/1","1/1"]]',
                 "--point", '{"I":[1,2,3],"x":["0/1","0/1","0/1"]}'],
                {"in_stabilizer": True}),
    "topology": (["gamma-member", "--p", "2", "--n", "3",
                  "--y", '{"I":[1,2,3],"x":["0/1","1/2","1/1"]}',
                  "--box", '{"intervals":[["-1/1","1/1"],["-1/1","1/1"]]}', "--I", "[1,2]"],
                 {"member": True}),
    "reduction": (["reduce", "--p", "3", "--n", "2", "--kind", "rational", "--z", '["3/1","0/1"]'],
                  {"basis": [["1/1", "0/1"], ["0/1", "1/1"]], "values": [{"log": "0/1"}, "zero"],
                   "kernel": [["0/1", "1/1"]]}),
    "cli": (["phi", "--p", "2", "--n", "2", "--point", '{"I":[1,2],"x":["0/1","1/1"]}'],
            {"basis": [["1/1", "0/1"], ["0/1", "1/1"]], "values": [{"log": "0/1"}, {"log": "-1/1"}]}),
}


# The host's speed switches between states about 1.8x apart, from within a
# second to over minutes, and every timing moves with it.  A fixed stdlib-only computation of the same kind as the
# package's work (exact rational matrix products, dicts, JSON) is timed
# between batches; it runs no package code.  Each batch, and each set-up,
# is scaled to a host on which this probe takes PROBE_REF_S by the mean of
# the probes taken right before and after it.
_PROBE_ROWS = [[Fraction((7 * i + 3 * j) % 11 - 5, (i + j) % 4 + 1) for j in range(6)]
               for i in range(6)]


def probe() -> float:
    gc.disable()          # collecting the package's garbage here would bias the probe
    try:
        t0 = time.perf_counter()
        for _ in range(8):
            cols = list(zip(*_PROBE_ROWS))
            prod = [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in _PROBE_ROWS]
            cells = {(i, j): x for i, row in enumerate(prod) for j, x in enumerate(row)}
            json.dumps({str(k): f"{x.numerator}/{x.denominator}" for k, x in cells.items()})
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Tally:
    """Latencies and failures of the ops run so far."""

    def __init__(self):
        self.lat = []
        self.failed = 0
        self.unexpected = Counter()
        self.defects = Counter()


def run_ops(ops, tally, tracer=None, cache=None):
    """Run each op closed-loop, time it, check it; returns the output digest."""
    clock = time.perf_counter
    digest = hashlib.sha256()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            before = cache.cache_info() if cache else None
            tracer.active = True
        t0 = clock()
        try:
            out = op.fn(*op.args)
            error = None
        except Exception as exc:  # an uncaught program error is a failed op
            error = exc
        t1 = clock()
        if tracer is not None:
            tracer.active = False
            if before is not None:
                after = cache.cache_info()
                tracer.cache_hits += after.hits - before.hits
                tracer.cache_misses += after.misses - before.misses
        tally.lat.append(t1 - t0)
        if error is None:
            digest.update(repr(out).encode())
            try:
                good = op.ok(out)
            except Exception:  # a malformed output is a wrong answer
                good = False
        else:
            digest.update(f"raised {type(error).__name__}".encode())
            good = False
        if not good:
            tally.failed += 1
            (tally.defects if op.defect else tally.unexpected)[op.kind] += 1
    return digest.hexdigest()


def input_digest(ops) -> str:
    return hashlib.sha256(repr([(op.kind, op.args, op.expected) for op in ops]).encode()).hexdigest()


def setup(workload, seed):
    """Import, generate the warm-up batch and run it.

    Returns the seconds it took, the mean of the probes taken right before
    and after it, and the tally of the warm-up ops.
    """
    before = probe()
    t0 = time.perf_counter()
    import padicbuilding
    import workloads
    if Path(padicbuilding.__file__).resolve().parent != SRC / "padicbuilding":
        sys.exit(f"imported padicbuilding from {padicbuilding.__file__}, not from {SRC}")
    tally = Tally()
    run_ops(workloads.batch(workload, seed, 0), tally)
    seconds = time.perf_counter() - t0
    return seconds, (before + probe()) / 2, tally


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def child(argv):
    return subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)


def setup_in_fresh_process(workload, seed):
    proc = child([str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
                  "--setup-only"])
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["probe_s"], doc["unexpected"]


def cold_start(workload):
    """Wall time of one fresh `python -m padicbuilding.cli` request, and whether it answered right."""
    argv, expected = COLD_START[workload]
    t0 = time.perf_counter()
    proc = child(["-m", "padicbuilding.cli"] + argv)
    elapsed = time.perf_counter() - t0
    doc = json.loads(proc.stdout) if proc.returncode == 0 else {}
    return elapsed, doc.get("ok") is True and doc.get("result") == expected


def import_seconds():
    code = ("import time; t = time.perf_counter(); import padicbuilding.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(float(child(["-c", code]).stdout) for _ in range(IMPORT_RUNS))


def latency_stats(lat):
    ordered = sorted(lat)
    count = len(ordered)

    def nearest_rank(q):
        return ordered[max(1, math.ceil(round(q * count / 100, 9))) - 1]

    tail = max((q for q in TAIL_LADDER if count * (100 - q) / 100 >= 10), default=50.0)
    return nearest_rank(50.0), nearest_rank(tail), tail


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def measure(workload, seed, seconds):
    """Untraced run: the end-to-end metrics."""
    *first_setup, warm = setup(workload, seed)
    import workloads
    tally = Tally()
    clock = time.perf_counter
    t_end = clock() + seconds
    index, first, rates, raw_rates, probes, scaled_lat = 1, None, [], [], [probe()], []
    while True:
        ops = workloads.batch(workload, seed, index)
        done = len(tally.lat)
        out = run_ops(ops, tally)
        probes.append(probe())
        # each batch is scaled by the mean of the probes on either side of it
        slow = (probes[-2] + probes[-1]) / 2 / PROBE_REF_S     # > 1 on a slower host
        busy = sum(tally.lat[done:])
        raw_rates.append(len(ops) / busy)
        rates.append(len(ops) / busy * slow)
        scaled_lat.extend(t / slow for t in tally.lat[done:])
        if first is None:
            first = {"ops_per_batch": len(ops), "input_digest": input_digest(ops), "output_digest": out,
                     "size_mix": dict(sorted(Counter(op.kind for op in ops).items()))}
        if index == RSS_BATCHES:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if clock() >= t_end and index >= RSS_BATCHES:
            break
        index += 1
    setups = [first_setup]
    unexpected = sum(warm.unexpected.values())
    for _ in range(SETUP_RUNS - 1):
        *sample, bad = setup_in_fresh_process(workload, seed)
        setups.append(sample)
        unexpected += bad
    p50, tail, tail_q = latency_stats(tally.lat)
    raw = {"ops_per_s": statistics.median(raw_rates), "lat_p50_ms": p50 * 1e3,
           "lat_tail_ms": tail * 1e3, "setup_s": statistics.median(t for t, _ in setups),
           "peak_rss_mb": peak_rss_mb}
    p50, tail, _ = latency_stats(scaled_lat)
    setup_scaled = statistics.median(t / p * PROBE_REF_S for t, p in setups)
    metrics = {"ops_per_s": statistics.median(rates), "lat_p50_ms": p50 * 1e3,
               "setup_s": setup_scaled, "peak_rss_mb": peak_rss_mb}
    # reported, not bounded: between sets of ten runs it drifted by more than any bound allowed
    meta = dict(first, batches=index, lat_tail_ms=tail * 1e3,
                tail_percentile=tail_q, latency_samples=len(tally.lat),
                unscaled=raw, probe_median_s=statistics.median(probes), probes=len(probes),
                setup_samples=[{"setup_s": t, "probe_s": p} for t, p in setups],
                warmup_unexpected_failures=sum(warm.unexpected.values()))
    correct = unexpected == 0 and not tally.unexpected
    return metrics, E2E_UNITS, tally, meta, correct


def measure_traced(workload, seed):
    """Traced run over fixed batches: the per-layer metrics."""
    import tracer as spans
    import workloads
    from padicbuilding import seminorm
    cache = getattr(seminorm, "_cached_inverse", None)
    cache = cache if hasattr(cache, "cache_info") else None

    *_, warm = setup(workload, seed)
    batches = [workloads.batch(workload, seed, i) for i in range(1, TRACE_BATCHES + 1)]

    def reset():
        # both passes start from the state a fresh set-up leaves
        if cache is not None:
            cache.cache_clear()
        run_ops(workloads.batch(workload, seed, 0), Tally())

    def run_pass(tally, tracer=None):
        # returns the output digests and the op time scaled by the probe median
        digests, probes = [], []
        for ops in batches:
            digests.append(run_ops(ops, tally, tracer, cache))
            probes.append(probe())
        return digests, sum(tally.lat) / statistics.median(probes)

    reset()
    plain = Tally()
    plain_digest, plain_time = run_pass(plain)
    reset()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = Tally()
        traced_digest, traced_time = run_pass(traced, tracer)
    finally:
        tracer.uninstall()

    (HERE / "out").mkdir(exist_ok=True)
    spans_path = HERE / "out" / f"spans-{workload}-seed{seed}.tsv"
    tracer.write_spans(spans_path)

    lookups = tracer.cache_hits + tracer.cache_misses
    metrics = spans.layer_values(tracer)
    metrics["arith.max_entry_bits"] = tracer.max_entry_bits
    metrics["arith.inverse_cache_hit_ratio"] = tracer.cache_hits / lookups if lookups else 0.0
    metrics["cli.import_s"] = import_seconds()
    cold_ok = cold_start(workload)[1]           # warms the file cache; not counted
    cold = []
    for _ in range(COLD_START_RUNS):
        elapsed, ok = cold_start(workload)
        cold.append(elapsed)
        cold_ok = cold_ok and ok
    metrics["cli.cold_start_ms"] = statistics.median(cold) * 1e3
    metrics["trace.overhead_ratio"] = plain_time / traced_time
    units = {name: unit for name, (unit, _k, _s) in spans.LAYER_METRICS.items()}
    units.update({"arith.max_entry_bits": "bits", "arith.inverse_cache_hit_ratio": "ratio",
                  "cli.import_s": "s", "cli.cold_start_ms": "ms", "trace.overhead_ratio": "ratio"})
    same = plain_digest == traced_digest
    meta = {"trace_batches": TRACE_BATCHES, "ops_traced": len(traced.lat), "spans": len(tracer.spans),
            "ops_per_batch": len(batches[0]),
            "size_mix": dict(sorted(Counter(op.kind for op in batches[0]).items())),
            "spans_file": str(spans_path.relative_to(ROOT)), "inverse_cache_lookups": lookups,
            "inverse_cache": "present" if cache else "absent", "traced_output_matches": same,
            "warmup_unexpected_failures": sum(warm.unexpected.values()),
            "cold_start_runs": COLD_START_RUNS, "cold_start_ok": cold_ok}
    correct = cold_ok and same and not warm.unexpected and not plain.unexpected and not traced.unexpected
    return {k: metrics[k] for k in units}, units, traced, meta, correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="padicbuilding benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(COLD_START))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "padicbuilding" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        seconds, probe_s, tally = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds, "probe_s": probe_s,
                          "unexpected": sum(tally.unexpected.values())}))
        return 0
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    if args.trace:
        metrics, units, tally, meta, correct = measure_traced(args.workload, args.seed)
    else:
        metrics, units, tally, meta, correct = measure(args.workload, args.seed, args.seconds)

    attempted = len(tally.lat)
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                python=platform.python_version(), platform=platform.platform(),
                nproc=os.cpu_count(), commit=git_commit(),
                fail_ratio=tally.failed / attempted,
                known_defect_failures=dict(sorted(tally.defects.items())),
                unexpected_failures=dict(sorted(tally.unexpected.items())))
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {units[name]}")
    if "lat_tail_ms" in meta:
        print(f"{'lat_tail_ms':34s} {meta['lat_tail_ms']:.6g} ms (p{meta['tail_percentile']:g} of "
              f"{meta['latency_samples']} samples; not bounded)")
    print(f"{'fail_ratio':34s} {tally.failed / attempted:.6g} ({tally.failed} of {attempted} ops)")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
