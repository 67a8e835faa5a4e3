#!/usr/bin/env python3
"""The benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_runner from the checkout's sources (into .bench_build),
runs the named workload with inputs generated from --seed for about
--seconds, checks its outputs, prints every metric with its unit and
sample count, and ends stdout with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics BENCHMARK.json lists; --trace 1
reports its per-layer metrics, derived from spans recorded around every
layer call on alternate passes. Exits non-zero when the build fails, a
metric cannot be reported, or a correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import summary  # noqa: E402
from summary import Stat  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("recluster-cora", "churn-febrl", "serve-replicated")
# Seed kept out of tuning, for confirming later claims on unseen inputs.
HELD_OUT_SEED = 7919
# The runner must end within this many seconds of the build finishing.
# The clock starts after the build: a checkout's first run builds from
# scratch, which on a loaded machine can take minutes by itself, and the
# runner's time does not depend on it.
DEADLINE_S = 170.0
# End-to-end timings are reported at this speed-probe time (µs), about
# the probe's median on a 4-vCPU Xeon VM: a pass's times are scaled by
# REFERENCE_PROBE_US over the median of its own probes (its rates by the
# inverse), which cancels the machine's drift in memory speed. See
# perfbench/README.md, "Steadiness".
REFERENCE_PROBE_US = 1000.0
# Workloads whose request rate is a fixed schedule (open loop): their
# ops_per_s does not depend on machine speed and is not scaled.
OPEN_LOOP = ("serve-replicated",)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the runner; build chatter goes to stderr."""
    for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                 "perfbench_runner", "perfbench_check_test"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench_runner")


def pooled(passes, key):
    return [v for p in passes for v in p["samples"].get(key, [])]


def bypassed(unit):
    """A layer the workload never calls: zero, from zero samples."""
    return Stat(0.0, unit, samples=0)


def or_bypassed(values, fn, unit):
    return fn(values, unit) if values else bypassed(unit)


def ops_per_s(passes):
    return summary.ratio(sum(p["ops"] for p in passes),
                         sum(p["serve_s"] for p in passes), "1/s")


def slowdown(p):
    """How much slower than the reference speed a pass ran."""
    return summary.median(p["probe_us"], "us").value / REFERENCE_PROBE_US


def per_pass(passes, fn, unit):
    """Median over passes of a per-pass figure: every pass does the same
    work, so a pass slowed by outside load is outvoted."""
    stat = summary.median([fn(p) for p in passes], unit)
    stat.samples = sum(len(p["round_ms"]) for p in passes)
    return stat


def end_to_end(doc):
    passes = doc["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    rate_scale = ((lambda p: 1.0) if doc["workload"] in OPEN_LOOP
                  else slowdown)
    return {
        "setup_s": summary.median(
            [p["setup_s"] / slowdown(p) for p in passes], "s"),
        "round_p50_ms": per_pass(
            passes, lambda p: summary.median(p["round_ms"], "ms").value
            / slowdown(p), "ms"),
        "round_p90_ms": per_pass(
            passes, lambda p: summary.tail_percentile(
                p["round_ms"], 0.9, "ms").value / slowdown(p), "ms"),
        "ops_per_s": per_pass(
            passes, lambda p: ops_per_s([p]).value * rate_scale(p), "1/s"),
        "f1_vs_batch": summary.median(doc["f1_vs_batch"], "ratio"),
        "ok_ratio": summary.ratio(attempted - failed, attempted),
        "peak_rss_mb": Stat(doc["peak_rss_mb"], "MiB", samples=1),
    }


def per_layer(doc, spans):
    traced = [p for p in doc["passes"] if p["traced"]]
    untraced = [p for p in doc["passes"] if not p["traced"]]
    selves = summary.self_times_us(spans)

    def span_median(name, unit, scale=1.0, serving_only=True):
        values = [v * scale for v in summary.layer_self_ms(
            spans, selves, name, serving_only)]
        return or_bypassed(values, summary.median, unit)

    def span_tail(name, q, unit, scale):
        values = [v * scale for v in summary.layer_self_ms(
            spans, selves, name, True)]
        return or_bypassed(values, lambda v, u: summary.tail_percentile(
            v, q, u), unit)

    def counter(name, unit="count"):
        values = [p["counters"][name] for p in traced
                  if name in p["counters"]]
        return or_bypassed(values, summary.median, unit)

    def counter_ratio(numerator, denominator, unit="ratio"):
        den = sum(p["counters"].get(denominator, 0) for p in traced)
        num = sum(p["counters"].get(numerator, 0) for p in traced)
        return summary.ratio(num, den, unit) if den > 0 else bypassed(unit)

    def quotient(a, b, unit="ratio"):
        # a / b with b's value as the base; bypassed when either is.
        return (summary.ratio(a.value, b.value, unit)
                if a.value > 0 and b.value > 0 else bypassed(unit))

    stats = {
        "data.apply_ms": span_median("data.apply", "ms"),
        "data.edges": counter("data.edges"),
        "core.round_ms": span_median("core.round", "ms"),
        "core.prob_evals": counter("core.prob_evals"),
        "core.predicted": counter("core.predicted"),
        "core.applied": counter("core.applied"),
        "core.rejected": counter("core.rejected"),
        "core.precision": counter_ratio("core.applied", "core.predicted"),
        "ml.observe_ms": span_median("ml.observe", "ms", serving_only=False),
        "batch.run_ms": span_median("batch.run", "ms", serving_only=False),
        "service.ingest_us": span_median("service.ingest", "us", 1e3),
        "service.wait_ms": span_median("service.wait", "ms"),
        "service.worker_apply_ms": counter("service.worker_apply_ms", "ms"),
        "service.worker_round_ms": counter("service.worker_round_ms", "ms"),
        "service.coalesced_ratio": counter_ratio("service.coalesced_ops",
                                                 "service.accepted_ops"),
        "service.producer_waits": counter("service.producer_waits"),
        "service.queue_high_water": counter("service.queue_high_water"),
        "service.record_imbalance": counter("service.record_imbalance",
                                            "ratio"),
        "net.ingest_rpc_p50_us": span_median("net.ingest_rpc", "us", 1e3),
        "net.ingest_rpc_p99_us": span_tail("net.ingest_rpc", 0.99, "us", 1e3),
        "net.read_rpc_p50_us": span_median("net.read_rpc", "us", 1e3),
        "net.read_rpc_p99_us": span_tail("net.read_rpc", 0.99, "us", 1e3),
        "net.bytes_per_op": counter_ratio("net.bytes", "net.requests", "B"),
        "repl.seal_ms": span_median("repl.seal", "ms"),
        "repl.sync_ms": span_median("repl.sync", "ms"),
        "repl.catchup_ms": span_median("repl.catchup", "ms"),
        "repl.delta_bytes": counter("repl.delta_bytes", "B"),
        "repl.replay_divergent_records": counter("repl.replay_divergent"),
        "repl.lag_epochs": or_bypassed(pooled(traced, "repl.lag_epochs"),
                                       summary.mean, "epochs"),
        "read.rejected_stale": counter_ratio("read.rejected_stale",
                                             "read.queries"),
        "obs.trace_overhead": quotient(ops_per_s(traced),
                                       ops_per_s(untraced)),
        "unattributed_share": summary.unattributed_share(spans),
        "calib.probe_us": summary.median(
            [v for p in doc["passes"] for v in p["probe_us"]], "us"),
    }
    stats["batch.speedup"] = quotient(stats["batch.run_ms"],
                                      stats["core.round_ms"])
    late = pooled(traced, "gen.late_ms")
    stats["gen.late_p99_ms"] = or_bypassed(
        late, lambda v, u: summary.tail_percentile(v, 0.99, u), "ms")
    reads = pooled(traced, "read_us")
    stats["read_p50_us"] = or_bypassed(reads, summary.median, "us")
    stats["read_p99_us"] = or_bypassed(
        reads, lambda v, u: summary.tail_percentile(v, 0.99, u), "us")
    stats["dominant_share"] = dominant_share(doc["workload"], spans, stats)
    for name in ("probe.unserved_reads", "probe.divergent_records"):
        stats[name] = (Stat(doc["probe"][name], "count", samples=1)
                       if name in doc["probe"] else bypassed("count"))
    return stats


def dominant_share(workload, spans, stats):
    """Share of a round taken by the layer this workload is built to
    stress: Recluster on recluster-cora, the workers' apply (against
    their rounds) on churn-febrl, network plus replication calls on
    serve-replicated."""
    if workload == "churn-febrl":
        apply_ms = stats["service.worker_apply_ms"].value
        round_ms = stats["service.worker_round_ms"].value
        return summary.ratio(apply_ms, apply_ms + round_ms)
    layers = (("core.round",) if workload == "recluster-cora" else
              ("net.ingest_rpc", "net.read_rpc", "repl.seal", "repl.sync",
               "repl.catchup"))
    covered, total = summary.round_coverage(spans, layers)
    return summary.ratio(covered, total)


def result(doc, stats, declared):
    """The run's last line: the declared metrics, in their declared
    units, and whether every correctness check held."""
    for metric in declared:
        stat = stats.get(metric["name"])
        if stat is None or stat.unit != metric["unit"]:
            raise RuntimeError("metric %s not measured in %s" %
                               (metric["name"], metric["unit"]))
    return {
        "correct": all(doc["checks"].values()),
        "attempted": int(sum(p["attempted"] for p in doc["passes"])),
        "failed": int(sum(p["failed"] for p in doc["passes"])),
        "metrics": {m["name"]: {"value": stats[m["name"]].value,
                                "unit": m["unit"]} for m in declared},
    }


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    declared = declared_metrics(args.trace)
    runner = build()
    started = time.monotonic()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    scratch = os.path.join(OUT_DIR, "scratch-" + tag)
    spans_path = os.path.join(OUT_DIR, "spans-%s.json" % tag)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch-dir", scratch]
    if args.trace:
        cmd += ["--spans-out", spans_path]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("runner exited with %d" % proc.returncode)
    doc = json.loads(proc.stdout)

    if args.trace:
        with open(spans_path) as f:
            spans = json.load(f)
        stats = per_layer(doc, spans)
    else:
        stats = end_to_end(doc)

    for name in sorted(stats):
        stat = stats[name]
        print("%-30s %14.6g %-6s (%s)" % (name, stat.value, stat.unit,
                                          stat.describe()))
    for name, ok in sorted(doc["checks"].items()):
        print("check %-36s %s" % (name, "ok" if ok else "FAILED"))

    line = result(doc, stats, declared)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as error:
        log("perfbench: %s" % error)
        sys.exit(1)
