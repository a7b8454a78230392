#!/usr/bin/env python3
"""The repo benchmark: compile, trajectory and job-service throughput
with a per-layer ledger.

    python3 casqbench/run.py --workload compile-dd --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout.  The first run builds the casq
library, the casq_serve daemon and the casqbench driver (Release)
into .bench_build/; every run then drives one workload, checks its
outputs, prints a summary of every metric with its unit on standard
error and, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1
the driver does the same work once untraced and twice traced, writes
the spans as Chrome trace-event JSON next to its raw report, and the
metrics are the per-layer ones.  README.md describes every workload
and metric.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchstats as bs  # noqa: E402

WORKLOADS = ("compile-dd", "simulate-ca-dd", "service-jobs")

# The committed references were taken at this seed.
REFERENCE_SEED = 1

# The pooled simulate-ca-dd estimate may differ from the reference by
# this many standard errors of the difference.
ESTIMATE_SIGMAS = 5.0

DRIVER_TIMEOUT_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PASSES = [
    "twirl-plan", "ca-ec-plan", "flatten", "transpile", "late-twirl",
    "ca-ec", "schedule-asap", "ca-dd", "dd-uniform-aligned",
]

LAYERS = ["passes", "circuit", "sim", "shard", "service"]

PER_LAYER = (
    [("pass.%s.ms" % name, "ms") for name in PASSES]
    + [
        ("compile.prefix_ms", "ms"),
        ("compile.instance_ms", "ms"),
        ("compile.prefix_hit_ratio", "ratio"),
        ("circuit.instructions", "count"),
        ("circuit.dd_pulses", "count"),
        ("circuit.caec_compensations", "count"),
        ("sim.compile_ms", "ms"),
        ("sim.variant_build_ms", "ms"),
        ("sim.trajectory_us", "us"),
        ("sim.prefix_fork_ratio", "ratio"),
        ("sim.variant_cache_hit_ratio", "ratio"),
        ("shard.execute_ms", "ms"),
        ("shard.codec_us", "us"),
        ("shard.merge_ms", "ms"),
        ("shard.spec_bytes", "bytes"),
        ("shard.result_bytes", "bytes"),
        ("service.submit_rpc_ms", "ms"),
        ("service.queue_wait_ms", "ms"),
        ("service.active_ms", "ms"),
        ("service.shard_wall_ms", "ms"),
        ("service.slot_busy_ratio", "ratio"),
        ("service.steal_ratio", "ratio"),
        ("service.retries", "count"),
    ]
    + [("self.%s_ms" % layer, "ms") for layer in LAYERS]
    + [
        ("trace.overhead_ratio", "ratio"),
        ("trace.uncovered_ms", "ms"),
        ("trace.uncovered_ratio", "ratio"),
    ]
)

def fail(message, code):
    print("casqbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the build up to date; returns the
    build directory."""
    if not (os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(os.path.join(ROOT, "tools", "casq_serve.cc"))):
        fail("no casq sources next to the benchmark (expected src/ and "
             "tools/ under %s); run it from a full checkout" % ROOT, 2)
    build_dir = os.path.join(ROOT, ".bench_build", "casqbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd), 3)
    return build_dir


def run_driver(cmd):
    """Run the driver in its own process group so that it and the
    daemon it starts are gone when this returns."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("casqbench: driver timed out", file=sys.stderr)
        return -1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def reference_path(workload):
    return os.path.join(HERE, "reference", workload + ".json")


def load_reference(workload):
    try:
        with open(reference_path(workload)) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def reference_checks(workload, seed, raw):
    """Checks against the committed reference outputs."""
    checks = []
    ref = load_reference(workload)
    if workload == "compile-dd" and seed == REFERENCE_SEED:
        ok = ref is not None and ref["fingerprints"] == raw["fingerprints"]
        checks.append({"name": "compile-dd: schedule fingerprints match "
                               "the committed reference", "ok": ok,
                       "detail": ""})
    if workload == "simulate-ca-dd":
        ok, worst = estimate_check(raw["estimates"], ref)
        checks.append({"name": "simulate-ca-dd: pooled <Z_q> within %g "
                               "standard errors of the committed "
                               "reference" % ESTIMATE_SIGMAS,
                       "ok": ok, "detail": "worst %.2f sigma" % worst})
    return checks


def pooled(estimates):
    """Per-qubit mean and standard deviation across requests."""
    columns = list(zip(*estimates))
    means = [sum(c) / len(c) for c in columns]
    stdevs = [statistics.stdev(c) if len(c) > 1 else 0.0 for c in columns]
    return means, stdevs


def estimate_check(estimates, ref):
    """Compare the mean of n requests' estimates with the reference
    mean of ref["requests"] requests.  Requests are independent (own
    twirl instances, own trajectories), so the spread of one
    request's estimate is the reference's across-request standard
    deviation; trajectory-level standard errors would miss the
    variation between twirl instances."""
    if ref is None or not estimates:
        return False, float("inf")
    means, _ = pooled(estimates)
    if len(means) != len(ref["means"]):
        return False, float("inf")
    n, n_ref = len(estimates), ref["requests"]
    worst = 0.0
    for m, rm, sd in zip(means, ref["means"], ref["request_stdevs"]):
        sigma = sd * math.sqrt(1.0 / n + 1.0 / n_ref)
        worst = max(worst, abs(m - rm) / max(sigma, 1e-12))
    return worst <= ESTIMATE_SIGMAS, worst


def end_to_end_metrics(raw):
    return {
        "setup_s": bs.median(raw["setup_s"]),
        "throughput_per_s": bs.median(raw["throughput"]),
        "latency_p50_ms": bs.percentile(raw["latency_ms"], 50.0),
        "latency_p90_ms": bs.percentile(raw["latency_ms"], 90.0),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer_metrics(raw, checks):
    """Per-layer values of a traced run; a layer that does not run
    on the workload reports 0."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    values.update(raw["layer"])
    for name, samples in raw["layer_samples"].items():
        values[name] = bs.median(samples)
    first, second = raw["counts"]
    values.update(first)
    checks.append({"name": "exact counts repeat across the two traced "
                           "passes", "ok": first == second,
                   "detail": "" if first == second else
                   json.dumps({"first": first, "second": second})})

    with open(os.path.join(ROOT, raw["trace_file"])) as f:
        spans = bs.spans_from_chrome_trace(json.load(f))
    window = tuple(raw["window_us"])
    for layer, micros in bs.layer_self_times(spans, window).items():
        values["self.%s_ms" % layer] = micros / 1e3
    uncovered = bs.uncovered_time(spans, window)
    values["trace.uncovered_ms"] = uncovered / 1e3
    values["trace.uncovered_ratio"] = uncovered / (window[1] - window[0])
    values["trace.overhead_ratio"] = raw["traced_ms"] / raw["untraced_ms"]
    return values


def write_reference(workload, seed, raw):
    if seed != REFERENCE_SEED:
        fail("references are taken at --seed %d" % REFERENCE_SEED, 2)
    if workload == "compile-dd":
        ref = {"seed": seed, "fingerprints": raw["fingerprints"]}
    elif workload == "simulate-ca-dd":
        means, stdevs = pooled(raw["estimates"])
        ref = {"seed": seed, "requests": len(raw["estimates"]),
               "means": means, "request_stdevs": stdevs}
    else:
        fail("service-jobs is checked against in-process replays and "
             "has no committed reference", 2)
    with open(reference_path(workload), "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    print("casqbench: wrote " + reference_path(workload), file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the committed "
                             "reference (untraced, --seed %d)"
                             % REFERENCE_SEED)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = build()
    out_dir = os.path.join(ROOT, ".bench_build", "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    raw_path = os.path.join(out_dir, stem + ".raw.json")
    trace_rel = os.path.join(".bench_build", "out", stem + ".trace.json")
    socket_rel = os.path.join(".bench_build", "out",
                              "serve-%d.sock" % os.getpid())
    cmd = [os.path.join(build_dir, "casqbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--trace-file", trace_rel,
           "--serve", os.path.join(build_dir, "casq_serve"),
           "--socket", socket_rel]
    if os.path.exists(raw_path):
        os.unlink(raw_path)
    code = run_driver(cmd)
    if os.path.exists(os.path.join(ROOT, socket_rel)):
        os.unlink(os.path.join(ROOT, socket_rel))
    if code != 0:
        fail("driver exited with status %d" % code, 1)
    with open(raw_path) as f:
        raw = json.load(f)

    if args.write_reference:
        write_reference(args.workload, args.seed, raw)

    checks = list(raw["checks"])
    checks += reference_checks(args.workload, args.seed, raw)
    if args.trace:
        values = per_layer_metrics(raw, checks)
        catalogue = PER_LAYER
    else:
        values = end_to_end_metrics(raw)
        catalogue = END_TO_END
    attempted, failed = bs.account(raw["requests"],
                                   raw["request_failures"], checks)

    print("casqbench %s seed %d (%s): %d operations, %d failed "
          "(failed_ratio %.4g)"
          % (args.workload, args.seed,
             "traced" if args.trace else "untraced", attempted, failed,
             bs.failed_ratio(attempted, failed)), file=sys.stderr)
    if not args.trace:
        print("  samples: %d setups, %d requests, %d throughput samples"
              % (len(raw["setup_s"]), len(raw["latency_ms"]),
                 len(raw["throughput"])), file=sys.stderr)
        if len(raw["latency_ms"]) >= 2:
            q1, q2, q3 = bs.quartiles(raw["latency_ms"])
            print("  request latency quartiles: %.4g / %.4g / %.4g ms "
                  "(spread %.3f)" % (q1, q2, q3, bs.spread(raw["latency_ms"])),
                  file=sys.stderr)
    else:
        print("  trace: " + trace_rel, file=sys.stderr)
    for name, unit in catalogue:
        print("  %-32s %14.6g %s" % (name, values[name], unit),
              file=sys.stderr)
    for check in checks:
        if not check["ok"]:
            print("  FAILED CHECK: %s %s" % (check["name"], check["detail"]),
                  file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in catalogue},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
