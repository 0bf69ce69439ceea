#!/usr/bin/env python3
"""Simulator benchmark: whole SimCluster runs on four pinned shapes.

    python3 simbench/run.py --workload ring1024 --seed 7 --seconds 30 --trace 0

Run from the repository root.  Builds simbench_worker into .bench_build/
(first run only), then repeats one iteration until --seconds is used up.
An iteration runs the workload once per mode, each in a fresh process:

    serial   engine_threads = 1, tracing off
    digest   serial with enable_tracing(64)
    sharded  engine_threads = 4, tracing off (--trace 1 only)

With --trace 1 the serial process also records the benchmark's own spans
and allocation counts, and an untraced serial process gives the base the
per-layer ratios are computed against.

Every process verifies its payloads.  The serial simulated outputs must
equal simbench/pinned.json, the digest mode must reproduce them, and every
digest-mode run of one seed must give the same trace digest.  Whether the
sharded run's simulated outputs and merged counters equal the serial
run's is reported as sim_agree, not enforced (see simbench/README.md).

The last stdout line is one JSON object: correct, attempted, failed and
metrics -- the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  Progress and findings go to stderr.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "simbench")
WORKER = os.path.join(BUILD_DIR, "simbench_worker")
WORKLOADS = ("ring1024", "collectives1024", "serving64", "fft_transpose")
# Hard cap on one invocation's measuring, whatever --seconds says.
MAX_MEASURE_S = 150.0
# Pause between a build that compiled something and the first timed run.
# On a shared virtual machine the host claws back the CPU time a
# compile burst used as stolen time over the next minute or so, which
# slowed the first runs after a build by up to 2x (sharded mode worst).
SETTLE_AFTER_BUILD_S = 90

# Counter totals (serial mode) reported per layer: metric name ->
# (counters_snapshot() name summed over nodes, unit).
LAYER_COUNTERS = {
    "net.frames_forwarded": ("net/frames_forwarded", "count"),
    "net.frames_dropped": ("net/frames_dropped", "count"),
    "inic.bursts_sent": ("inic/bursts_sent", "count"),
    "inic.credits_received": ("inic/credits_received", "count"),
    "inic.bytes_to_host": ("inic/bytes_to_host", "bytes"),
    "inic.retransmits": ("inic/retransmits", "count"),
    "inic.crc_drops": ("inic/crc_drops", "count"),
    "tcp.retransmits": ("tcp/retransmits", "count"),
    "tcp.timeouts": ("tcp/timeouts", "count"),
    "cpu.interrupts": ("cpu/interrupts", "count"),
    "cpu.compute_ns": ("cpu/compute_ns", "ns"),
    "cpu.protocol_ns": ("cpu/protocol_ns", "ns"),
    "cpu.interrupt_ns": ("cpu/interrupt_ns", "ns"),
    "collectives.trigger_fires": ("coll/trigger_fires", "count"),
}


def log(msg):
    print(f"simbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the worker; exits 2 on failure.

    Returns whether the worker binary was (re)linked.
    """
    before = os.path.getmtime(WORKER) if os.path.exists(WORKER) else None
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "3"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(2)
    return os.path.getmtime(WORKER) != before


def run_worker(workload, mode, seed, traced, deadline):
    cmd = [WORKER, "--workload", workload, "--mode", mode, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"{workload}/{mode}: timed out")
        sys.exit(1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        log(f"{workload}/{mode}: worker exited {proc.returncode}")
        sys.exit(1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_ticks():
    """(all, stolen) CPU ticks from /proc/stat, or None where unreadable.

    On a virtual machine, stolen ticks are time the host ran something
    else; they explain most of this benchmark's run-to-run noise.
    """
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return sum(fields), fields[7]
    except (OSError, ValueError, IndexError):
        return None


def span_total(run, name):
    return sum(dur for span, _, dur in run["spans"] if span == name)


class Checks:
    """Output checks across one invocation's processes."""

    def __init__(self, workload, seed):
        pins = json.load(open(os.path.join(HERE, "pinned.json")))
        entry = pins[workload]
        if "by_seed" in entry:
            entry = entry["by_seed"].get(str(seed))
            if entry is None:
                log(f"{workload}: no pinned outputs for seed {seed}; "
                    "checking that every serial-engine run agrees instead")
        self.workload = workload
        # Simulated outputs every serial-engine run (serial, digest) must
        # reproduce: the pins, else the first such run of this invocation.
        self.reference = entry
        self.ok = True
        self.agree = True
        self.digests = set()

    def fail(self, msg):
        log(f"{self.workload}: CHECK FAILED: {msg}")
        self.ok = False

    def check(self, label, run, serial_engine=True):
        if run["failed"]:
            self.fail(f"{label}: {run['failed']} of {run['attempted']} "
                      "operations failed verification")
        if not serial_engine:
            return
        if self.reference is None:
            self.reference = run["outputs"]
        elif run["outputs"] != self.reference:
            self.fail(f"{label}: simulated outputs {run['outputs']} != "
                      f"{self.reference}")

    def iteration(self, runs):
        for label, run in runs.items():
            self.check(label, run, serial_engine=label != "sharded")
        self.digests.add(tuple(runs["digest"]["digests"]))
        if len(self.digests) > 1:
            self.fail(f"digest mode not deterministic: {sorted(self.digests)}")
        if "sharded" not in runs:
            return
        serial, sharded = runs["serial"], runs["sharded"]
        if (sharded["outputs"] != serial["outputs"]
                or sharded["counters"] != serial["counters"]):
            if self.agree:
                diff = sorted(k for k in serial["counters"]
                              if serial["counters"][k]
                              != sharded["counters"].get(k))
                log(f"{self.workload}: sim_agree=0: sharded outputs "
                    f"{sharded['outputs']} (events {sharded['events']}) vs "
                    f"serial {serial['outputs']} (events {serial['events']}); "
                    f"{len(diff)} counters differ, e.g. {diff[:4]}")
            self.agree = False


def median_of(iters, fn):
    return statistics.median([fn(it) for it in iters])


def wall(mode):
    return lambda it: it[mode]["wall_s"]


def end_to_end(iters):
    return {
        "setup_s": (median_of(iters, lambda it: sum(
            r["setup_s"] for r in it.values())), "s"),
        "serial_wall_s": (median_of(iters, wall("serial")), "s"),
        "digest_wall_s": (median_of(iters, wall("digest")), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for it in iters for r in it.values())
                        / 1024.0, "MB"),
    }


def per_layer(iters, checks, attempted, failed):
    def med(fn):
        return median_of(iters, fn)

    # Every wall-time ratio is over the untraced serial run; the traced
    # one only gives the benchmark's own overhead.
    serial_wall = med(wall("serial_untraced"))
    sharded_wall = med(wall("sharded"))
    digest_wall = med(wall("digest"))
    first = iters[0]
    events = first["serial"]["events"]
    sharded = first["sharded"]
    records = first["digest"]["trace_records"]
    # A fabric that does not shard (the star) runs its one LP on one
    # thread for the whole run: busy == wall, no windows.
    if sharded["lps"] > 1:
        busy_sum = med(lambda it: it["sharded"]["busy_sum_s"])
        busy_max = med(lambda it: it["sharded"]["busy_max_s"])
    else:
        busy_sum = busy_max = sharded_wall
    trace_overhead = digest_wall - serial_wall
    m = {
        "apps.construct_s": (med(lambda it: span_total(it["serial"], "ctor")),
                             "s"),
        "sim.events": (events, "count"),
        "sim.events_per_s": (events / serial_wall, "1/s"),
        "sim.allocs_per_event": (
            med(lambda it: it["serial"]["allocs"]) / events, "count"),
        "sharded_wall_s": (sharded_wall, "s"),
        "parallel.lps": (sharded["lps"], "count"),
        "parallel.windows": (sharded["windows"], "count"),
        "parallel.events_per_window": (
            sharded["events"] / sharded["windows"] if sharded["windows"]
            else 0.0, "count"),
        "parallel.cross_posts": (sharded["cross_posts"], "count"),
        "parallel.busy_sum_s": (busy_sum, "s"),
        "parallel.busy_max_s": (busy_max, "s"),
        "parallel.idle_frac": (
            1.0 - busy_sum / (sharded["threads"] * sharded_wall), "fraction"),
        "parallel.speedup": (serial_wall / sharded_wall, "x"),
        "trace.records": (records, "count"),
        "trace.records_per_event": (records / events, "count"),
        "trace.overhead_s": (trace_overhead, "s"),
        "trace.ns_per_record": (trace_overhead * 1e9 / records, "ns"),
        "algo.fft2d_s": (med(lambda it: it["serial"]["fft2d_s"]), "s"),
        "sim_agree": (1 if checks.agree else 0, "bool"),
        "failed_frac": (failed / attempted, "fraction"),
        "bench.trace_overhead_s": (med(wall("serial")) - serial_wall, "s"),
        "bench.iterations": (len(iters), "count"),
    }
    for metric, (counter, unit) in LAYER_COUNTERS.items():
        m[metric] = (first["serial"]["counters"].get(counter, 0), unit)
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if build():
        log(f"built; letting the machine settle {SETTLE_AFTER_BUILD_S} s")
        time.sleep(SETTLE_AFTER_BUILD_S)
    checks = Checks(args.workload, args.seed)
    traced = args.trace == 1
    # (result key, worker mode, traced).  The end-to-end metrics need only
    # serial and digest; the sharded mode feeds per-layer metrics alone.
    plan = [("serial", "serial", traced), ("digest", "digest", False)]
    if traced:
        # Same serial run without the benchmark's own spans and
        # allocation counting: traced minus untraced is their overhead.
        plan += [("serial_untraced", "serial", False),
                 ("sharded", "sharded", False)]

    ticks0 = cpu_ticks()
    start = time.monotonic()
    budget = min(args.seconds, MAX_MEASURE_S)
    deadline = start + MAX_MEASURE_S + 20
    # One untimed serial run first, inside the budget, so the first timed
    # process does not start on a machine idle through the build check.
    warm = run_worker(args.workload, "serial", args.seed, False, deadline)
    checks.check("warm-up", warm)
    attempted, failed = warm["attempted"], warm["failed"]

    iters, longest = [], 0.0
    while True:
        t0 = time.monotonic()
        runs = {key: run_worker(args.workload, mode, args.seed, tr, deadline)
                for key, mode, tr in plan}
        longest = max(longest, time.monotonic() - t0)
        checks.iteration(runs)
        iters.append(runs)
        attempted += sum(r["attempted"] for r in runs.values())
        failed += sum(r["failed"] for r in runs.values())
        if time.monotonic() + longest > start + budget:
            break
    for key, _, _ in plan:
        walls = " ".join(f"{it[key]['wall_s']:.3f}" for it in iters)
        log(f"{key} wall_s samples: {walls}")
    ticks1 = cpu_ticks()
    steal = ""
    if ticks0 and ticks1:
        share = (ticks1[1] - ticks0[1]) / max(1, ticks1[0] - ticks0[0])
        steal = f", host steal {100 * share:.1f}% of CPU ticks"
    log(f"{args.workload} seed {args.seed}: {len(iters)} iterations in "
        f"{time.monotonic() - start:.1f} s{steal}, sim_agree="
        f"{1 if checks.agree else 0}, digest {iters[0]['digest']['digests']}")

    metrics = (per_layer(iters, checks, attempted, failed) if traced
               else end_to_end(iters))
    print(json.dumps({
        "correct": checks.ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
