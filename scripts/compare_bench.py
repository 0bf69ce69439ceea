#!/usr/bin/env python3
"""Compare two bench_all result files on everything but wall clock.

Usage: scripts/compare_bench.py A.json B.json

Exits 0 when both files hold the same suites and points, and every point
agrees on its deterministic fields: trace digest, simulated time, event
count, trace records, counters, latency, params, per-shard event counts,
and simulated speedups.  Wall-clock fields (wall_ms, wall_ns,
events_per_sec, scaling_efficiency, per-shard wall_ns, and the speedup of
parallel-engine points, which is a wall-clock ratio) are ignored.  Exits
1 and lists every difference otherwise, 2 on a usage error.
"""
import json
import sys

WALL_CLOCK = {"wall_ms", "wall_ns", "events_per_sec", "scaling_efficiency"}


def deterministic(point):
    """The fields of one point that must match bit for bit."""
    out = {k: v for k, v in point.items() if k not in WALL_CLOCK}
    if "threads" in point:  # parallel-engine point: speedup is wall clock
        out.pop("speedup", None)
    if "shards" in point:
        out["shards"] = [s.get("events") for s in point["shards"]]
    return out


def points(doc):
    return {
        (suite, name): deterministic(p)
        for suite, body in doc["suites"].items()
        for name, p in body["points"].items()
    }


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        a = points(json.load(f))
    with open(argv[2]) as f:
        b = points(json.load(f))
    diffs = []
    for key in sorted(a.keys() | b.keys()):
        label = "/".join(key)
        if key not in b:
            diffs.append(f"{label}: only in {argv[1]}")
        elif key not in a:
            diffs.append(f"{label}: only in {argv[2]}")
        else:
            for field in sorted(a[key].keys() | b[key].keys()):
                va, vb = a[key].get(field), b[key].get(field)
                if va != vb:
                    diffs.append(f"{label}: {field} {va!r} != {vb!r}")
    for d in diffs:
        print(d)
    print(f"{len(a)} vs {len(b)} points, {len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
