#!/usr/bin/env python3
"""Regenerates simbench/pinned.json: the serial simulated outputs.

    python3 simbench/pin.py

Run from the repository root.  Re-pin only when a change is meant to
alter simulated behaviour; a simulator-speed change must leave every
pinned value as it is.

ring1024, collectives1024 and fft_transpose have seed-independent
simulated outputs (the seed only fills payloads and matrices, whose values
never reach the timing models); the script checks that on three seeds and
pins one entry.  serving64's request schedule comes from the seed, so its
outputs are pinned per seed for seeds 0 .. SERVING_SEEDS-1 and the
held-out seed.
"""
import concurrent.futures
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

HELD_OUT_SEED = 90001
SERVING_SEEDS = 256
# Worker processes pinning serving64 seeds at once.
JOBS = 2
SEED_FREE = ("ring1024", "collectives1024", "fft_transpose")


def outputs(workload, seed):
    deadline = run.time.monotonic() + 170
    return run.run_worker(workload, "serial", seed, False, deadline)["outputs"]


def main():
    run.build()

    pins = {}
    for w in SEED_FREE:
        seen = [outputs(w, s) for s in (0, 1, HELD_OUT_SEED)]
        if any(o != seen[0] for o in seen):
            sys.exit(f"{w}: simulated outputs depend on the seed: {seen}")
        pins[w] = seen[0]
        print(w, seen[0], file=sys.stderr)

    seeds = list(range(SERVING_SEEDS)) + [HELD_OUT_SEED]
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        table = dict(zip(seeds, pool.map(lambda s: outputs("serving64", s),
                                         seeds)))
    pins["held_out_seed"] = HELD_OUT_SEED

    # One line per entry, seeds in numeric order, so re-pins diff cleanly.
    lines = [f' "{k}": {json.dumps(v, sort_keys=True)},'
             for k, v in pins.items() if k != "serving64"]
    lines.append(' "serving64": {"by_seed": {')
    lines += [f'  "{s}": {json.dumps(table[s], sort_keys=True)},'
              for s in seeds]
    lines[-1] = lines[-1].rstrip(",")
    path = os.path.join(run.HERE, "pinned.json")
    with open(path, "w") as f:
        f.write("{\n" + "\n".join(lines) + "\n }}\n}\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
