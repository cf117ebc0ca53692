#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload (or those named) repeatedly with a new seed each
time, alternating the workload order between rounds, and prints for
every metric the median, the quartiles and the spread (quartile distance
as a share of the median) beside its bound from BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--trace 0|1]
                                [--workloads a,b] [--out FILE]
                                [--load FILE] [--against FILE]

Run it from the repository root. Run i uses seed first-seed + i; the
benchmark command and run length come from BENCHMARK.json. Every result
line is appended to --out (default perfbench/out/steady.jsonl).

--load FILE analyses a set recorded earlier instead of running one.
--against FILE compares this set with an earlier one:
  * both untraced: the distance of each end-to-end median from the
    earlier set's, in the metric's worse direction, beside its bound,
    and whether the share of failed operations is the same;
  * this set traced (--trace 1), the earlier one untraced: the tracing
    overhead, the traced-minus-untraced median of every end-to-end
    metric (the traced run reports it as bench.traced.<name>).

Exits 1 when a spread other than setup_s's exceeds a third of its bound,
when a median moved against the earlier set by more than its bound, or
when the failed shares differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_set(bench, workloads, args):
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    log = open(args.out, "a")
    rows = []
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        seed = args.first_seed + i
        for w in order:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            start = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            wall = time.time() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            res = json.loads(lines[-1])
            res.update(workload=w, seed=seed, trace=args.trace, wall_s=round(wall, 2))
            log.write(json.dumps(res) + "\n")
            log.flush()
            rows.append(res)
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: {wall:.1f}s "
                  f"correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", file=sys.stderr)
    return rows


def load(path, workloads, trace):
    rows = [json.loads(l) for l in open(path) if l.strip()]
    return [r for r in rows if r["workload"] in workloads and r.get("trace", 0) == trace]


def values(rows, w, name):
    return [r["metrics"][name]["value"] for r in rows
            if r["workload"] == w and name in r["metrics"]]


def failed_share(rows, w):
    return sorted({r["failed"] / r["attempted"] for r in rows if r["workload"] == w})


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--out", default="perfbench/out/steady.jsonl")
    ap.add_argument("--load")
    ap.add_argument("--against")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    rows = load(args.load, workloads, args.trace) if args.load else run_set(bench, workloads, args)
    earlier = load(args.against, workloads, 0) if args.against else []

    ok = True
    for w in workloads:
        runs = [r for r in rows if r["workload"] == w]
        walls = [r["wall_s"] for r in runs]
        print(f"\n{w}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f}s, "
              f"failed share {failed_share(rows, w)}, "
              f"all correct {all(r['correct'] for r in runs)}")
        if earlier and args.trace == 0 and failed_share(rows, w) != failed_share(earlier, w):
            print(f"  failed share differs from the earlier set's {failed_share(earlier, w)}")
            ok = False
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6} {'drift':>8}")
        for m in metrics:
            vals = values(rows, w, m["name"])
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flags = []
            if bound is not None and m["name"] != "setup_s" and spread > bound / 3:
                flags.append("spread above a third of the bound")
            drift = ""
            before = values(earlier, w, m["name"]) if args.trace == 0 else []
            if before:
                # Distance from the earlier median, positive when worse.
                d = (med - statistics.median(before)) / statistics.median(before)
                d = d if m["better"] == "lower" else -d
                drift = f"{d:+8.3f}"
                if bound is not None and d > bound:
                    flags.append("median moved by more than the bound")
            ok = ok and not flags
            print(f"  {m['name']:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6} {drift:>8}"
                  + "".join(f"  <-- {f}" for f in flags))
        if earlier and args.trace == 1:
            print(f"  tracing overhead (traced median - untraced median of {len(values(earlier, w, 'setup_s'))} runs):")
            for m in bench["end_to_end"]:
                traced = values(rows, w, "bench.traced." + m["name"])
                untraced = values(earlier, w, m["name"])
                if traced and untraced:
                    t, u = statistics.median(traced), statistics.median(untraced)
                    print(f"    {m['name']:32} {t - u:+12.6g} {m['unit']:5} ({(t - u) / u:+.3f})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
