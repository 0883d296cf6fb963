#!/usr/bin/env python3
"""Runs one workload once per seed and prints, per metric, the median,
the quartiles and the quartile spread as a share of the median.  Each
run's line on stderr gives the host's steal time during it, as a share of
CPU time from /proc/stat (Linux), since the host times follow it.

    python3 perfbench/spread.py WORKLOAD [--seeds 1-10] [--seconds 40] [--trace 0] [--binary PATH]

Run it from the repository root after building the benchmark
(`cargo build --release --manifest-path perfbench/Cargo.toml`).
"""
import argparse
import json
import statistics
import subprocess
import sys

p = argparse.ArgumentParser()
p.add_argument("workload")
p.add_argument("--seeds", default="1-10")
p.add_argument("--seconds", default="40")
p.add_argument("--trace", default="0")
p.add_argument("--binary", default="perfbench/target/release/perfbench")
a = p.parse_args()
lo, _, hi = a.seeds.partition("-")
seeds = range(int(lo), int(hi or lo) + 1)



def cpu_times():
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:9]]
    except OSError:
        return None


runs = []
for seed in seeds:
    before = cpu_times()
    out = subprocess.run(
        [a.binary, "--workload", a.workload, "--seed", str(seed),
         "--seconds", a.seconds, "--trace", a.trace],
        capture_output=True, text=True, check=True,
    )
    after = cpu_times()
    steal = ""
    if before and after:
        delta = [b - a for a, b in zip(before, after)]
        steal = f" steal={100 * delta[7] / max(sum(delta), 1):.1f}%"
    line = json.loads(out.stdout.strip().splitlines()[-1])
    runs.append(line)
    print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
          f"failed={line['failed']}{steal}", file=sys.stderr)

print(f"{'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
for name, first in runs[0]["metrics"].items():
    values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else float("nan")
    print(f"{name:34} {first['unit']:6} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}")
shares = {r["failed"] / r["attempted"] for r in runs}
print(f"failed shares: {sorted(shares)}")
