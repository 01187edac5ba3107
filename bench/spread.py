"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

    python3 bench/spread.py --workload prove_auto --seeds 1-10 [--seconds 35]

Runs `bench/run.py` once per seed, one run at a time, and prints for each
metric the median and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to a
third of the metric's bound from BENCHMARK.json. Appends every run's
result line to `bench/out/spread-<workload>.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import env


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    os.makedirs(env.OUT_DIR, exist_ok=True)
    log = os.path.join(env.OUT_DIR, f"spread-{args.workload}.jsonl")
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    ok = True
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(env.BENCH_DIR, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True)
        took = time.monotonic() - started
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        with open(log, "a") as fh:
            fh.write(json.dumps({"seed": seed, "exit": proc.returncode, "result": last}) + "\n")
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            ok = False
            continue
        metrics = json.loads(last)["metrics"]
        for name in values:
            values[name].append(metrics[name]["value"])
        with open(os.path.join(env.OUT_DIR, f"{args.workload}-seed{seed}-trace0.json")) as fh:
            digest = json.load(fh)["digest"]
        print(f"seed {seed}: {took:.1f}s digest {digest}  "
              + "  ".join(f"{n}={metrics[n]['value']:.5g}" for n in values), flush=True)
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "ok" if spread <= m["bound"] / 3 else "WIDE"
        print(f"{m['name']:18s} median {med:12.5g}  iqr/median {spread:7.4f}  "
              f"bound/3 {m['bound'] / 3:.4f}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
