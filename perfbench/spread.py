"""Run one workload once per seed and report the spread of every metric.

    python3 perfbench/spread.py --workload degree --seeds 1-10 --seconds 20

The runs are untraced (``--trace 0``) and made one after another, each in
its own process, from the root of the checkout.  For every metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median; the raw results go to
``.perfbench_out/spread-<workload>-<first seed>.json``.  The raw wall
times of the ``info`` line (``wall_s``, ``op_p50_s``, ``setup_wall_s``) are
summarised the same way.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RAW = ("wall_s", "op_p50_s", "setup_wall_s")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()

    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        info = json.loads(lines[-2].removeprefix("info "))
        for key in RAW:
            if key in info:
                result["metrics"][key] = {"value": info[key], "unit": "s"}
        result["seed"], result["run_s"] = seed, elapsed
        results.append(result)
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {elapsed:.1f}s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {vals}", flush=True)

    if len(results) < 2:
        return
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f}")
    shares = {(r["failed"], r["attempted"]) for r in results}
    print(f"failed/attempted: {sorted(shares)}; all correct: {all(r['correct'] for r in results)}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"spread-{args.workload}-{args.seeds[0]}.json", "w") as f:
        json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
