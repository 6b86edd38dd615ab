"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/collect.py --seeds 1-10 --out bench/baseline.json
    python3 bench/collect.py --workloads scan_lattice --seeds 1-5

Each run is its own process, one after the other.  For every workload and
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median, and the bound from BENCHMARK.json the spread
is judged against.  With --traced, one traced run per workload (first seed)
adds the per-layer metrics.  --out writes everything, with the machine
description of the first run, as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = ROOT / ".bench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return result | {"record": json.loads(record.read_text())}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seconds": args.seconds, "seeds": seed_list(args.seeds),
               "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in summary["seeds"]:
            res = bench(workload, seed, args.seconds, 0)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
        summary.setdefault("env", runs[0]["record"]["env"])
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "statuses": [r["record"]["statuses"] for r in runs],
                 "hashes": {str(r["record"]["seed"]): r["record"]["hashes"] for r in runs},
                 "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            entry["metrics"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "values": values,
                "median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}
            print(f"  {name:12s} median {q2:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}  "
                  f"spread {(q3 - q1) / q2:6.3f}  bound {bounds.get(name)}", flush=True)
        if args.traced:
            res = bench(workload, summary["seeds"][0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
