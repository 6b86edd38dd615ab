"""Self-tests of the benchmark (not part of the package's test suite).

    python3 bench/selftest.py [workload ...]

1. The tracer restores every attribute it wrapped, so untraced runs time
   the package as shipped.
2. Two traced runs of one seed give identical deterministic counts (step
   attempts, solve repeat fraction, residual lattice points, every call
   count), the same status mix and the same artifact hashes.
3. Another seed changes the generated inputs and still passes every check.
4. Each mode prints exactly the metrics, with the units, BENCHMARK.json
   declares.

Each benchmark run is a separate process with a one-second window, so a
workload costs about three of its jobs plus two traced jobs.
"""
from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from tracer import TARGETS, Tracer, traced_attributes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED, OTHER_SEED = 5, 6


def check(ok: bool, what: str, failures: list) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = ROOT / ".bench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return result | {"record": json.loads(record.read_text())}


def deterministic(result: dict) -> dict:
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if m["unit"] == "count" and name != "trace.spans"}
    counts["solver.solve.repeat_frac"] = result["metrics"]["solver.solve.repeat_frac"]["value"]
    return {"counts": counts, "statuses": result["record"]["statuses"],
            "hashes": result["record"]["hashes"]}


def test_wrappers_removed(failures: list) -> None:
    def current():
        return {(m, a): getattr(importlib.import_module(m), a)
                for targets in TARGETS.values() for m, a in targets}

    before = current()
    tracer = Tracer()
    tracer.install()
    wrapped = len(traced_attributes())
    tracer.uninstall()
    after = current()
    check(wrapped == len(before), f"install wraps all {len(before)} attributes", failures)
    check(not traced_attributes() and all(after[k] is before[k] for k in before),
          "uninstall restores every original attribute", failures)


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_workload(workload: str, failures: list) -> None:
    first = bench(workload, SEED, 1)
    second = bench(workload, SEED, 1)
    check(first["correct"] and second["correct"],
          f"{workload}: traced runs pass their checks", failures)
    a, b = deterministic(first), deterministic(second)
    diff = sorted(k for k in a["counts"] if a["counts"][k] != b["counts"][k])
    check(not diff, f"{workload}: traced counts repeat exactly {diff or ''}", failures)
    check(a["statuses"] == b["statuses"], f"{workload}: status mix repeats", failures)
    check(a["hashes"] == b["hashes"] and a["hashes"],
          f"{workload}: artifact hashes repeat", failures)

    other = bench(workload, OTHER_SEED, 0)
    for result, kind in ((first, "per_layer"), (other, "end_to_end")):
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        check(printed == declared(kind),
              f"{workload}: prints exactly the {kind} metrics of BENCHMARK.json", failures)
    check(other["record"]["inputs"] != first["record"]["inputs"],
          f"{workload}: seed {OTHER_SEED} generates other inputs", failures)
    check(other["correct"] and other["failed"] == 0,
          f"{workload}: seed {OTHER_SEED} passes its checks", failures)


def main() -> int:
    failures: list = []
    test_wrappers_removed(failures)
    for workload in sys.argv[1:] or list(WORKLOADS):
        test_workload(workload, failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
