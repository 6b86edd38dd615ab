"""fujitalab benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload global_long --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from its src/.
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics of BENCHMARK.json; with --trace 1 it carries the per-layer metrics
of one traced job, taken after the same untraced measurement, so that the
tracing overhead can be reported.  Lines before it give the sample counts,
the status mix, the artifact hashes and the machine.  A full record of the
run is written to .bench_work/results/.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import platform
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("openblas configuration", blas.get("name", "unknown")),
        "FUJITA_THREADS": os.environ.get("FUJITA_THREADS", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "seed": seed,
        "commit": git_commit(ROOT),
    }


def import_seconds(src: Path) -> float:
    """Wall time of a fresh interpreter that starts and imports the package
    the way this script does: process start to the first possible call."""
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import numpy, scipy.linalg, fujitalab, fujitalab.cli")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def measure(workload, seconds: float):
    """Repeat the job while the next repetition is expected to end within
    the time window; always at least once."""
    jobs = []
    start = time.perf_counter()
    while True:
        jobs.append(workload.job())
        if time.perf_counter() - start + jobs[-1].wall > seconds:
            return jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fujitalab" / "__init__.py").is_file():
        print(f"error: no fujitalab package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # the scan fans out to one worker per CPU, as the workload defines
    os.environ["FUJITA_THREADS"] = str(len(os.sched_getaffinity(0)))

    import fujitalab
    import fujitalab.cli
    if Path(fujitalab.__file__).resolve().parent != (src / "fujitalab").resolve():
        print(f"error: imported fujitalab from {fujitalab.__file__}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer, layer_metrics, traced_attributes
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    imports_s = time.perf_counter() - T_START

    work = ROOT / ".bench_work"
    rundir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](fujitalab, args.seed)
        prepare_s = []
        for k in range(SETUP_REPEATS):
            d = rundir / f"setup{k}"
            d.mkdir(parents=True)
            t0 = time.perf_counter()
            inputs = workload.prepare(d)
            prepare_s.append(time.perf_counter() - t0)

        leftover = traced_attributes()
        jobs = measure(workload, args.seconds)
        traced_job = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced_job = workload.job(tracer)
            finally:
                tracer.uninstall()
            leftover += traced_attributes()
            spans_dir = work / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_csv(spans_dir / f"{args.workload}-seed{args.seed}.csv")
        rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
        # The imports above ran once, partly against cold caches; the median
        # of fresh interpreters is the steadier figure.  They run after the
        # memory reading so that they do not count as the program's children.
        startup_s = [import_seconds(src) for _ in range(SETUP_REPEATS)]
        setup_s = statistics.median(startup_s) + statistics.median(prepare_s)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    checked = jobs + ([traced_job] if traced_job else [])
    attempted = sum(j.attempted for j in checked)
    failed = sum(j.failed for j in checked)
    # every repetition, traced or not, must write the same bytes
    hashes_stable = all(j.hashes == jobs[0].hashes for j in checked)
    correct = failed == 0 and hashes_stable and not leftover

    walls = [j.wall for j in jobs]
    latencies = [x for j in jobs for x in j.latencies]
    wall_s = statistics.median(walls)
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "run_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "run_p90_ms": (1e3 * percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    env = environment(args.seed)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"window {args.seconds:g} s")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("inputs " + json.dumps(inputs, sort_keys=True))
    print(f"samples  repetitions={len(jobs)}  item latencies={len(latencies)}  "
          f"setup repeats={SETUP_REPEATS}")
    print("repetition walls s " + " ".join(f"{w:.4g}" for w in walls))
    for name, (value, unit) in e2e.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"metric failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    mix = Counter()
    for j in checked:
        mix.update(j.statuses)
    print("status " + "  ".join(f"{k}={v}" for k, v in sorted(mix.items())))
    for name, digest in sorted(jobs[0].hashes.items()):
        print(f"sha256 {name} {digest}")
    for problem in [p for j in checked for p in j.problems][:10]:
        print(f"FAILED {problem}")
    if not hashes_stable:
        print("FAILED artifacts differ between repetitions")
    if leftover:
        print(f"FAILED tracing wrappers left in place: {leftover}")

    if args.trace:
        spans = tracer.spans
        layers = layer_metrics(spans)
        layers["trace.wall_s"] = traced_job.wall
        layers["trace.overhead_s"] = traced_job.wall - wall_s
        layers["trace.overhead_frac"] = traced_job.wall / wall_s - 1.0
        layers["trace.spans"] = len(spans)
        for name, value in layers.items():
            print(f"layer {name} {value:.6g}")
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items()}

    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "inputs": inputs,
        "correct": correct, "attempted": attempted, "failed": failed,
        "statuses": dict(mix), "hashes": jobs[0].hashes,
        "job_walls_s": walls, "latencies_s": [j.latencies for j in jobs],
        "setup_prepare_s": prepare_s,
        "imports_s": imports_s, "startup_s": startup_s, "metrics": metrics,
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_attempt"):
        return "us"
    if name.endswith(("_frac", "efficiency")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
