"""The three benchmark workloads: what each generates from its seed, the job
it times, and the correctness check behind ``failed``.

Each workload drives fujitalab from outside, through the package's public
``run`` and through ``fujitalab.cli.main``, exactly as a user would.  Why
each one was chosen, and which layer metric should move which end-to-end
metric on it, is recorded in bench/README.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional


class Job(NamedTuple):
    wall: float                 # seconds for the whole timed job
    latencies: List[float]      # seconds per item the job is made of
    attempted: int              # items checked
    failed: int                 # items that failed the check
    statuses: Counter           # outcome mix, failures included
    hashes: Dict[str, str]      # artifact -> SHA-256 over the job's items
    problems: List[str]         # first few failure descriptions


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def combine(per_item: List[str]) -> str:
    """One digest for an artifact kind across all items, in item order."""
    return sha256("\n".join(per_item))


class GlobalLong:
    """Criterion-8-shaped certified-global confirmation run, in segments.

    One job: build the verified gaussian certificate for n=1, p=4, q=2, b=1
    and carry M=1200 from t=0 to t=50 at dt_max=1e-3 with stored fields
    (about 50k step attempts, 1,010 snapshots), as ten consecutive
    ``fujitalab.run`` calls of t=5 each: every segment starts from the final
    field of the one before, and after the first ramp it starts at dt_max,
    where a single run to t=50 would be.  Each segment's snapshots are
    checked against z(t) plus the comparison tolerance at their global time.
    A segment, run and check, is one item, so the per-item latency has ten
    samples a job; the trace and final field are rendered as CSV at the end.
    """

    name = "global_long"
    SEGMENTS = 10
    SEGMENT_T = 5.0

    def __init__(self, fl, seed: int) -> None:
        self.fl = fl
        self.seed = seed

    def prepare(self, workdir: Path) -> dict:
        fl = self.fl
        cert = fl.gaussian_certificate(1, 4, 2, 1)
        # amplitude inside the band the certificate dominates: u0 <= z(0)
        self.amplitude = cert.eps * random.Random(self.seed).uniform(0.5, 0.98)
        self.params = fl.ProblemParams(n=1, p=4, q=2, b=1.0)
        self.grid = fl.RadialGrid(1, 12.0, 1200)
        self.u0 = fl.sample_profile(fl.ProfileSpec.gaussian(self.amplitude), self.grid)
        self.u0.values[-1] = 0.0
        # the first segment ramps up from dt_init; the others continue at dt_max
        self.configs = [fl.SolveConfig(t_end=self.SEGMENT_T, dt_init=1e-4 if k == 0 else 1e-3,
                                       dt_min=1e-8, dt_max=1e-3, trace_stride=50,
                                       store_fields=True)
                        for k in range(self.SEGMENTS)]
        warm = fl.SolveConfig(t_end=0.05, dt_init=1e-4, dt_min=1e-8, dt_max=1e-3,
                              trace_stride=50, store_fields=True)
        self._check(cert, fl.run(self.params, self.u0, None, warm), warm, 0.0)
        return {"amplitude": self.amplitude, "certificate_eps": cert.eps}

    def _check(self, cert, outcome, config, t_offset: float) -> int:
        """Number of snapshots the certificate fails to dominate."""
        fl = self.fl
        tol = fl.comparison_tolerance(self.grid, config)
        bad = 0
        for t_snap, u_snap in outcome.snapshots:
            z = fl.gaussian_supersolution(cert, t_offset + t_snap, self.grid)
            if (u_snap.values > z.values + tol).any():
                bad += 1
        return bad

    def job(self, tracer=None) -> Job:
        fl = self.fl
        if tracer is not None:
            tracer.item = "job"
        latencies: List[float] = []
        statuses: Counter = Counter()
        traces: List[str] = []
        snapshots = undominated = 0
        t0 = time.perf_counter()
        cert = fl.gaussian_certificate(1, 4, 2, 1)
        u = self.u0
        for k, config in enumerate(self.configs):
            if tracer is not None:
                tracer.item = f"segment{k}"
            t_item = time.perf_counter()
            outcome = fl.run(self.params, u, None, config)
            undominated += self._check(cert, outcome, config, k * self.SEGMENT_T)
            latencies.append(time.perf_counter() - t_item)
            statuses[outcome.status.value] += 1
            snapshots += len(outcome.snapshots)
            traces.append(fl.trace_to_csv(outcome.trace))
            u = outcome.final_field
        field_text = fl.field_to_csv(u)
        wall = time.perf_counter() - t0

        problems = []
        if not cert.verified:
            problems.append("certificate not verified")
        if statuses["ReachedHorizon"] != self.SEGMENTS:
            problems.append(f"statuses {dict(statuses)}")
        if undominated:
            problems.append(f"{undominated} of {snapshots} snapshots not dominated")
        return Job(wall, latencies, 1, int(bool(problems)), statuses,
                   {"trace.csv": combine([sha256(t) for t in traces]),
                    "final_field.csv": sha256(field_text)}, problems)


class BlowupBatch:
    """A batch of short seeded runs in the BlowUpAll regime, through the CLI.

    The 120 runs cover the twelve (n, M, kaplan) cells n in {1,2,3},
    M in {600, 1200}, kaplan_R = 3 on or off ten times each, in seeded
    order; each run draws p in [1 + (p_F-1)/10, p_F], q in [1.1, 2.5] and a
    gaussian amplitude in [1, 3].  Scenario files are written in set-up.
    The timed job calls ``cli.main(["run", file])`` for every scenario, so
    parsing and artifact writing are on the timed path.  StepFloorStall is a known outcome of
    the explicit stepper for gradient-stiff draws (q > 2): it is counted in
    the status mix and is not a failure.
    """

    name = "blowup_batch"
    RUNS = 120

    def __init__(self, fl, seed: int) -> None:
        self.fl = fl
        self.seed = seed

    def prepare(self, workdir: Path) -> dict:
        rng = random.Random(self.seed)
        # every (n, M, kaplan) cell gets the same number of runs, so the
        # batch's cost varies little from seed to seed
        cells = [(n, m, kaplan) for n in (1, 2, 3) for m in (600, 1200)
                 for kaplan in (False, True)]
        plan = cells * (self.RUNS // len(cells))
        rng.shuffle(plan)
        self.scenarios = []
        self.outputs = []
        draws = []
        for i, (n, m, kaplan) in enumerate(plan):
            p_fujita = 1.0 + 2.0 / n
            p = rng.uniform(1.0 + (p_fujita - 1.0) / 10.0, p_fujita)
            q = rng.uniform(1.1, 2.5)
            amplitude = rng.uniform(1.0, 3.0)
            solve = {"t_end": 50.0, "dt_init": 1e-3, "dt_min": 1e-12, "dt_max": 5e-2}
            if kaplan:
                solve["kaplan_R"] = 3.0
            out = workdir / f"run{i:03d}"
            doc = {"problem": {"n": n, "p": p, "q": q, "b": 1.0},
                   "profile": {"kind": "gaussian", "amplitude": amplitude},
                   "grid": {"L": 12.0, "M": m},
                   "solve": solve,
                   "output": {"dir": str(out), "stride": 2}}
            path = workdir / f"scenario{i:03d}.json"
            path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
            self.scenarios.append(path)
            self.outputs.append(out)
            draws.append(doc["problem"] | {"amplitude": amplitude, "M": m,
                                           "kaplan": kaplan})
        with contextlib.redirect_stdout(io.StringIO()):
            self.fl.cli.main(["run", str(self.scenarios[0])])
        return {"runs": self.RUNS, "draws_sha256": sha256(json.dumps(draws))}

    def job(self, tracer=None) -> Job:
        main = self.fl.cli.main
        latencies: List[float] = []
        codes: List[Optional[int]] = []
        errors: List[str] = []
        sink = io.StringIO()
        start = time.perf_counter()
        for i, path in enumerate(self.scenarios):
            if tracer is not None:
                tracer.item = f"run{i:03d}"
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    code = main(["run", str(path)])
                err = ""
            except Exception as exc:  # a crash is a failed item, not a crash of the benchmark
                code, err = None, repr(exc)
            latencies.append(time.perf_counter() - t0)
            codes.append(code)
            errors.append(err)
        wall = time.perf_counter() - start

        statuses: Counter = Counter()
        problems: List[str] = []
        hashes: Dict[str, List[str]] = {"trace.csv": [], "final_field.csv": [],
                                        "outcome.json": []}
        failed = 0
        for i, (out, code, err) in enumerate(zip(self.outputs, codes, errors)):
            status = "exception" if err else f"exit{code}"
            if code == 0:
                status = json.loads((out / "outcome.json").read_text())["status"]
                for name, digests in hashes.items():
                    digests.append(sha256((out / name).read_bytes()))
            statuses[status] += 1
            if status not in ("BlowUp", "StepFloorStall"):
                failed += 1
                if len(problems) < 5:
                    problems.append(f"run{i:03d}: {status} {err}".strip())
        return Job(wall, latencies, len(self.scenarios), failed, statuses,
                   {name: combine(d) for name, d in hashes.items()}, problems)


class ScanLattice:
    """The 8x8 acceptance lattice through ``cli.main(["scan", ...])``.

    n=1, q in [1.4, 1.6] (straddling q_F = 1.5), budget 50, --grid-m 300,
    with the p-range endpoints shifted by the seed around [4, 10].  Each
    point must follow criterion 11: BlowUpAll with a numeric BlowUp below
    q = 1.5, GlobalForSmallData dominated to the horizon by a certificate
    above.  A BlowUpAll point left "unresolved" is the same step-floor stall
    that blowup_batch counts: about 4% of the seeded BlowUpAll points end
    that way, so it is counted in the status mix and is not a failure.
    """

    name = "scan_lattice"

    def __init__(self, fl, seed: int) -> None:
        self.fl = fl
        self.seed = seed

    def _argv(self, p_range, q_range, steps, budget, out: Path) -> List[str]:
        return ["scan", "--n", "1", "--p-range", *map(repr, p_range),
                "--q-range", *map(repr, q_range), "--steps", str(steps),
                "--budget", repr(budget), "--grid-m", "300", "--out", str(out)]

    def prepare(self, workdir: Path) -> dict:
        rng = random.Random(self.seed)
        self.p_range = (4.0 + rng.uniform(-0.5, 0.5), 10.0 + rng.uniform(-0.5, 0.5))
        self.out = workdir / "scan"
        self.argv = self._argv(self.p_range, (1.4, 1.6), 8, 50.0, self.out)
        with contextlib.redirect_stdout(io.StringIO()):
            self.fl.cli.main(self._argv(self.p_range, (1.4, 1.6), 2, 1.0,
                                        workdir / "warmup"))
        return {"p_range": list(self.p_range), "q_range": [1.4, 1.6]}

    def job(self, tracer=None) -> Job:
        if tracer is not None:
            tracer.item = "scan"
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.fl.cli.main(self.argv)
            err = ""
        except Exception as exc:  # counted as 64 failed points below
            code, err = None, repr(exc)
        wall = time.perf_counter() - t0

        points = 64
        if code != 0:
            return Job(wall, [wall], points, points, Counter({f"exit{code}": points}),
                       {}, [f"scan exit {code} {err}".strip()])
        csv_bytes = (self.out / "scan.csv").read_bytes()
        rows = [line.split(",") for line in csv_bytes.decode().strip().split("\n")[1:]]
        hashes = {"scan.csv": sha256(csv_bytes),
                  "scan.json": sha256((self.out / "scan.json").read_bytes())}
        if len(rows) != points:
            return Job(wall, [wall], points, points, Counter({"rows": len(rows)}),
                       hashes, [f"{len(rows)} rows instead of {points}"])
        statuses: Counter = Counter()
        problems: List[str] = []
        failed = 0
        for p, q, theory, _, numeric, t_star, cert_eps in rows:
            statuses[numeric] += 1
            if float(q) <= 1.5:
                ok = theory == "BlowUpAll" and (
                    (numeric == "BlowUp" and t_star != "") or numeric == "unresolved")
            else:
                ok = (theory == "GlobalForSmallData" and numeric == "DominatedToHorizon"
                      and cert_eps != "")
            if not ok:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"(p={p}, q={q}): {theory} {numeric}")
        return Job(wall, [wall], points, failed, statuses, hashes, problems)


WORKLOADS = {cls.name: cls for cls in (GlobalLong, BlowupBatch, ScanLattice)}
