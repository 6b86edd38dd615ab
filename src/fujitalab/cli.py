"""Command-line surface: single runs, certificates, (p, q) phase scans and
reference tables, with machine-readable CSV/JSON outputs.

A scan confirms its certified-global points together in one lockstep
``run_batch`` (a point whose step is rejected splits off and goes on from
where it stood), then each blow-up point with its own ``run``, all in one
thread; rows are sorted by (p, q), so outputs are byte-identical run to run.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from .certificates import (certificate_to_json, gaussian_certificate,
                           gaussian_supersolution, kaplan_nodes,
                           stationary_certificate)
from .core import (ProblemParams, Real, RegimeVerdict, Verdict,
                   classify_positive, critical_exponents)
from .grid import (M_MAX, Field, Primitive, ProfileSpec, RadialGrid,
                   field_to_csv, sample_profile)
from .solver import (SolveConfig, SolveStatus, TRUNCATION_NOTE,
                     comparison_tolerance, heat_reference, run, run_batch,
                     trace_to_csv)

SCHEMA_VERSION = 1
# the most (p, q) points a scan takes: each is classified and kept as a row
# (about 500 bytes, more in scan.json) before any is run, so 10^6 is about 1 GB
SCAN_POINTS_MAX = 10 ** 6


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Scenario config parsing (strict: unknown keys rejected)
# ---------------------------------------------------------------------------

def _number(value, where: str) -> Real:
    """Accept finite JSON numbers, or [num, den] pairs for exact rationals."""
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got a boolean")
    if isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value):
        num, den = value
        if den == 0:
            raise ConfigError(f"{where}: zero denominator")
        value = Fraction(num, den)
    elif not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number or [num, den] pair, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer or a ratio beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return value


_REQUIRED = object()
_KIND_NAMES = {bool: "a boolean", int: "an integer", str: "a string",
               dict: "an object", list: "a list"}


def _field(obj: dict, key: str, kind, where: str, default=_REQUIRED):
    """``obj[key]`` checked to be a ``kind``: bool, int, str, dict, list, Real
    (a number or [num, den] pair, see ``_number``), float (a Real, rounded),
    "pair" (a list of two floats) or object (anything); ``default`` if absent."""
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required key '{key}'")
        return default
    value = obj[key]
    if kind is Real or kind is float:
        value = _number(value, f"{where}.{key}")
        return float(value) if kind is float else value
    if kind == "pair":
        values = _field(obj, key, list, where)
        if len(values) != 2:
            raise ConfigError(f"{where}.{key}: expected two numbers, got {values!r}")
        return [float(_number(x, f"{where}.{key}")) for x in values]
    # bool is a subclass of int, but true is not an integer here
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"{where}.{key}: expected {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _section(obj: dict, table: dict, where: str, required=()) -> dict:
    """The keys of ``obj`` that ``table`` (key -> kind, see ``_field``) names,
    read in the table's order; any other key is refused, and each
    ``required`` key must be there."""
    unknown = set(obj) - set(table)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    return {key: _field(obj, key, kind, where) for key, kind in table.items()
            if key in obj or key in required}


# Each section's keys and kinds, in the order they are checked.  An absent
# key takes the default of the object it fills; the forcing is read through
# ``_FORCING_KINDS``, and the output stride is ``SolveConfig.trace_stride``.
_CONFIG_KEYS = {"problem": dict, "profile": dict, "forcing": object, "grid": dict,
                "solve": dict, "output": dict}
_PROBLEM_KEYS = {"n": int, "p": Real, "q": Real, "b": Real, "use_source": bool,
                 "use_gradient": bool}
_GRID_KEYS = {"L": float, "M": int}
_SOLVE_KEYS = {"t_end": float, "dt_init": float, "dt_min": float, "dt_max": float,
               "blowup_threshold": float, "growth_cap": float, "theta_scheme": float,
               "kaplan_R": float}
_OUTPUT_KEYS = {"dir": str, "stride": int}
# each kind's keys besides "kind", all required but a constructed forcing's eps:
# a primitive's are fields of ``Primitive``, the others' the arguments of what they build
_PROFILE_KINDS = {"gaussian": {"amplitude": float},
                  "algebraic": {"amplitude": float, "k": float},
                  "annular_bump": {"amplitude": float, "center": float, "width": float},
                  "zero": {},
                  "signed_dipole": {"a_plus": float, "a_minus": float,
                                    "centers": "pair", "widths": "pair"},
                  "sum": {"parts": list}}
_FORCING_KINDS = {"none": {}, "gaussian": {"amplitude": float},
                  "constructed_stationary": {"eps": float}}


def _kind_section(obj, kinds: dict, where: str, optional=()) -> dict:
    """``obj`` read through the table of its kind in ``kinds`` (see
    ``_section``), "kind" included; every key but ``optional`` is required."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = obj["kind"]
    if not (isinstance(kind, str) and kind in kinds):
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    table = {"kind": str, **kinds[kind]}
    return _section(obj, table, where, required=set(table) - set(optional))


def _parse_profile(obj, where: str = "profile") -> ProfileSpec:
    fields = _kind_section(obj, _PROFILE_KINDS, where)
    kind = fields.pop("kind")
    if kind == "signed_dipole":
        return ProfileSpec.signed_dipole(**fields)
    if kind == "sum":
        parts = [_parse_profile(part, f"{where}.parts[{i}]")
                 for i, part in enumerate(fields["parts"])]
        if not parts:
            raise ConfigError(f"{where}.parts: expected at least one part")
        spec = parts[0]
        for extra in parts[1:]:
            spec = spec + extra
        return spec
    return ProfileSpec((Primitive(kind, **fields),))


def _parse_forcing(obj, params: ProblemParams, grid: RadialGrid) -> Optional[Field]:
    """The forcing field h on ``grid``: None, a gaussian, or the constructed
    forcing that makes the algebraic supersolution an exact steady state."""
    fields = _kind_section(obj, _FORCING_KINDS, "forcing", optional=("eps",))
    kind = fields.pop("kind")
    if kind == "gaussian":
        if fields["amplitude"] < 0:
            raise ConfigError("gaussian forcing needs amplitude >= 0")
        return sample_profile(ProfileSpec.gaussian(**fields), grid)
    if kind == "constructed_stationary":
        return stationary_certificate(params.n, float(params.p), float(params.q),
                                      float(params.b), grid=grid, **fields).h
    return None


def parse_scenario(doc: dict):
    """The inputs of ``run``: (params, grid, config, profile, u0, h, out_dir)."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    sections = _section(doc, _CONFIG_KEYS, "config",
                        required=("problem", "profile", "grid", "solve"))
    params = ProblemParams(**_section(sections["problem"], _PROBLEM_KEYS, "problem",
                                      required=("n", "p", "q")))
    gr = _section(sections["grid"], _GRID_KEYS, "grid", required=_GRID_KEYS)
    # keeps the squares and reciprocal squares of the grid spacing far
    # inside the float range
    if not 1e-50 <= gr["L"] <= 1e50:
        raise ConfigError(f"grid.L: expected 1e-50 <= L <= 1e50, got {gr['L']!r}")
    grid = RadialGrid(params.n, **gr)
    solve = _section(sections["solve"], _SOLVE_KEYS, "solve")
    if "kaplan_R" in solve:  # refused here, before the output directory is made
        kaplan_nodes(grid, solve["kaplan_R"])
    profile = _parse_profile(sections["profile"])
    out = _section(sections.get("output", {}), _OUTPUT_KEYS, "output")
    if "stride" in out:
        solve["trace_stride"] = out["stride"]
    config = SolveConfig(**solve)
    # every recorded sup is <= v_max (NaN for a non-finite profile), so these bound the trace
    with np.errstate(over="ignore", invalid="ignore"):
        u0 = sample_profile(profile, grid)
        sup0 = float(np.max(np.abs(u0.values)))
        v_max = float(np.maximum(sup0, config.blowup_threshold)) * (1.0 + config.growth_cap)
        bounds = [v_max * grid.weights.sum(), 8.0 * v_max / (2.0 * grid.h_r)]
    if not np.all(np.isfinite(bounds)):
        raise ConfigError(f"profile: a run may record a sup of max({sup0!r}, blowup_threshold) "
                          f"* (1 + growth_cap) = {v_max!r}, whose trace is out of float range")
    forcing = sections.get("forcing", {"kind": "none"})
    h = _parse_forcing(forcing, params, grid)
    # a run holds u's boundary value fixed; the constructed steady state is
    # positive at r = L, so its boundary keeps the profile's value
    if forcing["kind"] != "constructed_stationary":
        u0.values[-1] = 0.0  # Dirichlet truncation
    return params, grid, config, profile, u0, h, out.get("dir", "out")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _is_pure_heat(params: ProblemParams, h: Optional[Field], profile: ProfileSpec) -> bool:
    single_gaussian = len(profile.parts) == 1 and profile.parts[0].kind == "gaussian"
    return (not params.use_source and not params.use_gradient
            and h is None and single_gaussian)


def cmd_run(args) -> int:
    path = Path(args.config)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {path}: {exc}", file=sys.stderr)
        return 2
    try:
        params, grid, config, profile, u0, h, out_dir = parse_scenario(doc)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        outcome = run(params, u0, h, config)
    except ValueError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2

    (out / "trace.csv").write_text(trace_to_csv(outcome.trace), encoding="utf-8")
    (out / "final_field.csv").write_text(field_to_csv(outcome.final_field), encoding="utf-8")

    doc_out = {
        "schema": SCHEMA_VERSION,
        "status": outcome.status.value,
        "t_star_estimate": outcome.t_star_estimate,
        "fit_quality": outcome.fit_quality,
        "t_last_finite": outcome.t_last_finite,
        "t_stall": outcome.t_stall,
        "records": len(outcome.trace),
        "final_sup": outcome.trace[-1].sup_u,
        "truncation_note": TRUNCATION_NOTE,
    }
    if _is_pure_heat(params, h, profile) and outcome.status is SolveStatus.REACHED_HORIZON:
        amp = profile.parts[0].amplitude
        ref = heat_reference(outcome.trace[-1].t, grid)
        err = float(np.max(np.abs(outcome.final_field.values - amp * ref.values)))
        doc_out["max_error_vs_reference"] = err
    (out / "outcome.json").write_text(json.dumps(doc_out, indent=2, sort_keys=True),
                                      encoding="utf-8")
    print(f"status: {outcome.status.value}  (artifacts in {out})")
    return 0


def cmd_certify(args) -> int:
    try:
        if args.kind == "gaussian":
            if args.eps is not None:
                raise ValueError("--eps applies to the stationary kind only "
                                 "(the gaussian amplitude is bisected)")
            cert = gaussian_certificate(args.n, args.p, args.q, args.b)
        else:
            cert = stationary_certificate(args.n, args.p, args.q, args.b, eps=args.eps)
    except ValueError as exc:
        print(f"certificate refused: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(certificate_to_json(cert), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


# no caller here: kept so the benchmark tracer (bench/tracer.py) can wrap it
def _thread_count() -> int:
    return 1


def _scan_row(p: float, q: float, theory: RegimeVerdict) -> dict:
    return {
        "p": p, "q": q,
        "verdict_theory": theory.verdict.value,
        "triggered_condition": theory.triggered_condition,
        "verdict_numeric": "unresolved",
        "t_star": None,
        "certificate_eps": None,
    }


def _scan_point(u0: Field, p: float, q: float, b: float, budget: float,
                theory: RegimeVerdict) -> dict:
    """The scan row of one BlowUpAll point (``theory`` is its classification),
    confirmed by its own ``run`` from the blow-up datum ``u0``."""
    params = ProblemParams(n=u0.grid.n, p=p, q=q, b=b)
    row = _scan_row(p, q, theory)
    config = SolveConfig(t_end=budget, dt_init=1e-3, dt_min=1e-9, dt_max=2e-2,
                         trace_stride=5)
    outcome = run(params, u0, None, config)
    if outcome.status is SolveStatus.BLOW_UP:
        row["verdict_numeric"] = "BlowUp"
        row["t_star"] = outcome.t_star_estimate
    elif outcome.status is SolveStatus.REACHED_HORIZON:
        row["verdict_numeric"] = "ReachedHorizon(anomaly)"
    return row


def _scan_global_points(grid: RadialGrid, points, b: float, budget: float) -> list:
    """The scan rows of certified-global points, confirmed together by one
    ``run_batch`` from the data 0.9 z(0) that each point's gaussian
    certificate z dominates (a point whose step is rejected splits off from
    the others and goes on from where it stood).  Each column is checked
    against z(t) plus the comparison tolerance at every trace record as the
    batch runs, until it first exceeds it; no field is stored.  Each point
    is a triple (p, q, classification).  A point whose certificate is
    refused stays unresolved and is not run."""
    config = SolveConfig(t_end=min(5.0, budget), dt_init=1e-3, dt_min=1e-9,
                         dt_max=5e-3, trace_stride=20)
    tol = comparison_tolerance(grid, config)
    rows, certified, certs = [], [], []
    for p, q, theory in points:
        try:
            certs.append(gaussian_certificate(grid.n, p, q, b))
            certified.append((p, q, theory))
        except ValueError:
            rows.append(_scan_row(p, q, theory))
    u0s = [Field(grid, 0.9 * gaussian_supersolution(cert, 0.0, grid).values)
           for cert in certs]
    for u0 in u0s:
        u0.values[-1] = 0.0
    dominated = [True] * len(certs)

    def check(k: int, t: float, row: np.ndarray) -> None:
        if dominated[k]:
            z = gaussian_supersolution(certs[k], t, grid)
            dominated[k] = not np.any(row > z.values + tol)

    params = [ProblemParams(n=grid.n, p=p, q=q, b=b) for p, q, _ in certified]
    outcomes = run_batch(params, u0s, config, watch=check)
    return rows + [_global_verdict(_scan_row(*point), cert, outcome.status, flag)
                   for point, cert, outcome, flag
                   in zip(certified, certs, outcomes, dominated)]


def _global_verdict(row: dict, cert, status: SolveStatus, dominated: bool) -> dict:
    """Fill in the certificate and the numeric verdict: dominated to the
    horizon when the run reached it and ``dominated`` holds, a blow-up
    contradicting the certificate when it blew up."""
    row["certificate_eps"] = cert.eps
    if status is SolveStatus.BLOW_UP:
        # contradicts a verified certificate: hard failure, surfaced upstream
        row["verdict_numeric"] = "BlowUp(CONTRADICTS_CERTIFICATE)"
    elif status is SolveStatus.REACHED_HORIZON and dominated:
        row["verdict_numeric"] = "DominatedToHorizon"
    return row


def _float_cell(x) -> str:
    return "" if x is None else repr(float(x))


def scan_csv(rows) -> str:
    lines = ["p,q,verdict_theory,triggered_condition,verdict_numeric,t_star,certificate_eps"]
    for row in rows:
        cond = row["triggered_condition"].replace(",", ";")
        lines.append(f"{row['p']!r},{row['q']!r},{row['verdict_theory']},{cond},"
                     f"{row['verdict_numeric']},{_float_cell(row['t_star'])},"
                     f"{_float_cell(row['certificate_eps'])}")
    return "\n".join(lines) + "\n"


def cmd_scan(args) -> int:
    for bad, message in ((args.steps < 0, "--steps must be >= 0"),
                         (not (math.isfinite(args.b) and args.b > 0),
                          "--b must be finite and > 0"),
                         (not all(map(math.isfinite, args.p_range)),
                          "--p-range must be finite"),
                         (not all(map(math.isfinite, args.q_range)),
                          "--q-range must be finite"),
                         (args.steps ** 2 > SCAN_POINTS_MAX,
                          f"--steps must keep steps^2 <= {SCAN_POINTS_MAX} points"),
                         (not (math.isfinite(args.budget) and args.budget > 0),
                          "--budget must be finite and > 0")):
        if bad:
            print(f"error: {message}", file=sys.stderr)
            return 2
    try:
        grid = RadialGrid(args.n, 12.0, args.grid_m)
    except ValueError as exc:
        print(f"error: --n/--grid-m: {exc}", file=sys.stderr)
        return 2
    # the certified-global points run as one batch, a column each
    if args.steps ** 2 * (grid.M + 2) > M_MAX + 2:
        print(f"error: --steps: the batch holds steps^2 * (grid_m + 2) nodes, "
              f"at most {M_MAX + 2} (one grid of M = {M_MAX})", file=sys.stderr)
        return 2
    ps = [float(v) for v in np.linspace(*args.p_range, args.steps)]
    qs = [float(v) for v in np.linspace(*args.q_range, args.steps)]
    global_points, blowup_points = [], []
    for p in ps:
        for q in qs:
            try:
                theory = classify_positive(ProblemParams(n=args.n, p=p, q=q, b=args.b))
            except ValueError:
                print(f"error: scan point (p={p}, q={q}) outside standing assumptions",
                      file=sys.stderr)
                return 2
            (blowup_points if theory.verdict is Verdict.BLOW_UP_ALL
             else global_points).append((p, q, theory))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = _scan_global_points(grid, global_points, args.b, args.budget)
    u0 = sample_profile(ProfileSpec.gaussian(1.0), grid)
    u0.values[-1] = 0.0
    # p and q stay arguments 1 and 2: bench/tracer.py names each point by them
    results += [_scan_point(u0, p, q, args.b, args.budget, theory)
                for p, q, theory in blowup_points]
    results.sort(key=lambda row: (row["p"], row["q"]))
    (out / "scan.csv").write_text(scan_csv(results), encoding="utf-8")
    doc = {
        "schema": SCHEMA_VERSION,
        "n": args.n, "b": args.b,
        "p_range": list(args.p_range), "q_range": list(args.q_range),
        "steps": args.steps, "budget": args.budget, "grid_M": args.grid_m,
        "truncation_note": TRUNCATION_NOTE,
        "points": results,
    }
    (out / "scan.json").write_text(json.dumps(doc, indent=2, sort_keys=True),
                                   encoding="utf-8")
    contradictions = [row for row in results
                      if "CONTRADICTS_CERTIFICATE" in row["verdict_numeric"]]
    if contradictions:
        print(f"error: {len(contradictions)} certified-global point(s) reported "
              f"blow-up; scan is unsound", file=sys.stderr)
        return 3
    print(f"scan: {len(results)} points written to {out}")
    return 0


def cmd_table(args) -> int:
    try:
        crit = critical_exponents(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def shown(value: Optional[float]) -> str:
        if value is None:
            return "undefined for n = 1"
        if math.isinf(value):
            return "infinity (convention n/(n-2) = infinity for n = 2)"
        return repr(float(value))

    rows = [
        ("p_F = 1 + 2/n", shown(crit.p_fujita),
         "positive data: blow-up for every p <= p_F (source branch)"),
        ("q_F = 1 + 1/(n+1)", shown(crit.q_fujita),
         "positive data: blow-up for every q <= q_F (gradient branch)"),
        ("q_1(n,p) = 1 + 1/(np-1)", "formula of p",
         "nonnegative-mean data: blow-up when (q-1)(np-1) <= 1"),
        ("p* = n/(n-2)", shown(crit.p_star),
         "forced problem: blow-up for p < p* with positive-mass forcing"),
        ("q* = n/(n-1)", shown(crit.q_star),
         "forced problem: blow-up for q < q* with positive-mass forcing"),
    ]
    if args.json_out:
        doc = {"schema": SCHEMA_VERSION, "n": args.n, "rows": [
            {"name": name, "value": value, "governs": meaning} for name, value, meaning in rows]}
        Path(args.json_out).write_text(json.dumps(doc, indent=2, sort_keys=True),
                                       encoding="utf-8")
    for name, shown_value, meaning in rows:
        print(f"{name:26s} {shown_value:44s} {meaning}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fujitalab",
        description="Blow-up vs. global existence experiments for "
                    "u_t - Lap u = |u|^p + b|grad u|^q (+ h) on truncated radial domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config (JSON)")
    p_run.add_argument("config", help="path to the scenario JSON")
    p_run.set_defaults(func=cmd_run)

    p_cert = sub.add_parser("certify", help="construct a supersolution certificate")
    p_cert.add_argument("--n", type=int, required=True)
    p_cert.add_argument("--p", type=float, required=True)
    p_cert.add_argument("--q", type=float, required=True)
    p_cert.add_argument("--b", type=float, default=1.0)
    p_cert.add_argument("--kind", choices=("gaussian", "stationary"), required=True)
    p_cert.add_argument("--eps", type=float, default=None,
                        help="explicit amplitude (stationary only; validated)")
    p_cert.add_argument("--out", default=None, help="also save the JSON here")
    p_cert.set_defaults(func=cmd_certify)

    p_scan = sub.add_parser("scan", help="classify + confirm a (p, q) lattice")
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--b", type=float, default=1.0)
    p_scan.add_argument("--p-range", type=float, nargs=2, required=True,
                        metavar=("PMIN", "PMAX"))
    p_scan.add_argument("--q-range", type=float, nargs=2, required=True,
                        metavar=("QMIN", "QMAX"))
    p_scan.add_argument("--steps", type=int, default=8, help="lattice is steps x steps")
    p_scan.add_argument("--budget", type=float, default=50.0,
                        help="time horizon for confirmation runs")
    p_scan.add_argument("--grid-m", dest="grid_m", type=int, default=400)
    p_scan.add_argument("--out", default="scan_out")
    p_scan.set_defaults(func=cmd_scan)

    p_table = sub.add_parser("table", help="critical-exponent reference table")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--json-out", dest="json_out", default=None)
    p_table.set_defaults(func=cmd_table)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # an output path that cannot be created or written
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
