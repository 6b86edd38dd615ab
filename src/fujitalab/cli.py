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
from typing import Optional, Union

import numpy as np

from .certificates import (ForcingSpec, certificate_to_json,
                           gaussian_certificate, gaussian_supersolution,
                           stationary_certificate)
from .core import (ProblemParams, RegimeVerdict, Verdict, classify_positive,
                   critical_exponents)
from .grid import Field, ProfileSpec, RadialGrid, field_to_csv, sample_profile
from .solver import (SolveConfig, SolveStatus, TRUNCATION_NOTE,
                     comparison_tolerance, heat_reference, run, run_batch,
                     trace_to_csv)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Scenario config parsing (strict: unknown keys rejected)
# ---------------------------------------------------------------------------

Real = Union[int, float, Fraction]


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


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")


_REQUIRED = object()
_KIND_NAMES = {bool: "a boolean", int: "an integer", str: "a string",
               dict: "an object", list: "a list"}


def _field(obj: dict, key: str, kind, where: str, default=_REQUIRED):
    """``obj[key]`` checked to be a ``kind``: bool, int, str, dict, list or Real
    (a number or [num, den] pair, see ``_number``); ``default`` if absent."""
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required key '{key}'")
        return default
    value = obj[key]
    if kind is Real:
        return _number(value, f"{where}.{key}")
    # bool is a subclass of int, but true is not an integer here
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"{where}.{key}: expected {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _parse_profile(obj: dict, where: str = "profile") -> ProfileSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")

    def real(key: str) -> float:
        return float(_field(obj, key, Real, where))

    def pair(key: str) -> list:
        values = _field(obj, key, list, where)
        if len(values) != 2:
            raise ConfigError(f"{where}.{key}: expected two numbers, got {values!r}")
        return [float(_number(x, f"{where}.{key}")) for x in values]

    kind = obj["kind"]
    if kind == "gaussian":
        _check_keys(obj, {"kind", "amplitude"}, where)
        return ProfileSpec.gaussian(real("amplitude"))
    if kind == "algebraic":
        _check_keys(obj, {"kind", "amplitude", "k"}, where)
        return ProfileSpec.algebraic(real("amplitude"), real("k"))
    if kind == "annular_bump":
        _check_keys(obj, {"kind", "amplitude", "center", "width"}, where)
        return ProfileSpec.annular_bump(real("amplitude"), real("center"), real("width"))
    if kind == "signed_dipole":
        _check_keys(obj, {"kind", "a_plus", "a_minus", "centers", "widths"}, where)
        return ProfileSpec.signed_dipole(real("a_plus"), real("a_minus"),
                                         pair("centers"), pair("widths"))
    if kind == "zero":
        _check_keys(obj, {"kind"}, where)
        return ProfileSpec.zero()
    if kind == "sum":
        _check_keys(obj, {"kind", "parts"}, where)
        parts = [_parse_profile(part, f"{where}.parts[{i}]")
                 for i, part in enumerate(_field(obj, "parts", list, where))]
        if not parts:
            raise ConfigError(f"{where}.parts: expected at least one part")
        spec = parts[0]
        for extra in parts[1:]:
            spec = spec + extra
        return spec
    raise ConfigError(f"{where}: unknown profile kind {kind!r}")


def _parse_forcing(obj: dict) -> ForcingSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("forcing: expected an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "none":
        _check_keys(obj, {"kind"}, "forcing")
        return ForcingSpec("none")
    if kind == "gaussian":
        _check_keys(obj, {"kind", "amplitude"}, "forcing")
        return ForcingSpec("gaussian",
                           amplitude=float(_field(obj, "amplitude", Real, "forcing")))
    if kind == "constructed_stationary":
        _check_keys(obj, {"kind", "eps"}, "forcing")
        eps = _field(obj, "eps", Real, "forcing", None)
        return ForcingSpec("constructed_stationary",
                           eps=None if eps is None else float(eps))
    raise ConfigError(f"forcing: unknown kind {kind!r}")


def parse_scenario(doc: dict):
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(doc, {"problem", "profile", "forcing", "grid", "solve", "output"}, "config")
    prob, profile_doc, gr, sv = (_field(doc, key, dict, "config")
                                 for key in ("problem", "profile", "grid", "solve"))
    out = _field(doc, "output", dict, "config", {})

    forcing = _parse_forcing(doc["forcing"]) if "forcing" in doc else ForcingSpec("none")

    _check_keys(prob, {"n", "p", "q", "b", "use_source", "use_gradient"}, "problem")
    params = ProblemParams(
        n=_field(prob, "n", int, "problem"),
        p=_field(prob, "p", Real, "problem"),
        q=_field(prob, "q", Real, "problem"),
        b=_field(prob, "b", Real, "problem", 1.0),
        use_source=_field(prob, "use_source", bool, "problem", True),
        use_gradient=_field(prob, "use_gradient", bool, "problem", True),
    )

    _check_keys(gr, {"L", "M"}, "grid")
    length = float(_field(gr, "L", Real, "grid"))
    # keeps the squares and reciprocal squares of the grid spacing and of
    # the Kaplan radius far inside the float range
    if not 1e-50 <= length <= 1e50:
        raise ConfigError(f"grid.L: expected 1e-50 <= L <= 1e50, got {length!r}")
    grid = RadialGrid(params.n, length, _field(gr, "M", int, "grid"))

    _check_keys(sv, {"t_end", "dt_init", "dt_min", "dt_max", "blowup_threshold",
                     "growth_cap", "theta_scheme", "trace_stride", "kaplan_R"}, "solve")
    kw = {}
    for key in ("t_end", "dt_init", "dt_min", "dt_max", "blowup_threshold",
                "growth_cap", "theta_scheme", "kaplan_R"):
        if key in sv:
            kw[key] = float(_field(sv, key, Real, "solve"))
    if "trace_stride" in sv:
        kw["trace_stride"] = _field(sv, "trace_stride", int, "solve")
    # the Kaplan ball spans at least one grid cell, lies inside B_L and,
    # like B_L, is a ball the grid can integrate on
    if "kaplan_R" in kw:
        if not grid.h_r <= kw["kaplan_R"] <= grid.L:
            raise ConfigError(f"solve.kaplan_R: expected grid.L/(grid.M+1) = {grid.h_r!r} "
                              f"<= kaplan_R <= grid.L = {grid.L!r}, got {kw['kaplan_R']!r}")
        try:
            RadialGrid(params.n, kw["kaplan_R"], 2)
        except ValueError as exc:
            raise ConfigError(f"solve.kaplan_R: {exc}") from None

    profile = _parse_profile(profile_doc)
    _check_keys(out, {"dir", "stride"}, "output")
    out_dir = _field(out, "dir", str, "output", "out")
    if "stride" in out:
        stride = _field(out, "stride", int, "output")
        if kw.setdefault("trace_stride", stride) != stride:
            raise ConfigError(f"output.stride = {stride!r} disagrees with "
                              f"solve.trace_stride = {kw['trace_stride']!r}")
    config = SolveConfig(**kw)
    # every recorded sup is <= v_max (NaN for a non-finite profile), so these bound the trace
    with np.errstate(over="ignore", invalid="ignore"):
        sup0 = float(np.max(np.abs(profile.evaluate(grid.nodes))))
        v_max = float(np.maximum(sup0, config.blowup_threshold)) * (1.0 + config.growth_cap)
        bounds = [v_max * grid.weights.sum(), 8.0 * v_max / (2.0 * grid.h_r)]
    if not np.all(np.isfinite(bounds)):
        raise ConfigError(f"profile: a run may record a sup of max({sup0!r}, blowup_threshold) "
                          f"* (1 + growth_cap) = {v_max!r}, whose trace is out of float range")
    return params, grid, config, profile, forcing, out_dir


def build_forcing_field(forcing: ForcingSpec, params: ProblemParams,
                        grid: RadialGrid) -> Optional[Field]:
    if forcing.kind == "none":
        return None
    if forcing.kind == "gaussian":
        return sample_profile(ProfileSpec.gaussian(forcing.amplitude), grid)
    # constructed_stationary: forcing that makes the algebraic supersolution
    # an exact steady state of the forced problem
    cert = stationary_certificate(params.n, float(params.p), float(params.q),
                                  float(params.b), grid=grid, eps=forcing.eps)
    return cert.h


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _is_pure_heat(params: ProblemParams, forcing: ForcingSpec, profile: ProfileSpec) -> bool:
    single_gaussian = len(profile.parts) == 1 and profile.parts[0].kind == "gaussian"
    return (not params.use_source and not params.use_gradient
            and forcing.kind == "none" and single_gaussian)


def cmd_run(args) -> int:
    path = Path(args.config)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {path}: {exc}", file=sys.stderr)
        return 2
    try:
        params, grid, config, profile, forcing, out_dir = parse_scenario(doc)
        h = build_forcing_field(forcing, params, grid)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        u0 = sample_profile(profile, grid)
        if forcing.kind != "constructed_stationary":
            u0.values[-1] = 0.0  # Dirichlet truncation
        outcome = run(params, u0, h, config)
    except (ConfigError, ValueError) as exc:
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
    if _is_pure_heat(params, forcing, profile) and outcome.status is SolveStatus.REACHED_HORIZON:
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


def _scan_point(n: int, p: float, q: float, b: float, grid_m: int,
                budget: float, theory: RegimeVerdict) -> dict:
    """The scan row of one BlowUpAll point (``theory`` is its classification),
    confirmed by its own ``run``."""
    params = ProblemParams(n=n, p=p, q=q, b=b)
    row = _scan_row(p, q, theory)
    u0 = sample_profile(ProfileSpec.gaussian(1.0), RadialGrid(n, 12.0, grid_m))
    u0.values[-1] = 0.0
    config = SolveConfig(t_end=budget, dt_init=1e-3, dt_min=1e-9, dt_max=2e-2,
                         trace_stride=5)
    outcome = run(params, u0, None, config)
    if outcome.status is SolveStatus.BLOW_UP:
        row["verdict_numeric"] = "BlowUp"
        row["t_star"] = outcome.t_star_estimate
    elif outcome.status is SolveStatus.REACHED_HORIZON:
        row["verdict_numeric"] = "ReachedHorizon(anomaly)"
    return row


def _scan_global_points(n: int, points, b: float, grid_m: int,
                        budget: float) -> list:
    """The scan rows of certified-global points, confirmed together by one
    ``run_batch`` from the data 0.9 z(0) that each point's gaussian
    certificate z dominates (a point whose step is rejected splits off from
    the others and goes on from where it stood).  Each column is checked
    against z(t) plus the comparison tolerance at every trace record as the
    batch runs, until it first exceeds it; no field is stored.  Each point
    is a triple (p, q, classification).  A point whose certificate is
    refused stays unresolved and is not run."""
    grid = RadialGrid(n, 12.0, grid_m)
    config = SolveConfig(t_end=min(5.0, budget), dt_init=1e-3, dt_min=1e-9,
                         dt_max=5e-3, trace_stride=20)
    tol = comparison_tolerance(grid, config)
    rows, certified, certs = [], [], []
    for p, q, theory in points:
        try:
            certs.append(gaussian_certificate(n, p, q, b))
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

    params = [ProblemParams(n=n, p=p, q=q, b=b) for p, q, _ in certified]
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
    try:
        RadialGrid(args.n, 12.0, 2)
    except ValueError as exc:
        print(f"error: --n: {exc}", file=sys.stderr)
        return 2
    for bad, message in ((args.steps < 0, "--steps must be >= 0"),
                         (not (math.isfinite(args.b) and args.b > 0),
                          "--b must be finite and > 0"),
                         (not all(map(math.isfinite, args.p_range)),
                          "--p-range must be finite"),
                         (not all(map(math.isfinite, args.q_range)),
                          "--q-range must be finite"),
                         (args.grid_m < 2, "--grid-m must be >= 2"),
                         (not (math.isfinite(args.budget) and args.budget > 0),
                          "--budget must be finite and > 0")):
        if bad:
            print(f"error: {message}", file=sys.stderr)
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
    results = _scan_global_points(args.n, global_points, args.b, args.grid_m, args.budget)
    results += [_scan_point(args.n, p, q, args.b, args.grid_m, args.budget, theory)
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
