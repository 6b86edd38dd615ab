"""Acceptance suite: every gate criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see the lines as they pass)."""
import json
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

import fujitalab as fl
from fujitalab.cli import main as cli_main


def report(num: int, desc: str, passed: bool) -> None:
    print(f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'} - {desc}")
    assert passed, f"criterion {num}: {desc}"


def bessel_j0(x: float, terms: int = 60) -> float:
    acc, term, z = 0.0, 1.0, x * x / 4.0
    for m in range(terms):
        acc += term
        term *= -z / ((m + 1) ** 2)
    return acc


def first_j0_zero() -> float:
    lo, hi = 2.0, 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bessel_j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ode_blowup_time_oracle(y0: float, p: float, a: float) -> float:
    def rhs(_t, z):
        return [(1.0 - p) * (1.0 - a * z[0])]

    def hit_zero(_t, z):
        return z[0]
    hit_zero.terminal = True
    hit_zero.direction = -1
    horizon = 1e6
    sol = solve_ivp(rhs, (0.0, horizon), [y0 ** (1.0 - p)], events=hit_zero,
                    rtol=1e-12, atol=1e-14, max_step=horizon / 50)
    return float(sol.t_events[0][0])


def test_criterion_01_exponent_fidelity():
    rng = np.random.default_rng(101)
    ok = True
    for n in range(1, 7):
        crit = fl.critical_exponents(n)
        for p in np.linspace(crit.p_fujita + 1e-9, crit.p_fujita + 12, 300):
            ok = ok and crit.q_one_of_p(p) < crit.q_fujita
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        p = 1.0 + rng.uniform(1e-3, 9.0)
        q = 1.0 + rng.uniform(1e-3, 3.0)
        re = fl.rate_exponents(n, p, q)  # raises if the identity fails at 1e-12
        scale = max(1.0, abs(re.combined))
        ok = ok and abs(re.e1 - re.e2) <= 1e-12 * scale
        ok = ok and abs(re.e1 - re.combined) <= 1e-12 * scale
    report(1, "exponent formulas and three-way identity at 1e-12 relative", ok)


def test_criterion_02_eigenpair_oracle():
    pair1 = fl.principal_eigenpair(1, 1.0, 2000)
    ok = abs(pair1.lam - math.pi ** 2 / 4) / (math.pi ** 2 / 4) < 1e-4
    pair3 = fl.principal_eigenpair(3, 1.0, 2000)
    ok = ok and abs(pair3.lam - math.pi ** 2) / math.pi ** 2 < 1e-4
    j01sq = first_j0_zero() ** 2
    pair2 = fl.principal_eigenpair(2, 1.0, 2000)
    ok = ok and abs(pair2.lam - j01sq) / j01sq < 1e-4
    scaled = [fl.principal_eigenpair(1, R, 2000).lam * R * R for R in (1.0, 2.0, 5.0)]
    ok = ok and (max(scaled) - min(scaled)) / scaled[0] < 1e-6
    report(2, "eigenvalues match analytic/Bessel oracles; R^-2 scaling", ok)


def test_criterion_03_ode_comparison_oracle():
    rng = np.random.default_rng(33)
    ok = True
    for _ in range(100):
        p = 1.0 + rng.uniform(0.2, 3.0)
        a = rng.uniform(0.05, 4.0)
        y0 = a ** (1.0 / (p - 1.0)) * rng.uniform(1.01, 4.0)
        v = fl.ode_comparison(y0, p, a, 1.0)
        t_ref = ode_blowup_time_oracle(y0, p, a)
        ok = ok and v.blows_up and abs(v.t_star - t_ref) / t_ref < 1e-8
    report(3, "closed-form blow-up time vs adaptive integration at 1e-8", ok)


def test_criterion_04_solver_convergence():
    errs = []
    for M in (300, 600, 1200):
        g = fl.RadialGrid(1, 12.0, M)
        u0 = fl.heat_reference(0.0, g)
        u0.values[-1] = 0.0
        params = fl.ProblemParams(n=1, p=2, q=2, use_source=False, use_gradient=False)
        cfg = fl.SolveConfig(t_end=1.0, dt_init=1e-4, dt_min=1e-4, dt_max=1e-4,
                             theta_scheme=0.5, trace_stride=2000)
        out = fl.run(params, u0, None, cfg)
        ref = fl.heat_reference(1.0, g)
        errs.append(float(np.max(np.abs(out.final_field.values - ref.values))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = all(order >= 1.8 for order in orders)
    report(4, f"pure-heat sup-node error orders {orders[0]:.2f}, {orders[1]:.2f} >= 1.8", ok)


def test_criterion_05_vhj_invariants():
    ok = True
    for q in (1.2, 1.5, 2.5):
        g = fl.RadialGrid(1, 40.0, 4000)
        u0 = fl.sample_profile(fl.ProfileSpec.gaussian(1.0), g)
        u0.values[-1] = 0.0
        params = fl.ProblemParams(n=1, p=2, q=q, b=1.0, use_source=False)
        cfg = fl.SolveConfig(t_end=20.0, dt_init=1e-3, dt_min=1e-8, dt_max=2e-2,
                             trace_stride=10)
        out = fl.run(params, u0, None, cfg)
        ok = ok and out.status is fl.SolveStatus.REACHED_HORIZON
        sups = [rec.sup_u for rec in out.trace]
        grads = [rec.sup_grad_u for rec in out.trace]
        ok = ok and all(b <= a + 1e-6 for a, b in zip(sups, sups[1:]))
        ok = ok and all(b <= a + 1e-6 for a, b in zip(grads, grads[1:]))
    report(5, "gradient-only mode: sup_u and sup_grad_u nonincreasing (1e-6)", ok)


def test_criterion_06_blowup_p_branch():
    stars = []
    for M in (600, 1200):
        g = fl.RadialGrid(1, 12.0, M)
        u0 = fl.sample_profile(fl.ProfileSpec.gaussian(1.0), g)
        u0.values[-1] = 0.0
        params = fl.ProblemParams(n=1, p=2, q=2, b=1.0)
        cfg = fl.SolveConfig(t_end=50.0, dt_init=1e-3, dt_min=1e-12, dt_max=5e-2,
                             trace_stride=2)
        out = fl.run(params, u0, None, cfg)
        assert out.status is fl.SolveStatus.BLOW_UP
        stars.append(out.t_star_estimate)
    ok = abs(stars[0] - stars[1]) / stars[1] < 0.05
    report(6, f"blow-up with t* {stars[0]:.4f}/{stars[1]:.4f} stable within 5%", ok)


def test_criterion_07_kaplan_pipeline():
    R = 3.0
    g = fl.RadialGrid(1, 12.0, 1200)
    u0 = fl.sample_profile(fl.ProfileSpec.gaussian(0.55), g)
    u0.values[-1] = 0.0
    params = fl.ProblemParams(n=1, p=4, q=1.3, b=1.0)
    cfg = fl.SolveConfig(t_end=40.0, dt_init=1e-3, dt_min=1e-12, dt_max=2e-2,
                         trace_stride=5, kaplan_R=R)
    out = fl.run(params, u0, None, cfg)
    pair = fl.principal_eigenpair(1, R, 600)
    a = pair.lam  # eigenvalue of B_R equals lambda_1 R^-2
    verdict = fl.ode_comparison(out.trace[0].kaplan_y, float(params.p),
                                pair.lam * R * R, R)
    threshold = verdict.threshold
    ys = [rec.kaplan_y for rec in out.trace]
    crossed = out.trace[0].kaplan_y < threshold and any(y > threshold for y in ys)
    ok = crossed and out.status is fl.SolveStatus.BLOW_UP
    held = total = 0
    p = float(params.p)
    for r0, r1 in zip(out.trace, out.trace[1:]):
        dt = r1.t - r0.t
        if dt <= 0:
            continue
        total += 1
        lhs = (r1.kaplan_y - r0.kaplan_y) / dt
        rhs = r0.kaplan_y ** p - a * r0.kaplan_y
        tol_k = 10.0 * (g.h_r ** 2 + cfg.dt_max) * (1.0 + abs(r0.kaplan_y) ** p)
        if lhs >= rhs - tol_k:
            held += 1
    ok = ok and total > 0 and held / total >= 0.99
    report(7, f"kaplan threshold crossed then blow-up; inequality at {held}/{total}", ok)


def test_criterion_08_global_certificate():
    cert = fl.gaussian_certificate(1, 4, 2, 1)
    ok = cert.verified and cert.residual_min >= 0.0 and cert.lattice_points == 400
    g = fl.RadialGrid(1, 12.0, 1200)
    u0 = fl.sample_profile(fl.ProfileSpec.gaussian(0.2), g)
    u0.values[-1] = 0.0
    params = fl.ProblemParams(n=1, p=4, q=2, b=1.0)
    cfg = fl.SolveConfig(t_end=50.0, dt_init=1e-4, dt_min=1e-8, dt_max=1e-3,
                         trace_stride=50, store_fields=True)
    out = fl.run(params, u0, None, cfg)
    ok = ok and out.status is fl.SolveStatus.REACHED_HORIZON
    tol = fl.comparison_tolerance(g, cfg)
    worst = -math.inf
    for t_snap, u_snap in out.snapshots:
        z = fl.gaussian_supersolution(cert, t_snap, g)
        worst = max(worst, float(np.max(u_snap.values - z.values)))
    ok = ok and worst <= tol
    report(8, f"verified certificate dominates the run (worst u-z {worst:.2e})", ok)


def test_criterion_09_stationary_certificate():
    g = fl.RadialGrid(3, 12.0, 3000)
    cert = fl.stationary_certificate(3, 4, 2, 1, grid=g, eps=0.03)
    ok = abs(cert.k - 5.0 / 12.0) < 1e-12
    ok = ok and cert.margin < 0.0
    ok = ok and bool(np.all(cert.h.values > 0.0))
    params = fl.ProblemParams(n=3, p=4, q=2, b=1.0)
    cfg = fl.SolveConfig(t_end=1.0, dt_init=1e-3, dt_min=1e-6, dt_max=2e-2,
                         trace_stride=10)
    out = fl.run(params, cert.v.copy(), cert.h, cfg)
    drift = float(np.max(np.abs(out.final_field.values - cert.v.values)))
    ok = ok and out.status is fl.SolveStatus.REACHED_HORIZON and drift < 1e-6
    report(9, f"stationary profile with constructed forcing drifts {drift:.2e} < 1e-6", ok)


def test_criterion_10_sign_changing(tmp_path):
    g = fl.RadialGrid(1, 12.0, 1200)
    spec = fl.dipole_with_mean(2.5, centers=(1.6, 4.2), widths=(1.2, 1.2),
                               grid=g, target_mean=1e-3)
    u0 = fl.sample_profile(spec, g)
    u0.values[-1] = 0.0
    ok = abs(fl.mean(u0) - 1e-3) < 1e-12 and float(np.min(u0.values)) < 0

    # equality case (q-1)(np-1) = 1: blow-up expected within the budget
    params_a = fl.ProblemParams(n=1, p=4, q=Fraction(4, 3), b=1.0)
    cfg_a = fl.SolveConfig(t_end=20.0, dt_init=1e-4, dt_min=1e-12, dt_max=2e-2,
                           trace_stride=2)
    out_a = fl.run(params_a, u0.copy(), None, cfg_a)
    theory_a = fl.classify_mean_nonneg(params_a)
    ok = ok and out_a.status is fl.SolveStatus.BLOW_UP
    ok = ok and theory_a.verdict is fl.Verdict.BLOW_UP_ALL

    # same shape at q = 1.6, amplitude scaled under the gaussian certificate
    cert = fl.gaussian_certificate(1, 4, 1.6, 1)
    z0 = fl.gaussian_supersolution(cert, 0.0, g)
    mask = np.abs(u0.values) > 0
    scale = 0.9 * float(np.min(z0.values[mask] / np.abs(u0.values[mask])))
    u0_b = fl.Field(g, scale * u0.values)
    params_b = fl.ProblemParams(n=1, p=4, q=1.6, b=1.0)
    cfg_b = fl.SolveConfig(t_end=20.0, dt_init=1e-3, dt_min=1e-8, dt_max=1e-2,
                           trace_stride=20, store_fields=True)
    out_b = fl.run(params_b, u0_b, None, cfg_b)
    tol = fl.comparison_tolerance(g, cfg_b)
    dominated = out_b.status is fl.SolveStatus.REACHED_HORIZON
    for t_snap, u_snap in out_b.snapshots:
        z = fl.gaussian_supersolution(cert, t_snap, g)
        dominated = dominated and bool(np.all(np.abs(u_snap.values) <= z.values + tol))
    theory_b = fl.classify_mean_nonneg(params_b)
    ok = ok and dominated and theory_b.verdict is fl.Verdict.INCONCLUSIVE

    verdicts = {
        "schema": 1,
        "points": [
            {"p": 4.0, "q": "4/3", "theory": theory_a.verdict.value,
             "numeric": out_a.status.value},
            {"p": 4.0, "q": 1.6, "theory": theory_b.verdict.value,
             "numeric": "Dominated" if dominated else out_b.status.value},
        ],
    }
    path = tmp_path / "verdicts.json"
    path.write_text(json.dumps(verdicts, indent=2, sort_keys=True), encoding="utf-8")
    saved = json.loads(path.read_text())
    ok = ok and saved["points"][1]["theory"] == "Inconclusive"
    report(10, "mean +1e-3 dipole blows up at the equality case; dominated at q=1.6", ok)


SCAN_ARGS = ["scan", "--n", "1", "--p-range", "4", "10",
             "--q-range", "1.4", "1.6", "--steps", "8",
             "--budget", "50", "--grid-m", "300"]


def run_scan(out_dir):
    assert cli_main(SCAN_ARGS + ["--out", str(out_dir)]) == 0
    return ((out_dir / "scan.csv").read_text(encoding="utf-8"),
            (out_dir / "scan.json").read_text(encoding="utf-8"))


def test_criterion_11_discontinuity_scan(tmp_path, monkeypatch):
    monkeypatch.setenv("FUJITA_THREADS", "4")
    csv_text, _ = run_scan(tmp_path / "scan")
    lines = csv_text.strip().split("\n")
    ok = len(lines) == 65  # header + 8x8 lattice
    rows = [line.split(",") for line in lines[1:]]
    by_pq = {(float(r[0]), float(r[1])): r for r in rows}
    p10_low = by_pq[(10.0, 1.4)]
    p10_high = by_pq[(10.0, 1.6)]
    ok = ok and p10_low[2] == "BlowUpAll" and p10_low[4] == "BlowUp"
    ok = ok and p10_high[2] == "GlobalForSmallData"
    ok = ok and p10_high[4] == "DominatedToHorizon" and p10_high[6] != ""
    # the verdict column jumps across q = 1.5 in every p-row
    for (p, q), r in by_pq.items():
        expected = "BlowUpAll" if q <= 1.5 else "GlobalForSmallData"
        ok = ok and r[2] == expected
        if r[2] == "BlowUpAll":
            ok = ok and r[4] == "BlowUp"
        else:
            ok = ok and r[4] == "DominatedToHorizon"
    report(11, "8x8 scan exhibits the verdict jump across q = 1.5", ok)


def test_criterion_12_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("FUJITA_THREADS", "1")
    csv_one, json_one = run_scan(tmp_path / "scan_t1")
    monkeypatch.setenv("FUJITA_THREADS", "8")
    csv_eight, json_eight = run_scan(tmp_path / "scan_t8")
    ok = csv_one == csv_eight and json_one == json_eight
    report(12, "scan CSV/JSON byte-identical for 1 and 8 threads", ok)
