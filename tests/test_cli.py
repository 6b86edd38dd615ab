import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fujitalab import cli
from fujitalab.cli import (ConfigError, main, parse_scenario, scan_csv, _number,
                           _scan_global_points, _scan_point)
from fujitalab.core import ProblemParams, classify_positive
from fujitalab.certificates import (gaussian_certificate, kaplan_weights,
                                    stationary_certificate)
from fujitalab.grid import (M_MAX, _KINDS, Field, Primitive, ProfileSpec, RadialGrid,
                            sample_profile)
from fujitalab.solver import (SolveConfig, SolveStatus, comparison_tolerance,
                              run_batch)


SCAN_2X2 = ["scan", "--n", "1", "--p-range", "4", "6", "--q-range", "1.4", "1.8",
            "--steps", "2", "--budget", "1.0", "--grid-m", "200"]


def theory(p, q):
    """The classification a scan of n = 1, b = 1 hands to its point tasks."""
    return classify_positive(ProblemParams(n=1, p=p, q=q, b=1.0))


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def blowup_config(out_dir):
    return {
        "problem": {"n": 1, "p": 2, "q": 2, "b": 1.0},
        "profile": {"kind": "gaussian", "amplitude": 1.0},
        "forcing": {"kind": "none"},
        "grid": {"L": 12.0, "M": 300},
        "solve": {"t_end": 50.0, "dt_init": 0.001, "dt_min": 1e-10,
                  "dt_max": 0.05},
        "output": {"dir": str(out_dir), "stride": 2},
    }


def test_number_accepts_rationals():
    from fractions import Fraction
    assert _number([4, 3], "x") == Fraction(4, 3)
    assert _number(1.5, "x") == 1.5
    with pytest.raises(ConfigError):
        _number([1, 0], "x")
    with pytest.raises(ConfigError):
        _number("1.5", "x")
    with pytest.raises(ConfigError):
        _number(True, "x")
    with pytest.raises(ConfigError):
        _number([True, 2], "x")


def test_parse_scenario_rejects_unknown_keys(tmp_path):
    doc = blowup_config(tmp_path / "out")
    doc["problem"]["nn"] = 2
    with pytest.raises(ConfigError, match="nn"):
        parse_scenario(doc)


def test_parse_scenario_rational_boundary():
    from fractions import Fraction
    doc = blowup_config("out")
    doc["problem"]["q"] = [4, 3]
    params, *_ = parse_scenario(doc)
    assert params.q == Fraction(4, 3)


def test_run_blowup_scenario(tmp_path):
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, blowup_config(out_dir))
    assert main(["run", str(cfg)]) == 0
    outcome = json.loads((out_dir / "outcome.json").read_text())
    assert outcome["schema"] == 1
    assert outcome["status"] == "BlowUp"
    assert outcome["t_star_estimate"] > 0
    assert "truncation" in outcome["truncation_note"].lower() or outcome["truncation_note"]
    trace = (out_dir / "trace.csv").read_text().strip().split("\n")
    assert trace[0] == "t,dt,sup_u,inf_u,l1_u,mean_u,sup_grad_u,kaplan_y"
    field = (out_dir / "final_field.csv").read_text().strip().split("\n")
    assert field[0] == "r,value"
    assert len(field) == 302 + 1  # M + 2 nodes + header


def test_run_pure_heat_reports_reference_error(tmp_path):
    out_dir = tmp_path / "out_heat"
    doc = {
        "problem": {"n": 1, "p": 2, "q": 2, "b": 1.0,
                    "use_source": False, "use_gradient": False},
        "profile": {"kind": "gaussian", "amplitude": 1.0},
        "forcing": {"kind": "none"},
        "grid": {"L": 12.0, "M": 600},
        "solve": {"t_end": 1.0, "dt_init": 1e-3, "dt_min": 1e-3, "dt_max": 1e-3,
                  "theta_scheme": 0.5},
        "output": {"dir": str(out_dir), "stride": 200},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["run", str(cfg)]) == 0
    outcome = json.loads((out_dir / "outcome.json").read_text())
    assert outcome["status"] == "ReachedHorizon"
    assert outcome["max_error_vs_reference"] < 1e-4


def test_run_stationary_scenario(tmp_path):
    # the constructed forcing keeps the algebraic profile steady; eps and k
    # in the profile must match the certificate (k is the window midpoint)
    out_dir = tmp_path / "out_stat"
    doc = {
        "problem": {"n": 3, "p": 4, "q": 2, "b": 1.0},
        "profile": {"kind": "algebraic", "amplitude": 0.03, "k": [5, 12]},
        "forcing": {"kind": "constructed_stationary", "eps": 0.03},
        "grid": {"L": 12.0, "M": 1500},
        "solve": {"t_end": 1.0, "dt_init": 1e-3, "dt_min": 1e-6, "dt_max": 0.02},
        "output": {"dir": str(out_dir), "stride": 10},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["run", str(cfg)]) == 0
    outcome = json.loads((out_dir / "outcome.json").read_text())
    assert outcome["status"] == "ReachedHorizon"
    trace = (out_dir / "trace.csv").read_text().strip().split("\n")
    sups = [float(line.split(",")[2]) for line in trace[1:]]
    assert abs(sups[-1] - sups[0]) < 1e-6


def test_run_malformed_json_no_partial_outputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    out_dir = tmp_path / "never"
    assert main(["run", str(bad)]) != 0
    assert not out_dir.exists()


def test_run_unknown_key_diagnostic(tmp_path, capsys):
    doc = blowup_config(tmp_path / "out")
    doc["solve"]["dt_weird"] = 1.0
    cfg = write_config(tmp_path, doc)
    assert main(["run", str(cfg)]) != 0
    err = capsys.readouterr().err
    assert "dt_weird" in err
    assert not (tmp_path / "out").exists()


def test_certify_gaussian_cli(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["certify", "--n", "1", "--p", "4", "--q", "2", "--b", "1",
                 "--kind", "gaussian", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verified"] is True
    assert doc["k"] == pytest.approx(1 / 12)
    assert doc["eps"] >= 0.2


def test_certify_stationary_cli(tmp_path):
    out = tmp_path / "cert.json"
    code = main(["certify", "--n", "3", "--p", "4", "--q", "2", "--b", "1",
                 "--kind", "stationary", "--eps", "0.03", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["k"] == pytest.approx(5 / 12)
    assert doc["eps"] == pytest.approx(0.03)
    assert doc["margin"] < 0


def test_certify_refused_regime(capsys):
    code = main(["certify", "--n", "1", "--p", "2", "--q", "2", "--kind", "gaussian"])
    assert code != 0
    assert "p <= p_F" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--n", "1", "--p", "inf", "--q", "2"],
    ["--n", "1", "--p", "4", "--q", "2", "--b", "inf"],
    ["--n", "1", "--p", "4", "--q", "2", "--b", "1e300"],
    ["--n", "0", "--p", "4", "--q", "2"],
    ["--n", "1", "--p", "4", "--q", "1e6"],
    ["--n", "3", "--p", "inf", "--q", "2", "--kind", "stationary"],
    ["--n", "3", "--p", "4", "--q", "1e6", "--kind", "stationary"],
    ["--n", "343", "--p", "1.02", "--q", "1.01"],
    ["--n", "343", "--p", "1.02", "--q", "1.01", "--kind", "stationary"],
    ["--n", "3", "--p", "4.5", "--q", "2", "--kind", "stationary", "--eps", "-0.01"],
    ["--n", "1", "--p", "4", "--q", "2", "--eps", "0.1"],
    ["--n", "3", "--p", "4", "--q", "2", "--kind", "stationary", "--b=-0.01"],
], ids=["p-inf", "b-inf", "b-huge-eps-underflows", "n-0", "q-huge-C_grad-overflows",
        "stationary-p-inf", "stationary-q-huge-margin-overflows",
        "eps-bracket-does-not-close", "stationary-eps-bracket-does-not-close",
        "stationary-eps-negative", "gaussian-eps-given", "stationary-b-negative"])
def test_certify_refuses_a_certificate_it_cannot_verify(capsys, argv):
    # argparse keeps the last --kind
    assert main(["certify", "--kind", "gaussian"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("certificate refused: ")
    assert captured.out == ""


def test_table_cli(capsys):
    assert main(["table", "--n", "1"]) == 0
    text = capsys.readouterr().out
    assert "3.0" in text and "1.5" in text
    assert main(["table", "--n", "2"]) == 0
    text = capsys.readouterr().out
    assert "infinity" in text
    assert main(["table", "--n", "3"]) == 0
    text = capsys.readouterr().out
    assert "1.5" in text


def test_table_prints_the_nearest_float_of_each_exact_threshold(capsys):
    assert main(["table", "--n", "3"]) == 0
    text = capsys.readouterr().out
    assert "1.6666666666666667" in text  # 5/3, not 1.0 + 2.0/3
    assert "1.6666666666666665" not in text


@pytest.mark.parametrize("command", ["run", "certify", "scan", "table"])
def test_an_output_path_that_cannot_be_created_exits_2(tmp_path, capsys, monkeypatch,
                                                       command):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "out"

    def no_run(*args):
        raise AssertionError("ran before the output directory was made")

    monkeypatch.setattr(cli, "run", no_run)
    monkeypatch.setattr(cli, "run_batch", no_run)
    argv = {"run": ["run", str(write_config(tmp_path, blowup_config(out)))],
            "certify": ["certify", "--n", "1", "--p", "4", "--q", "2",
                        "--kind", "gaussian", "--out", str(out / "cert.json")],
            "scan": SCAN_2X2 + ["--out", str(out)],
            "table": ["table", "--n", "3", "--json-out", str(out / "table.json")]}
    assert main(argv[command]) == 2
    captured = capsys.readouterr()
    assert "error: cannot write the output" in captured.err
    assert captured.out == ""


def test_scan_empty_range(tmp_path):
    out = tmp_path / "scan_empty"
    code = main(["scan", "--n", "1", "--p-range", "2", "3",
                 "--q-range", "1.2", "1.4", "--steps", "0", "--out", str(out)])
    assert code == 0
    lines = (out / "scan.csv").read_text().strip().split("\n")
    assert len(lines) == 1  # header only


def blowup_datum(grid_m):
    """The datum a scan of n = 1 runs each of its blow-up points from."""
    u0 = sample_profile(ProfileSpec.gaussian(1.0), RadialGrid(1, 12.0, grid_m))
    u0.values[-1] = 0.0
    return u0


def test_scan_point_global_certified():
    (row,) = _scan_global_points(RadialGrid(1, 12.0, 200), [(4.0, 2.0, theory(4.0, 2.0))],
                                 1.0, budget=2.0)
    assert row["verdict_theory"] == "GlobalForSmallData"
    assert row["verdict_numeric"] == "DominatedToHorizon"
    assert row["certificate_eps"] > 0


def test_scan_point_blowup_confirmed():
    row = _scan_point(blowup_datum(200), 2.0, 2.0, 1.0, budget=50.0,
                      theory=theory(2.0, 2.0))
    assert row["verdict_theory"] == "BlowUpAll"
    assert row["verdict_numeric"] == "BlowUp"
    assert row["t_star"] > 0


def test_scan_soundness_failure_is_loud(tmp_path, monkeypatch):
    # a certified-global point reporting blow-up must fail the whole scan
    import fujitalab.cli as cli_mod

    def contradictory(grid, points, b, budget):
        return [{"p": p, "q": q, "verdict_theory": "GlobalForSmallData",
                 "triggered_condition": "x", "t_star": None,
                 "certificate_eps": 0.01,
                 "verdict_numeric": "BlowUp(CONTRADICTS_CERTIFICATE)"}
                for p, q, _ in points]

    monkeypatch.setattr(cli_mod, "_scan_global_points", contradictory)
    code = main(["scan", "--n", "1", "--p-range", "4", "4",
                 "--q-range", "2", "2", "--steps", "1",
                 "--out", str(tmp_path / "scan_bad")])
    assert code == 3


# argparse keeps the last occurrence of a repeated option
SCAN_GATE = SCAN_2X2 + ["--budget", "0.5", "--grid-m", "60"]


def test_scan_gate_fails_a_certified_point_that_blows_up(tmp_path, capsys, monkeypatch):
    real = cli.run_batch

    def blowing_up(params, u0s, config, **kw):
        return [dataclasses.replace(outcome, status=SolveStatus.BLOW_UP)
                for outcome in real(params, u0s, config, **kw)]

    monkeypatch.setattr(cli, "run_batch", blowing_up)
    out = tmp_path / "scan"
    assert main(SCAN_GATE + ["--out", str(out)]) == 3
    assert "scan is unsound" in capsys.readouterr().err
    rows = json.loads((out / "scan.json").read_text())["points"]
    assert sum(row["verdict_numeric"] == "BlowUp(CONTRADICTS_CERTIFICATE)"
               for row in rows) == 2
    assert (out / "scan.csv").read_text().count("BlowUp(CONTRADICTS_CERTIFICATE)") == 2


def test_scan_leaves_a_certified_point_it_cannot_dominate_unresolved(tmp_path,
                                                                     monkeypatch):
    real = cli.gaussian_supersolution

    def below_u(cert, t, grid):
        # the data 0.9 z(0) are built from the true z; every later z lies below u
        z = real(cert, t, grid)
        return z if t == 0.0 else Field(grid, z.values - 1.0)

    monkeypatch.setattr(cli, "gaussian_supersolution", below_u)
    out = tmp_path / "scan"
    assert main(SCAN_GATE + ["--out", str(out)]) == 0
    rows = json.loads((out / "scan.json").read_text())["points"]
    certified = [row for row in rows if row["certificate_eps"] is not None]
    assert len(certified) == 2
    assert all(row["verdict_numeric"] == "unresolved" for row in certified)


def posthoc_global_rows(grid, points, b, budget):
    """Reference for ``_scan_global_points``: run the certified points with
    every snapshot stored, then check each snapshot against z(t) plus the
    comparison tolerance after the run, stopping at a column's first miss."""
    n = grid.n
    config = SolveConfig(t_end=min(5.0, budget), dt_init=1e-3, dt_min=1e-9,
                         dt_max=5e-3, trace_stride=20, store_fields=True)
    tol = comparison_tolerance(grid, config)
    rows, certified, certs = [], [], []
    for p, q, verdict in points:
        try:
            certs.append(gaussian_certificate(n, p, q, b))
            certified.append((p, q, verdict))
        except ValueError:
            rows.append(cli._scan_row(p, q, verdict))
    u0s = [Field(grid, 0.9 * cli.gaussian_supersolution(cert, 0.0, grid).values)
           for cert in certs]
    for u0 in u0s:
        u0.values[-1] = 0.0
    outcomes = run_batch([ProblemParams(n=n, p=p, q=q, b=b) for p, q, _ in certified],
                         u0s, config)
    for point, cert, outcome in zip(certified, certs, outcomes):
        row = cli._scan_row(*point)
        row["certificate_eps"] = cert.eps
        dominated = outcome.status is SolveStatus.REACHED_HORIZON
        if dominated:
            for t_snap, u_snap in outcome.snapshots:
                z = cli.gaussian_supersolution(cert, t_snap, grid)
                if np.any(u_snap.values > z.values + tol):
                    dominated = False
                    break
        if outcome.status is SolveStatus.BLOW_UP:
            row["verdict_numeric"] = "BlowUp(CONTRADICTS_CERTIFICATE)"
        elif dominated:
            row["verdict_numeric"] = "DominatedToHorizon"
        rows.append(row)
    return rows


def test_scan_checks_domination_as_the_post_hoc_snapshot_loop_did(monkeypatch):
    real = cli.gaussian_supersolution
    calls = []

    def lowered_for_p5(cert, t, grid):
        # z(t) of the p = 5 certificate lies below u after t = 0, as in the
        # test above; the other certificates are left as they are
        calls.append(cert.p)
        z = real(cert, t, grid)
        return z if t == 0.0 or cert.p != 5.0 else Field(grid, z.values - 1.0)

    monkeypatch.setattr(cli, "gaussian_supersolution", lowered_for_p5)
    # the 2x2 lattice, whose q = 1.4 certificates are refused, and (5, 1.8)
    points = [(p, q, theory(p, q)) for p, q in
              [(4.0, 1.4), (4.0, 1.8), (6.0, 1.4), (6.0, 1.8), (5.0, 1.8)]]
    grid = RadialGrid(1, 12.0, 60)
    streamed = _scan_global_points(grid, points, 1.0, 0.5)
    streamed_calls, calls[:] = sorted(calls), []
    assert streamed == posthoc_global_rows(grid, points, 1.0, 0.5)
    assert streamed_calls == sorted(calls)  # the same domination checks
    assert [(row["p"], row["q"], row["verdict_numeric"]) for row in streamed] == [
        (4.0, 1.4, "unresolved"), (6.0, 1.4, "unresolved"),
        (4.0, 1.8, "DominatedToHorizon"), (6.0, 1.8, "DominatedToHorizon"),
        (5.0, 1.8, "unresolved")]
    assert streamed[-1]["certificate_eps"] > 0


def test_scan_global_points_keep_no_snapshots():
    # what stays traced is one certificate's lattice, built one after another
    points = [(p, q, theory(p, q)) for p in (4.0, 5.0, 6.0, 7.0) for q in (1.55, 1.6)]
    grid = RadialGrid(1, 12.0, 300)
    _scan_global_points(grid, points[:1], 1.0, 5.0)  # warm-up
    tracemalloc.start()
    try:
        rows = _scan_global_points(grid, points, 1.0, 5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [row["verdict_numeric"] for row in rows] == ["DominatedToHorizon"] * 8
    assert peak < 0.9e6


def test_scan_csv_deterministic_format():
    rows = [
        {"p": 2.0, "q": 1.5, "verdict_theory": "BlowUpAll",
         "triggered_condition": "p <= p_F, closed", "verdict_numeric": "BlowUp",
         "t_star": 1.25, "certificate_eps": None},
    ]
    text = scan_csv(rows)
    assert text.startswith("p,q,verdict_theory")
    assert "p <= p_F; closed" in text  # commas inside text cells are escaped


def test_scan_rows_equal_per_point_rows(tmp_path):
    # the 2x2 lattice has two certified-global points, confirmed by one batch
    out = tmp_path / "scan"
    assert main(SCAN_2X2 + ["--out", str(out)]) == 0
    rows = json.loads((out / "scan.json").read_text())["points"]
    # q = 1.8 lies above q_F = 3/2 (n = 1): those points are certified global
    grid, u0 = RadialGrid(1, 12.0, 200), blowup_datum(200)
    expected = [_scan_global_points(grid, [(p, q, theory(p, q))], 1.0, 1.0)[0]
                if q > 1.5 else _scan_point(u0, p, q, 1.0, 1.0, theory(p, q))
                for p in (4.0, 6.0) for q in (1.4, 1.8)]
    assert rows == json.loads(json.dumps(expected))
    assert sum(row["verdict_numeric"] == "DominatedToHorizon" for row in rows) == 2


def test_scan_classifies_each_point_once(tmp_path, monkeypatch):
    calls = []
    real = cli.classify_positive

    def counted(params):
        calls.append((params.p, params.q))
        return real(params)

    monkeypatch.setattr(cli, "classify_positive", counted)
    assert main(SCAN_2X2 + ["--out", str(tmp_path / "scan")]) == 0
    assert sorted(calls) == [(p, q) for p in (4.0, 6.0) for q in (1.4, 1.8)]


def test_scan_starts_no_thread(tmp_path, monkeypatch):
    def refuse(self):
        raise RuntimeError("a scan starts no thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    out = tmp_path / "scan"
    assert main(SCAN_2X2 + ["--out", str(out)]) == 0
    # the 2x2 lattice has both certified-global and blow-up points
    rows = json.loads((out / "scan.json").read_text())["points"]
    assert len(rows) == 4
    assert {row["verdict_theory"] for row in rows} == {"BlowUpAll", "GlobalForSmallData"}


@pytest.mark.parametrize("flag, value", [
    ("--budget", "0"), ("--budget", "-5"), ("--budget", "nan"),
    ("--n", "0"), ("--b", "0"),
    ("--n", "1000"), ("--b", "inf"), ("--p-range", "inf inf"), ("--q-range", "inf inf"),
    ("--p-range", "4 nan"),
], ids=["budget-zero", "budget-negative", "budget-nan", "n-0", "b-0",
        "n-sphere-area-overflows", "b-inf", "p-range-inf", "q-range-inf", "p-range-nan"])
def test_scan_rejects_invalid_inputs(tmp_path, capsys, flag, value):
    out = tmp_path / "scan"
    # argparse keeps the last occurrence of a repeated option
    assert main(SCAN_2X2 + [flag, *value.split(), "--out", str(out)]) == 2
    assert f"error: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid_m", [1, 2, 60, M_MAX + 1])
@pytest.mark.parametrize("n", [0, 1, 3, 285, 286])
def test_scan_refuses_exactly_the_grids_radial_grid_refuses(tmp_path, capsys, n, grid_m):
    try:
        RadialGrid(n, 12.0, grid_m)
        refusal = None
    except ValueError as exc:
        refusal = f"error: --n/--grid-m: {exc}"
    out = tmp_path / "scan"
    # an empty lattice: no point is classified or run, so only the grid is at stake
    code = main(["scan", "--n", str(n), "--p-range", "2", "3", "--q-range", "1.2", "1.4",
                 "--steps", "0", "--grid-m", str(grid_m), "--out", str(out)])
    assert (code, out.exists()) == ((0, True) if refusal is None else (2, False))
    if refusal is not None:
        assert capsys.readouterr().err.strip() == refusal


def _memory_capped(argv):
    """``fujitalab argv`` in a subprocess whose address space is capped at
    1 GB, so that an input the lab fails to refuse cannot take more."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "fujitalab.cli", *argv], env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("extra, message", [
    (["--grid-m", str(M_MAX + 1)],
     f"error: --n/--grid-m: M={M_MAX + 1} interior nodes exceed the cap M <= {M_MAX} "
     f"(about 1 GB per run)"),
    (["--steps", "1001"], "error: --steps must keep steps^2 <= 1000000 points"),
    (["--steps", "100", "--grid-m", "999"],
     f"error: --steps: the batch holds steps^2 * (grid_m + 2) nodes, "
     f"at most {M_MAX + 2} (one grid of M = {M_MAX})"),
], ids=["grid-m", "lattice-points", "lattice-nodes"])
def test_scan_refuses_a_lattice_above_its_caps(tmp_path, extra, message):
    out = tmp_path / "scan"
    done = _memory_capped(SCAN_2X2 + extra + ["--out", str(out)])
    assert (done.returncode, done.stderr.strip()) == (2, message)
    assert not out.exists()


def test_run_refuses_a_grid_above_the_cap(tmp_path):
    doc = blowup_config(tmp_path / "out")
    doc["grid"]["M"] = M_MAX + 1
    done = _memory_capped(["run", str(write_config(tmp_path, doc))])
    assert (done.returncode, done.stderr.strip()) == (
        2, f"error: invalid config: M={M_MAX + 1} interior nodes exceed the cap "
           f"M <= {M_MAX} (about 1 GB per run)")
    assert not (tmp_path / "out").exists()


def test_scan_refuses_a_point_outside_the_standing_assumptions(tmp_path, capsys):
    # covers a refusal no other test reaches: p = 1 is not p > 1
    out = tmp_path / "scan"
    assert main(SCAN_2X2 + ["--p-range", "1", "1", "--out", str(out)]) == 2
    assert "outside standing assumptions" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--b", "1e300"],
    ["--q-range", "1e6", "1e6"],
    ["--n", "285", "--p-range", "1.02", "1.02", "--q-range", "1.01", "1.01"],
], ids=["b-huge-eps-underflows", "q-huge-C_grad-overflows", "eps-bracket-does-not-close"])
def test_scan_leaves_a_point_whose_certificate_is_refused_unresolved(
        tmp_path, monkeypatch, extra):
    columns = []
    real = cli.run_batch

    def spy(params, u0s, config, **kw):
        columns.append(len(params))
        return real(params, u0s, config, **kw)

    monkeypatch.setattr(cli, "run_batch", spy)
    out = tmp_path / "scan"
    assert main(["scan", "--n", "1", "--p-range", "4", "4", "--q-range", "1.6", "1.6",
                 "--steps", "1", "--budget", "1.0", "--grid-m", "50",
                 *extra, "--out", str(out)]) == 0
    (row,) = json.loads((out / "scan.json").read_text())["points"]
    assert row["verdict_theory"] == "GlobalForSmallData"
    assert row["verdict_numeric"] == "unresolved"
    assert row["certificate_eps"] is None
    assert columns == [0]  # the point is not run
    assert (out / "scan.csv").read_text().splitlines()[1].endswith(",unresolved,,")


@pytest.mark.parametrize("key, value", [
    ("t_end", float("inf")),
    ("t_end", -1.0),
    ("dt_max", float("inf")),
    ("growth_cap", 0.0),
    ("growth_cap", -0.1),
    ("kaplan_R", 20.0),
    ("kaplan_R", -1.0),
    ("kaplan_R", 1e-300),
    ("kaplan_R", 1.5 * 12.0 / 301),  # 1.5 cells of blowup_config's grid
], ids=["t_end-infinite", "t_end-negative", "dt_max-infinite", "growth_cap-zero",
        "growth_cap-negative", "kaplan_R-beyond-L", "kaplan_R-negative",
        "kaplan_R-below-one-cell", "kaplan_R-below-two-cells"])
def test_run_rejects_invalid_solve_config(tmp_path, capsys, key, value):
    out_dir = tmp_path / "out"
    doc = blowup_config(out_dir)
    doc["solve"][key] = value
    assert main(["run", str(write_config(tmp_path, doc))]) == 2
    assert key in capsys.readouterr().err
    assert not out_dir.exists()


def test_the_trace_stride_is_output_stride_alone(tmp_path, capsys):
    out_dir = tmp_path / "out"
    doc = blowup_config(out_dir)
    doc["output"]["stride"] = 3
    assert parse_scenario(doc)[2].trace_stride == 3
    doc["solve"]["trace_stride"] = 3
    assert main(["run", str(write_config(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert "solve: unknown key(s) ['trace_stride']" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("table, cls, elsewhere", [
    ("_PROBLEM_KEYS", ProblemParams, set()),
    ("_GRID_KEYS", RadialGrid, {"n"}),  # the problem's n
    ("_SOLVE_KEYS", SolveConfig, {"store_fields", "trace_stride"}),  # output.stride
], ids=["problem", "grid", "solve"])
def test_each_section_table_names_the_fields_of_the_object_it_fills(table, cls, elsewhere):
    fields = {f.name for f in dataclasses.fields(cls) if f.init}
    assert set(getattr(cli, table)) == fields - elsewhere


def test_each_primitive_kind_table_names_fields_of_primitive():
    tables = {kind: set(cli._PROFILE_KINDS[kind]) for kind in _KINDS}
    fields = {f.name for f in dataclasses.fields(Primitive)} - {"kind"}
    assert all(table <= fields for table in tables.values())
    assert set().union(*tables.values()) == fields
    assert set(cli._PROFILE_KINDS) - set(tables) == {"signed_dipole", "sum"}


@pytest.mark.parametrize("kinds, kind, builder, elsewhere", [
    ("_PROFILE_KINDS", "signed_dipole", ProfileSpec.signed_dipole, set()),
    ("_FORCING_KINDS", "gaussian", ProfileSpec.gaussian, set()),
    # the problem's n, p, q and b, and the scenario's grid
    ("_FORCING_KINDS", "constructed_stationary", stationary_certificate,
     {"n", "p", "q", "b", "grid"}),
], ids=["signed_dipole", "forcing-gaussian", "constructed_stationary"])
def test_each_kind_table_names_the_parameters_of_what_it_builds(kinds, kind, builder,
                                                                 elsewhere):
    parameters = set(inspect.signature(builder).parameters)
    assert set(getattr(cli, kinds)[kind]) == parameters - elsewhere


@pytest.mark.parametrize("kaplan_R", [1.5 * 12.0 / 301, 12.5], ids=["below-two-cells", "beyond-L"])
def test_parse_scenario_refuses_a_kaplan_ball_as_kaplan_weights_does(kaplan_R):
    doc = blowup_config("out")
    doc["solve"]["kaplan_R"] = kaplan_R
    with pytest.raises(ValueError) as parsed:
        parse_scenario(doc)
    with pytest.raises(ValueError) as weighed:
        kaplan_weights(RadialGrid(1, 12.0, 300), kaplan_R)
    assert str(parsed.value) == str(weighed.value)
    assert str(parsed.value).startswith("kaplan_R: expected two grid cells")


def test_run_rejects_a_dimension_whose_sphere_area_overflows(tmp_path, capsys):
    out_dir = tmp_path / "out"
    doc = blowup_config(out_dir)
    doc["problem"]["n"] = 1000  # Gamma(n/2) overflows a float from n = 344 on
    assert main(["run", str(write_config(tmp_path, doc))]) == 2
    assert "dimension n=1000" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("n, L, M, kaplan_R, profile, key", [
    (300, 12.0, 400, None, None, "radius L=12.0"),
    (300, 10.6, 400, None, {"kind": "algebraic", "amplitude": 1e200, "k": 0.01}, "profile"),
    (1, 1e-6, 400, None, {"kind": "gaussian", "amplitude": 1e300}, "profile"),
    (1, 2.0, 2, None, {"kind": "gaussian", "amplitude": 1e308}, "profile"),
], ids=["ball-overflows", "trace-integral-overflows",
        "trace-gradient-overflows", "trace-integral-and-gradient-overflow"])
def test_run_rejects_a_ball_out_of_float_range(tmp_path, capsys, n, L, M, kaplan_R,
                                               profile, key):
    # the quadrature weight sphere_area(n) r^(n-1) leaves the float range:
    # 12^300 overflows.  Or a trace value of a field of
    # the largest sup a run can record, max(sup |u0|, 1e8) * 1.1, overflows:
    # at n = 300, L = 10.6 the bound 1.1e200 times the ball's volume
    # 2.7e119; on L = 1e-6 the gradient 1.1e300 / h; on L = 2, both
    out_dir = tmp_path / "out"
    doc = blowup_config(out_dir)
    doc["problem"]["n"] = n
    doc["grid"] = {"L": L, "M": M}
    doc["solve"] = {"t_end": 1e-3}
    if kaplan_R is not None:
        doc["solve"]["kaplan_R"] = kaplan_R
    if profile is not None:
        doc["profile"] = profile
    assert main(["run", str(write_config(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert key in err and "out of float range" in err
    assert not out_dir.exists()


def test_run_records_finite_integrals_on_a_large_ball(tmp_path):
    # at n = 300, L = 10.6 the integral of 1e3 (1 + r^2)^-0.01 is about
    # 1.6e122, although the sum of u r^299 alone overflows
    out_dir = tmp_path / "out"
    doc = blowup_config(out_dir)
    doc["problem"]["n"] = 300
    doc["profile"] = {"kind": "algebraic", "amplitude": 1e3, "k": 0.01}
    doc["grid"] = {"L": 10.6, "M": 400}
    doc["solve"] = {"t_end": 1e-4}
    assert main(["run", str(write_config(tmp_path, doc))]) == 0
    rows = list(csv.DictReader(io.StringIO((out_dir / "trace.csv").read_text())))
    assert all(math.isfinite(float(row[key])) for row in rows for key in ("l1_u", "mean_u"))
    assert float(rows[0]["l1_u"]) == pytest.approx(1.638e122, rel=1e-3)


@pytest.mark.parametrize("kaplan_R", [0.05, 0.4])
def test_run_takes_a_small_kaplan_ball_in_a_high_dimension(tmp_path, kaplan_R):
    # sphere_area(300) * 0.05^300 underflows a float, and a mass-1
    # eigenfunction of B_0.4 at n = 300 cannot be normalized; the weights,
    # a left eigenvector of the run's own A summing to 1, need neither
    out_dir = tmp_path / "out"
    doc = blowup_config(out_dir)
    doc["problem"]["n"] = 300
    doc["grid"] = {"L": 3.0, "M": 400}
    doc["solve"] = {"t_end": 1e-3, "kaplan_R": kaplan_R}
    assert main(["run", str(write_config(tmp_path, doc))]) == 0
    rows = list(csv.DictReader(io.StringIO((out_dir / "trace.csv").read_text())))
    assert rows and all(math.isfinite(float(row["kaplan_y"])) for row in rows)


@pytest.mark.parametrize("eps", [-0.01, 0.0], ids=["negative", "zero"])
def test_run_refuses_a_stationary_forcing_whose_eps_is_not_positive(tmp_path, capsys, eps):
    out_dir = tmp_path / "out"
    doc = blowup_config(out_dir)
    doc["problem"] = {"n": 3, "p": 4.5, "q": 2}
    doc["forcing"] = {"kind": "constructed_stationary", "eps": eps}
    assert main(["run", str(write_config(tmp_path, doc))]) == 2
    assert "eps must be finite and > 0" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("problem, forcing, message", [
    ({"n": 1, "p": 2, "q": 2}, {"kind": "gaussian", "amplitude": -1},
     "gaussian forcing needs amplitude >= 0"),
    ({"n": 3, "p": 4.5, "q": 2}, {"kind": "constructed_stationary", "eps": 1.0},
     "is not negative; eps too large"),
], ids=["negative_gaussian", "stationary_margin"])
def test_run_refuses_a_forcing_before_making_the_output_directory(tmp_path, capsys,
                                                                  problem, forcing, message):
    out_dir = tmp_path / "out"
    doc = blowup_config(out_dir)
    doc["problem"] = problem
    doc["forcing"] = forcing
    assert main(["run", str(write_config(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ") and message in err
    assert not out_dir.exists()


@pytest.mark.parametrize("forcing", [
    {"kind": "none"}, {"kind": "gaussian", "amplitude": 1.0},
    {"kind": "constructed_stationary", "eps": 0.03}],
    ids=["none", "gaussian", "constructed_stationary"])
def test_parse_scenario_pins_the_boundary_unless_the_forcing_is_constructed(forcing):
    doc = {
        "problem": {"n": 3, "p": 4, "q": 2, "b": 1.0},
        "profile": {"kind": "algebraic", "amplitude": 0.03, "k": [5, 12]},
        "forcing": forcing,
        "grid": {"L": 12.0, "M": 100},
        "solve": {"t_end": 1.0},
    }
    _, grid, _, profile, u0, h, _ = parse_scenario(doc)
    if forcing["kind"] == "constructed_stationary":
        assert u0.values[-1] == Primitive("algebraic", amplitude=0.03, k=5 / 12).evaluate(
            np.array([grid.L]))[0] > 0.0
        assert np.all(h.values > 0.0)
    else:
        assert u0.values[-1] == 0.0
        assert (h is None) == (forcing["kind"] == "none")
    assert np.array_equal(u0.values[:-1], profile.evaluate(grid.nodes)[:-1])


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if value is KeyError:
        del doc[last]
    else:
        doc[last] = value


@pytest.mark.parametrize("path, value", [
    (("problem", "use_source"), "false"),
    (("problem", "use_gradient"), "false"),
    (("problem", "n"), 1.7),
    (("problem", "n"), "1"),
    (("grid", "M"), 300.5),
    (("output", "stride"), 2.5),
    (("output", "stride"), "2"),
    (("problem",), 5),
    (("problem", "p"), KeyError),
    (("profile",), {"kind": "signed_dipole", "a_plus": 1, "a_minus": 1,
                    "centers": ["1.6", 4.2], "widths": [1, 1]}),
    (("profile",), {"kind": "sum", "parts": []}),
    (("profile", "amplitude"), float("inf")),
    (("profile",), {"kind": "sum", "parts": [{"kind": "gaussian", "amplitude": 1e308}] * 2}),
    (("profile",), {"kind": "signed_dipole", "a_plus": 1, "a_minus": 1,
                    "centers": [1.6], "widths": [1, 1]}),
    (("profile",), {"kind": "signed_dipole", "a_plus": 1, "a_minus": 1,
                    "centers": [1.6, 4.2], "widths": [1, 1, 1]}),
    (("grid", "L"), 5e-324),
    (("grid", "L"), 1e300),
    (("profile", "kind"), "triangle"),
    (("forcing", "kind"), "triangle"),
], ids=["use_source-string", "use_gradient-string", "n-float", "n-string",
        "M-float", "output-stride-float", "output-stride-string", "problem-number",
        "p-missing", "dipole-center-string", "sum-empty", "amplitude-infinite",
        "sum-overflow", "dipole-one-center", "dipole-three-widths", "L-tiny", "L-huge",
        "profile-kind-unknown", "forcing-kind-unknown"])
def test_parse_scenario_rejects_mistyped_fields(tmp_path, path, value):
    doc = blowup_config(tmp_path / "out")
    _set(doc, path, value)
    with pytest.raises(ConfigError, match=path[-1]):
        parse_scenario(doc)
    assert main(["run", str(write_config(tmp_path, doc))]) == 2


# Scenario fuzzing: each field is mostly drawn from its valid range and
# sometimes replaced by an odd value (non-finite, oversized, out of range or
# mistyped), so that both valid scenarios and every kind of refusal occur.
_odd = st.one_of(st.floats(), st.integers(10 ** 300, 10 ** 320),
                 st.sampled_from([0, -1, 5e-324, 1e308, -1e308]),
                 st.lists(st.integers(-20, 20), min_size=2, max_size=2),
                 st.none(), st.booleans(), st.text(max_size=3),
                 st.dictionaries(st.sampled_from(["kind", "x"]), st.integers(),
                                 max_size=2))


def _maybe(valid):
    return st.integers(0, 19).flatmap(lambda i: _odd if i == 0 else valid)


def _real(lo, hi):
    return _maybe(st.floats(lo, hi))


# the end of the float range is a valid amplitude, but a sum of two overflows
_amplitude = _maybe(st.one_of(st.floats(-10.0, 10.0), st.just(1e308)))
_primitives = st.one_of(
    st.fixed_dictionaries({"kind": st.just("gaussian"), "amplitude": _amplitude}),
    st.fixed_dictionaries({"kind": st.just("algebraic"), "amplitude": _amplitude,
                           "k": _real(0.01, 5.0)}),
    st.fixed_dictionaries({"kind": st.just("annular_bump"), "amplitude": _amplitude,
                           "center": _real(0.0, 12.0), "width": _real(0.1, 5.0)}),
    st.fixed_dictionaries({"kind": st.just("signed_dipole"), "a_plus": _amplitude,
                           "a_minus": _amplitude,
                           "centers": _maybe(st.lists(_real(0.0, 12.0), min_size=2,
                                                      max_size=2)),
                           "widths": _maybe(st.lists(_real(0.1, 5.0), min_size=2,
                                                     max_size=2))}),
    st.just({"kind": "zero"}))
_profiles = _maybe(st.one_of(
    _primitives,
    st.fixed_dictionaries({"kind": st.just("sum"),
                           "parts": _maybe(st.lists(_primitives, min_size=1,
                                                    max_size=4))})))

_solve_keys = {
    "dt_init": _real(1e-4, 1e-2), "dt_max": _real(1e-3, 0.1),
    "blowup_threshold": _real(2.0, 1e10), "growth_cap": _real(0.01, 1.0),
    "theta_scheme": _real(0.0, 1.0), "kaplan_R": _real(0.01, 25.0)}


def _scenario(grid_m, solve):
    return st.fixed_dictionaries({
        "problem": st.fixed_dictionaries(
            {"n": _maybe(st.integers(1, 4)), "p": _real(1.01, 8.0), "q": _real(1.0, 4.0)},
            optional={"b": _real(0.0, 3.0), "use_source": _maybe(st.booleans()),
                      "use_gradient": _maybe(st.booleans())}),
        "profile": _profiles,
        "grid": st.fixed_dictionaries({"L": _real(1.0, 20.0), "M": grid_m}),
        "solve": solve,
    }, optional={
        "forcing": _maybe(st.one_of(
            st.just({"kind": "none"}),
            st.fixed_dictionaries({"kind": st.just("gaussian"),
                                   "amplitude": _real(0.0, 10.0)}),
            st.fixed_dictionaries({"kind": st.just("constructed_stationary")},
                                  optional={"eps": _real(1e-4, 0.1)}))),
        "output": st.fixed_dictionaries({}, optional={"stride": _maybe(st.integers(1, 20))}),
    })


# M stays small: a valid scenario allocates its grid; a huge M, far above
# M_MAX and above anything an allocator would try, must be refused
_scenarios = _scenario(
    _maybe(st.one_of(st.integers(2, 40), st.integers(10 ** 12, 10 ** 15))),
    st.fixed_dictionaries({}, optional={"t_end": _real(0.01, 10.0), **_solve_keys}))
# a run stays short: a tiny grid and t_end <= 1e-3
_short_runs = _scenario(st.integers(2, 50), st.fixed_dictionaries(
    {"t_end": st.floats(1e-5, 1e-3)}, optional=_solve_keys))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_scenarios)
def test_parse_scenario_fuzz_rejects_or_gives_a_finite_start(doc):
    try:
        params, grid, config, profile, u0, h, _ = parse_scenario(doc)
    except ValueError:  # ConfigError included
        return
    assert np.all(np.isfinite(u0.values))
    assert h is None or np.all(np.isfinite(h.values))
    assert config.kaplan_R is None or 2.0 * grid.h_r <= config.kaplan_R <= grid.L


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_short_runs)
def test_run_fuzz_exits_0_or_2(doc):
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        doc.setdefault("output", {})["dir"] = str(Path(tmp) / "out")
        assert main(["run", str(write_config(Path(tmp), doc))]) in (0, 2)


def _mostly(valid, odd):
    return st.integers(0, 4).flatmap(lambda i: odd if i == 0 else valid)


# each input mostly inside the certificate's regime (p > 3 >= p_F and
# q > 1.5 >= q_F for every n >= 1), sometimes non-finite, huge or negative
_cert_odd = st.one_of(st.floats(), st.sampled_from([1e6, 1e300, 1e308, 5e-324, 0.0, -1.0]))


# a stationary certificate draws no eps (it is bisected), a valid one, or an
# odd one: zero, negative, non-finite or huge
_stationary_eps = st.one_of(st.none(), st.floats(1e-4, 0.1),
                            st.sampled_from([0.0, -0.0, -0.01, 5e-324, 1e300]), st.floats())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_mostly(st.integers(1, 6), st.one_of(st.integers(-1, 0), st.integers(300, 10 ** 6))),
       _mostly(st.floats(3.01, 10.0), _cert_odd), _mostly(st.floats(1.51, 4.0), _cert_odd),
       _mostly(st.floats(0.0, 3.0), _cert_odd),
       st.one_of(st.just(("gaussian", None)), st.tuples(st.just("stationary"), _stationary_eps)))
def test_certify_fuzz_verifies_or_refuses(n, p, q, b, kind_eps):
    kind, eps = kind_eps
    argv = ["certify", f"--kind={kind}", f"--n={n}", f"--p={p!r}", f"--q={q!r}", f"--b={b!r}"]
    if eps is not None:
        argv.append(f"--eps={eps!r}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("certificate refused: ")
        return
    doc = json.loads(out.getvalue())
    assert doc["verified"] is True
    assert doc["eps"] > 0.0 and math.isfinite(doc["eps"])
    if kind == "gaussian":
        assert math.isfinite(doc["residual_min"]) and doc["residual_min"] >= 0.0
    else:
        assert doc["margin"] < 0.0
