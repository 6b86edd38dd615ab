import json

import numpy as np
import pytest

from fujitalab.cli import (ConfigError, main, parse_scenario, scan_csv,
                           _number, _scan_point)


SCAN_2X2 = ["scan", "--n", "1", "--p-range", "4", "6", "--q-range", "1.4", "1.8",
            "--steps", "2", "--budget", "1.0", "--grid-m", "200"]


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
                  "dt_max": 0.05, "trace_stride": 2},
        "output": {"dir": str(out_dir)},
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
                  "theta_scheme": 0.5, "trace_stride": 200},
        "output": {"dir": str(out_dir)},
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
        "solve": {"t_end": 1.0, "dt_init": 1e-3, "dt_min": 1e-6, "dt_max": 0.02,
                  "trace_stride": 10},
        "output": {"dir": str(out_dir)},
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


def test_scan_empty_range(tmp_path):
    out = tmp_path / "scan_empty"
    code = main(["scan", "--n", "1", "--p-range", "2", "3",
                 "--q-range", "1.2", "1.4", "--steps", "0", "--out", str(out)])
    assert code == 0
    lines = (out / "scan.csv").read_text().strip().split("\n")
    assert len(lines) == 1  # header only


def test_scan_point_global_certified():
    row = _scan_point(1, 4.0, 2.0, 1.0, grid_m=200, budget=2.0)
    assert row["verdict_theory"] == "GlobalForSmallData"
    assert row["verdict_numeric"] == "DominatedToHorizon"
    assert row["certificate_eps"] > 0


def test_scan_point_blowup_confirmed():
    row = _scan_point(1, 2.0, 2.0, 1.0, grid_m=200, budget=50.0)
    assert row["verdict_theory"] == "BlowUpAll"
    assert row["verdict_numeric"] == "BlowUp"
    assert row["t_star"] > 0


def test_scan_soundness_failure_is_loud(tmp_path, monkeypatch):
    # a certified-global point reporting blow-up must fail the whole scan
    import fujitalab.cli as cli_mod

    def contradictory(n, points, b, grid_m, budget):
        return [{"p": p, "q": q, "verdict_theory": "GlobalForSmallData",
                 "triggered_condition": "x", "t_star": None,
                 "certificate_eps": 0.01,
                 "verdict_numeric": "BlowUp(CONTRADICTS_CERTIFICATE)"}
                for p, q in points]

    monkeypatch.setattr(cli_mod, "_scan_global_points", contradictory)
    code = main(["scan", "--n", "1", "--p-range", "4", "4",
                 "--q-range", "2", "2", "--steps", "1",
                 "--out", str(tmp_path / "scan_bad")])
    assert code == 3


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
    expected = [_scan_point(1, p, q, 1.0, 200, 1.0)
                for p in (4.0, 6.0) for q in (1.4, 1.8)]
    assert rows == json.loads(json.dumps(expected))
    assert sum(row["verdict_numeric"] == "DominatedToHorizon" for row in rows) == 2


@pytest.mark.parametrize("flag, value", [
    ("--budget", "0"), ("--budget", "-5"), ("--budget", "nan"),
    ("--grid-m", "1"), ("--n", "0"), ("--b", "0"),
], ids=["budget-zero", "budget-negative", "budget-nan", "grid-m-1", "n-0", "b-0"])
def test_scan_rejects_invalid_inputs(tmp_path, capsys, flag, value):
    out = tmp_path / "scan"
    # argparse keeps the last occurrence of a repeated option
    assert main(SCAN_2X2 + [flag, value, "--out", str(out)]) == 2
    assert f"error: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("t_end", float("inf")),
    ("t_end", -1.0),
    ("dt_max", float("inf")),
    ("growth_cap", 0.0),
    ("growth_cap", -0.1),
], ids=["t_end-infinite", "t_end-negative", "dt_max-infinite", "growth_cap-zero",
        "growth_cap-negative"])
def test_run_rejects_invalid_solve_config(tmp_path, capsys, key, value):
    out_dir = tmp_path / "out"
    doc = blowup_config(out_dir)
    doc["solve"][key] = value
    assert main(["run", str(write_config(tmp_path, doc))]) == 2
    assert key in capsys.readouterr().err
    assert not out_dir.exists()


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
    (("solve", "trace_stride"), 2.5),
    (("output", "stride"), "2"),
    (("problem",), 5),
    (("problem", "p"), KeyError),
    (("profile",), {"kind": "signed_dipole", "a_plus": 1, "a_minus": 1,
                    "centers": ["1.6", 4.2], "widths": [1, 1]}),
    (("profile",), {"kind": "sum", "parts": []}),
], ids=["use_source-string", "use_gradient-string", "n-float", "n-string",
        "M-float", "trace_stride-float", "output-stride-string", "problem-number",
        "p-missing", "dipole-center-string", "sum-empty"])
def test_parse_scenario_rejects_mistyped_fields(tmp_path, path, value):
    doc = blowup_config(tmp_path / "out")
    _set(doc, path, value)
    with pytest.raises(ConfigError, match=path[-1]):
        parse_scenario(doc)
    assert main(["run", str(write_config(tmp_path, doc))]) == 2
