"""The benchmark tracer (bench/tracer.py) wraps package attributes by name;
every one it names must exist, or a traced benchmark run fails to start,
and every one but the five known dead layers must still be reached."""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# layers that nothing in the package calls any more: the step assembles the
# reaction through Reaction and solves through ImexStepper's own LAPACK calls
# (dgtsv, or dgttrf and dgttrs for a repeated dt), not solve_banded, a trace
# record takes the Kaplan y as a weighted row sum (kaplan_weights), whose
# eigen-solve is principal_vector on the run's own A, not principal_eigenpair,
# and the scan runs in one thread, so it asks for no worker count
UNREACHED = {"operators.rhs", "operators.eigenpair", "solver.solve", "solver.kaplan",
             "cli.scan.workers"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # read-only: leave no bytecode cache under bench/
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = saved
    return tracer


def _targets():
    return [(layer, module, attr) for layer, targets in _load_tracer().TARGETS.items()
            for module, attr in targets]


@pytest.mark.parametrize("layer, module, attr", _targets(), ids=str)
def test_every_traced_attribute_resolves(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), \
        f"{layer}: {module}.{attr} does not exist"


def test_every_traced_layer_but_the_dead_pair_is_reached(tmp_path):
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        import fujitalab
        from fujitalab.cli import main
        from fujitalab.core import ProblemParams
        from fujitalab.grid import Field, RadialGrid
        from fujitalab.solver import SolveConfig

        scenario = {
            "problem": {"n": 1, "p": 2, "q": 2, "b": 1.0},
            "profile": {"kind": "gaussian", "amplitude": 1.0},
            "forcing": {"kind": "none"},
            "grid": {"L": 12.0, "M": 300},
            "solve": {"t_end": 50.0, "dt_init": 0.001, "dt_min": 1e-10,
                      "dt_max": 0.05, "kaplan_R": 3.0},
            "output": {"dir": str(tmp_path / "run"), "stride": 2},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        assert main(["run", str(path)]) == 0
        assert main(["scan", "--n", "1", "--p-range", "4", "6", "--q-range", "1.4", "1.8",
                     "--steps", "2", "--budget", "0.5", "--grid-m", "60",
                     "--out", str(tmp_path / "scan")]) == 0
        g = RadialGrid(1, 8.0, 100)
        fujitalab.run(ProblemParams(n=1, p=3, q=2), Field(g, np.exp(-g.nodes ** 2)), None,
                      SolveConfig(t_end=0.1))
        cert = fujitalab.gaussian_certificate(1, 4, 2, 1)
        fujitalab.gaussian_supersolution(cert, 1.0, g)
    finally:
        tracer.uninstall()
    reached = {span.name for span in tracer.spans}
    assert set(tracer_module.TARGETS) - reached == UNREACHED
    # the tracer names a scan point by its positional arguments 1 and 2, p and q;
    # the q = 1.4 points of this lattice are the blow-up points
    assert {span.item for span in tracer.spans if span.name == "cli.scan.point"} == {
        "p=4.0,q=1.4", "p=6.0,q=1.4"}
