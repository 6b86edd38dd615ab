import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

from fujitalab import solver
from fujitalab.core import ProblemParams
from fujitalab.certificates import kaplan_functional, kaplan_weights
from fujitalab.grid import (Field, Primitive, ProfileSpec, RadialGrid, integrate,
                            sample_profile)
from fujitalab.operators import (Reaction, gradient_magnitude, laplacian,
                                 laplacian_banded, rhs)
from fujitalab.solver import (ImexStepper, SolveConfig, SolveStatus,
                              TraceRecord, comparison_tolerance, detect_blowup,
                              heat_reference, run, run_batch, trace_to_csv)


def synthetic_trace(ts, sups):
    return [TraceRecord(t=float(t), dt=0.01, sup_u=float(s), inf_u=0.0,
                        l1_u=0.0, mean_u=0.0, sup_grad_u=0.0)
            for t, s in zip(ts, sups)]


def test_step_zero_equilibrium():
    g = RadialGrid(1, 8.0, 200)
    u = Field(g, np.zeros_like(g.nodes))
    params = ProblemParams(n=1, p=2, q=2, b=1.0)
    out = solver._step(ImexStepper(g, 1.0), u.values[None], 0.01, Reaction(g, [params]))
    assert np.all(out == 0.0)


def test_step_preserves_boundary_value():
    g = RadialGrid(3, 6.0, 300)
    u = sample_profile(ProfileSpec((Primitive("algebraic", amplitude=0.1, k=0.5),)), g)
    params = ProblemParams(n=3, p=2, q=2, b=1.0)
    out = solver._step(ImexStepper(g, 1.0), u.values[None], 1e-3, Reaction(g, [params]))
    assert out[0, -1] == u.values[-1]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_stepper_solve_bitwise_equals_solve_banded(n, theta):
    g = RadialGrid(n, 10.0, 300)
    ab, _ = laplacian_banded(g)
    stepper = ImexStepper(g, theta)
    rng = np.random.default_rng(7)
    for dt in (1e-7, 1e-4, 1e-3 * 1.2 ** 5 / 4, 5e-2, 3.0):
        a = -theta * dt * ab
        a[1] += 1.0
        b = rng.standard_normal(g.M + 1)
        expected = solve_banded((1, 1), a, b)
        for _ in range(3):  # a dgtsv miss, a fresh factorization, the kept one
            assert np.array_equal(stepper.solve(dt, b.copy()), expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 11, 50, 300])
@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_implicit_solve_keeps_nonnegative_data_nonnegative(n, theta):
    # I - theta dt A is an M-matrix, so its inverse has no negative entry
    g = RadialGrid(n, 12.0 if n <= 11 else 10.6, 300)
    stepper = ImexStepper(g, theta)
    for dt in (1e-4, 1e-3, 1e-2, 5e-2, 1.0):
        inverse = stepper.solve(dt, np.eye(g.M + 1, order="F"))
        assert inverse.min() >= 0.0, dt
        assert np.all(np.diag(inverse) > 0), dt


@pytest.mark.parametrize("n", [8, 11])
def test_pure_heat_from_a_central_bump_stays_nonnegative(n):
    g = RadialGrid(n, 12.0, 300)
    u0 = sample_profile(ProfileSpec.annular_bump(1.0, 0.0, 3 * g.h_r), g)
    params = ProblemParams(n=n, p=2, q=2, b=0.0, use_source=False, use_gradient=False)
    out = run(params, u0, None, SolveConfig(t_end=0.05))
    assert out.status is SolveStatus.REACHED_HORIZON
    assert min(rec.inf_u for rec in out.trace) >= 0.0
    assert out.final_field.values.min() >= 0.0


def reference_step(u, dt, params, h, theta, banded):
    """One theta step of one field from public pieces: the reaction at every
    node from ``rhs``, the Laplacian, and ``solve_banded`` on ``banded``, the
    grid's ``laplacian_banded``."""
    ab, c_boundary = banded
    v = u.values
    b = rhs(u, params, h).values[:-1] * dt + v[:-1]
    if theta < 1.0:
        b += dt * (1.0 - theta) * laplacian(u).values[:-1]
    b[-1] += theta * dt * c_boundary * v[-1]
    a = -theta * dt * ab
    a[1] += 1.0
    return np.append(solve_banded((1, 1), a, b), v[-1])


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("M", [2, 3, 60, 301])
@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_step_rows_equal_a_reference_from_public_pieces(n, M, theta):
    # the step assembles the reaction at the unknowns 0..M only; each finite
    # row must still equal the step built on rhs over every node, bit for bit
    g = RadialGrid(n, 3.0, M)
    stepper = ImexStepper(g, theta)
    banded = laplacian_banded(g)
    rng = np.random.default_rng(100 * n + M)
    for K, forced, source, gradient, b in itertools.product(
            [1, 3, 8], [False, True], [False, True], [False, True], [0.0, 0.7, 1.0]):
        params = [ProblemParams(n, p, q, b, source, gradient) for p, q in zip(
            rng.choice([1.5, 2.0, 3.7], K), rng.choice([1.0, 1.3, 2.0, 2.5], K))]
        h = Field(g, rng.standard_normal(M + 2)) if forced else None
        v = 2.0 * rng.standard_normal((K, M + 2))
        v[:, -1] = rng.standard_normal()  # a nonzero boundary value
        if K > 1:
            v[1, M // 2] = np.inf
        dt = float(rng.choice([1e-3, 0.03]))
        out = solver._step(stepper, v, dt, Reaction(g, params, h))
        for row, prm, got in zip(v, params, out):
            if np.all(np.isfinite(row)):
                want = reference_step(Field(g, row), dt, prm, h, theta, banded)
                assert np.array_equal(got, want)
            else:
                assert not np.all(np.isfinite(got[:-1]))


@pytest.fixture
def factored(monkeypatch):
    """Diagonal heads of every matrix the solver factors during a test."""
    seen = []
    real = solver.dgttrf

    def counting_dgttrf(dl, d, du, *args, **kwargs):
        seen.append(d[0])
        return real(dl, d, du, *args, **kwargs)

    monkeypatch.setattr(solver, "dgttrf", counting_dgttrf)
    return seen


def test_stepper_reuses_factors_of_a_repeated_dt(factored):
    g = RadialGrid(2, 8.0, 300)
    stepper = ImexStepper(g, 1.0)
    b = np.linspace(0.0, 1.0, g.M + 1)
    first = stepper.solve(1e-3, b.copy())
    assert factored == []  # a dt seen once is solved by dgtsv
    again = stepper.solve(1e-3, b.copy())
    assert np.array_equal(stepper.solve(1e-3, b.copy()), again)
    assert len(factored) == 1
    assert np.array_equal(first, again)
    # a new dt is solved without factors: returning to 1e-3 after 2e-3 is a miss
    stepper.solve(2e-3, b.copy())
    assert np.array_equal(stepper.solve(1e-3, b.copy()), first)
    assert len(factored) == 1


def test_stepper_solves_bitwise_as_solve_banded_with_pivoting():
    rng = np.random.default_rng(3)
    stepper = ImexStepper(RadialGrid(1, 1.0, 198), 1.0)
    stepper.ab = rng.standard_normal((3, 200))
    stepper.ab[1, ::3] = 1.0 - 1e-3 * stepper.ab[1, ::3]  # small pivots of I - A
    band = -stepper.ab
    band[1] += 1.0  # I - theta dt A at theta = dt = 1, rounded as the stepper does
    b = rng.standard_normal(200)
    expected = solve_banded((1, 1), band, b)
    # the dgtsv miss, the repeat that factors, then a hit on the kept factors
    for _ in range(3):
        assert np.array_equal(stepper.solve(1.0, b.copy()), expected)
    assert np.any(stepper._lu[-1] != np.arange(1, 201))  # rows were interchanged


def test_stepper_refuses_a_singular_system():
    stepper = ImexStepper(RadialGrid(1, 1.0, 4), 1.0)
    stepper.ab = np.zeros_like(stepper.ab)
    stepper.ab[1] = 1.0  # I - dt A is the zero matrix at dt = 1
    for _ in range(2):  # the dgtsv miss, then the repeat that factors
        with pytest.raises(LinAlgError, match="singular matrix"):
            stepper.solve(1.0, np.ones(5))


def test_run_factors_each_distinct_dt_once(factored):
    g = RadialGrid(1, 12.0, 300)
    u0 = sample_profile(ProfileSpec.gaussian(0.05), g)
    u0.values[-1] = 0.0
    cfg = SolveConfig(t_end=1.0, dt_init=1e-3, dt_max=1e-2, trace_stride=10)
    out = run(ProblemParams(n=1, p=4, q=2, b=1.0), u0, None, cfg)
    assert out.status is SolveStatus.REACHED_HORIZON
    # the ramp 1e-3 * 1.2^k and a shortened last step are each used once,
    # so dgtsv solves them; only dt_max repeats, and it is factored once
    assert factored == [1.0 - cfg.dt_max * solver.ImexStepper(g, 1.0).ab[1, 0]]


def test_heat_reference_values():
    g = RadialGrid(2, 12.0, 100)
    assert heat_reference(0.0, g).values[0] == pytest.approx(1.0)
    assert heat_reference(3.0, g).values[0] == pytest.approx(0.25)
    g1 = RadialGrid(1, 12.0, 1199)  # h = 0.01, so r = 2.0 is a node
    f = heat_reference(1.0, g1)
    at_r2 = f.values[200]
    assert g1.nodes[200] == pytest.approx(2.0, abs=1e-13)
    assert at_r2 == pytest.approx(2 ** -0.5 * math.exp(-0.5), abs=1e-12)


def test_pure_heat_tracks_reference():
    g = RadialGrid(1, 12.0, 600)
    u0 = heat_reference(0.0, g)
    u0.values[-1] = 0.0
    params = ProblemParams(n=1, p=2, q=2, use_source=False, use_gradient=False)
    cfg = SolveConfig(t_end=1.0, dt_init=1e-3, dt_min=1e-3, dt_max=1e-3,
                      theta_scheme=0.5, trace_stride=100)
    out = run(params, u0, None, cfg)
    assert out.status is SolveStatus.REACHED_HORIZON
    ref = heat_reference(1.0, g)
    assert np.max(np.abs(out.final_field.values - ref.values)) < 5e-5


def test_comparison_principle_between_runs():
    g = RadialGrid(1, 12.0, 400)
    params = ProblemParams(n=1, p=4, q=2, b=1.0)
    cfg = SolveConfig(t_end=2.0, dt_init=1e-3, dt_min=1e-3, dt_max=1e-3,
                      trace_stride=50, store_fields=True)
    runs = {}
    for amp in (0.05, 0.1):
        u0 = sample_profile(ProfileSpec.gaussian(amp), g)
        u0.values[-1] = 0.0
        runs[amp] = run(params, u0, None, cfg)
    tol = comparison_tolerance(g, cfg)
    snaps_a = dict(runs[0.05].snapshots)
    snaps_b = dict(runs[0.1].snapshots)
    shared = sorted(set(snaps_a) & set(snaps_b))
    assert len(shared) >= 5
    for t in shared:
        assert np.all(snaps_a[t].values <= snaps_b[t].values + tol)


def test_positivity_preserved():
    g = RadialGrid(2, 12.0, 400)
    u0 = sample_profile(ProfileSpec.gaussian(0.5), g)
    u0.values[-1] = 0.0
    params = ProblemParams(n=2, p=3, q=1.5, b=1.0)
    cfg = SolveConfig(t_end=2.0, dt_init=1e-3, dt_min=1e-6, dt_max=1e-2,
                      trace_stride=10, store_fields=True)
    out = run(params, u0, None, cfg)
    tol = comparison_tolerance(g, cfg)
    for _, u in out.snapshots:
        assert np.min(u.values) >= -tol


def test_mass_monotone_while_boundary_negligible():
    g = RadialGrid(1, 12.0, 600)
    u0 = sample_profile(ProfileSpec.gaussian(0.1), g)
    u0.values[-1] = 0.0
    params = ProblemParams(n=1, p=4, q=2, b=1.0)
    cfg = SolveConfig(t_end=1.5, dt_init=1e-3, dt_min=1e-3, dt_max=1e-3,
                      trace_stride=100, store_fields=True)
    out = run(params, u0, None, cfg)
    for _, u in out.snapshots:
        assert abs(u.values[-2]) < 1e-8  # boundary cell stays negligible
    means = [rec.mean_u for rec in out.trace]
    for a, b in zip(means, means[1:]):
        assert b >= a - 1e-8


def test_vhj_maximum_principles_short():
    g = RadialGrid(1, 20.0, 1000)
    u0 = sample_profile(ProfileSpec.gaussian(1.0), g)
    u0.values[-1] = 0.0
    params = ProblemParams(n=1, p=2, q=1.5, b=1.0, use_source=False)
    cfg = SolveConfig(t_end=2.0, dt_init=1e-3, dt_min=1e-6, dt_max=1e-2,
                      trace_stride=10)
    out = run(params, u0, None, cfg)
    sups = [rec.sup_u for rec in out.trace]
    grads = [rec.sup_grad_u for rec in out.trace]
    assert all(b <= a + 1e-6 for a, b in zip(sups, sups[1:]))
    assert all(b <= a + 1e-6 for a, b in zip(grads, grads[1:]))


def test_blowup_run_and_estimate():
    g = RadialGrid(1, 12.0, 300)
    u0 = sample_profile(ProfileSpec.gaussian(1.0), g)
    u0.values[-1] = 0.0
    params = ProblemParams(n=1, p=2, q=2, b=1.0)
    cfg = SolveConfig(t_end=50.0, dt_init=1e-3, dt_min=1e-10, dt_max=5e-2,
                      trace_stride=2)
    out = run(params, u0, None, cfg)
    assert out.status is SolveStatus.BLOW_UP
    assert out.t_star_estimate is not None
    assert out.t_last_finite is not None
    assert out.t_star_estimate >= out.t_last_finite
    assert all(np.isfinite(rec.sup_u) for rec in out.trace)


def test_step_floor_stall_when_unresolvable():
    # growth capped so tightly that the heat equation itself cannot take a
    # step above the floor: an unresolvable stall, not a blow-up verdict
    g = RadialGrid(1, 12.0, 200)
    u0 = sample_profile(ProfileSpec.gaussian(1.0), g)
    u0.values[-1] = 0.0
    params = ProblemParams(n=1, p=4, q=1.3, b=1.0)
    cfg = SolveConfig(t_end=50.0, dt_init=1e-5, dt_min=9.9e-6, dt_max=1e-4,
                      growth_cap=1e-12, trace_stride=1)
    out = run(params, u0, None, cfg)
    assert out.status is SolveStatus.STEP_FLOOR_STALL
    assert out.t_stall is not None


def test_detect_blowup_synthetic_p2():
    ts = np.linspace(0.0, 0.99, 34)
    tr = synthetic_trace(ts, (1.0 - ts) ** -1.0)
    est = detect_blowup(tr, 2.0)
    assert est is not None
    t_star, quality = est
    assert t_star == pytest.approx(1.0, abs=1e-3)
    assert quality < 1e-8


def test_detect_blowup_synthetic_p4():
    ts = np.linspace(0.0, 1.99, 41)
    tr = synthetic_trace(ts, (2.0 - ts) ** (-1.0 / 3.0))
    est = detect_blowup(tr, 4.0)
    assert est is not None
    assert est[0] == pytest.approx(2.0, abs=1e-2)


def test_detect_blowup_bounded_none():
    ts = np.linspace(0.0, 10.0, 30)
    tr = synthetic_trace(ts, 1.0 - 0.05 * np.tanh(ts))
    assert detect_blowup(tr, 2.0) is None
    grow_but_flat = synthetic_trace(ts, 1.0 + 0.1 * np.tanh(ts))
    assert detect_blowup(grow_but_flat, 2.0) is None


def test_trace_csv_header_and_shape():
    ts = np.linspace(0.0, 1.0, 5)
    tr = synthetic_trace(ts, np.ones_like(ts))
    text = trace_to_csv(tr)
    lines = text.strip().split("\n")
    assert lines[0] == "t,dt,sup_u,inf_u,l1_u,mean_u,sup_grad_u,kaplan_y"
    assert len(lines) == 6
    assert lines[1].endswith(",")  # kaplan column empty when not configured


def test_kaplan_monitor_recorded():
    g = RadialGrid(1, 12.0, 300)
    u0 = sample_profile(ProfileSpec.gaussian(0.5), g)
    u0.values[-1] = 0.0
    params = ProblemParams(n=1, p=4, q=2, b=1.0)
    cfg = SolveConfig(t_end=0.5, dt_init=1e-3, dt_min=1e-4, dt_max=1e-2,
                      trace_stride=10, kaplan_R=3.0)
    out = run(params, u0, None, cfg)
    assert all(rec.kaplan_y is not None for rec in out.trace)
    assert out.trace[0].kaplan_y > 0


@pytest.mark.parametrize("K", [1, 3, 32])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("M", [300, 1200])
@pytest.mark.parametrize("kaplan", [False, True], ids=["no-kaplan", "kaplan"])
def test_record_rows_equal_the_one_field_functions(K, n, M, kaplan):
    g = RadialGrid(n, 12.0, M)
    rng = np.random.default_rng(K * n * M)
    v = rng.standard_normal((K, M + 2)) * np.exp(-g.nodes ** 2 / rng.uniform(1.0, 40.0))
    records = solver._record(0.25, 1e-3, v, g, kaplan_weights(g, 3.0) if kaplan else None)
    assert len(records) == K
    for rec, row in zip(records, v):
        u = Field(g, row)
        want = TraceRecord(
            t=0.25, dt=1e-3, sup_u=float(np.max(row)), inf_u=float(np.min(row)),
            l1_u=integrate(Field(g, np.abs(row))), mean_u=integrate(u),
            sup_grad_u=float(np.max(gradient_magnitude(u).values)),
            kaplan_y=kaplan_functional(u, 3.0) if kaplan else None)
        assert rec == want


def test_record_reads_the_gradient_at_the_boundary_node():
    # u = L^2 - r^2 is steepest at r = L, where only the one-sided
    # difference sees it
    g = RadialGrid(1, 5.0, 100)
    u = Field(g, 25.0 - g.nodes ** 2)
    g_L = gradient_magnitude(u).values[-1]
    assert g_L > np.max(gradient_magnitude(u).values[:-1])
    (rec,) = solver._record(0.0, 1e-3, u.values[None], g, None)
    assert rec.sup_grad_u == g_L


def test_run_steps_to_a_horizon_below_1e_14():
    g = RadialGrid(1, 12.0, 100)
    out = run(ProblemParams(n=1, p=3, q=2), gaussian_data(g, [1.0])[0], None,
              SolveConfig(t_end=1e-15))
    assert out.status is SolveStatus.REACHED_HORIZON
    assert len(out.trace) >= 2 and out.trace[-1].t == 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_run_refuses_non_finite_initial_data(bad):
    g = RadialGrid(1, 12.0, 100)
    u0 = gaussian_data(g, [1.0])[0]
    u0.values[10] = bad
    with pytest.raises(ValueError, match="non-finite initial data"):
        run(ProblemParams(n=1, p=3, q=2), u0, None, SolveConfig(t_end=0.1))


def assert_same_outcome(got, want):
    """Bit-for-bit equality of two outcomes: status, estimates, trace,
    final field and snapshots."""
    assert got.status is want.status
    assert ((got.t_star_estimate, got.fit_quality, got.t_last_finite, got.t_stall)
            == (want.t_star_estimate, want.fit_quality, want.t_last_finite,
                want.t_stall))
    assert trace_to_csv(got.trace) == trace_to_csv(want.trace)
    assert got.final_field.values.tobytes() == want.final_field.values.tobytes()
    assert (got.snapshots is None) == (want.snapshots is None)
    for (t_got, u_got), (t_want, u_want) in zip(got.snapshots or [], want.snapshots or []):
        assert t_got == t_want
        assert u_got.values.tobytes() == u_want.values.tobytes()
    assert len(got.snapshots or []) == len(want.snapshots or [])


def gaussian_data(g, amplitudes):
    fields = []
    for amp in amplitudes:
        u0 = sample_profile(ProfileSpec.gaussian(amp), g)
        u0.values[-1] = 0.0
        fields.append(u0)
    return fields


@pytest.mark.parametrize("n, forced", [(1, False), (3, False), (1, True), (3, True)],
                         ids=["1", "3", "1-forced", "3-forced"])
def test_run_batch_columns_equal_run(n, forced):
    g = RadialGrid(n, 12.0, 200)
    # exponents 2.0 and 1.0 take numpy's scalar fast paths in a lone run
    pq = [(2.0, 1.0), (4.0, 2.0), (4.0, 1.7), (6.5, 2.0), (6.5, 3.0)]
    params = [ProblemParams(n=n, p=p, q=q) for p, q in pq]
    u0s = gaussian_data(g, [0.02, 0.05, 0.03, 0.05, 0.04])
    h = sample_profile(ProfileSpec.gaussian(0.01), g) if forced else None
    cfg = SolveConfig(t_end=1.0, dt_init=1e-3, dt_min=1e-9, dt_max=5e-3,
                      trace_stride=7, kaplan_R=3.0, store_fields=True)
    for got, prm, u0 in zip(run_batch(params, u0s, cfg, h), params, u0s):
        assert_same_outcome(got, run(prm, u0, h, cfg))


def test_run_batch_splits_off_rejected_columns_without_rerunning_them(monkeypatch):
    g = RadialGrid(1, 12.0, 200)
    params = [ProblemParams(n=1, p=2, q=2), ProblemParams(n=1, p=4, q=2),
              ProblemParams(n=1, p=3, q=1.5)]
    # the large data grow past the tight growth cap and then blow up; the
    # small datum stays bounded and is carried by the batch to the horizon
    u0s = gaussian_data(g, [2.0, 0.05, 1.0])
    cfg = SolveConfig(t_end=3.0, dt_init=1e-3, dt_min=1e-10, dt_max=2e-2,
                      growth_cap=0.05, trace_stride=5, store_fields=True)
    reruns = []

    def spy(prm, u0, h, config):
        reruns.append(prm.p)
        return run(prm, u0, h, config)

    monkeypatch.setattr(solver, "run", spy)
    outcomes = run_batch(params, u0s, cfg)
    assert reruns == []
    assert [o.status for o in outcomes] == [SolveStatus.BLOW_UP,
                                            SolveStatus.REACHED_HORIZON,
                                            SolveStatus.BLOW_UP]
    for got, prm, u0 in zip(outcomes, params, u0s):
        assert_same_outcome(got, run(prm, u0, None, cfg))


def mixed_batches():
    """Six seeded batches whose columns part: tight growth caps and
    amplitudes over three decades make some steps rejected for a few columns
    only.  Yields (params, u0s, h, config) with fields stored."""
    rng = np.random.default_rng(8)
    for case in range(6):
        n = int(rng.integers(1, 4))
        g = RadialGrid(n, 12.0, int(rng.integers(60, 160)))
        size = int(rng.integers(3, 7))
        params = [ProblemParams(n=n, p=float(rng.choice([2.0, rng.uniform(1.2, 6.0)])),
                                q=float(rng.choice([1.0, 2.0, rng.uniform(1.05, 3.0)])))
                  for _ in range(size)]
        u0s = gaussian_data(g, 10.0 ** rng.uniform(math.log10(0.02), math.log10(50.0), size))
        h = sample_profile(ProfileSpec.gaussian(0.01), g) if case % 2 else None
        cfg = SolveConfig(t_end=1.0, dt_init=1e-3, dt_min=1e-8, dt_max=1e-2,
                          growth_cap=float(rng.choice([0.02, 0.05, 0.2])),
                          theta_scheme=float(rng.choice([1.0, 0.5])),
                          trace_stride=int(rng.integers(1, 6)),
                          kaplan_R=3.0 if case % 3 == 0 else None, store_fields=True)
        yield params, u0s, h, cfg


def test_run_batch_columns_equal_run_on_mixed_batches(monkeypatch):
    parts = []
    take = solver._Block.take

    def spy(block, rows):
        parts.append(0 < len(rows) < len(block.cols))
        return take(block, rows)

    monkeypatch.setattr(solver._Block, "take", spy)
    for params, u0s, h, cfg in mixed_batches():
        for got, prm, u0 in zip(run_batch(params, u0s, cfg, h), params, u0s):
            assert_same_outcome(got, run(prm, u0, h, cfg))
    assert any(parts)


def test_run_batch_watch_sees_exactly_the_snapshots():
    statuses = set()
    for params, u0s, h, cfg in mixed_batches():
        seen = [[] for _ in params]

        def watch(k, t, row):
            seen[k].append((t, row.tobytes()))

        # the watched run stores no fields; its rows must be the stored run's
        watched = run_batch(params, u0s, dataclasses.replace(cfg, store_fields=False), h,
                            watch=watch)
        stored = run_batch(params, u0s, cfg, h)
        for got, want, rows in zip(watched, stored, seen):
            assert got.snapshots is None
            assert rows == [(t, u.values.tobytes()) for t, u in want.snapshots]
            statuses.add(want.status)
    # the batches end in every status, so every path that records is watched
    assert statuses == set(SolveStatus)


def test_run_batch_ends_a_column_at_the_blowup_threshold_in_place(monkeypatch):
    g = RadialGrid(1, 12.0, 200)
    params = [ProblemParams(n=1, p=2, q=2), ProblemParams(n=1, p=4, q=2)]
    # with a loose growth cap the large datum is accepted up to the threshold
    u0s = gaussian_data(g, [2.0, 0.05])
    cfg = SolveConfig(t_end=3.0, dt_init=1e-3, dt_min=1e-10, dt_max=2e-2,
                      blowup_threshold=1e4, growth_cap=100.0, trace_stride=5,
                      store_fields=True)
    reruns = []

    def spy(prm, u0, h, config):
        reruns.append(prm.p)
        return run(prm, u0, h, config)

    monkeypatch.setattr(solver, "run", spy)
    outcomes = run_batch(params, u0s, cfg)
    assert reruns == []
    assert [o.status for o in outcomes] == [SolveStatus.BLOW_UP,
                                            SolveStatus.REACHED_HORIZON]
    for got, prm, u0 in zip(outcomes, params, u0s):
        assert_same_outcome(got, run(prm, u0, None, cfg))


def test_a_column_ends_blowup_only_after_a_step_it_took():
    g = RadialGrid(1, 12.0, 200)
    params = [ProblemParams(n=1, p=2, q=2)] * 3 + [ProblemParams(n=1, p=4, q=2)]
    # the first two data start above the blow-up threshold and their first
    # steps are rejected; the last two are ordinary
    u0s = gaussian_data(g, [2e8, 1e9, 1.0, 0.05])
    cfg = SolveConfig(t_end=1.0, blowup_threshold=1e8, trace_stride=5, store_fields=True)
    outcomes = run_batch(params, u0s, cfg)
    for got, prm, u0 in zip(outcomes, params, u0s):
        assert_same_outcome(got, run(prm, u0, None, cfg))
        assert got.status is not SolveStatus.BLOW_UP or got.t_last_finite > 0.0
    high = [(o.status, o.t_last_finite, o.t_stall) for o in outcomes[:2]]
    assert high == [(SolveStatus.BLOW_UP, outcomes[0].trace[-1].t, None),
                    (SolveStatus.STEP_FLOOR_STALL, None, 0.0)]
    assert len(outcomes[1].trace) == 1


def test_run_batch_of_one_equals_run():
    g = RadialGrid(2, 12.0, 200)
    params = ProblemParams(n=2, p=3, q=2.5)
    u0 = gaussian_data(g, [0.1])[0]
    cfg = SolveConfig(t_end=1.0, dt_init=1e-3, dt_max=1e-2, theta_scheme=0.5,
                      trace_stride=3)
    (got,) = run_batch([params], [u0], cfg)
    assert_same_outcome(got, run(params, u0, None, cfg))


def test_run_batch_rejects_mixed_problems():
    g = RadialGrid(1, 12.0, 200)
    u0s = gaussian_data(g, [0.1, 0.1])
    cfg = SolveConfig(t_end=0.1)
    with pytest.raises(ValueError, match="one n, b"):
        run_batch([ProblemParams(n=1, p=3, q=2), ProblemParams(n=1, p=3, q=2, b=2.0)],
                  u0s, cfg)
    with pytest.raises(ValueError, match="one grid"):
        run_batch([ProblemParams(n=1, p=3, q=2)] * 2,
                  [u0s[0], gaussian_data(RadialGrid(1, 12.0, 300), [0.1])[0]], cfg)


@pytest.mark.parametrize("columns, forcing_m, kaplan_R, message", [
    (2, None, None, "one initial field per problem"),
    (1, 300, None, "different grids"),
    (1, None, 13.0, "kaplan_R: expected two grid cells"),
    (1, None, 1e-300, "kaplan_R: expected two grid cells"),
], ids=["lengths", "forcing-grid", "kaplan_R-beyond-L", "kaplan_R-below-one-cell"])
def test_run_batch_refusals(columns, forcing_m, kaplan_R, message):
    u0s = gaussian_data(RadialGrid(1, 12.0, 200), [0.1])
    h = None
    if forcing_m is not None:
        other = RadialGrid(1, 12.0, forcing_m)
        h = Field(other, np.zeros_like(other.nodes))
    with pytest.raises(ValueError, match=message):
        run_batch([ProblemParams(n=1, p=3, q=2)] * columns, u0s,
                  SolveConfig(t_end=0.1, kaplan_R=kaplan_R), h)


@pytest.mark.parametrize("kaplan_R", [-1.0, 0.0, math.nan, math.inf])
def test_solve_config_refuses_a_kaplan_radius_that_is_not_finite_and_positive(kaplan_R):
    with pytest.raises(ValueError, match="kaplan_R must be finite and > 0"):
        SolveConfig(kaplan_R=kaplan_R)
