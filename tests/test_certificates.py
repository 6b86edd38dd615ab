import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fujitalab import certificates
from fujitalab.certificates import (GaussianCertificate, certificate_to_json,
                                    gaussian_certificate,
                                    gaussian_supersolution, gradient_constant,
                                    kaplan_functional, kaplan_weights,
                                    ode_comparison, rate_exponents,
                                    stationary_certificate,
                                    supersolution_residual)
from fujitalab.core import ProblemParams
from fujitalab.grid import (Field, ProfileSpec, RadialGrid, integrate,
                            sample_profile)
from fujitalab.operators import laplacian_banded, principal_eigenpair
from fujitalab.solver import SolveConfig, SolveStatus, run


def ode_blowup_time_oracle(y0: float, p: float, a: float) -> float:
    """Adaptive integration of the linearized variable z = y^(1-p), which
    hits zero exactly at the blow-up time; independent of the closed form."""
    def rhs(_t, z):
        return [(1.0 - p) * (1.0 - a * z[0])]

    def hit_zero(_t, z):
        return z[0]
    hit_zero.terminal = True
    hit_zero.direction = -1

    horizon = 1e6
    sol = solve_ivp(rhs, (0.0, horizon), [y0 ** (1.0 - p)], events=hit_zero,
                    rtol=1e-12, atol=1e-14, method="RK45", max_step=horizon / 50)
    assert sol.t_events[0].size == 1, "oracle did not register blow-up"
    return float(sol.t_events[0][0])


# ---------------------------------------------------------------------------
# Kaplan functional + comparison ODE
# ---------------------------------------------------------------------------

def test_kaplan_functional_normalization():
    g = RadialGrid(1, 12.0, 1200)
    c = Field(g, np.full_like(g.nodes, 2.5))
    assert kaplan_functional(c, 1.0) == pytest.approx(2.5, rel=1e-10)


def test_kaplan_functional_self_integral():
    # int phi^2 = pi^2/16 for the mass-1 eigenfunction on (-1, 1)
    pair = principal_eigenpair(1, 1.0, 2000)
    y = kaplan_functional(pair.phi, 1.0)
    assert y == pytest.approx(math.pi ** 2 / 16.0, rel=1e-4)


def test_kaplan_functional_lower_bound():
    ell = 0.8
    g = RadialGrid(1, 12.0, 1200)
    u = Field(g, ell / 2.0 + sample_profile(ProfileSpec.gaussian(0.3), g).values)
    assert kaplan_functional(u, 2.0) >= ell / 2.0 - 1e-9


def test_kaplan_functional_rejects_incompatible():
    g = RadialGrid(2, 12.0, 100)
    with pytest.raises(ValueError, match="kaplan_R"):
        kaplan_functional(Field(g, np.zeros_like(g.nodes)), 1.5 * g.h_r)
    small = RadialGrid(1, 2.0, 100)
    with pytest.raises(ValueError, match="kaplan_R"):
        kaplan_functional(Field(small, np.zeros_like(small.nodes)), 5.0)


def kaplan_block(g, R):
    """m and the dense leading m x m block of -A, r_m the last node radius <= R."""
    m = int(np.flatnonzero(g.nodes <= R)[-1])
    ab = laplacian_banded(g)[0]
    return m, -(np.diag(ab[1, :m]) + np.diag(ab[0, 1:m], 1) + np.diag(ab[2, :m - 1], -1))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("M", [300, 1200])
@pytest.mark.parametrize("R", ["2h", 3.0, "L"])
def test_kaplan_weights_are_the_left_perron_vector_of_the_block(n, M, R):
    g = RadialGrid(n, 12.0, M)
    R = {"2h": 2.0 * g.h_r, "L": g.L}.get(R, R)
    w = kaplan_weights(g, R)
    m, block = kaplan_block(g, R)
    assert np.all(w[:m] > 0) and np.all(w[m:] == 0.0)
    assert w.sum() == pytest.approx(1.0, rel=0.0, abs=1e-14)
    # a positive left eigenvector of an irreducible M-matrix is the Perron one
    left = w[:m] @ block
    lam = left.sum()  # w sums to 1
    assert lam > 0
    assert np.max(np.abs(left - lam * w[:m])) <= 1e-6 * max(1.0, lam) * np.max(w)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("R", [3.0, 12.0])
@pytest.mark.parametrize("amplitude", [0.5, 5.0], ids=["decays", "blows-up"])
def test_kaplan_y_obeys_the_discrete_kaplan_inequality_at_every_step(n, R, amplitude):
    # a theta = 1 step from u >= 0, b >= 0, h = 0:
    # (1 + dt lam_m) y+ >= y + dt y^p up to rounding
    g = RadialGrid(n, 12.0, 300)
    p = 3.0
    out = run(ProblemParams(n=n, p=p, q=2, b=0.0),
              sample_profile(ProfileSpec.gaussian(amplitude), g), None,
              SolveConfig(t_end=2.0, trace_stride=1, kaplan_R=R))
    assert out.status is (SolveStatus.BLOW_UP if amplitude > 1 else SolveStatus.REACHED_HORIZON)
    m, block = kaplan_block(g, R)
    lam = float((kaplan_weights(g, R)[:m] @ block).sum())
    slack = [((1.0 + r1.dt * lam) * r1.kaplan_y - r0.kaplan_y - r1.dt * r0.kaplan_y ** p)
             / ((1.0 + r1.dt * lam) * r1.kaplan_y) for r0, r1 in zip(out.trace, out.trace[1:])]
    assert len(slack) > 50 and min(slack) >= -1e-12


def interpolated_kaplan(u, pair):
    """The Kaplan functional as interpolation onto the eigenpair grid,
    then quadrature there."""
    u_pair = np.interp(pair.phi.grid.nodes, u.grid.nodes, u.values)
    return integrate(Field(pair.phi.grid, u_pair * pair.phi.values))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("M", [300, 1200])
@pytest.mark.parametrize("R", [3.0, "L"])
def test_kaplan_weights_match_interpolation_then_quadrature(n, M, R):
    # the weights approximate int_{B_R'} u phi_R' dx, R' = r_m the last node
    # radius <= R, to the grid's discretization error h^2
    g = RadialGrid(n, 12.0, M)
    R = g.L if R == "L" else R
    pair = principal_eigenpair(n, float(g.nodes[g.nodes <= R][-1]), 4000)
    w = kaplan_weights(g, R)
    rng = np.random.default_rng(100 * n + M)
    for _ in range(4):
        u = Field(g, rng.uniform(0.5, 2.0) * np.exp(-g.nodes ** 2 / rng.uniform(1.0, 40.0)))
        got = float((u.values * w).sum())
        assert got == pytest.approx(interpolated_kaplan(u, pair), rel=g.h_r ** 2, abs=0.0)
        assert kaplan_functional(u, R) == got


def test_kaplan_functional_refuses_a_field_non_finite_outside_the_ball():
    g = RadialGrid(1, 12.0, 300)
    u = Field(g, np.ones_like(g.nodes))
    u.values[-1] = np.inf  # node M+1, r = L, outside B_3
    with pytest.raises(ValueError, match="non-finite"):
        kaplan_functional(u, 3.0)


def test_ode_comparison_closed_forms():
    v = ode_comparison(2.0, 2.0, 1.0, 1.0)
    assert v.blows_up
    assert v.t_star == pytest.approx(math.log(2.0), rel=1e-14)
    assert v.threshold == pytest.approx(1.0)

    eq = ode_comparison(1.0, 2.0, 1.0, 1.0)  # y0 exactly at the stationary level
    assert not eq.blows_up
    assert eq.t_star is None

    free = ode_comparison(1.0, 3.0, 0.0, 1.0)
    assert free.blows_up
    assert free.t_star == pytest.approx(0.5, rel=1e-14)


def test_ode_comparison_refuses_a_nonpositive_start():
    with pytest.raises(ValueError, match=r"need y0 > 0, p > 1, lam >= 0, R > 0"):
        ode_comparison(0.0, 2.0, 1.0, 1.0)


def test_ode_comparison_against_adaptive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = 1.0 + rng.uniform(0.2, 3.0)
        a = rng.uniform(0.05, 4.0)
        threshold = a ** (1.0 / (p - 1.0))
        y0 = threshold * rng.uniform(1.01, 4.0)
        v = ode_comparison(y0, p, a, 1.0)
        assert v.blows_up
        t_oracle = ode_blowup_time_oracle(y0, p, a)
        assert v.t_star == pytest.approx(t_oracle, rel=1e-8)


# ---------------------------------------------------------------------------
# Gaussian supersolution certificate
# ---------------------------------------------------------------------------

def test_gaussian_certificate_reference_point():
    cert = gaussian_certificate(1, 4, 2, 1)
    assert cert.k == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert cert.C_grad == pytest.approx(1.0 / math.e, rel=1e-9)
    assert cert.eps >= 0.2  # the round amplitude 0.2 is admissible
    assert cert.eps ** 3 + cert.C_grad * cert.eps <= cert.k
    assert cert.verified and cert.residual_min >= 0.0


@pytest.mark.parametrize("q", [1.001, 1.01, 1.1, 1.4, 1.6, 2.0, 3.0, 7.5, 30.0, 120.0, 300.0])
def test_gradient_constant_is_the_sampled_maximum(q):
    # max_{s>=0} s^q e^(-(q-1)s^2/4) sampled densely: on a coarse grid over
    # [0, 50] (the maximizer is below 45 for q >= 1.001), then on a fine
    # grid between the neighbours of the coarse argmax
    def f(s):
        with np.errstate(over="ignore", invalid="ignore"):
            return s ** q * np.exp(-(q - 1.0) * s * s / 4.0)
    coarse = np.linspace(0.0, 50.0, 200_001)
    i = int(np.nanargmax(f(coarse)))
    fine = np.linspace(coarse[i - 1], coarse[i + 1], 200_001)
    b = 0.7
    sampled = b * 2.0 ** (-q) * float(np.max(f(fine)))
    assert gradient_constant(q, b) == pytest.approx(sampled, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n, q", [(40, 1.03), (10, 1.1), (3, 1.3), (1, 1.6), (1, 2.0),
                                  (2, 30.0), (1, 300.0)])
def test_gaussian_certificate_uses_the_gradient_constant(n, q):
    cert = gaussian_certificate(n, 4.0, q, 0.7)
    assert cert.verified
    assert cert.C_grad == gradient_constant(q, 0.7)


def test_gaussian_certificate_bounds_hold():
    for (n, p, q, b) in ((1, 4, 2, 1), (2, 3, 1.5, 1), (3, 3, 2, 0.5), (1, 6, 1.7, 2)):
        cert = gaussian_certificate(n, p, q, b)
        assert 0 < cert.k < n / 2
        assert cert.k <= n / 2 - 1 / (p - 1) + 1e-15
        assert cert.k <= n / 2 + (q - 2) / (2 * (q - 1)) + 1e-15
        assert cert.verified


def test_gaussian_certificate_n2_example():
    cert = gaussian_certificate(2, 3, 1.5, 1)
    assert cert.k == pytest.approx(0.25, rel=1e-12)  # both bounds equal 1/2
    assert cert.verified and cert.residual_min >= 0.0


@pytest.mark.parametrize("n, p, q, b", [(20, 50.0, 1.0952, 0.7), (150, 4.0, 2.0, 1.0),
                                        (285, 4.0, 2.0, 1.0), (286, 1 + 2 / 286 + 2.5, 2.0, 1.0),
                                        (300, 1 + 2 / 300 + 2.5, 2.0, 1.0),
                                        (343, 1 + 2 / 343 + 2.5, 2.0, 1.0)])
def test_gaussian_certificate_verifies_at_large_n_or_p(n, p, q, b):
    # written as (t+1)^(kp) phi^p, the source term is inf * 0 at these points;
    # from n = 286 on, B_12 itself is out of float range, which the lattice
    # never integrates over
    cert = gaussian_certificate(n, p, q, b)
    assert cert.verified
    assert math.isfinite(cert.residual_min) and cert.residual_min >= 0.0


@pytest.mark.parametrize("n", [1, 3, 285])
def test_gaussian_lattice_has_the_nodes_of_the_dimensions_own_grid(n):
    assert certificates._LATTICE_GRID.nodes.tobytes() == RadialGrid(n, 12.0, 398).nodes.tobytes()


def test_gaussian_certificate_refusal_names_the_failing_residual(monkeypatch):
    # the lattice minimum passes, the late spot check is NaN
    residuals = iter([1e-17, math.nan])
    monkeypatch.setattr(certificates, "supersolution_residual",
                        lambda cert, times, grid: next(residuals))
    with pytest.raises(ValueError, match=r"\(min nan\)"):
        gaussian_certificate(1, 4, 2, 1)


def test_gaussian_certificate_refuses_bad_regime():
    with pytest.raises(ValueError, match="p <= p_F"):
        gaussian_certificate(1, 2, 2, 1)
    with pytest.raises(ValueError, match="q <="):
        gaussian_certificate(1, 4, 1.3, 1)


def _floats_around(x):
    """The largest float <= x and the smallest float > x."""
    f = float(x)
    if Fraction(f) > x:
        return math.nextafter(f, -math.inf), f
    return f, math.nextafter(f, math.inf)


def _refusal(build, *args):
    try:
        build(*args)
    except ValueError as exc:
        return str(exc)
    return ""


@pytest.mark.parametrize("build, dims, threshold, varies", [
    (gaussian_certificate, range(1, 21), lambda n: 1 + Fraction(2, n), "p"),
    (gaussian_certificate, range(1, 21), lambda n: 1 + Fraction(1, n + 1), "q"),
    (stationary_certificate, range(3, 21), lambda n: Fraction(n, n - 2), "p"),
    (stationary_certificate, range(3, 21), lambda n: Fraction(n, n - 1), "q"),
], ids=["gaussian-p_F", "gaussian-q_F", "stationary-n/(n-2)", "stationary-n/(n-1)"])
def test_certificate_hypotheses_compare_exactly(build, dims, threshold, varies):
    # a float just above an exact threshold passes the hypothesis (it may
    # still be refused, for its own reason); one at or below it fails it
    for n in dims:
        for value, fails in zip(_floats_around(threshold(n)), (True, False)):
            args = (n, value, 3.0, 1.0) if varies == "p" else (n, 5.0, value, 1.0)
            assert ("hypothesis failed" in _refusal(build, *args)) is fails, (n, value)


def test_residual_negative_when_eps_doubled():
    cert = gaussian_certificate(1, 4, 2, 1)
    k_max = 1.0 / 6.0  # binding bound for (1, 4, 2)
    grid = RadialGrid(1, 12.0, 398)
    times = np.linspace(0.0, 100.0, 400)
    # push eps far past the admissible value with k at the bound: the
    # inflated certificate must be rejected by the residual sign
    bad = GaussianCertificate(n=1, p=4.0, q=2.0, b=1.0, k=k_max,
                              eps=2.0 * 0.345, C_grad=cert.C_grad,
                              residual_min=math.nan, verified=False,
                              r_max=12.0, t_max=100.0, lattice_points=400)
    assert supersolution_residual(bad, times, grid) < 0.0


def test_residual_single_term_tight_case():
    # b = 0: only the source inequality binds; eps = k^(1/(p-1)) is the
    # tight admissible amplitude (residual zero at the worst point, up to
    # scalar rounding)
    n, p = 1, 4.0
    k = n / 2 - 1 / (p - 1)
    eps = k ** (1.0 / (p - 1.0))
    cert = GaussianCertificate(n=n, p=p, q=2.0, b=0.0, k=k, eps=eps,
                               C_grad=0.0, residual_min=math.nan,
                               verified=False, r_max=12.0, t_max=100.0,
                               lattice_points=400)
    grid = RadialGrid(n, 12.0, 398)
    times = np.linspace(0.0, 100.0, 400)
    assert supersolution_residual(cert, times, grid) >= -1e-14


def _lattice_residual_reference(cert, times, grid):
    """The whole-lattice expression the blocked residual must reproduce."""
    t = np.asarray(list(times), dtype=float)[:, None]
    r = grid.nodes[None, :]
    s = t + 1.0
    z = cert.eps * s ** (cert.k - cert.n / 2.0) * np.exp(-r * r / (4.0 * s))
    res = cert.k * z / s - z ** cert.p - cert.b * (z * r / (2.0 * s)) ** cert.q
    return float(res.min())


@pytest.mark.parametrize("n, p, q, b", [(1, 4.0, 2.0, 1.0), (1, 5.0, 1.55, 1.0),
                                        (3, 2.0, 2.0, 0.5), (2, 2.5, 1.7, 50.0),
                                        (8, 1.4, 1.3, 0.01), (5, 6.0, 3.5, 1e2)])
@pytest.mark.parametrize("count", [2, 7, 400, 401])
def test_blocked_residual_equals_the_whole_lattice_bit_for_bit(n, p, q, b, count):
    # 7 and 401 rows end in a partial block; 2 is the late spot check's size
    cert = gaussian_certificate(n, p, q, b)
    grid = RadialGrid(n, 12.0, 398)
    times = np.linspace(0.0, 400.0, count)
    assert supersolution_residual(cert, times, grid) == \
        _lattice_residual_reference(cert, times, grid)


def test_blocked_residual_propagates_nan():
    cert = dataclasses.replace(gaussian_certificate(1, 4, 2, 1), eps=math.nan)
    grid = RadialGrid(1, 12.0, 398)
    assert math.isnan(supersolution_residual(cert, np.linspace(0.0, 100.0, 400), grid))


def test_gaussian_certificate_traced_peak_stays_below_1_5_mb():
    # the lattice is checked in row blocks; the whole-lattice temporaries
    # of 400 x 400 floats peaked near 5 MB
    gaussian_certificate(1, 5.0, 1.55, 1.0)  # warm-up: imports, caches
    tracemalloc.start()
    try:
        gaussian_certificate(1, 5.0, 1.55, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_gaussian_supersolution_field_values():
    cert = gaussian_certificate(1, 4, 2, 1)
    g = RadialGrid(1, 12.0, 100)
    z0 = gaussian_supersolution(cert, 0.0, g)
    assert z0.values[0] == pytest.approx(cert.eps)
    z3 = gaussian_supersolution(cert, 3.0, g)
    assert z3.values[0] == pytest.approx(cert.eps * 4.0 ** (cert.k - 0.5))


# ---------------------------------------------------------------------------
# Stationary certificate
# ---------------------------------------------------------------------------

def test_stationary_certificate_reference_point():
    cert = stationary_certificate(3, 4, 2, 1, eps=0.03)
    assert cert.k == pytest.approx(5.0 / 12.0, rel=1e-12)
    decay = 2 * cert.k * (2 * (cert.k + 1) - 3)
    assert decay == pytest.approx(-5.0 / 36.0, rel=1e-12)
    assert cert.margin == pytest.approx(0.03 ** 3 + 4 * 0.03 - 5.0 / 36.0, rel=1e-9)
    assert cert.margin < 0
    assert np.all(cert.h.values > 0)


def test_stationary_certificate_default_eps_has_slack():
    cert = stationary_certificate(3, 4, 2, 1)
    decay = 2 * cert.k * (2 * (cert.k + 1) - 3)
    used = cert.eps ** 3 + 4.0 * cert.eps
    assert used <= 0.75 * abs(decay) * (1 + 1e-9)
    assert cert.margin < 0


def test_stationary_certificate_second_point():
    cert = stationary_certificate(4, 3, 2, 1)
    assert cert.k == pytest.approx(0.75, rel=1e-12)  # window (1/2, 1)
    assert cert.margin < 0
    assert np.all(cert.h.values > 0)


def test_stationary_certificate_refuses_empty_window():
    with pytest.raises(ValueError):
        stationary_certificate(3, 2, 2, 1)  # p <= n/(n-2)
    with pytest.raises(ValueError):
        stationary_certificate(2, 10, 2, 1)  # n < 3
    with pytest.raises(ValueError):
        stationary_certificate(3, 4, 1.4, 1)  # q <= n/(n-1)


@pytest.mark.parametrize("eps", [None, 0.03])
def test_stationary_certificate_refuses_negative_b(eps):
    # the eps bisection needs a margin increasing in eps, which b < 0 breaks
    with pytest.raises(ValueError, match=r"gradient coefficient b must be >= 0, got -0.01"):
        stationary_certificate(3, 4, 2, -0.01, eps=eps)


def test_stationary_certificate_refuses_a_grid_of_another_dimension():
    with pytest.raises(ValueError, match="grid dimension does not match the certificate"):
        stationary_certificate(3, 4, 2, 1, grid=RadialGrid(1, 12.0, 100))


def test_stationary_certificate_rejects_too_large_eps():
    with pytest.raises(ValueError, match="margin"):
        stationary_certificate(3, 4, 2, 1, eps=0.05)


def test_constructed_forcing_matches_difference_quotients():
    # independent check of the analytic h: compare -Lap v - v^p - b|v'|^q
    # computed with the discrete operators
    from fujitalab.operators import gradient_magnitude, laplacian
    g = RadialGrid(3, 12.0, 3000)
    cert = stationary_certificate(3, 4, 2, 1, grid=g, eps=0.03)
    num = (-laplacian(cert.v).values
           - np.abs(cert.v.values) ** 4
           - gradient_magnitude(cert.v).values ** 2)
    dev = np.max(np.abs(num[1:-1] - cert.h.values[1:-1]))
    assert dev < 10 * g.h_r ** 2


# ---------------------------------------------------------------------------
# Rate exponents
# ---------------------------------------------------------------------------

def test_rate_exponents_examples():
    re1 = rate_exponents(1, 4, 4 / 3)
    assert re1.r == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert abs(re1.combined) < 1e-12  # critical case (q-1)(np-1) = 1

    re2 = rate_exponents(1, 4, 1.2)
    assert re2.combined == pytest.approx(-1.0 / 9.0, rel=1e-12)

    re3 = rate_exponents(3, 2, 1.4)
    assert re3.inhom == pytest.approx(-2.0 / 7.0, rel=1e-12)


def test_rate_exponents_identities_random():
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        p = 1.0 + rng.uniform(1e-3, 9.0)
        q = 1.0 + rng.uniform(1e-3, 3.0)
        re = rate_exponents(n, p, q)
        scale = max(1.0, abs(re.combined))
        assert abs(re.e1 - re.e2) <= 1e-12 * scale
        assert abs(re.e1 - re.combined) <= 1e-12 * scale
        assert abs((re.e1 - 1.0) - re.inhom) <= 1e-12 * max(1.0, abs(re.inhom))


@pytest.mark.parametrize("n, p, q, message", [
    (0, 4, 2, "dimension n must be an integer >= 1, got 0"),
    (-2, 4, 2, "dimension n must be an integer >= 1, got -2"),
    (2.5, 4, 2, "dimension n must be an integer >= 1, got 2.5"),
    (1, math.inf, 2, "p must be finite, got inf"),
    (1, 3, math.inf, "q must be finite, got inf"),
    (1, 1, 2, "source exponent p must satisfy p > 1, got 1.0"),
    (1, 3, 0.5, "gradient exponent q must satisfy q >= 1, got 0.5"),
    (1, 3, 1, "rate exponents need q > 1, got 1.0"),
], ids=["n-0", "n-negative", "n-fractional", "p-inf", "q-inf", "p-1", "q-below-1", "q-1"])
def test_rate_exponents_refuse_what_problem_params_and_q_above_1_refuse(n, p, q, message):
    with pytest.raises(ValueError) as refusal:
        rate_exponents(n, p, q)
    assert str(refusal.value) == message


def test_rate_exponents_refuse_a_nan_exponent():
    # p(q-1) and q(p-1) both overflow to inf, so r is NaN
    with pytest.raises(AssertionError, match="three-way exponent identity"):
        rate_exponents(1, 1e308, 3)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_certificate_json_shapes():
    gc = gaussian_certificate(1, 4, 2, 1)
    doc = certificate_to_json(gc)
    assert doc["type"] == "gaussian_supersolution"
    assert set(doc) >= {"n", "p", "q", "b", "k", "eps", "residual_min", "verified"}

    sc = stationary_certificate(3, 4, 2, 1, eps=0.03)
    doc = certificate_to_json(sc)
    assert doc["type"] == "stationary_supersolution"
    assert doc["verified"] is True
    assert "margin" in doc

    with pytest.raises(TypeError, match="not a certificate"):
        certificate_to_json(object())
