import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

from fujitalab.core import ProblemParams
from fujitalab.grid import Field, ProfileSpec, RadialGrid, integrate, sample_profile
from fujitalab.operators import (banded_lu, banded_lu_solve,
                                 gradient_magnitude, laplacian,
                                 principal_eigenpair, rhs)


def bessel_j0(x: float, terms: int = 60) -> float:
    """Power series of J0, the oracle independent of the eigensolver."""
    acc = 0.0
    term = 1.0
    z = x * x / 4.0
    for m in range(terms):
        acc += term
        term *= -z / ((m + 1) ** 2)
    return acc


def first_j0_zero() -> float:
    lo, hi = 2.0, 3.0
    assert bessel_j0(lo) > 0 > bessel_j0(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bessel_j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("M", [2, 3, 500])
def test_laplacian_exact_for_quadratics(n, M):
    # M = 2 and 3: the boundary row's 3-point stencil reaches the center
    g = RadialGrid(n, 2.0, M)
    f = Field(g, 1.0 - g.nodes ** 2 / g.L ** 2)
    lap = laplacian(f)
    assert np.max(np.abs(lap.values - (-2.0 * n / g.L ** 2))) < 1e-10


def test_laplacian_gaussian_center():
    # n=1: Lap f(0) = f''(0) = -1/2 for f = e^{-r^2/4}
    g = RadialGrid(1, 12.0, 2000)
    f = sample_profile(ProfileSpec.gaussian(1.0), g)
    lap = laplacian(f)
    assert lap.values[0] == pytest.approx(-0.5, abs=5 * g.h_r ** 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_laplacian_matches_heat_kernel_time_derivative(n):
    # phi(t, r) = (t+1)^(-n/2) e^{-r^2/(4(t+1))} solves the heat equation,
    # so Lap phi equals the analytic phi_t
    t = 0.5
    g = RadialGrid(n, 12.0, 2000)
    r = g.nodes
    s = t + 1.0
    phi = s ** (-n / 2) * np.exp(-r * r / (4 * s))
    phi_t = phi * (-n / (2 * s) + r * r / (4 * s * s))
    lap = laplacian(Field(g, phi))
    # ignore the one-sided boundary node (values there are ~e^{-24})
    assert np.max(np.abs(lap.values[:-1] - phi_t[:-1])) < 10 * g.h_r ** 2


def test_gradient_constant_and_linear():
    g = RadialGrid(2, 4.0, 300)
    c = Field(g, np.full_like(g.nodes, 3.3))
    assert np.max(gradient_magnitude(c).values) < 1e-12
    lin = Field(g, 2.0 * g.nodes)
    gm = gradient_magnitude(lin)
    assert np.max(np.abs(gm.values[1:] - 2.0)) < 1e-12  # center is 0 by symmetry


def test_gradient_gaussian():
    g = RadialGrid(1, 12.0, 2000)
    f = sample_profile(ProfileSpec.gaussian(1.0), g)
    gm = gradient_magnitude(f).values
    exact = (g.nodes / 2.0) * np.exp(-g.nodes ** 2 / 4.0)
    assert np.max(np.abs(gm[1:] - exact[1:])) < 10 * g.h_r ** 2
    r_at_max = g.nodes[int(np.argmax(gm))]
    assert r_at_max == pytest.approx(math.sqrt(2.0), abs=2 * g.h_r)


def test_rhs_trivial_cases():
    g = RadialGrid(1, 5.0, 200)
    params = ProblemParams(n=1, p=2, q=2, b=1.0)
    zero = Field(g, np.zeros_like(g.nodes))
    assert np.all(rhs(zero, params).values == 0.0)
    const = Field(g, np.full_like(g.nodes, 3.0))
    out = rhs(const, params)
    assert np.max(np.abs(out.values - 9.0)) < 1e-12


def test_rhs_gaussian_composite():
    # analytic oracle: |u|^p + b |u_r|^q for u = e^{-r^2/4}, p = q = 2:
    # e^{-r^2/2} (1 + r^2/4); at r = sqrt(2) this is 1.5/e
    g = RadialGrid(1, 12.0, 3000)
    u = sample_profile(ProfileSpec.gaussian(1.0), g)
    params = ProblemParams(n=1, p=2, q=2, b=1.0)
    out = rhs(u, params).values
    exact = np.exp(-g.nodes ** 2 / 2.0) * (1.0 + g.nodes ** 2 / 4.0)
    assert np.max(np.abs(out[1:-1] - exact[1:-1])) < 10 * g.h_r ** 2
    at_sqrt2 = float(np.interp(math.sqrt(2), g.nodes, out))
    assert at_sqrt2 == pytest.approx(1.5 / math.e, abs=1e-4)


def test_rhs_at_the_boundary_node_uses_the_one_sided_gradient():
    # the step never reads the reaction at r = L; rhs still gives it there
    g = RadialGrid(2, 4.0, 200)
    u = Field(g, 1.5 - 0.3 * g.nodes - np.sin(g.nodes))
    h = Field(g, 0.2 + 0.1 * g.nodes)
    params = ProblemParams(n=2, p=3, q=1.5, b=0.7)
    g_L = gradient_magnitude(u).values[-1]
    assert g_L > 0.1
    want = abs(u.values[-1]) ** 3 + 0.7 * g_L ** 1.5 + h.values[-1]
    assert rhs(u, params, h).values[-1] == pytest.approx(want, rel=1e-14)


def test_rhs_uses_absolute_value_and_toggles():
    g = RadialGrid(1, 5.0, 200)
    neg = Field(g, np.full_like(g.nodes, -2.0))
    params = ProblemParams(n=1, p=3, q=2, b=1.0)
    out = rhs(neg, params)
    assert np.max(np.abs(out.values - 8.0)) < 1e-12  # |-2|^3, not (-2)^3
    off = ProblemParams(n=1, p=3, q=2, b=1.0, use_source=False, use_gradient=False)
    rng = np.random.default_rng(0)
    anything = Field(g, rng.normal(size=g.nodes.size))
    assert np.all(rhs(anything, off).values == 0.0)


def test_rhs_forcing_added():
    g = RadialGrid(1, 5.0, 200)
    params = ProblemParams(n=1, p=2, q=2, b=1.0, use_source=False, use_gradient=False)
    u = Field(g, np.zeros_like(g.nodes))
    h = Field(g, np.full_like(g.nodes, 0.7))
    assert np.all(rhs(u, params, h).values == 0.7)


def test_interior_maximum_principle_sanity():
    g = RadialGrid(2, 10.0, 1500)
    f = sample_profile(ProfileSpec.annular_bump(1.0, 4.0, 2.0), g)
    lap = laplacian(f)
    i = int(np.argmax(f.values))
    assert 0 < i < g.M + 1
    assert lap.values[i] <= 10 * g.h_r ** 2


def test_eigenpair_n1_analytic():
    pair = principal_eigenpair(1, 1.0, 2000)
    exact = math.pi ** 2 / 4.0
    assert pair.lam == pytest.approx(exact, rel=1e-4)
    # phi = (pi/4) cos(pi r / 2) is the mass-1 eigenfunction
    r = pair.phi.grid.nodes
    exact_phi = (math.pi / 4.0) * np.cos(math.pi * r / 2.0)
    assert np.max(np.abs(pair.phi.values - exact_phi)) < 1e-4
    assert abs(integrate(pair.phi) - 1.0) < 1e-10


@pytest.mark.parametrize("R", [1e-10, 1.0])
def test_eigenpair_converges_on_small_balls_and_wobbling_estimates(R):
    # R = 1 with M = 200 wobbles in the last bits of lam and never
    # stagnates; R = 1e-10 has lam ~ 1e20, whose residual scales with it
    pair = principal_eigenpair(1, R, 200)
    assert pair.lam * R * R == pytest.approx(math.pi ** 2 / 4.0, rel=1e-4)
    assert abs(integrate(pair.phi) - 1.0) < 1e-10


def test_eigenpair_n3_analytic():
    pair = principal_eigenpair(3, 1.0, 2000)
    assert pair.lam == pytest.approx(math.pi ** 2, rel=1e-4)
    r = pair.phi.grid.nodes[1:-1]
    exact_phi = np.sin(math.pi * r) / (4.0 * r)
    rel = np.max(np.abs(pair.phi.values[1:-1] - exact_phi)) / np.max(exact_phi)
    assert rel < 1e-4


def test_eigenpair_n2_bessel_oracle():
    j01 = first_j0_zero()
    assert j01 == pytest.approx(2.404825557695773, abs=1e-12)
    pair = principal_eigenpair(2, 1.0, 2000)
    assert pair.lam == pytest.approx(j01 ** 2, rel=1e-4)


def test_eigenpair_scaling_law():
    lams = []
    for R in (1.0, 2.0, 5.0):
        pair = principal_eigenpair(1, R, 2000)
        lams.append(pair.lam * R * R)
    assert (max(lams) - min(lams)) / lams[0] < 1e-6


def test_eigenpair_residual_and_positivity():
    pair = principal_eigenpair(2, 3.0, 1000)
    lap = laplacian(pair.phi)
    resid = np.max(np.abs(lap.values[:-1] + pair.lam * pair.phi.values[:-1]))
    assert resid / np.max(np.abs(pair.phi.values)) < 1e-6
    assert np.all(pair.phi.values[:-1] > 0)
    assert pair.phi.values[-1] == 0.0


def test_banded_lu_solve_bitwise_equals_solve_banded_with_pivoting():
    rng = np.random.default_rng(3)
    ab = rng.standard_normal((3, 200))
    ab[1, ::3] *= 1e-3  # small pivots force row interchanges
    b = rng.standard_normal(200)
    expected = solve_banded((1, 1), ab, b)
    assert np.array_equal(banded_lu_solve(banded_lu(ab), b.copy()), expected)


def test_banded_lu_singular_raises():
    ab = np.zeros((3, 5))
    ab[1] = [1.0, 1.0, 0.0, 1.0, 1.0]
    with pytest.raises(LinAlgError, match="singular matrix"):
        banded_lu(ab)
