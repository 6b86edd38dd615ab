import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv

from fujitalab import operators
from fujitalab.core import ProblemParams
from fujitalab.grid import Field, ProfileSpec, RadialGrid, integrate, sample_profile
from fujitalab.operators import (gradient_magnitude, laplacian, laplacian_banded,
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


def ghost_node_banded(grid):
    """The nonconservative stencil 1/h^2 -+ (n-1)/(2 h r_i), with the ghost-node
    center row 2n (f_1 - f_0)/h^2, in ``laplacian_banded``'s layout."""
    h, n, m = grid.h_r, grid.n, grid.M + 1
    ab = np.zeros((3, m))
    ri = grid.nodes[1:m]
    c_minus = 1.0 / h ** 2 - (n - 1) / (2.0 * h * ri)
    c_plus = 1.0 / h ** 2 + (n - 1) / (2.0 * h * ri)
    ab[1, 0] = -2.0 * n / h ** 2
    ab[0, 1] = 2.0 * n / h ** 2
    ab[1, 1:] = -2.0 / h ** 2
    ab[2, 0:m - 1] = c_minus
    ab[0, 2:] = c_plus[:-1]
    return ab, float(c_plus[-1])


@pytest.mark.parametrize("L, M", [(12.0, 300), (12.0, 1200), (10.6, 400), (1.0, 2000),
                                  (3.0, 150), (1e-10, 200)])
def test_laplacian_banded_is_the_ghost_node_stencil_bit_for_bit_at_n1(L, M):
    g = RadialGrid(1, L, M)
    ab, c_boundary = laplacian_banded(g)
    want, want_boundary = ghost_node_banded(g)
    assert np.array_equal(ab, want)
    assert c_boundary == want_boundary


@pytest.mark.parametrize("L, M", [(12.0, 300), (12.0, 1200), (1.0, 2000), (3.0, 150)])
def test_laplacian_banded_matches_the_ghost_node_stencil_at_n2(L, M):
    # at n = 2 the conservative entries equal 1/h^2 -+ 1/(2 h r_i) up to rounding
    g = RadialGrid(2, L, M)
    ab, c_boundary = laplacian_banded(g)
    want, want_boundary = ghost_node_banded(g)
    assert np.max(np.abs(ab - want) / np.maximum(np.abs(want), 1e-300)) < 1e-15
    assert c_boundary == pytest.approx(want_boundary, rel=1e-15)


@pytest.mark.parametrize("L", [1.0, 5.0])
def test_laplacian_banded_off_diagonals_are_nonnegative_up_to_n343(L):
    for n in range(1, 344):
        g = RadialGrid(n, L, 400)
        ab, c_boundary = laplacian_banded(g)
        assert np.all(np.isfinite(ab)) and c_boundary > 0, n
        assert np.all(ab[0, 1:] > 0) and np.all(ab[2, :-1] >= 0), n
        assert np.all(ab[1] < 0), n


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
    # R = 1e-10 has lam ~ 1e20: the residual guard scales with lam, so a
    # small ball passes it; R = 1 is the same problem at unit scale
    pair = principal_eigenpair(1, R, 200)
    assert pair.lam * R * R == pytest.approx(math.pi ** 2 / 4.0, rel=1e-4)
    assert abs(integrate(pair.phi) - 1.0) < 1e-10


def test_eigenpair_refuses_a_grid_below_100_nodes():
    with pytest.raises(ValueError, match="eigenpair grid needs M >= 100"):
        principal_eigenpair(1, 1.0, 99)


def test_eigenpair_refuses_a_radius_its_grid_refuses():
    with pytest.raises(ValueError, match=r"truncation radius L must satisfy 1e-50 <= L <= 1e50"):
        principal_eigenpair(1, 1e-200, 200)


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


def first_bessel_zero(nu: float) -> float:
    """The first positive zero of J_nu, bracketed on a 0.01 grid above nu."""
    x = np.arange(nu + 0.01, nu + 20.0, 0.01)
    k = int(np.flatnonzero(np.diff(np.sign(jv(nu, x))))[0])
    return brentq(lambda t: jv(nu, t), x[k], x[k + 1], xtol=1e-14)


@pytest.mark.parametrize("n", [5, 11])
def test_eigenpair_bessel_oracle_in_higher_dimensions(n):
    # the radial Dirichlet eigenvalue of B_1 is j_{n/2-1,1}^2
    j = first_bessel_zero(n / 2.0 - 1.0)
    assert j > n / 2.0 - 1.0
    pair = principal_eigenpair(n, 1.0, 2000)
    assert pair.lam == pytest.approx(j ** 2, rel=1e-4)


def test_eigenpair_scaling_law():
    lams = []
    for R in (1.0, 2.0, 5.0):
        pair = principal_eigenpair(1, R, 2000)
        lams.append(pair.lam * R * R)
    assert (max(lams) - min(lams)) / lams[0] < 1e-6


def test_eigenpair_residual_and_positivity():
    for n in (2, 50):
        pair = principal_eigenpair(n, 3.0, 1000)
        lap = laplacian(pair.phi)
        resid = np.max(np.abs(lap.values[:-1] + pair.lam * pair.phi.values[:-1]))
        assert resid / np.max(np.abs(pair.phi.values)) < 1e-6, n
        assert np.all(pair.phi.values[:-1] > 0), n
        assert pair.phi.values[-1] == 0.0, n
        assert abs(integrate(pair.phi) - 1.0) < 1e-10, n


def test_eigenpair_residual_guard_refuses_a_wrong_eigenvalue(monkeypatch):
    # a lam off the spectrum leaves a residual the guard must see
    real = operators.eigvalsh_tridiagonal
    monkeypatch.setattr(operators, "eigvalsh_tridiagonal",
                        lambda *args, **kwargs: 1.5 * real(*args, **kwargs))
    with pytest.raises(RuntimeError, match="missed the eigenvector"):
        principal_eigenpair(1, 1.0, 200)
