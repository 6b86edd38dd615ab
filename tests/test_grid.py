import math

import numpy as np
import pytest

from fujitalab.grid import (Field, Primitive, ProfileSpec, RadialGrid, _integrate_rows,
                            dipole_with_mean, field_to_csv, integrate, mean,
                            sample_profile, sphere_area)


def test_grid_nodes_exact_endpoints():
    g = RadialGrid(2, 7.5, 100)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 7.5
    assert np.all(np.diff(g.nodes) > 0)
    assert g.h_r == pytest.approx(7.5 / 101, rel=1e-15)


def test_integrate_ball_volume():
    # f = 1 on B_2 in R^3: volume (4/3) pi 8
    g = RadialGrid(3, 2.0, 4000)
    f = Field(g, np.ones_like(g.nodes))
    exact = 4.0 / 3.0 * math.pi * 8.0
    assert integrate(f) == pytest.approx(exact, rel=1e-7)


def test_integrate_gaussian_masses():
    # closed-form oracle: int_{R^n} e^{-|x|^2/4} dx = (4 pi)^(n/2);
    # truncation tail at L = 12 is ~e^{-36}
    g1 = RadialGrid(1, 12.0, 4000)
    f1 = sample_profile(ProfileSpec.gaussian(1.0), g1)
    assert integrate(f1) == pytest.approx(math.sqrt(4 * math.pi), abs=1e-8)

    g2 = RadialGrid(2, 12.0, 4000)
    f2 = sample_profile(ProfileSpec.gaussian(1.0), g2)
    assert integrate(f2) == pytest.approx(4 * math.pi, rel=1e-6)


def test_integrate_rejects_non_finite():
    g = RadialGrid(1, 1.0, 10)
    vals = np.ones_like(g.nodes)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        integrate(Field(g, vals))


@pytest.mark.parametrize("n", [1, 3, 7])
@pytest.mark.parametrize("M", [60, 301, 1200])
def test_integrate_rows_equal_integrate_of_each_row(n, M):
    g = RadialGrid(n, 12.0, M)
    rng = np.random.default_rng(n * M)
    v = rng.standard_normal((5, M + 2)) * np.exp(-g.nodes ** 2 / 8.0)
    got = _integrate_rows(v, g)
    assert got.shape == (5,)
    for k, row in enumerate(v):
        assert got[k] == integrate(Field(g, row))


@pytest.mark.parametrize("n, L", [(1, 12.0), (3, 12.0), (7, 12.0), (300, 10.6)])
@pytest.mark.parametrize("M", [60, 301, 1200])
def test_integrate_is_the_trapezoid_rule_of_the_volume_element(n, L, M):
    # the weights fold the end halves, the uniform spacing h and the sphere
    # area into one vector; at n = 300 the sum of u r^299 alone overflows,
    # the integral does not
    g = RadialGrid(n, L, M)
    f = 1e3 * np.random.default_rng(n * M).uniform(0.0, 1.0, M + 2)
    want = np.trapezoid(f * sphere_area(n) * g.nodes ** (n - 1), dx=g.h_r)
    assert integrate(Field(g, f)) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_integrate_linear_monotone():
    rng = np.random.default_rng(3)
    g = RadialGrid(2, 5.0, 300)
    a = Field(g, rng.uniform(0, 1, g.nodes.size))
    b = Field(g, rng.uniform(0, 1, g.nodes.size))
    lhs = integrate(Field(g, 2.0 * a.values + 3.0 * b.values))
    assert lhs == pytest.approx(2 * integrate(a) + 3 * integrate(b), rel=1e-12)
    dominated = Field(g, a.values + 0.5)
    assert integrate(a) <= integrate(dominated)


def test_quadrature_order_two():
    # Richardson on the n=2 gaussian, where the O(h^2) endpoint term is live
    exact = 4 * math.pi * (1.0 - math.exp(-36.0))
    errs = []
    for M in (250, 500, 1000):
        g = RadialGrid(2, 12.0, M)
        f = sample_profile(ProfileSpec.gaussian(1.0), g)
        errs.append(abs(integrate(f) - exact))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 == pytest.approx(2.0, abs=0.1)
    assert order2 == pytest.approx(2.0, abs=0.1)


def test_sample_profile_center_values():
    g = RadialGrid(1, 12.0, 200)
    assert sample_profile(ProfileSpec.gaussian(0.2), g).values[0] == pytest.approx(0.2)
    algebraic = ProfileSpec((Primitive("algebraic", amplitude=0.03, k=5 / 12),))
    assert sample_profile(algebraic, g).values[0] == pytest.approx(0.03)


def test_annular_bump_mass_closed_form():
    # n=1 oracle: 2 * A * w * int_{-1}^{1} (1-s^2)^3 ds = 2 A w 32/35
    g = RadialGrid(1, 12.0, 3000)
    amp, center, width = 0.7, 4.0, 1.5
    f = sample_profile(ProfileSpec.annular_bump(amp, center, width), g)
    exact = 2.0 * amp * width * 32.0 / 35.0
    assert integrate(f) == pytest.approx(exact, rel=1e-6)


def test_algebraic_mass_against_quadrature_oracle():
    from scipy.integrate import quad
    g = RadialGrid(1, 12.0, 4000)
    eps, k = 0.03, 5 / 12
    f = sample_profile(ProfileSpec((Primitive("algebraic", amplitude=eps, k=k),)), g)
    oracle, err = quad(lambda r: eps * (1 + r * r) ** (-k), 0.0, 12.0,
                       epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    assert integrate(f) == pytest.approx(2.0 * oracle, rel=1e-7)


def test_dipole_mean_tuning():
    g = RadialGrid(1, 12.0, 2000)
    spec = dipole_with_mean(1.5, centers=(2.0, 6.0), widths=(1.0, 1.5), grid=g)
    f = sample_profile(spec, g)
    assert abs(mean(f)) < 1e-10
    spec2 = dipole_with_mean(1.5, centers=(2.0, 6.0), widths=(1.0, 1.5),
                             grid=g, target_mean=1e-3)
    assert mean(sample_profile(spec2, g)) == pytest.approx(1e-3, abs=1e-12)


def test_norms():
    g = RadialGrid(2, 3.0, 150)
    zero = sample_profile(ProfileSpec((Primitive("zero"),)), g)
    assert mean(zero) == 0.0


def test_profile_composition_limit():
    spec = ProfileSpec.gaussian(1.0) + ProfileSpec.annular_bump(1.0, 2.0, 1.0)
    assert len(spec.parts) == 2
    with pytest.raises(ValueError):
        _ = spec + spec + ProfileSpec.gaussian(1.0)


def test_field_csv_roundtrip():
    g = RadialGrid(1, 1.0, 3)
    f = Field(g, np.array([1.0, 0.25, -0.5, 0.125, 0.0]))
    text = field_to_csv(f)
    lines = text.strip().split("\n")
    assert lines[0] == "r,value"
    assert len(lines) == 6
    r_back = [float(line.split(",")[0]) for line in lines[1:]]
    v_back = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(r_back, g.nodes)
    assert np.allclose(v_back, f.values)
