"""Checkable desk-scale certificates for blow-up and global existence.

Three proof devices are mechanized, plus the exponents of a fourth:

* the eigenfunction (Kaplan) functional and its exactly solvable Bernoulli
  comparison ODE, whose threshold crossing certifies blow-up;
* the decaying gaussian supersolution z = eps (t+1)^k phi with analytic
  residual verification, certifying global existence for small data;
* the stationary algebraic supersolution v = eps (1+r^2)^(-k) together
  with its constructed positive forcing;
* the rate exponents of the rescaled test-function method.

Certificate parameters (k, eps) are fixed deterministically: k at half the
binding bound (gaussian) or the window midpoint (stationary), eps by
bisection against the exact scalar inequality.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import ProblemParams, critical_exponents
from .grid import Field, RadialGrid
from .operators import laplacian_banded, principal_vector


# ---------------------------------------------------------------------------
# Kaplan functional and Bernoulli comparison ODE
# ---------------------------------------------------------------------------

def kaplan_functional(u: Field, R: float) -> float:
    """y = sum(u * kaplan_weights(u.grid, R)), the Kaplan functional of u over
    B_R inside the grid's ball B_L; u must be finite at every node, also
    outside B_R."""
    if not np.all(np.isfinite(u.values)):
        raise ValueError("cannot integrate a non-finite field")
    return float((u.values * kaplan_weights(u.grid, R)).sum())


def kaplan_nodes(grid: RadialGrid, R: float) -> int:
    """m with r_m the last node radius <= R: the Kaplan ball B_R on ``grid``
    holds nodes 0..m-1.  Refused unless the ball spans two grid cells and
    lies inside B_L, 2h <= R <= L."""
    if not 2.0 * grid.h_r <= R <= grid.L:
        raise ValueError(f"kaplan_R: expected two grid cells 2L/(M+1) = {2.0 * grid.h_r!r} "
                         f"<= kaplan_R <= L = {grid.L!r}, got {R!r}")
    return int(np.searchsorted(grid.nodes, R, side="right")) - 1


def kaplan_weights(grid: RadialGrid, R: float) -> np.ndarray:
    """The Kaplan weights w of the ball B_R on ``grid``, 2h <= R <= L: with
    r_m the last node radius <= R, the principal left eigenvector of the
    grid's own A on nodes 0..m-1 (Dirichlet at node m), summing to 1 and zero
    from node m on.  As A = V^-1 S, w is the block's eigenfunction times the
    shell volumes V.  Let lam_m be its eigenvalue of -A.  Then one theta = 1
    step of u_t = Lap u + |u|^p + b |u_r|^q + h from u >= 0 with b >= 0 and
    h >= 0 gives y = w.u with (1 + dt lam_m) y+ >= y + dt y^p up to rounding:
    the flux into the block from node m is >= 0, and Jensen's inequality
    holds for weights that sum to 1.  A theta < 1 step has no such guarantee.
    """
    m = kaplan_nodes(grid, R)
    a = laplacian_banded(grid)[0][:, :m]
    # the transposed block of -A: sub- and super-diagonal swap, one column apart
    _, x = principal_vector(-np.stack([np.roll(a[2], 1), a[1], np.roll(a[0], -1)]))
    w = np.zeros(grid.M + 2)
    w[:m] = x / x.sum()
    return w


@dataclass(frozen=True)
class OdeVerdict:
    """Outcome of the comparison ODE y' = y^p - a y with a = lam R^-2."""

    blows_up: bool
    t_star: Optional[float]
    threshold: float  # a^(1/(p-1)); the stationary level


def ode_comparison(y0: float, p: float, lam: float, R: float) -> OdeVerdict:
    """Closed-form blow-up analysis of y' = y^p - (lam/R^2) y, y(0) = y0.

    Substituting z = y^(1-p) linearizes the equation,
    z(t) = 1/a + (z0 - 1/a) e^((p-1) a t); y blows up iff y0^(p-1) > a with
    t* = ln(1/(1 - a y0^(1-p))) / ((p-1) a), degenerating to
    t* = y0^(1-p)/(p-1) for a = 0.
    """
    if not (y0 > 0 and p > 1 and lam >= 0 and R > 0):
        raise ValueError("need y0 > 0, p > 1, lam >= 0, R > 0")
    a = lam / R ** 2
    if a == 0.0:
        t_star = y0 ** (1.0 - p) / (p - 1.0)
        return OdeVerdict(blows_up=True, t_star=t_star, threshold=0.0)
    threshold = a ** (1.0 / (p - 1.0))
    if y0 ** (p - 1.0) > a:
        t_star = math.log(1.0 / (1.0 - a * y0 ** (1.0 - p))) / ((p - 1.0) * a)
        return OdeVerdict(blows_up=True, t_star=t_star, threshold=threshold)
    return OdeVerdict(blows_up=False, t_star=None, threshold=threshold)


# ---------------------------------------------------------------------------
# Gaussian (decaying) supersolution
# ---------------------------------------------------------------------------

# every gaussian certificate is checked on this (t, r) lattice; the residual
# reads only the grid's nodes, which are the same in every dimension
_LATTICE_R_MAX = 12.0
_LATTICE_T_MAX = 100.0
_LATTICE_POINTS = 400
_LATTICE_GRID = RadialGrid(1, _LATTICE_R_MAX, _LATTICE_POINTS - 2)
_LATTICE_TIMES = np.linspace(0.0, _LATTICE_T_MAX, _LATTICE_POINTS)
# time rows per block of the residual check (three buffers of 50 x 400 floats)
_LATTICE_BLOCK_ROWS = 50


@dataclass(frozen=True)
class GaussianCertificate:
    """Verified decaying supersolution z = eps (t+1)^(k - n/2) e^(-r^2/(4(t+1)))."""

    n: int
    p: float
    q: float
    b: float
    k: float
    eps: float
    C_grad: float
    residual_min: float
    verified: bool
    r_max: float
    t_max: float
    lattice_points: int


def _bisect_largest(g) -> float:
    """Largest x >= 0 with g(x) <= 0, for increasing g with g(0) < 0, by 200
    halvings of a bracket doubled from 1; ValueError if g(2^200) <= 0."""
    hi = 1.0
    while g(hi) <= 0.0:
        if hi >= 2.0 ** 200:
            raise ValueError("the eps bisection bracket does not close below 2^200")
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def gaussian_supersolution(cert: GaussianCertificate, t: float,
                           grid: RadialGrid) -> Field:
    """Sample z(t, .) on a grid (for domination checks)."""
    r = grid.nodes
    s = t + 1.0
    values = cert.eps * s ** (cert.k - cert.n / 2.0) * np.exp(-r * r / (4.0 * s))
    return Field(grid, values)


def supersolution_residual(cert: GaussianCertificate, times: Sequence[float],
                           grid: RadialGrid) -> float:
    """Minimum of the parabolic residual of z over the (t, r) lattice.

    The residual z_t - Lap z - z^p - b |grad z|^q is evaluated from the
    closed-form derivatives of z (no finite differences), so a nonnegative
    minimum is a genuine sign certificate up to scalar rounding:

        residual = k z / (t+1) - z^p - b (z r / (2(t+1)))^q,

    with z = eps (t+1)^(k - n/2) e^(-r^2/(4(t+1))); the heat kernel factor of
    z removes the z_t - Lap z bulk.  Written in z, no factor overflows where
    z itself is small (for large n or p).

    The lattice is walked in blocks of ``_LATTICE_BLOCK_ROWS`` time rows
    through three reused buffers; each point sees the same operations in
    the same order as the whole-lattice expression, so the minimum is the
    same to the bit, and a NaN anywhere still makes it NaN.
    """
    s = np.asarray(list(times), dtype=float)[:, None] + 1.0
    amp = cert.eps * s ** (cert.k - cert.n / 2.0)
    four_s, two_s = 4.0 * s, 2.0 * s
    r = grid.nodes
    neg_r2 = -r * r
    shape = (min(_LATTICE_BLOCK_ROWS, len(s)), len(r))
    z, res, grad = np.empty(shape), np.empty(shape), np.empty(shape)
    minima = []
    for lo in range(0, len(s), _LATTICE_BLOCK_ROWS):
        rows = slice(lo, lo + _LATTICE_BLOCK_ROWS)
        height = len(s[rows])
        zb, rb, gb = z[:height], res[:height], grad[:height]
        np.divide(neg_r2, four_s[rows], out=zb)
        np.exp(zb, out=zb)
        np.multiply(amp[rows], zb, out=zb)
        np.multiply(cert.k, zb, out=rb)
        rb /= s[rows]
        np.multiply(zb, r, out=gb)
        gb /= two_s[rows]
        gb **= cert.q
        gb *= cert.b
        zb **= cert.p
        rb -= zb
        rb -= gb
        minima.append(rb.min())
    return float(np.min(minima))


def gradient_constant(q: float, b: float) -> float:
    """C_grad = b 2^-q max_{s>=0} s^q e^(-(q-1)s^2/4), the gradient term's
    constant; the maximum is taken at the stationary point s^2 = 2q/(q-1)."""
    return b * 2.0 ** (-q) * (2.0 * q / (q - 1.0)) ** (q / 2.0) * math.exp(-q / 2.0)


def gaussian_certificate(n: int, p: float, q: float, b: float) -> GaussianCertificate:
    """Construct and verify the decaying supersolution certificate.

    Requires the small-data global regime p > 1 + 2/n and q > 1 + 1/(n+1),
    compared exactly.  k is fixed at half the binding exponent bound; eps
    is the largest amplitude with eps^(p-1) + C_grad eps^(q-1) <= k
    (bisection), the exact scalar inequality making the residual
    nonnegative for all (t, r); the lattice then cross-checks the sign.
    Refused (ValueError) unless ``ProblemParams`` takes (n, p, q, b), C_grad
    and the bisection stay in the float range, the bisection bracket closes
    below 2^200, eps > 0 and the residual is >= 0 (so a NaN residual fails).
    """
    p, q, b = float(p), float(q), float(b)
    # b >= 0 among them: the eps bisection needs a margin increasing in eps
    ProblemParams(n=n, p=p, q=q, b=b)
    crit = critical_exponents(n)
    if not Fraction(p) > crit.p_fujita:
        raise ValueError(f"hypothesis failed: p <= p_F = 1 + 2/n = {float(crit.p_fujita):.6g}")
    if not Fraction(q) > crit.q_fujita:
        raise ValueError(f"hypothesis failed: q <= 1 + 1/(n+1) = {float(crit.q_fujita):.6g}")

    k_source = n / 2.0 - 1.0 / (p - 1.0)
    k_gradient = n / 2.0 + (q - 2.0) / (2.0 * (q - 1.0))
    k = 0.5 * min(k_source, k_gradient)

    try:
        c_grad = gradient_constant(q, b)
        eps = _bisect_largest(lambda e: e ** (p - 1.0) + c_grad * e ** (q - 1.0) - k)
    except OverflowError:
        raise ValueError(f"C_grad or the eps bisection overflows a float "
                         f"(p={p!r}, q={q!r}, b={b!r})") from None
    except ValueError as exc:
        raise ValueError(f"{exc} (n={n!r}, p={p!r}, q={q!r}, b={b!r})") from None
    eps *= 1.0 - 1e-9  # keep the re-evaluated residual clear of rounding
    if not eps > 0.0:
        raise ValueError(f"eps underflows to {eps!r} (C_grad = {c_grad!r})")

    cert = GaussianCertificate(n=n, p=p, q=q, b=b, k=k, eps=eps, C_grad=c_grad,
                               residual_min=math.nan, verified=False,
                               r_max=_LATTICE_R_MAX, t_max=_LATTICE_T_MAX,
                               lattice_points=_LATTICE_POINTS)
    res_min = supersolution_residual(cert, _LATTICE_TIMES, _LATTICE_GRID)
    # beyond t_max both subtracted terms only decay (their t-exponents are
    # <= 0 by the choice of k); spot-check the minimum is not deteriorating
    late = supersolution_residual(cert, [_LATTICE_T_MAX * 2.0, _LATTICE_T_MAX * 4.0],
                                  _LATTICE_GRID)
    # written so that a NaN residual fails too
    for value in (res_min, late):
        if not value >= 0.0:
            raise ValueError(f"supersolution residual is negative on the lattice "
                             f"(min {value:.3e}); certificate refused")
    return dataclasses.replace(cert, residual_min=res_min, verified=True)


# ---------------------------------------------------------------------------
# Stationary supersolution for the forced problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationaryCertificate:
    """Stationary supersolution v = eps (1+r^2)^(-k) with constructed forcing.

    ``h`` is the analytic field -Lap v - v^p - b |grad v|^q, positive
    everywhere, that turns v into an exact steady state.
    """

    n: int
    p: float
    q: float
    b: float
    k: float
    eps: float
    margin: float  # 2k(2(k+1)-n) + eps^(p-1) + 2^q b eps^(q-1), must be < 0
    v: Field
    h: Field


def constructed_forcing(eps: float, k: float, p: float, q: float, b: float,
                        grid: RadialGrid) -> Field:
    """Analytic h = -Lap v - v^p - b |grad v|^q for v = eps (1+r^2)^(-k)."""
    r = grid.nodes
    n = grid.n
    w = 1.0 + r * r
    lap_v = -2.0 * eps * k * n * w ** (-k - 1.0) \
        + 4.0 * eps * k * (k + 1.0) * r * r * w ** (-k - 2.0)
    v = eps * w ** (-k)
    grad_v = 2.0 * eps * k * r * w ** (-k - 1.0)
    h = -lap_v - v ** p - b * grad_v ** q
    return Field(grid, h)


def stationary_certificate(n: int, p: float, q: float, b: float,
                           grid: Optional[RadialGrid] = None,
                           eps: Optional[float] = None) -> StationaryCertificate:
    """Construct the stationary certificate for the forced problem.

    Requires ``ProblemParams`` to take (n, p, q, b), n >= 3, p > n/(n-2) and
    q > n/(n-1), compared exactly (otherwise the admissible k-window is
    empty).  k sits at the window midpoint; eps is bisected so the decay
    margin stays 25% clear of zero, absorbing the grid evaluation of h > 0;
    an explicit eps is accepted as long as it is finite and > 0 and its
    margin is negative.
    """
    p, q, b = float(p), float(q), float(b)
    # b >= 0 among them: the eps bisection needs a margin increasing in eps
    ProblemParams(n=n, p=p, q=q, b=b)
    if eps is not None and not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and > 0, got {eps!r}")
    if n < 3:
        raise ValueError("stationary certificate needs n >= 3 (empty k-window)")
    crit = critical_exponents(n)
    if not Fraction(p) > crit.p_star:
        raise ValueError(f"hypothesis failed: p <= n/(n-2) = {float(crit.p_star):.6g} "
                         "(empty k-window)")
    if not Fraction(q) > crit.q_star:
        raise ValueError(f"hypothesis failed: q <= n/(n-1) = {float(crit.q_star):.6g} "
                         "(empty k-window)")
    lo = max(1.0 / (p - 1.0), (2.0 - q) / (2.0 * (q - 1.0)))
    hi = (n - 2.0) / 2.0
    if not lo < hi:
        raise ValueError("empty k-window")
    k = 0.5 * (lo + hi)
    decay = 2.0 * k * (2.0 * (k + 1.0) - n)  # < 0 inside the window
    try:
        if eps is None:
            budget = 0.75 * abs(decay)
            eps = _bisect_largest(
                lambda e: e ** (p - 1.0) + 2.0 ** q * b * e ** (q - 1.0) - budget)
        margin = decay + eps ** (p - 1.0) + 2.0 ** q * b * eps ** (q - 1.0)
    except OverflowError:
        raise ValueError(f"the margin overflows a float (p={p!r}, q={q!r}, b={b!r})") from None
    except ValueError as exc:
        raise ValueError(f"{exc} (n={n!r}, p={p!r}, q={q!r}, b={b!r})") from None
    if not margin < 0.0:
        raise ValueError(f"margin {margin:.6g} is not negative; eps too large")
    if grid is None:
        grid = RadialGrid(n, 12.0, 1200)
    if grid.n != n:
        raise ValueError("grid dimension does not match the certificate")
    v = Field(grid, eps * (1.0 + grid.nodes * grid.nodes) ** (-k))
    h = constructed_forcing(eps, k, p, q, b, grid)
    if not np.all(h.values > 0.0):
        raise ValueError("constructed forcing is not positive at every node")
    return StationaryCertificate(n=n, p=p, q=q, b=b, k=k, eps=eps,
                                 margin=margin, v=v, h=h)


# ---------------------------------------------------------------------------
# Test-function rate exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateExponents:
    """Scaling exponents of the rescaled test-function bound.

    With r = p(q-1)/(q(p-1)) the two contribution exponents coincide:
    e1 = nr - 1/(p-1) and e2 = 1 + nr - rq/(q-1) both equal
    combined = ((q-1)(np-1) - 1)/(q(p-1)); ``inhom`` is the forced-problem
    analogue (p/(p-1)) (n(q-1) - q)/q.
    """

    n: int
    p: float
    q: float
    r: float
    e1: float
    e2: float
    combined: float
    inhom: float


def rate_exponents(n: int, p: float, q: float) -> RateExponents:
    p, q = float(p), float(q)
    ProblemParams(n=n, p=p, q=q)
    if not q > 1:
        raise ValueError(f"rate exponents need q > 1, got {q!r}")
    r = p * (q - 1.0) / (q * (p - 1.0))
    e1 = n * r - 1.0 / (p - 1.0)
    e2 = 1.0 + n * r - r * q / (q - 1.0)
    combined = ((q - 1.0) * (n * p - 1.0) - 1.0) / (q * (p - 1.0))
    inhom = (p / (p - 1.0)) * (n * (q - 1.0) - q) / q
    scale = max(1.0, abs(e1), abs(e2), abs(combined))
    if not (abs(e1 - e2) <= 1e-12 * scale and abs(e1 - combined) <= 1e-12 * scale):  # NaN fails
        raise AssertionError("three-way exponent identity violated beyond roundoff")
    if not abs((e1 - 1.0) - inhom) <= 1e-12 * max(1.0, abs(inhom)):
        raise AssertionError("forced-problem exponent identity violated beyond roundoff")
    return RateExponents(n=n, p=p, q=q, r=r, e1=e1, e2=e2,
                         combined=combined, inhom=inhom)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def certificate_to_json(cert) -> dict:
    """JSON-ready summary of a certificate."""
    if isinstance(cert, GaussianCertificate):
        return {
            "type": "gaussian_supersolution",
            "n": cert.n, "p": cert.p, "q": cert.q, "b": cert.b,
            "k": cert.k, "eps": cert.eps, "C_grad": cert.C_grad,
            "residual_min": cert.residual_min, "verified": cert.verified,
            "lattice": {"r_max": cert.r_max, "t_max": cert.t_max,
                        "points": cert.lattice_points},
        }
    if isinstance(cert, StationaryCertificate):
        return {
            "type": "stationary_supersolution",
            "n": cert.n, "p": cert.p, "q": cert.q, "b": cert.b,
            "k": cert.k, "eps": cert.eps, "margin": cert.margin,
            "verified": bool(cert.margin < 0),
            "grid": {"L": cert.v.grid.L, "M": cert.v.grid.M},
        }
    raise TypeError(f"not a certificate: {cert!r}")
