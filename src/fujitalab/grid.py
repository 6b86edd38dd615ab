"""Radial discretization of the ball B_L, quadrature and profile families.

Everything is reduced to radial profiles on a uniform 1-D grid: node 0 is
the center r = 0, node M+1 is the truncation boundary r = L.  Integrals
against the n-dimensional volume element are one weighted sum: the grid's
``weights`` are the composite trapezoid rule in r with the surface area of
the unit sphere and r^(n-1) folded in.
"""
from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .core import _require_dimension

# the largest M a grid takes: a run holds about a dozen (M+2)-float arrays per
# column plus the (3, M+1) band of A, so M = 10^7 is about 1 GB
M_MAX = 10 ** 7


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid on [0, L] with M interior nodes."""

    n: int
    L: float = 12.0
    M: int = 1200
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    # trapezoid weights of the volume element: sphere_area(n) h r^(n-1), halved at both ends
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_dimension(self.n)
        try:
            area = sphere_area(self.n)
        except OverflowError:
            raise ValueError(f"dimension n={self.n!r} is too large: the area of the "
                             f"unit sphere overflows a float") from None
        # keeps the squares and reciprocal squares of the grid spacing far
        # inside the float range
        if not 1e-50 <= self.L <= 1e50:
            raise ValueError(f"truncation radius L must satisfy 1e-50 <= L <= 1e50, "
                             f"got {self.L!r}")
        # integrate weights by r^(n-1): the ball's scale must be a normal float
        try:
            scale = area * float(self.L) ** self.n
        except OverflowError:
            scale = math.inf
        if not sys.float_info.min <= scale <= sys.float_info.max:
            raise ValueError(f"the ball of radius L={self.L!r} in dimension n={self.n!r} "
                             f"is out of float range: sphere_area(n) * L**n = {scale!r}")
        if self.M < 2:
            raise ValueError(f"need at least 2 interior nodes, got M={self.M!r}")
        if self.M > M_MAX:
            raise ValueError(f"M={self.M!r} interior nodes exceed the cap M <= {M_MAX} "
                             f"(about 1 GB per run)")
        object.__setattr__(self, "nodes", np.linspace(0.0, self.L, self.M + 2))
        weights = area * self.h_r * self.nodes ** (self.n - 1)
        weights[[0, -1]] *= 0.5
        object.__setattr__(self, "weights", weights)

    @property
    def h_r(self) -> float:
        return self.L / (self.M + 1)


@dataclass
class Field:
    """Discrete radial profile: values[i] approximates u(r_i)."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.nodes.shape:
            raise ValueError("field values must have one entry per grid node")

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n (2 for n = 1)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def integrate(f: Field) -> float:
    """Integral of f over the ball B_L in R^n, trapezoid in the radius:
    sphere_area(n) * int_0^L f(r) r^(n-1) dr as the sum of f * grid.weights."""
    if not np.all(np.isfinite(f.values)):
        raise ValueError("cannot integrate a non-finite field")
    return float(_integrate_rows(f.values, f.grid))


def _integrate_rows(v: np.ndarray, g: RadialGrid) -> np.ndarray:
    """``integrate`` along the last axis of v (one field per row), unchecked."""
    return (v * g.weights).sum(axis=-1)


# the mass of f over the truncated ball (the integral, not the average)
mean = integrate


# ---------------------------------------------------------------------------
# Profile family
# ---------------------------------------------------------------------------

_KINDS = ("gaussian", "algebraic", "annular_bump", "zero")


@dataclass(frozen=True)
class Primitive:
    """One additive profile term.

    gaussian:      amplitude * exp(-r^2/4)              (fixed width)
    algebraic:     amplitude * (1 + r^2)^(-k)
    annular_bump:  amplitude * (1 - s^2)^3, s = (r - center)/width, |s| < 1
    zero:          0
    """

    kind: str
    amplitude: float = 0.0
    k: float = 0.0
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown profile primitive {self.kind!r}")
        if self.kind == "annular_bump" and not self.width > 0:
            raise ValueError("annular_bump needs width > 0")
        if self.kind == "algebraic" and not self.k > 0:
            raise ValueError("algebraic profile needs k > 0")

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        if self.kind == "gaussian":
            return self.amplitude * np.exp(-r * r / 4.0)
        if self.kind == "algebraic":
            return self.amplitude * (1.0 + r * r) ** (-self.k)
        if self.kind == "annular_bump":
            s = (r - self.center) / self.width
            out = np.where(np.abs(s) < 1.0, (1.0 - s * s) ** 3, 0.0)
            return self.amplitude * out
        return np.zeros_like(r)


@dataclass(frozen=True)
class ProfileSpec:
    """Additive composition of at most 4 primitives; C^1 in the radius."""

    parts: Tuple[Primitive, ...]

    def __post_init__(self) -> None:
        if len(self.parts) > 4:
            raise ValueError("a profile is a sum of at most 4 primitives")

    @staticmethod
    def gaussian(amplitude: float) -> "ProfileSpec":
        return ProfileSpec((Primitive("gaussian", amplitude=amplitude),))

    @staticmethod
    def annular_bump(amplitude: float, center: float, width: float) -> "ProfileSpec":
        return ProfileSpec((Primitive("annular_bump", amplitude=amplitude,
                                      center=center, width=width),))

    @staticmethod
    def signed_dipole(a_plus: float, a_minus: float,
                      centers: Sequence[float], widths: Sequence[float]) -> "ProfileSpec":
        """Positive annular bump minus a negative one (sign-changing data)."""
        cp, cm = centers
        wp, wm = widths
        return ProfileSpec((
            Primitive("annular_bump", amplitude=a_plus, center=cp, width=wp),
            Primitive("annular_bump", amplitude=-a_minus, center=cm, width=wm),
        ))

    def __add__(self, other: "ProfileSpec") -> "ProfileSpec":
        return ProfileSpec(self.parts + other.parts)

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(r, dtype=float))
        for part in self.parts:
            out = out + part.evaluate(r)
        return out


def sample_profile(spec: ProfileSpec, grid: RadialGrid) -> Field:
    """Pointwise evaluation at the grid nodes (boundary value kept as-is)."""
    return Field(grid, spec.evaluate(grid.nodes))


def dipole_with_mean(a_plus: float, centers: Sequence[float], widths: Sequence[float],
                     grid: RadialGrid, target_mean: float = 0.0) -> ProfileSpec:
    """Signed dipole whose quadrature mass on ``grid`` equals ``target_mean``.

    The mass is linear in the negative amplitude, so the tuning is the root
    of a linear function of a_minus.
    """
    cp, cm = centers
    wp, wm = widths
    plus = sample_profile(ProfileSpec.annular_bump(a_plus, cp, wp), grid)
    unit_minus = sample_profile(ProfileSpec.annular_bump(1.0, cm, wm), grid)
    m_plus = integrate(plus)
    m_minus = integrate(unit_minus)
    if m_minus <= 0:
        raise ValueError("negative bump has no mass on this grid (support outside?)")
    a_minus = (m_plus - target_mean) / m_minus
    return ProfileSpec.signed_dipole(a_plus, a_minus, centers, widths)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def field_to_csv(f: Field) -> str:
    """CSV with columns r,value (deterministic shortest round-trip floats)."""
    buf = io.StringIO()
    buf.write("r,value\n")
    for r, v in zip(f.grid.nodes, f.values):
        buf.write(f"{float(r)!r},{float(v)!r}\n")
    return buf.getvalue()
