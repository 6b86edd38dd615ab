"""Discrete radial operators and the principal Dirichlet eigenpair.

The radial Laplacian is u_rr + (n-1)/r u_r with the removable singularity
at the center handled by the symmetric ghost-node limit
Lap f(0) = n f_rr(0) = 2n (f_1 - f_0)/h^2;  second order is preserved and
the stencil is exact for quadratics at every node.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgttrf, dgttrs

from .core import ProblemParams, Real
from .grid import Field, RadialGrid, integrate


def laplacian(f: Field) -> Field:
    return Field(f.grid, _laplacian_rows(f.values, f.grid))


def _laplacian_rows(v: np.ndarray, g: RadialGrid) -> np.ndarray:
    """The discrete Laplacian along the last axis of v (one field per row)."""
    h = g.h_r
    r = g.nodes
    n = g.n
    out = np.empty_like(v)
    out[..., 0] = 2.0 * n * (v[..., 1] - v[..., 0]) / h ** 2
    second = (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / h ** 2
    first = (v[..., 2:] - v[..., :-2]) / (2.0 * h)
    out[..., 1:-1] = second + (n - 1) / r[1:-1] * first
    # boundary node: shifted 3-point second difference + one-sided first
    # derivative, both exact for quadratics
    fpp = (v[..., -1] - 2.0 * v[..., -2] + v[..., -3]) / h ** 2
    fp = (3.0 * v[..., -1] - 4.0 * v[..., -2] + v[..., -3]) / (2.0 * h)
    out[..., -1] = fpp + (n - 1) / r[-1] * fp
    return out


def gradient_magnitude(f: Field) -> Field:
    """|d/dr f|; zero at the center by radial symmetry."""
    return Field(f.grid, _gradient_rows(f.values, f.grid.h_r))


def _gradient_rows(v: np.ndarray, h: float) -> np.ndarray:
    """|d/dr| along the last axis of v; zero at the center."""
    out = np.empty_like(v)
    out[..., 0] = 0.0
    inner = out[..., 1:-1]
    np.subtract(v[..., 2:], v[..., :-2], out=inner)
    np.abs(inner, out=inner)
    inner /= 2.0 * h
    out[..., -1] = np.abs(3.0 * v[..., -1] - 4.0 * v[..., -2] + v[..., -3]) / (2.0 * h)
    return out


def rhs(u: Field, params: ProblemParams, h: Optional[Field] = None) -> Field:
    """Reaction part of the equation: |u|^p + b |grad u|^q + h, pointwise.

    Negative values always enter through |u|^p, never u^p.  Diffusion is
    handled separately by the time stepper.
    """
    if not np.all(np.isfinite(u.values)):
        raise ValueError("rhs of a non-finite field")
    return Field(u.grid, Reaction(u.grid, [params], h)(u.values[None])[0])


class Reaction:
    """The reaction |u|^p + b |grad u|^q + h on a (K, M+2) block of fields.

    The rows share n, b, the two switches and h; row k has its own (p, q)
    from ``params_list[k]``.  Rows that share an exponent are raised
    together by a Python-float power, so each row rounds exactly as
    ``|u| ** p`` does on that row alone (numpy's scalar-exponent fast
    paths, such as squaring for 2.0, included).
    """

    def __init__(self, grid: RadialGrid, params_list: Sequence[ProblemParams],
                 h: Optional[Field] = None) -> None:
        first = params_list[0]
        shared = (first.n, first.b, first.use_source, first.use_gradient)
        if any((prm.n, prm.b, prm.use_source, prm.use_gradient) != shared
               for prm in params_list):
            raise ValueError("a reaction block needs one n, b and term switches")
        if h is not None and h.grid != grid:
            raise ValueError("forcing field lives on a different grid")
        self.h_r = grid.h_r
        self.forcing = None if h is None else h.values
        self.source = (_exponent_rows([prm.p for prm in params_list])
                       if first.use_source else None)
        self.b = float(first.b)
        self.gradient = (_exponent_rows([prm.q for prm in params_list])
                         if first.use_gradient and first.b != 0 else None)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """The reaction of every row of ``v``, as a new block."""
        if self.source is None:
            out = np.zeros_like(v)
        else:
            out = np.abs(v)
            _raise_rows(out, self.source)
        if self.gradient is not None:
            grad = _gradient_rows(v, self.h_r)
            _raise_rows(grad, self.gradient)
            grad *= self.b
            out += grad
        if self.forcing is not None:
            out += self.forcing
        return out


# (exponent, row indices); None stands for every row
ExponentRows = List[Tuple[float, Optional[np.ndarray]]]


def _exponent_rows(exponents: Sequence[Real]) -> ExponentRows:
    values = [float(e) for e in exponents]
    if len(set(values)) == 1:
        return [(values[0], None)]
    column = np.array(values)
    return [(e, np.flatnonzero(column == e)) for e in sorted(set(values))]


def _raise_rows(a: np.ndarray, rows: ExponentRows) -> None:
    """In place: each row of ``a`` to the power of its exponent."""
    for e, which in rows:
        if which is None:
            a **= e
        else:
            a[which] **= e


def laplacian_banded(grid: RadialGrid) -> Tuple[np.ndarray, float]:
    """Banded (1,1) form of the Laplacian on nodes 0..M (boundary eliminated).

    Returns (ab, c_boundary): ab in scipy solve_banded layout, and the
    coefficient multiplying the fixed boundary value u_{M+1} in row M.
    """
    h = grid.h_r
    r = grid.nodes
    n = grid.n
    m = grid.M + 1  # unknowns: nodes 0..M
    ab = np.zeros((3, m))
    ri = r[1:m]  # interior radii, nodes 1..M
    c_minus = 1.0 / h ** 2 - (n - 1) / (2.0 * h * ri)
    c_plus = 1.0 / h ** 2 + (n - 1) / (2.0 * h * ri)
    ab[1, 0] = -2.0 * n / h ** 2
    ab[0, 1] = 2.0 * n / h ** 2
    ab[1, 1:] = -2.0 / h ** 2
    ab[2, 0:m - 1] = c_minus
    ab[0, 2:] = c_plus[:-1]
    c_boundary = float(c_plus[-1])
    return ab, c_boundary


BandedLU = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def banded_lu(ab: np.ndarray) -> BandedLU:
    """LAPACK ``dgttrf`` factors of a tridiagonal matrix in (1,1) banded layout.

    ``dgttrf`` followed by ``dgttrs`` pivots and rounds exactly as the
    ``dgtsv`` behind ``solve_banded((1, 1), ab, b)``, so a solve from these
    factors is bit-identical to that call.
    """
    *lu, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info != 0:
        raise LinAlgError("singular matrix")
    return tuple(lu)


def banded_lu_solve(lu: BandedLU, b: np.ndarray) -> np.ndarray:
    """Solve with factors from ``banded_lu``; ``b`` is overwritten."""
    x, _ = dgttrs(*lu, b, overwrite_b=True)
    return x


def _banded_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = ab[1] * x
    y[:-1] += ab[0, 1:] * x[1:]
    y[1:] += ab[2, :-1] * x[:-1]
    return y


@dataclass(frozen=True)
class Eigenpair:
    """Principal Dirichlet eigenpair of -Lap on the ball B_R.

    ``phi`` is positive inside, zero on the boundary, and normalized so its
    integral over B_R is 1.  The eigenvalue scales as lam(R) = lam(1)/R^2.
    """

    lam: float
    phi: Field
    R: float


def principal_eigenpair(n: int, R: float, M: int) -> Eigenpair:
    """Smallest Dirichlet eigenvalue/eigenfunction by inverse power iteration.

    Solves the radial problem -(phi'' + (n-1)/r phi') = lam phi, phi(R) = 0,
    phi'(0) = 0 on the discrete Laplacian.  Iterates until the eigenvalue
    estimate changes by at most 1e-14 relative twice in a row, or for 500
    iterations, then demands the residual |Lap phi + lam phi| stay below
    1e-6 max(1, lam) of phi's sup norm.
    """
    if M < 100:
        raise ValueError("eigenpair grid needs M >= 100")
    grid = RadialGrid(n, float(R), M)
    ab, _ = laplacian_banded(grid)
    neg = -ab  # -Lap is positive definite on Dirichlet functions
    lu = banded_lu(neg)

    x = 1.0 - (grid.nodes[:-1] / R) ** 2
    x /= np.linalg.norm(x)
    lam_prev = np.inf
    lam = np.nan
    stagnant = 0
    for _ in range(500):
        y = banded_lu_solve(lu, x)
        y /= np.linalg.norm(y)
        by = _banded_matvec(neg, y)
        lam = float(y @ by)
        x = y
        stagnant = stagnant + 1 if abs(lam - lam_prev) <= 1e-14 * abs(lam) else 0
        if stagnant >= 2:
            break
        lam_prev = lam
    # the residual scales with lam, which grows as R^-2 on small balls
    resid_rel = float(np.max(np.abs(_banded_matvec(neg, x) - lam * x))
                      / (np.max(np.abs(x)) * max(1.0, lam)))
    if not resid_rel <= 1e-6:  # a NaN residual fails too
        raise RuntimeError(f"eigenpair iteration did not converge "
                           f"(500 iterations, residual {resid_rel:.2e})")

    if x[0] < 0:
        x = -x
    values = np.concatenate([x, [0.0]])
    phi = Field(grid, values)
    mass = integrate(phi)
    if not mass >= sys.float_info.min:
        raise ValueError(f"the eigenfunction of the ball R={R!r} in dimension n={n!r} has "
                         f"mass {mass!r}, which is not a positive normal float")
    phi = Field(grid, values / mass)
    if np.any(phi.values[:-1] <= 0):
        raise RuntimeError("principal eigenfunction is not positive in the interior")
    return Eigenpair(lam=lam, phi=phi, R=float(R))
