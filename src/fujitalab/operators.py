"""Discrete radial operators and the principal Dirichlet eigenpair.

The radial Laplacian u_rr + (n-1)/r u_r is conservative: A = V^-1 S on nodes
0..M, with V_i the exact volume of node i's shell r_{i-1/2} < r < r_{i+1/2}
(the ball r < h/2 at the center) and S_{i,i+1} = r_{i+1/2}^(n-1)/h the flux
between nodes i and i+1.  A is exact for quadratics, is the 1, -2, 1 stencil
at n = 1, and has nonnegative off-diagonals for every n, so I - theta dt A is
an M-matrix (an implicit step keeps u >= 0) and A is similar to a symmetric
tridiagonal (one LAPACK call gives the eigenvalue).  It is written once, as
the banded A of ``laplacian_banded``, which the solver factors and
``_laplacian_unknowns`` applies.  The reaction and the centered |u_r| take
nodes 0..M; the one-sided d/dr at the pinned boundary node is computed only
where it is read.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import LinAlgError, eigvalsh_tridiagonal
from scipy.linalg.lapack import dgtsv

from .core import ProblemParams, Real
from .grid import Field, RadialGrid, integrate


def laplacian(f: Field) -> Field:
    """The Laplacian at every node: the banded A at nodes 0..M, and at the boundary
    a shifted 3-point second difference plus the one-sided d/dr, both exact for quadratics."""
    g, v = f.grid, f.values
    fpp = (v[-1] - 2.0 * v[-2] + v[-3]) / g.h_r ** 2
    boundary = fpp + (g.n - 1) / g.nodes[-1] * _one_sided_derivative(v, g.h_r)
    return Field(g, np.append(_laplacian_unknowns(*laplacian_banded(g), v), boundary))


def _laplacian_unknowns(ab: np.ndarray, c_boundary: float, v: np.ndarray) -> np.ndarray:
    """A v at nodes 0..M along the last axis of v; v_{M+1} enters row M via c_boundary."""
    out = _banded_matvec(ab, v[..., :-1])
    out[..., -1] += c_boundary * v[..., -1]
    return out


def gradient_magnitude(f: Field) -> Field:
    """|d/dr f|; zero at the center by radial symmetry."""
    v, h = f.values, f.grid.h_r
    return Field(f.grid, np.append(_gradient_rows(v, h), _boundary_gradient(v, h)))


def _gradient_rows(v: np.ndarray, h: float) -> np.ndarray:
    """|d/dr| at nodes 0..M along the last axis of v (nodes 0..M+1); 0 at the center."""
    out = np.empty_like(v[..., :-1])
    out[..., 0] = 0.0
    inner = out[..., 1:]
    np.subtract(v[..., 2:], v[..., :-2], out=inner)
    np.abs(inner, out=inner)
    inner /= 2.0 * h
    return out


def _one_sided_derivative(v: np.ndarray, h: float) -> np.ndarray:
    """d/dr at the boundary node M+1, one-sided and exact for quadratics."""
    return (3.0 * v[..., -1] - 4.0 * v[..., -2] + v[..., -3]) / (2.0 * h)


def _boundary_gradient(v: np.ndarray, h: float) -> np.ndarray:
    """|d/dr| at the boundary node M+1."""
    return np.abs(_one_sided_derivative(v, h))


def rhs(u: Field, params: ProblemParams, h: Optional[Field] = None) -> Field:
    """Reaction part of the equation: |u|^p + b |grad u|^q + h at every node.

    Negative values always enter through |u|^p, never u^p.  Diffusion is
    handled separately by the time stepper.
    """
    if not np.all(np.isfinite(u.values)):
        raise ValueError("rhs of a non-finite field")
    grad = gradient_magnitude(u).values
    return Field(u.grid, Reaction(u.grid, [params], h)(u.values[None], grad[None])[0])


class Reaction:
    """The reaction |u|^p + b |grad u|^q + h on a block of fields, one per row.

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
        self.forcing = None if h is None else h.values
        self.source = (_exponent_rows([prm.p for prm in params_list])
                       if first.use_source else None)
        self.b = float(first.b)
        self.gradient = (_exponent_rows([prm.q for prm in params_list])
                         if first.use_gradient and first.b != 0 else None)

    def __call__(self, v: np.ndarray, grad: Optional[np.ndarray]) -> np.ndarray:
        """The reaction of every row of ``v``, the first m nodes of each field,
        as a new block; ``grad`` is |u_r| at those nodes and is overwritten
        (it may be None when ``self.gradient`` is None)."""
        if self.source is None:
            out = np.zeros_like(v)
        else:
            out = np.abs(v)
            _raise_rows(out, self.source)
        if self.gradient is not None:
            _raise_rows(grad, self.gradient)
            grad *= self.b
            out += grad
        if self.forcing is not None:
            out += self.forcing[:v.shape[-1]]
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
    coefficient multiplying the fixed boundary value u_{M+1} in row M.  Row
    i >= 1 is (S_{i,i+1}, S_{i,i-1})/V_i relative to r_{i+1/2}^(n-1), so no
    power leaves the float range: c_plus = n/(h^2 (1 + (i-1/2)(1-rho))) and
    c_minus = rho c_plus, rho = ((i-1/2)/(i+1/2))^(n-1); 1 - rho = 0 at n = 1.
    """
    h, n, m = grid.h_r, grid.n, grid.M + 1  # unknowns: nodes 0..M
    ab = np.zeros((3, m))
    i = np.arange(1, m)  # interior nodes 1..M
    log_rho = (n - 1) * np.log1p(-2.0 / (2 * i + 1))
    c_plus = n / (h ** 2 * (1.0 - (i - 0.5) * np.expm1(log_rho)))
    c_minus = np.exp(log_rho) * c_plus
    ab[1, 0] = -2.0 * n / h ** 2
    ab[0, 1] = 2.0 * n / h ** 2
    ab[1, 1:] = -(c_plus + c_minus)
    ab[2, 0:m - 1] = c_minus
    ab[0, 2:] = c_plus[:-1]
    return ab, float(c_plus[-1])


def _banded_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = ab[1] * x
    y[..., :-1] += ab[0, 1:] * x[..., 1:]
    y[..., 1:] += ab[2, :-1] * x[..., :-1]
    return y


@dataclass(frozen=True)
class Eigenpair:
    """Principal Dirichlet eigenpair of -Lap on the ball B_R.

    ``phi`` is positive inside, zero on the boundary, and normalized so its
    integral over B_R is 1.  The eigenvalue scales as lam(R) = lam(1)/R^2.
    """

    lam: float
    phi: Field


def principal_vector(neg: np.ndarray) -> Tuple[float, np.ndarray]:
    """Smallest eigenvalue lam of the tridiagonal M-matrix ``neg`` ((1,1) banded
    layout) and its eigenvector x > 0, sup norm 1, without iteration: one LAPACK
    bisection on the similar symmetric tridiagonal (off-diagonal
    sqrt(neg_{i,i+1} neg_{i+1,i})), then two ``dgtsv`` solves of (neg - sigma I) x = b,
    sigma just below lam, from b = 1 and then from the first x, each shrinking
    mode k by (lam - sigma)/(lam_k - sigma); |neg x - lam x| must stay below
    1e-6 max(1, lam)."""
    lam = float(eigvalsh_tridiagonal(neg[1], np.sqrt(neg[0, 1:] * neg[2, :-1]),
                                     select="i", select_range=(0, 0))[0])
    sigma = lam * (1.0 - 1e-6)  # below lam, so neg - sigma I is an M-matrix and x > 0
    x = np.ones(neg.shape[1])
    for _ in range(2):
        *_, x, info = dgtsv(neg[2, :-1], neg[1] - sigma, neg[0, 1:], x / np.max(np.abs(x)))
        if info != 0:
            raise LinAlgError("singular matrix")
    x /= x[np.argmax(np.abs(x))]  # sup norm 1, positive at the peak
    # the residual scales with lam, which grows as R^-2 on small balls
    resid_rel = float(np.max(np.abs(_banded_matvec(neg, x) - lam * x)) / max(1.0, lam))
    if not resid_rel <= 1e-6:  # a NaN residual fails too
        raise RuntimeError(f"eigenpair solve missed the eigenvector "
                           f"(lam {lam!r}, residual {resid_rel:.2e})")
    return lam, x


def principal_eigenpair(n: int, R: float, M: int) -> Eigenpair:
    """Smallest Dirichlet eigenvalue of -(phi'' + (n-1)/r phi') on B_R and its
    eigenfunction: ``principal_vector`` of -A on the grid, normalized to mass 1."""
    if M < 100:
        raise ValueError("eigenpair grid needs M >= 100")
    grid = RadialGrid(n, float(R), M)
    lam, x = principal_vector(-laplacian_banded(grid)[0])
    values = np.concatenate([x, [0.0]])
    mass = integrate(Field(grid, values))
    if not mass >= sys.float_info.min:
        raise ValueError(f"the eigenfunction of the ball R={R!r} in dimension n={n!r} has "
                         f"mass {mass!r}, which is not a positive normal float")
    phi = Field(grid, values / mass)
    if np.any(phi.values[:-1] <= 0):
        raise RuntimeError("principal eigenfunction is not positive in the interior")
    return Eigenpair(lam=lam, phi=phi)
