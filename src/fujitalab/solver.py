"""Time integration with adaptive steps, monitors and blow-up detection.

The stepper is an IMEX theta scheme: diffusion implicit (tridiagonal solve
per step), the nonlinear reaction explicit.  The step size halves whenever
a step produces a non-finite state or grows the sup norm by more than
``growth_cap`` relative, and grows by 1.2x up to ``dt_max`` otherwise.

The implicit matrix I - theta dt A depends on the step only through dt, and
dt only takes the values dt_init 1.2^k 2^-j capped at dt_max, so an
``ImexStepper`` keeps the LU factors of the last ``LU_CACHE_SIZE`` (32) dt
values and solves each step from them; the oldest entry is evicted first.
The cached solve is bit-identical to refactoring on every step.

Truncation semantics (stated in every report): the Dirichlet problem on
B_L is a subsolution of the whole-space problem for nonnegative data, so a
numerically observed blow-up is evidence in the safe direction, while
reaching the horizon on B_L proves nothing about the whole space -- only a
supersolution certificate does.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np
# no caller here: kept so the benchmark tracer (bench/tracer.py) can wrap it
from scipy.linalg import solve_banded  # noqa: F401

from .certificates import kaplan_functional
from .core import ProblemParams
from .grid import Field, RadialGrid, integrate
from .operators import (BandedLU, Eigenpair, banded_lu, banded_lu_solve,
                        gradient_magnitude, laplacian, laplacian_banded,
                        principal_eigenpair, rhs)

TRUNCATION_NOTE = (
    "Dirichlet truncation on B_L: observed blow-up transfers to the whole-space "
    "problem (subsolution direction, nonnegative data); a reached horizon proves "
    "nothing about the whole space -- only a supersolution certificate does."
)


@dataclass(frozen=True)
class SolveConfig:
    t_end: float = 10.0
    dt_init: float = 1e-3
    dt_min: float = 1e-10
    dt_max: float = 5e-2
    blowup_threshold: float = 1e8
    growth_cap: float = 0.1
    theta_scheme: float = 1.0
    trace_stride: int = 10
    kaplan_R: Optional[float] = None
    store_fields: bool = False

    def __post_init__(self) -> None:
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if not self.blowup_threshold > 1:
            raise ValueError("blowup_threshold must exceed 1")
        if not 0.0 <= self.theta_scheme <= 1.0:
            raise ValueError("theta_scheme must lie in [0, 1]")
        if self.trace_stride < 1:
            raise ValueError("trace_stride must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    t: float
    dt: float
    sup_u: float
    inf_u: float
    l1_u: float
    mean_u: float
    sup_grad_u: float
    kaplan_y: Optional[float] = None


class SolveStatus(Enum):
    REACHED_HORIZON = "ReachedHorizon"
    BLOW_UP = "BlowUp"
    STEP_FLOOR_STALL = "StepFloorStall"


@dataclass
class SolveOutcome:
    status: SolveStatus
    trace: List[TraceRecord]
    final_field: Field
    t_star_estimate: Optional[float] = None
    fit_quality: Optional[float] = None
    t_last_finite: Optional[float] = None
    t_stall: Optional[float] = None
    snapshots: Optional[List[Tuple[float, Field]]] = None


LU_CACHE_SIZE = 32


class ImexStepper:
    """The implicit half of the theta scheme on one grid.

    Holds the banded Laplacian A (boundary node eliminated) and the LU
    factors of I - theta dt A for up to ``LU_CACHE_SIZE`` distinct dt,
    keyed by the exact float dt and evicted oldest first.
    """

    def __init__(self, grid: RadialGrid, theta: float) -> None:
        self.theta = theta
        self.ab, self.c_boundary = laplacian_banded(grid)
        self._factors: Dict[float, BandedLU] = {}

    def solve(self, dt: float, b: np.ndarray) -> np.ndarray:
        """x with (I - theta dt A) x = b; ``b`` is overwritten."""
        lu = self._factors.get(dt)
        if lu is None:
            a = -self.theta * dt * self.ab
            a[1] += 1.0
            lu = banded_lu(a)
            if len(self._factors) >= LU_CACHE_SIZE:
                del self._factors[next(iter(self._factors))]
            self._factors[dt] = lu
        return banded_lu_solve(lu, b)


def step(u: Field, dt: float, params: ProblemParams, h: Optional[Field] = None,
         theta: float = 1.0) -> Field:
    """One IMEX theta step; the boundary value of u is held fixed."""
    return _step(ImexStepper(u.grid, theta), u, dt, params, h)


def _step(stepper: ImexStepper, u: Field, dt: float, params: ProblemParams,
          h: Optional[Field]) -> Field:
    v = u.values
    theta = stepper.theta
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        react = rhs(u, params, h).values
        rhs_vec = v[:-1] + dt * react[:-1]
        if theta < 1.0:
            rhs_vec = rhs_vec + dt * (1.0 - theta) * laplacian(u).values[:-1]
        rhs_vec[-1] += theta * dt * stepper.c_boundary * v[-1]
        if not np.all(np.isfinite(rhs_vec)):
            return Field(u.grid, np.full_like(v, np.nan))
        out = np.empty_like(v)
        out[:-1] = stepper.solve(dt, rhs_vec)
    out[-1] = v[-1]
    return Field(u.grid, out)


def _record(t: float, dt: float, u: Field,
            pair: Optional[Eigenpair]) -> TraceRecord:
    v = u.values
    y = kaplan_functional(u, pair) if pair is not None else None
    return TraceRecord(
        t=t, dt=dt,
        sup_u=float(np.max(v)), inf_u=float(np.min(v)),
        l1_u=integrate(Field(u.grid, np.abs(v))), mean_u=integrate(u),
        sup_grad_u=float(np.max(gradient_magnitude(u).values)),
        kaplan_y=y,
    )


def _observe(trace: List[TraceRecord],
             snapshots: Optional[List[Tuple[float, Field]]],
             t: float, dt: float, u: Field, pair: Optional[Eigenpair]) -> None:
    """Append a trace record and, when fields are stored, a snapshot."""
    trace.append(_record(t, dt, u, pair))
    if snapshots is not None:
        snapshots.append((t, u.copy()))


def run(params: ProblemParams, u0: Field, h: Optional[Field],
        config: SolveConfig) -> SolveOutcome:
    """Advance the problem from u0 with adaptive steps until the horizon,
    a certified blow-up trigger, or a step-size stall."""
    if h is not None and h.grid != u0.grid:
        raise ValueError("forcing and initial data live on different grids")
    grid = u0.grid
    stepper = ImexStepper(grid, config.theta_scheme)
    pair = None
    if config.kaplan_R is not None:
        if config.kaplan_R > grid.L:
            raise ValueError("kaplan_R exceeds the truncation radius")
        pair = principal_eigenpair(grid.n, config.kaplan_R, max(200, grid.M // 2))

    u = u0.copy()
    sup = float(np.max(np.abs(u.values)))
    t = 0.0
    dt = config.dt_init
    halvings = 0
    accepted = 0
    trace: List[TraceRecord] = []
    snapshots: Optional[List[Tuple[float, Field]]] = [] if config.store_fields else None
    _observe(trace, snapshots, t, dt, u, pair)

    def finish(status: SolveStatus, **kw) -> SolveOutcome:
        if trace[-1].t < t:
            _observe(trace, snapshots, t, dt, u, pair)
        out = SolveOutcome(status=status, trace=trace, final_field=u,
                           snapshots=snapshots, **kw)
        if status is SolveStatus.BLOW_UP:
            est = detect_blowup(trace, float(params.p))
            if est is not None:
                out.t_star_estimate, out.fit_quality = est
            out.t_last_finite = t
        return out

    while t < config.t_end - 1e-14 * max(1.0, config.t_end):
        dt_try = min(dt, config.t_end - t)
        candidate = _step(stepper, u, dt_try, params, h)
        # NaN and inf both propagate through the max, so a finite sup
        # means a finite candidate
        sup_new = float(np.max(np.abs(candidate.values)))
        finite = math.isfinite(sup_new)
        growth = (sup_new - sup) / max(sup, 1e-300) if finite else math.inf
        if finite and growth <= config.growth_cap:
            u = candidate
            sup = sup_new
            t += dt_try
            halvings = 0
            accepted += 1
            if accepted % config.trace_stride == 0:
                _observe(trace, snapshots, t, dt_try, u, pair)
            if sup >= config.blowup_threshold:
                return finish(SolveStatus.BLOW_UP)
            dt = min(dt * 1.2, config.dt_max)
        else:
            halvings += 1
            dt = dt / 2.0
            at_threshold = sup >= config.blowup_threshold
            if at_threshold and halvings >= 3:
                return finish(SolveStatus.BLOW_UP)
            if dt < config.dt_min:
                if at_threshold:
                    return finish(SolveStatus.BLOW_UP)
                # dt collapsed below threshold: certify blow-up only when the
                # trace shows a sustained super-linear growth signature,
                # otherwise report an unresolvable stall
                if trace[-1].t < t:
                    _observe(trace, snapshots, t, dt, u, pair)
                suffix = _increasing_suffix(trace)
                # asymptote evidence: the remaining-time proxy sup^(1-p)
                # contracted by >= 3 decades over the growing tail
                grew = (len(suffix) >= 2 and suffix[0][1] > 0
                        and (float(params.p) - 1.0)
                        * math.log10(suffix[-1][1] / suffix[0][1]) >= 3.0)
                if grew and detect_blowup(trace, float(params.p)) is not None:
                    return finish(SolveStatus.BLOW_UP)
                return finish(SolveStatus.STEP_FLOOR_STALL, t_stall=t)
    return finish(SolveStatus.REACHED_HORIZON)


def _increasing_suffix(trace: List[TraceRecord]) -> List[Tuple[float, float]]:
    sups = [(rec.t, rec.sup_u) for rec in trace if rec.sup_u > 0]
    k = len(sups) - 1
    while k > 0 and sups[k - 1][1] < sups[k][1]:
        k -= 1
    return sups[k:]


def detect_blowup(trace: List[TraceRecord], p: float,
                  max_window: int = 40) -> Optional[Tuple[float, float]]:
    """Estimate the blow-up time from the tail of a growing trace.

    Fits sup_u(t) ~ C (T - t)^(-1/(p-1)) by linear least squares on
    z = sup_u^(1-p) (the fit form is a heuristic extrapolation device
    borrowed from the pure-power equation, not a proved rate).  The fit
    window is the growing tail spanning the last three decades of sup_u, so
    the abscissas are spread over the asymptotic regime.  Returns
    (T, residual); None when the trace does not show super-threshold growth.
    """
    suffix = _increasing_suffix(trace)
    if len(suffix) < 8:
        return None
    if suffix[-1][1] < 3.0 * suffix[0][1]:
        return None
    # the fit is linear in z = sup^(1-p), so pick the window by z-range:
    # the last three decades of z are the asymptotic regime
    z_last = suffix[-1][1] ** (1.0 - p)
    tail = [(t, s) for t, s in suffix
            if 0.0 < s ** (1.0 - p) <= 1e3 * z_last]
    if len(tail) < 8:
        tail = suffix[-8:]
    tail = tail[-max_window:]
    ts = np.array([t for t, _ in tail])
    zs = np.array([s ** (1.0 - p) for _, s in tail])
    t_bar = float(ts.mean())  # centering keeps the fit conditioned near blow-up
    a = np.vstack([np.ones_like(ts), ts - t_bar]).T
    (alpha, beta), *_ = np.linalg.lstsq(a, zs, rcond=None)
    if beta >= 0:
        return None
    t_star = t_bar - alpha / beta
    if t_star <= ts[-1]:
        return None
    fitted = alpha + beta * (ts - t_bar)
    spread = float(zs.max() - zs.min()) or 1.0
    quality = float(np.sqrt(np.mean((zs - fitted) ** 2)) / spread)
    return float(t_star), quality


def heat_reference(t: float, grid: RadialGrid) -> Field:
    """Analytic heat flow of the unit gaussian profile exp(-r^2/4)."""
    if t < 0:
        raise ValueError("heat_reference needs t >= 0")
    r = grid.nodes
    s = t + 1.0
    return Field(grid, s ** (-grid.n / 2.0) * np.exp(-r * r / (4.0 * s)))


def measure_plateau(trace: List[TraceRecord],
                    tail_fraction: float = 0.25) -> Tuple[float, float]:
    """Empirical plateau value from the tail of a trace.

    Returns (ell_hat, relative drift over the tail); a small drift means the
    run has settled.  Used to feed the Kaplan radius selection, since the
    theory provides the limit but no rate.
    """
    if len(trace) < 4:
        raise ValueError("trace too short to measure a plateau")
    t_end = trace[-1].t
    t_cut = t_end * (1.0 - tail_fraction)
    tail = [rec for rec in trace if rec.t >= t_cut]
    if len(tail) < 2:
        tail = trace[-2:]
    values = [rec.sup_u for rec in tail]
    ell_hat = values[-1]
    drift = (max(values) - min(values)) / max(abs(ell_hat), 1e-300)
    return ell_hat, drift


def comparison_tolerance(grid: RadialGrid, config: SolveConfig) -> float:
    """Discretization allowance used by comparison-principle checks."""
    return 10.0 * (grid.h_r ** 2 + config.dt_max)


def trace_to_csv(trace: List[TraceRecord]) -> str:
    buf = io.StringIO()
    buf.write("t,dt,sup_u,inf_u,l1_u,mean_u,sup_grad_u,kaplan_y\n")
    for rec in trace:
        y = "" if rec.kaplan_y is None else repr(float(rec.kaplan_y))
        buf.write(f"{float(rec.t)!r},{float(rec.dt)!r},{float(rec.sup_u)!r},"
                  f"{float(rec.inf_u)!r},{float(rec.l1_u)!r},{float(rec.mean_u)!r},"
                  f"{float(rec.sup_grad_u)!r},{y}\n")
    return buf.getvalue()
