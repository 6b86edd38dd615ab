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

The step kernel ``_step`` advances a (K, M+2) block of fields, one field
per row, with one multi-column solve.  ``run`` uses it with K = 1;
``run_batch`` carries problems that differ only in p and q in lockstep and
hands a problem whose step would be rejected back to ``run``, so its
outcomes are bit-identical to per-problem runs.

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
# no caller here: kept so the benchmark tracer (bench/tracer.py) can wrap it
from scipy.linalg import solve_banded  # noqa: F401

from .certificates import kaplan_functional
from .core import ProblemParams
from .grid import Field, RadialGrid, integrate
from .operators import (BandedLU, Eigenpair, Reaction, _laplacian_rows,
                        banded_lu, banded_lu_solve, gradient_magnitude,
                        laplacian_banded, principal_eigenpair)
# no caller here: kept so the benchmark tracer (bench/tracer.py) can wrap it
from .operators import rhs  # noqa: F401

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
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError("t_end must be finite and > 0")
        if not math.isfinite(self.dt_max):
            raise ValueError("dt_max must be finite")
        if not self.growth_cap > 0:
            raise ValueError("growth_cap must be > 0")


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

    Holds the banded Laplacian A (boundary node eliminated), the LU factors
    of I - theta dt A for up to ``LU_CACHE_SIZE`` distinct dt, keyed by the
    exact float dt and evicted oldest first, and the work buffers of
    ``_step`` for the current block height.
    """

    def __init__(self, grid: RadialGrid, theta: float) -> None:
        self.grid = grid
        self.theta = theta
        self.ab, self.c_boundary = laplacian_banded(grid)
        self._factors: Dict[float, BandedLU] = {}
        self._work: Tuple[np.ndarray, ...] = ()

    def solve(self, dt: float, b: np.ndarray) -> np.ndarray:
        """x with (I - theta dt A) x = b, one system per column of b;
        ``b`` is overwritten when it is Fortran-contiguous."""
        lu = self._factors.get(dt)
        if lu is None:
            a = -self.theta * dt * self.ab
            a[1] += 1.0
            lu = banded_lu(a)
            if len(self._factors) >= LU_CACHE_SIZE:
                del self._factors[next(iter(self._factors))]
            self._factors[dt] = lu
        return banded_lu_solve(lu, b)

    def work(self, k: int) -> Tuple[np.ndarray, ...]:
        """Reaction, gradient and right-hand-side buffers for k rows."""
        if not self._work or self._work[0].shape[0] != k:
            m = self.grid.M + 2
            self._work = (np.empty((k, m)), np.empty((k, m)), np.empty((k, m - 1)))
        return self._work


def step(u: Field, dt: float, params: ProblemParams, h: Optional[Field] = None,
         theta: float = 1.0) -> Field:
    """One IMEX theta step; the boundary value of u is held fixed."""
    if not np.all(np.isfinite(u.values)):
        raise ValueError("cannot step a non-finite field")
    block = _step(ImexStepper(u.grid, theta), u.values[None], dt,
                  Reaction(u.grid, [params], h))
    return Field(u.grid, block[0])


def _step(stepper: ImexStepper, v: np.ndarray, dt: float,
          reaction: Reaction) -> np.ndarray:
    """One IMEX theta step of every row of the (K, M+2) block v.

    Returns a new block; the boundary column is held fixed.  A row whose
    right-hand side is not finite comes out not finite (the solve cannot
    cancel an inf or a NaN), which the caller rejects.
    """
    theta = stepper.theta
    react, scratch, b = stepper.work(v.shape[0])
    out = np.empty_like(v)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        reaction(v, react, scratch)
        np.multiply(react[:, :-1], dt, out=b)
        b += v[:, :-1]
        if theta < 1.0:
            b += dt * (1.0 - theta) * _laplacian_rows(v, stepper.grid)[:, :-1]
        b[:, -1] += theta * dt * stepper.c_boundary * v[:, -1]
        # b.T is Fortran-ordered, so one dgttrs solves every row in place
        out[:, :-1] = stepper.solve(dt, b.T).T
    out[:, -1] = v[:, -1]
    return out


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


def _kaplan_pair(grid: RadialGrid, config: SolveConfig) -> Optional[Eigenpair]:
    if config.kaplan_R is None:
        return None
    if config.kaplan_R > grid.L:
        raise ValueError("kaplan_R exceeds the truncation radius")
    return principal_eigenpair(grid.n, config.kaplan_R, max(200, grid.M // 2))


def _finish(status: SolveStatus, params: ProblemParams, trace: List[TraceRecord],
            snapshots: Optional[List[Tuple[float, Field]]], t: float, dt: float,
            u: Field, pair: Optional[Eigenpair], **kw) -> SolveOutcome:
    """Close a run at time t: a last record if the trace stops short of t,
    and the blow-up time fit when the status is BlowUp."""
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


def _before_horizon(t: float, config: SolveConfig) -> bool:
    return t < config.t_end - 1e-14 * max(1.0, config.t_end)


def run(params: ProblemParams, u0: Field, h: Optional[Field],
        config: SolveConfig) -> SolveOutcome:
    """Advance the problem from u0 with adaptive steps until the horizon,
    a certified blow-up trigger, or a step-size stall."""
    if h is not None and h.grid != u0.grid:
        raise ValueError("forcing and initial data live on different grids")
    grid = u0.grid
    stepper = ImexStepper(grid, config.theta_scheme)
    reaction = Reaction(grid, [params], h)
    pair = _kaplan_pair(grid, config)

    v = u0.values[None].copy()  # the state as a one-row block
    sup = float(np.max(np.abs(v)))
    t = 0.0
    dt = config.dt_init
    halvings = 0
    accepted = 0
    trace: List[TraceRecord] = []
    snapshots: Optional[List[Tuple[float, Field]]] = [] if config.store_fields else None
    _observe(trace, snapshots, t, dt, u0, pair)

    def finish(status: SolveStatus, **kw) -> SolveOutcome:
        return _finish(status, params, trace, snapshots, t, dt, Field(grid, v[0]),
                       pair, **kw)

    while _before_horizon(t, config):
        dt_try = min(dt, config.t_end - t)
        candidate = _step(stepper, v, dt_try, reaction)
        # NaN and inf both propagate through the max, so a finite sup
        # means a finite candidate
        sup_new = float(np.max(np.abs(candidate)))
        finite = math.isfinite(sup_new)
        growth = (sup_new - sup) / max(sup, 1e-300) if finite else math.inf
        if finite and growth <= config.growth_cap:
            v = candidate
            sup = sup_new
            t += dt_try
            halvings = 0
            accepted += 1
            if accepted % config.trace_stride == 0:
                _observe(trace, snapshots, t, dt_try, Field(grid, v[0]), pair)
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
                    _observe(trace, snapshots, t, dt, Field(grid, v[0]), pair)
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


def run_batch(params_list: Sequence[ProblemParams], u0s: Sequence[Field],
              config: SolveConfig) -> List[SolveOutcome]:
    """``run`` (without forcing) for problems that differ only in p and q,
    advanced in lockstep; returns one outcome per problem, in order.

    While every step is accepted, ``run`` takes the same t and dt for all of
    them, so the batch advances one (K, M+2) block per step: one reaction
    assembly and one multi-column solve from the shared factors.  A column
    whose step ``run`` would not simply accept (a non-finite state, growth
    above ``growth_cap``, or a sup that reaches ``blowup_threshold``) leaves
    the block and is re-run from its u0 by ``run``, so every outcome equals
    the one ``run`` returns for that problem, bit for bit.
    """
    if len(params_list) != len(u0s):
        raise ValueError("run_batch needs one initial field per problem")
    if not u0s:
        return []
    grid = u0s[0].grid
    if any(u.grid != grid for u in u0s):
        raise ValueError("a batch needs one grid")
    stepper = ImexStepper(grid, config.theta_scheme)
    reaction = Reaction(grid, params_list)
    pair = _kaplan_pair(grid, config)

    live = list(range(len(u0s)))
    v = np.stack([u.values for u in u0s])
    sup = np.max(np.abs(v), axis=1)
    t = 0.0
    dt = config.dt_init
    accepted = 0
    traces: List[List[TraceRecord]] = [[] for _ in live]
    snapshots = [[] if config.store_fields else None for _ in live]
    for k in live:
        _observe(traces[k], snapshots[k], t, dt, u0s[k], pair)
    dropped = []

    while live and _before_horizon(t, config):
        dt_try = min(dt, config.t_end - t)
        candidate = _step(stepper, v, dt_try, reaction)
        sup_new = np.max(np.abs(candidate), axis=1)
        with np.errstate(invalid="ignore"):
            growth = (sup_new - sup) / np.maximum(sup, 1e-300)
        keep = (np.isfinite(sup_new) & (growth <= config.growth_cap)
                & (sup_new < config.blowup_threshold))
        if not keep.all():
            dropped += [k for k, kept in zip(live, keep) if not kept]
            live = [k for k, kept in zip(live, keep) if kept]
            if not live:
                break
            candidate, sup_new = candidate[keep], sup_new[keep]
            reaction = Reaction(grid, [params_list[k] for k in live])
        v = candidate
        sup = sup_new
        t += dt_try
        accepted += 1
        if accepted % config.trace_stride == 0:
            for row, k in enumerate(live):
                _observe(traces[k], snapshots[k], t, dt_try, Field(grid, v[row]), pair)
        dt = min(dt * 1.2, config.dt_max)

    outcomes: List[Optional[SolveOutcome]] = [None] * len(u0s)
    for row, k in enumerate(live):
        outcomes[k] = _finish(SolveStatus.REACHED_HORIZON, params_list[k], traces[k],
                              snapshots[k], t, dt, Field(grid, v[row].copy()), pair)
    for k in dropped:
        outcomes[k] = run(params_list[k], u0s[k], None, config)
    return outcomes


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
