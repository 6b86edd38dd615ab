"""Time integration with adaptive steps, monitors and blow-up detection.

The stepper is an IMEX theta scheme: diffusion implicit in the banded
Laplacian A (the explicit half, theta < 1, applies the same A), the reaction
explicit.  A step halves dt when it makes a non-finite state or grows the
sup norm by more than ``growth_cap`` relative; else dt grows 1.2x up to ``dt_max``.

The implicit matrix I - theta dt A depends on the step only through dt,
and dt sits at dt_max for long stretches of a settled run, so an
``ImexStepper`` keeps the LU factors of a dt that repeats; a dt used once
takes one ``dgtsv`` call instead, with the same bits.

``_step`` advances a (K, M+2) block of fields, one per row, with one
reaction assembly at the M+1 unknowns and one multi-column solve;
``_record`` records a block with one reduction per monitored quantity,
each integral (the Kaplan y too) one weighted row sum on the run's grid.
``run_batch`` holds the one adaptive loop and takes every trace record and
snapshot: it steps problems that differ only in p and q in lockstep and
splits off the columns whose step is rejected, so each column has one
history, bit for bit its lone run's.  ``run`` is ``run_batch`` with one column.
A run of the Kaplan class (theta = 1, no forcing, the source term on,
u0 >= 0) brackets its blow-up time at every record, between the sup-norm
ODE's bound below and the Kaplan comparison ODE's bound above, and ends
BlowUp once the two ends agree within ``BRACKET_WIDTH``; any other column
carries NaN ends, which never close.

Truncation semantics (stated in every report): the Dirichlet problem on
B_L is a subsolution of the whole-space problem for nonnegative data, so a
numerically observed blow-up is evidence in the safe direction, while
reaching the horizon on B_L proves nothing about the whole space -- only a
supersolution certificate does.
"""
from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

from .certificates import kaplan_weights, ode_blowup_time
from .core import ProblemParams
from .grid import Field, RadialGrid, _integrate_rows
from .operators import (Reaction, _boundary_gradient, _gradient_rows,
                        _laplacian_unknowns, laplacian_banded)
# no caller here: kept so the benchmark tracer (bench/tracer.py) can wrap them
from scipy.linalg import solve_banded  # noqa: F401
from .certificates import kaplan_functional  # noqa: F401
from .operators import principal_eigenpair, rhs  # noqa: F401

# a Kaplan-class run ends BlowUp once |upper - lower| <= BRACKET_WIDTH * lower
BRACKET_WIDTH = 0.01

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
    # 1 keeps u >= 0 at every dt (the truncation note and Kaplan's argument need it);
    # theta < 1 only at dt <= 1/((1-theta) max_i(c_plus + c_minus)), c_plus + c_minus = -A_ii
    theta_scheme: float = 1.0
    trace_stride: int = 10
    kaplan_R: Optional[float] = None  # refused by ``kaplan_weights`` when a run starts
    store_fields: bool = False

    def __post_init__(self) -> None:
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if not self.blowup_threshold > 1:
            raise ValueError("blowup_threshold must exceed 1")
        if not 0.0 <= self.theta_scheme <= 1.0:
            raise ValueError("theta_scheme must lie in [0, 1]")
        if self.trace_stride < 1:
            raise ValueError(f"output.stride (trace_stride) must be >= 1, "
                             f"got {self.trace_stride!r}")
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
    # the bracket on the blow-up time of a Kaplan-class run (see ``run_batch``)
    t_star_lower: Optional[float] = None
    t_star_upper: Optional[float] = None


class ImexStepper:
    """The implicit half of the theta scheme on one grid.

    Holds the banded Laplacian A (boundary node eliminated), the last dt it
    solved with, and the LU factors of I - theta dt A once that dt repeats.
    """

    def __init__(self, grid: RadialGrid, theta: float) -> None:
        self.grid = grid
        self.theta = theta
        self.ab, self.c_boundary = laplacian_banded(grid)
        self._dt: Optional[float] = None
        self._lu: Optional[tuple] = None  # dgttrf's (dl, d, du, du2, ipiv)

    def solve(self, dt: float, b: np.ndarray) -> np.ndarray:
        """x with (I - theta dt A) x = b, one system per column of b;
        ``b`` is overwritten when it is Fortran-contiguous."""
        if dt == self._dt and self._lu is not None:
            return dgttrs(*self._lu, b, overwrite_b=True)[0]
        a = -self.theta * dt * self.ab
        a[1] += 1.0
        if dt == self._dt:  # a repeat: its factors serve this and later solves
            *lu, info = dgttrf(a[2, :-1], a[1], a[0, 1:])
            if info == 0:
                self._lu = tuple(lu)
                return dgttrs(*lu, b, overwrite_b=True)[0]
        else:  # a miss: dgtsv pivots and rounds as dgttrf + dgttrs do, and keeps nothing
            self._dt, self._lu = dt, None
            *_, x, info = dgtsv(a[2, :-1], a[1], a[0, 1:], b, overwrite_dl=1,
                                overwrite_d=1, overwrite_du=1, overwrite_b=1)
            if info == 0:
                return x
        raise LinAlgError("singular matrix")


def _step(stepper: ImexStepper, v: np.ndarray, dt: float, reaction: Reaction,
          grad: Optional[np.ndarray] = None) -> np.ndarray:
    """One IMEX theta step of every row of the (K, M+2) block v.

    Returns a new block; the boundary column is held fixed.  ``grad``, when
    given, is ``_gradient_rows`` of v, and the step overwrites it.  A row
    whose right-hand side is not finite comes out not finite (the solve
    cannot cancel an inf or a NaN), which the caller rejects; the caller also
    silences the floating-point warnings of such a row (``run_batch`` holds
    one ``np.errstate`` for the whole run).
    """
    theta = stepper.theta
    out = v.copy()  # the boundary column stays
    if reaction.gradient is not None and grad is None:
        grad = _gradient_rows(v, stepper.grid.h_r)
    b = reaction(v[:, :-1], grad)  # the reaction at the unknowns 0..M only
    b *= dt
    b += v[:, :-1]
    if theta < 1.0:
        b += dt * (1.0 - theta) * _laplacian_unknowns(stepper.ab, stepper.c_boundary, v)
    b[:, -1] += theta * dt * stepper.c_boundary * v[:, -1]
    # b.T is Fortran-ordered, so one dgttrs solves every row in place
    out[:, :-1] = stepper.solve(dt, b.T).T
    return out


def _record(t: float, dt: float, v: np.ndarray, grid: RadialGrid,
            kaplan: Optional[np.ndarray], grad: np.ndarray) -> List[TraceRecord]:
    """One trace record at time t per row of the finite (K, M+2) block v;
    ``kaplan`` is the weight vector of the run's ``kaplan_weights``, or None,
    and ``grad`` is ``_gradient_rows`` of v."""
    ys = [None] * len(v) if kaplan is None else (v * kaplan).sum(axis=1).tolist()
    return [TraceRecord(t, dt, *values) for values in zip(
        v.max(axis=1).tolist(), v.min(axis=1).tolist(),
        _integrate_rows(np.abs(v), grid).tolist(), _integrate_rows(v, grid).tolist(),
        np.maximum(grad.max(axis=1), _boundary_gradient(v, grid.h_r)).tolist(), ys)]


def _finish(status: Optional[SolveStatus], params: ProblemParams,
            trace: List[TraceRecord], snapshots: Optional[List[Tuple[float, Field]]],
            u: Field, lower: float = math.nan, upper: float = math.nan) -> SolveOutcome:
    """Close a run at the time t of its last trace record.  (lower, upper) is
    the run's bracket on its blow-up time, NaN outside the Kaplan class; it
    counts as closed only if the run took a step (t > 0).  A BlowUp whose
    bracket is closed takes the bracket's midpoint; any other BlowUp takes
    the blow-up time fit, and a StepFloorStall the stall time.  Status None
    (dt below the step floor) is BlowUp if the bracket is closed, or if
    sup^(1-p) contracted by 3 decades over the growing tail and a blow-up
    time fit exists, else StepFloorStall."""
    t, p = trace[-1].t, float(params.p)
    closed = t > 0.0 and bool(_closes(lower, upper))
    if status is SolveStatus.REACHED_HORIZON:
        est = None
    elif closed:
        est = (0.5 * (lower + upper), None)
    else:
        est = detect_blowup(trace, p)
    if status is None:
        suffix = _increasing_suffix(trace)
        blew = closed or (est is not None and
                          (p - 1.0) * math.log10(suffix[-1][1] / suffix[0][1]) >= 3.0)
        status = SolveStatus.BLOW_UP if blew else SolveStatus.STEP_FLOOR_STALL
    out = SolveOutcome(status=status, trace=trace, final_field=u, snapshots=snapshots,
                       t_star_lower=lower if math.isfinite(lower) else None,
                       t_star_upper=upper if math.isfinite(upper) else None)
    if status is SolveStatus.BLOW_UP:
        if est is not None:
            out.t_star_estimate, out.fit_quality = est
        out.t_last_finite = t
    elif status is SolveStatus.STEP_FLOOR_STALL:
        out.t_stall = t
    return out


def _closes(lower, upper):
    """Whether the bracket (lower, upper) on a blow-up time is closed; NaN
    ends never are.  Floats or arrays, the latter under ``run_batch``'s errstate."""
    return abs(upper - lower) <= BRACKET_WIDTH * lower


@functools.lru_cache(maxsize=16)
def _ladder(grid: RadialGrid, kaplan_R: Optional[float],
            bracket: bool) -> Tuple[np.ndarray, np.ndarray]:
    """(W, lam): the weight vectors of ``kaplan_weights`` as the rows of W and
    their eigenvalues lam, for the balls B_R with R = ``kaplan_R`` first, when
    it is set, then, for a ``bracket``, L/16, L/8, L/4 and L/2, save those
    below two cells 2h.  Kept for the last 16 calls, so both are read-only."""
    rungs = [] if kaplan_R is None else [kaplan_weights(grid, kaplan_R)]
    radii = [grid.L / 16.0, grid.L / 8.0, grid.L / 4.0, grid.L / 2.0] if bracket else []
    for R in radii:
        if R >= 2.0 * grid.h_r and R != kaplan_R:
            try:
                rungs.append(kaplan_weights(grid, R))
            except ValueError:  # the eigen-solve misses from M ~ 1e5 on; a rung less
                pass
    w = np.array([w for _, w in rungs]).reshape(len(rungs), grid.M + 2)
    lam = np.array([lam for lam, _ in rungs])
    w.setflags(write=False)
    lam.setflags(write=False)
    return w, lam


def run(params: ProblemParams, u0: Field, h: Optional[Field],
        config: SolveConfig) -> SolveOutcome:
    """Advance the problem from u0 with adaptive steps until the horizon,
    a certified blow-up trigger, or a step-size stall."""
    return run_batch([params], [u0], config, h)[0]


@dataclass
class _Block:
    """Batch columns whose lone runs are in one state: the same t, dt and
    accepted-step count, so they step as one block."""
    cols: Tuple[int, ...]
    v: np.ndarray
    sup: List[float]  # per-row sup |u| as Python floats, cheap to decide on
    t: float
    dt: float
    # per row: p, and the running ends of the bracket on the blow-up time (NaN: none)
    p: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    accepted: int = 0
    # the gradient a trace record took of v, for the next step to use up
    grad: Optional[np.ndarray] = None

    def take(self, rows: List[int]) -> _Block:
        """These rows, in the same state."""
        return replace(self, cols=tuple(self.cols[r] for r in rows), v=self.v[rows],
                       sup=[self.sup[r] for r in rows], p=self.p[rows],
                       lower=self.lower[rows], upper=self.upper[rows],
                       grad=None if self.grad is None else self.grad[rows])


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_batch(params_list: Sequence[ProblemParams], u0s: Sequence[Field],
              config: SolveConfig, h: Optional[Field] = None, *,
              watch: Optional[Callable] = None) -> List[SolveOutcome]:
    """``run`` for problems that differ only in p and q, advanced in
    lockstep; returns one outcome per problem, in order.

    ``watch(k, t, row)``, when given, sees column k's field at every trace
    record, where and when ``store_fields`` would take a snapshot; ``row``
    is a view into the running block, so the callee must not keep it.

    A block of columns whose lone runs are in one state advances as one
    (K, M+2) array per step: one reaction assembly and one multi-column
    solve.  A sup at ``blowup_threshold`` after an accepted step ends a
    column in BlowUp; the columns whose step is rejected (non-finite, or
    growth above ``growth_cap``) split off as a block that resumes from the
    pre-step state with dt halved, and that ends whole, by ``_finish``'s
    step-floor rule, once its dt falls below ``dt_min``.  Rows are computed
    independently, so each column has one history, bit for bit its lone
    ``run``'s.

    A column is in the Kaplan class when theta = 1, h is None, the source
    term is on and u0 >= 0 at every node.  Such a column keeps a bracket on
    its blow-up time T*, tightened at every trace record at time t:
    lower = max(lower, t + sup^(1-p)/(p-1)), as D+ sup u <= (sup u)^p where
    the gradient vanishes at a maximum, and upper = min(upper, t + t*(y_R)),
    the Kaplan comparison ODE's blow-up time (``ode_blowup_time``) of each
    y_R of the ``_ladder``.  Once |upper - lower| <= ``BRACKET_WIDTH`` *
    lower at a record after an accepted step, the column ends BlowUp there.
    Any other column has NaN ends, which never close (None in its outcome).
    """
    if len(params_list) != len(u0s):
        raise ValueError("run_batch needs one initial field per problem")
    if not u0s:
        return []
    grid = u0s[0].grid
    if any(u.grid != grid for u in u0s):
        raise ValueError("a batch needs one grid")
    stepper = ImexStepper(grid, config.theta_scheme)
    kaplan_class = config.theta_scheme == 1.0 and h is None and params_list[0].use_source
    ladder, lam = _ladder(grid, config.kaplan_R, kaplan_class)
    kaplan = None if config.kaplan_R is None else ladder[0]
    threshold = config.blowup_threshold
    t_stop = config.t_end - 1e-14 * config.t_end
    v = np.stack([u.values for u in u0s])
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot run from non-finite initial data")
    traces: List[List[TraceRecord]] = [[] for _ in u0s]
    snapshots = [[] if config.store_fields else None for _ in u0s]
    outcomes: List[Optional[SolveOutcome]] = [None] * len(u0s)
    ps = np.array([float(prm.p) for prm in params_list])
    lower = np.where(kaplan_class & np.all(v >= 0.0, axis=1), -np.inf, np.nan)

    @functools.cache
    def reaction(cols: Tuple[int, ...]) -> Reaction:
        return Reaction(grid, [params_list[k] for k in cols], h)

    def observe(b: _Block, dt: float) -> List[int]:
        """Append a trace record, and a snapshot if fields are stored, per row
        of b; show each row to ``watch``; tighten the rows' brackets and
        return the rows whose bracket is closed."""
        b.grad = _gradient_rows(b.v, grid.h_r)
        for k, rec, row in zip(b.cols, _record(b.t, dt, b.v, grid, kaplan, b.grad), b.v):
            traces[k].append(rec)
            if config.store_fields:
                snapshots[k].append((b.t, Field(grid, row.copy())))
            if watch is not None:
                watch(k, b.t, row)
        e = 1.0 - b.p
        b.lower = np.maximum(b.lower, b.t - np.array(b.sup) ** e / e)
        t_ode = ode_blowup_time(b.v @ ladder.T, b.p[:, None], lam).min(axis=1, initial=np.inf)
        b.upper = np.minimum(b.upper, b.t + t_ode)
        closed = _closes(b.lower, b.upper)
        return np.flatnonzero(closed).tolist() if True in closed.tolist() else []

    def leave(b: _Block, rows: List[int], status: Optional[SolveStatus]) -> _Block:
        """End these rows of b with ``status`` (None: at the step floor); return the rest."""
        if not rows:
            return b
        ended = b.take(rows)
        if b.accepted % config.trace_stride:  # the last record is older than b.t
            observe(ended, b.dt)
        for k, row, lo, up in zip(ended.cols, ended.v, ended.lower.tolist(), ended.upper.tolist()):
            outcomes[k] = _finish(status, params_list[k], traces[k], snapshots[k],
                                  Field(grid, row), lo, up)
        gone = set(rows)
        return b.take([row for row in range(len(b.cols)) if row not in gone])

    blocks = [_Block(tuple(range(len(u0s))), v, np.abs(v).max(axis=1).tolist(), 0.0,
                     config.dt_init, ps, lower, -lower)]
    observe(blocks[0], config.dt_init)
    while blocks:
        b = blocks.pop()
        while b.cols and b.t < t_stop:
            dt_try = min(b.dt, config.t_end - b.t)
            candidate = _step(stepper, b.v, dt_try, reaction(b.cols), b.grad)
            b.grad = None  # used up by the step
            sup = np.abs(candidate).max(axis=1).tolist()
            # NaN and inf fail the comparison, so an accepted column is finite
            ok = [(s - s0) / max(s0, 1e-300) <= config.growth_cap
                  for s, s0 in zip(sup, b.sup)]
            if not all(ok):
                # the rejected rows halve dt from the pre-step state, split off
                # unless every row is rejected; they share dt, so they stop
                # together below the step floor
                good = [row for row, accept in enumerate(ok) if accept]
                bad = [row for row, accept in enumerate(ok) if not accept]
                rejected = b.take(bad) if good else b
                rejected.dt /= 2.0
                if rejected.dt < config.dt_min:
                    rejected = leave(rejected, list(range(len(rejected.cols))), None)
                if not good:
                    b = rejected
                    continue
                blocks.append(rejected)
                b, candidate, sup = b.take(good), candidate[good], [sup[r] for r in good]
            b.v, b.sup = candidate, sup
            b.t += dt_try
            b.accepted += 1
            closed = observe(b, dt_try) if b.accepted % config.trace_stride == 0 else []
            if closed or max(sup) >= threshold:
                b = leave(b, sorted({row for row, s in enumerate(sup) if s >= threshold}
                                    .union(closed)), SolveStatus.BLOW_UP)
            b.dt = min(b.dt * 1.2, config.dt_max)
        leave(b, list(range(len(b.cols))), SolveStatus.REACHED_HORIZON)
    return outcomes


def _increasing_suffix(trace: List[TraceRecord]) -> List[Tuple[float, float]]:
    sups = [(rec.t, rec.sup_u) for rec in trace if rec.sup_u > 0]
    k = len(sups) - 1
    while k > 0 and sups[k - 1][1] < sups[k][1]:
        k -= 1
    return sups[k:]


def detect_blowup(trace: List[TraceRecord], p: float) -> Optional[Tuple[float, float]]:
    """Estimate the blow-up time from the tail of a growing trace.

    Fits sup_u(t) ~ C (T - t)^(-1/(p-1)) by linear least squares on
    z = sup_u^(1-p) (the fit form is a heuristic extrapolation device
    borrowed from the pure-power equation, not a proved rate).  The fit
    window is the growing tail spanning the last three decades of sup_u, at
    most its last 40 records, so the abscissas are spread over the
    asymptotic regime.  Returns (T, residual); None when the trace does not
    show super-threshold growth.
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
    tail = tail[-40:]
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
