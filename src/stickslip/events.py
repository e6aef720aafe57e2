"""Exact event-driven solver.

The run alternates stick (static) phases with slip (dynamic) phases.  A stick
at level x_j ends at the first time |b(x_j, t)| exceeds f_s, located by
:func:`next_departure`, the window search the quasistatic model shares.  A
slip decomposes into sub-phases of constant velocity sign eps = sign(b) at the
sub-phase start; within one sub-phase the motion solves the smooth signed ODE

    m x'' = b(x, x', t) - eps * f_d,   x(tau) = x_jk, x'(tau) = 0,

and the sub-phase ends at the first zero of x'.  For both forcings this ODE
is linear, m x'' + c x' + k x = g(t) - eps * f_d, and one integrator advances
its exact 2x2 state propagator, with the drive term taken by Gauss-Legendre
quadrature on panels split at the temperature breakpoints.  Zero-velocity
instants are bracketed on the scan grid and refined by bisection to the
configured root tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Event,
    EventKind,
    EventLog,
    ForcingModel,
    FrictionParams,
    PhaseLabel,
    SampledTemperature,
    SolverCapError,
    Trajectory,
    eval_forcing,
    friction_force,
    horizon,
    natural_frequency,
)

__all__ = [
    "EngineConfig",
    "SubphaseResult",
    "MaxSubphasesError",
    "next_departure",
    "dynamic_subphase",
    "simulate_events",
]

_SCAN_CHUNK = 2048


@dataclass(frozen=True)
class EngineConfig:
    """Engine resolution knobs.

    ``bracket_dt`` (the event-scan step) defaults to 1/64 of the fastest
    relevant period -- the natural period of the slip oscillation, and for
    harmonic forcing also the forcing period -- so brief threshold crossings
    are not stepped over.  Sub-phases advance the exact propagator between
    scan points, so the scan step sets where roots are bracketed, not the
    accuracy of the motion.
    """

    t_end: float
    root_tol: float = 1e-9
    bracket_dt: float | None = None
    max_subphases: int = 1000

    def __post_init__(self):
        if self.root_tol <= 0:
            raise ValueError("root_tol must be positive")
        if self.bracket_dt is not None and self.bracket_dt <= 0:
            raise ValueError("bracket_dt must be positive")
        if self.max_subphases < 1:
            raise ValueError("max_subphases must be >= 1")


@dataclass
class SubphaseResult:
    """One dynamic sub-phase: end event plus the sampled path.

    ``truncated`` marks a sub-phase cut by the horizon before reaching
    x' = 0; then ``tau_next``/``x_next`` hold the horizon state.
    """

    tau_next: float
    x_next: float
    path_t: np.ndarray
    path_x: np.ndarray
    path_v: np.ndarray
    truncated: bool = False


class MaxSubphasesError(SolverCapError):
    """Sub-phase cascade exceeded the configured safety cap."""


def _scan_step(f: ForcingModel, p: FrictionParams | None, cfg: EngineConfig) -> float:
    """Default event-scan step: 1/64 of the fastest relevant period.

    Without friction parameters (pure departure searches) the natural period
    is taken at unit mass.
    """
    if cfg.bracket_dt is not None:
        return cfg.bracket_dt
    return (2.0 * math.pi / max(natural_frequency(f, p), f.Omega)) / 64.0


# --------------------------------------------------------------------------
# Departure from a stick
# --------------------------------------------------------------------------

def next_departure(x_j: float, tau_j: float, f: ForcingModel, f_s: float,
                   cfg: EngineConfig, reenter: bool = False) -> float:
    """First t >= tau_j with |b(x_j, t)| > f_s, or +inf if none before the horizon.

    With ``reenter`` it is the first t >= tau_j with |b(x_j, t)| <= f_s
    instead.  The search scans a grid in chunks of ``_SCAN_CHUNK`` points and
    stops at the first chunk that holds a hit.  On a sampled temperature the
    drive is linear between breakpoints, so the grid is the breakpoints and
    the root is the linear crossing of the window edge |beta*T - x_j| = f_s/K:
    exact on the interpolant, also where one segment jumps across the whole
    window.  Any other forcing is scanned with step ``bracket_dt`` and the
    root bisected down to ``root_tol``.
    """
    t_hi = horizon(cfg.t_end, f)
    if tau_j >= t_hi:
        return math.inf
    linear = isinstance(getattr(f, "T", None), SampledTemperature)
    if linear:
        # the window in displacement units, as the stick-level lattice reads it
        knots = f.T.series.times
        first = int(np.searchsorted(knots, tau_j, side="right"))
        grid = lambda c: knots[first + c * _SCAN_CHUNK:first + (c + 1) * _SCAN_CHUNK]
        signed = lambda ts: f.beta * f.T.at(ts) - x_j
        width = f_s / f.K
    else:
        step = _scan_step(f, None, cfg)
        grid = lambda c: tau_j + step * np.arange(c * _SCAN_CHUNK + 1,
                                                  (c + 1) * _SCAN_CHUNK + 1)
        signed = lambda ts: eval_forcing(f, x_j, 0.0, ts)
        width = f_s

    t_prev, s_prev = tau_j, signed(tau_j)
    if (abs(s_prev) <= width) == reenter:
        return tau_j
    # a re-entry starts outside on one side, and every point before the hit
    # stays there: the hit is the first point at or past the near edge
    side = 1.0 if s_prev > 0 else -1.0
    hit = (lambda s: side * s <= width) if reenter else (lambda s: np.abs(s) > width)
    c = 0
    while True:
        ts = grid(c)
        ts = ts[ts < t_hi]
        last = len(ts) < _SCAN_CHUNK
        if last:
            ts = np.append(ts, t_hi)
        s = signed(ts)
        k = np.flatnonzero(hit(s))
        if len(k):
            break
        if last:
            return math.inf
        t_prev, s_prev = ts[-1], s[-1]
        c += 1
    k = k[0]
    lo, s_lo = (t_prev, s_prev) if k == 0 else (ts[k - 1], s[k - 1])
    hi, s_hi = ts[k], s[k]
    if linear:
        edge = width * (side if reenter else (1.0 if s_hi > 0 else -1.0))
        return float(lo + (edge - s_lo) * (hi - lo) / (s_hi - s_lo))
    while hi - lo > cfg.root_tol:
        mid = 0.5 * (lo + hi)
        if hit(signed(mid)):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# Slip sub-phase: the exact linear propagator
# --------------------------------------------------------------------------

_GL_POINTS = 24
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_POINTS)


class _LinearSubphase:
    """State (x, x') of  m x'' + c x' + k x = g(t) - eps f_d  from an anchor.

    Both forcings give this ODE during a slip, with k = ``f.K``,
    c = ``f.damping`` and the drive g(t) = b(0, 0, t).  In first-order form
    y' = A y + e2 (g - eps f_d)/m, and with mu = -c/2m, delta^2 = mu^2 - k/m
    the propagator over a span r is

        E(r) = e^{mu r} [ch(r) I + sh(r) (A - mu I)],

    where (ch, sh) is (cos wr, sin(wr)/w) for delta^2 = -w^2 < 0, (cosh wr,
    sinh(wr)/w) for delta^2 = w^2 > 0 and (1, r) at critical damping.  Then

        y(t) = E(t - t0) y0 + int_t0^t E(t - s) e2 (g(s) - eps f_d)/m ds,

    with the integral taken by the Gauss-Legendre rule on panels split at the
    forcing's breakpoints: exact on piecewise-linear temperatures, and at
    machine precision on the smooth drives, resonance included.  ``commit``
    re-anchors (t0, y0) at a scan point, so no span exceeds one scan step and
    no e^{mu r} grows over a long sub-phase.
    """

    def __init__(self, f: ForcingModel, p: FrictionParams, eps: int,
                 t0: float, x0: float):
        self.f = f
        self.inv_m = 1.0 / p.m
        self.eps_fd = eps * p.f_d
        self.mu = -0.5 * f.damping / p.m
        self.k_m = f.K / p.m
        self.delta2 = self.mu * self.mu - self.k_m
        self.w = math.sqrt(abs(self.delta2))
        breaks = f.breakpoints
        self.breaks = None if breaks is None else np.asarray(breaks, dtype=float)
        self.commit(t0, x0, 0.0)

    def commit(self, t: float, x: float, v: float) -> None:
        """Re-anchor at a state that :meth:`eval` returned."""
        self.t0, self.x0, self.v0 = t, x, v

    def _ch_sh(self, r: np.ndarray):
        if self.delta2 < 0.0:
            wr = self.w * r
            return np.cos(wr), np.sin(wr) / self.w
        if self.delta2 > 0.0:
            wr = self.w * r
            return np.cosh(wr), np.sinh(wr) / self.w
        return np.ones_like(r), r

    def eval(self, t: float) -> tuple[float, float]:
        """(x, x') at t >= the anchor; does not move the anchor."""
        t0, x0, v0, mu = self.t0, self.x0, self.v0, self.mu
        if self.breaks is None:
            edges = np.array([t0, t])
        else:
            lo = np.searchsorted(self.breaks, t0, side="right")
            hi = np.searchsorted(self.breaks, t, side="left")
            edges = np.concatenate(([t0], self.breaks[lo:hi], [t]))
        mids = 0.5 * (edges[1:] + edges[:-1])
        halfs = 0.5 * (edges[1:] - edges[:-1])
        s = (mids[:, None] + halfs[:, None] * _GL_NODES).ravel()
        # spans: [0] from the anchor, [1:] from each quadrature node
        r = np.concatenate(([t - t0], t - s))
        decay = np.exp(mu * r)
        ch, sh = self._ch_sh(r)
        drive = (eval_forcing(self.f, 0.0, 0.0, s) - self.eps_fd) * self.inv_m
        wd = (halfs[:, None] * _GL_WEIGHTS).ravel() * drive * decay[1:]
        x = decay[0] * (ch[0] * x0 + sh[0] * (v0 - mu * x0)) \
            + float(np.dot(wd, sh[1:]))
        v = decay[0] * (ch[0] * v0 + sh[0] * (mu * v0 - self.k_m * x0)) \
            + float(np.dot(wd, ch[1:] + mu * sh[1:]))
        return float(x), float(v)


def dynamic_subphase(x_jk: float, tau_jk: float, eps_jk: int,
                     f: ForcingModel, p: FrictionParams,
                     cfg: EngineConfig) -> SubphaseResult:
    """Solve one slip sub-phase from rest at (tau_jk, x_jk), for either forcing.

    Steps the exact linear propagator over the scan grid of spacing
    ``bracket_dt``, re-anchoring at every scan point, and refines the first
    zero of eps * x' by bisection to ``root_tol``.  The path holds the start,
    the interior scan samples and the end.
    """
    sub = _LinearSubphase(f, p, eps_jk, tau_jk, x_jk)
    step = _scan_step(f, p, cfg)
    t_hi = horizon(cfg.t_end, f)
    ts, xs, vs = [tau_jk], [x_jk], [0.0]

    def result(t: float, x: float, v: float, truncated: bool) -> SubphaseResult:
        ts.append(t)
        xs.append(x)
        vs.append(v)
        return SubphaseResult(t, x, np.array(ts), np.array(xs), np.array(vs),
                              truncated)

    t_prev = tau_jk
    i = 1
    while True:
        t_i = tau_jk + i * step
        if t_i >= t_hi:
            x_i, v_i = sub.eval(t_hi)
            if eps_jk * v_i > 0.0:  # still moving at the horizon
                return result(t_hi, x_i, v_i, True)
            t_i = t_hi  # the stop lies in (t_prev, t_hi]
        else:
            x_i, v_i = sub.eval(t_i)
        if eps_jk * v_i <= 0.0:
            break
        ts.append(t_i)
        xs.append(x_i)
        vs.append(v_i)
        sub.commit(t_i, x_i, v_i)
        t_prev = t_i
        i += 1

    # sign change in (t_prev, t_i]; ensure a strictly-moving left end
    lo, hi = t_prev, t_i
    if t_prev == tau_jk:  # no interior sample yet: probe for motion after tau
        probe = step
        while probe > cfg.root_tol:
            probe *= 0.5
            if eps_jk * sub.eval(tau_jk + probe)[1] > 0.0:
                lo = tau_jk + probe
                break
        else:  # degenerate sub-phase shorter than root_tol
            return result(tau_jk + probe, sub.eval(tau_jk + probe)[0], 0.0, False)
    while hi - lo > cfg.root_tol:
        mid = 0.5 * (lo + hi)
        if eps_jk * sub.eval(mid)[1] > 0.0:
            lo = mid
        else:
            hi = mid
    t_stop = 0.5 * (lo + hi)
    return result(t_stop, sub.eval(t_stop)[0], 0.0, False)


# perfbench/tracer.py spans this name as its own layer
dynamic_subphase_generic = dynamic_subphase


# --------------------------------------------------------------------------
# Full cascade
# --------------------------------------------------------------------------

class _Recorder:
    """Accumulates trajectory columns; friction by :func:`friction_force`."""

    def __init__(self, f: ForcingModel, p: FrictionParams):
        self.f = f
        self.p = p
        self.t: list[np.ndarray] = []
        self.x: list[np.ndarray] = []
        self.v: list[np.ndarray] = []
        self.fr: list[np.ndarray] = []
        self.b: list[np.ndarray] = []
        self.ph: list[np.ndarray] = []

    def add(self, ts: np.ndarray, xs: np.ndarray, vs: np.ndarray,
            phase: PhaseLabel):
        if len(ts) == 0:
            return
        bs = np.asarray(eval_forcing(self.f, xs, vs, ts), dtype=float)
        self.t.append(ts)
        self.x.append(xs)
        self.v.append(vs)
        self.fr.append(friction_force(self.p, vs, bs, phase))
        self.b.append(bs)
        self.ph.append(np.full(len(ts), phase.value, dtype=np.int8))

    def build(self, events: EventLog) -> Trajectory:
        cat = lambda chunks: np.concatenate(chunks) if chunks else np.array([])
        return Trajectory(t=cat(self.t), x=cat(self.x), v=cat(self.v),
                          friction=cat(self.fr), b=cat(self.b),
                          phase=np.concatenate(self.ph).astype(np.int8)
                          if self.ph else np.array([], dtype=np.int8),
                          events=events)


def simulate_events(x0: float, f: ForcingModel, p: FrictionParams,
                    cfg: EngineConfig) -> Trajectory:
    """Run the full stick/slip cascade up to the horizon.

    Starts static when |b(x0, 0)| <= f_s, otherwise directly in a dynamic
    phase at t = 0.  Raises :class:`MaxSubphasesError` (with the partial
    trajectory attached) if a single dynamic phase exceeds the sub-phase cap.
    """
    t_hi = horizon(cfg.t_end, f)
    step = _scan_step(f, p, cfg)
    rec = _Recorder(f, p)
    events = EventLog()

    t = 0.0
    x = float(x0)
    j = 0
    b0 = eval_forcing(f, x, 0.0, 0.0)
    static = abs(b0) <= p.f_s
    if static:
        events.append(Event(time=0.0, kind=EventKind.ENTER_STATIC, position=x, j=0))

    while t < t_hi:
        if static:
            tau_half = next_departure(x, t, f, p.f_s, cfg)
            span_end = min(tau_half, t_hi)
            ts = t + step * np.arange(0, max(1, math.ceil((span_end - t) / step)))
            ts = ts[ts < span_end]
            rec.add(ts, np.full_like(ts, x), np.zeros_like(ts), PhaseLabel.STATIC)
            if tau_half >= t_hi:
                rec.add(np.array([t_hi]), np.array([x]), np.array([0.0]),
                        PhaseLabel.STATIC)
                return rec.build(events)
            t = tau_half
        # dynamic phase j starting at time t, position x
        eps = 1 if eval_forcing(f, x, 0.0, t) >= 0 else -1
        events.append(Event(time=t, kind=EventKind.ENTER_DYNAMIC, position=x,
                            epsilon=eps, j=j))
        k = 0
        while True:
            sub = dynamic_subphase(x, t, eps, f, p, cfg)
            interior = sub.path_t < sub.tau_next
            rec.add(sub.path_t[interior], sub.path_x[interior],
                    sub.path_v[interior], PhaseLabel.DYNAMIC)
            if sub.truncated:
                rec.add(sub.path_t[-1:], sub.path_x[-1:], sub.path_v[-1:],
                        PhaseLabel.DYNAMIC)
                return rec.build(events)
            t, x = sub.tau_next, sub.x_next
            k += 1
            b_end = eval_forcing(f, x, 0.0, t)
            if abs(b_end) <= p.f_s:
                break
            if k >= cfg.max_subphases:
                rec.add(np.array([t]), np.array([x]), np.array([0.0]),
                        PhaseLabel.DYNAMIC)
                raise MaxSubphasesError(
                    f"dynamic phase {j} exceeded {cfg.max_subphases} sub-phases "
                    f"at t={t}", partial=rec.build(events))
            eps = 1 if b_end >= 0 else -1
            events.append(Event(time=t, kind=EventKind.SUBPHASE_BOUNDARY,
                                position=x, epsilon=eps, j=j, k=k))
        j += 1
        events.append(Event(time=t, kind=EventKind.ENTER_STATIC, position=x, j=j))
        static = True
        if t >= t_hi:
            break
    rec.add(np.array([min(t, t_hi)]), np.array([x]), np.array([0.0]),
            PhaseLabel.STATIC)
    return rec.build(events)
