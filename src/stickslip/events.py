"""Exact event-driven solver.

The run alternates stick (static) phases with slip (dynamic) phases.  A stick
at level x_j ends at the first time |b(x_j, t)| exceeds f_s, located by
:func:`next_departure`, the window search the quasistatic model shares: a scan
at the event step and at the drive's knots, refined by regula falsi.  A
slip decomposes into sub-phases of constant velocity sign eps = sign(b) at the
sub-phase start; within one sub-phase the motion solves the smooth signed ODE

    m x'' = b(x, x', t) - eps * f_d,   x(tau) = x_jk, x'(tau) = 0,

and the sub-phase ends at the first zero of x'.  The forcing makes this ODE
linear, m x'' + c x' + K x = g(t) - eps * f_d, and its exact 2x2 propagator
steps through a chunk of scan points per numpy call, on panels split at the
drive's knots.  The drive term of each panel is the closed-form particular
solution of the drive's parts (a linear piece per panel and each cosine
term).  The first panel end where x' has stopped brackets the end, and
safeguarded Newton steps on x' refine it to the root tolerance, each step
one panel on floats.  Both scans, departure and sub-phase, take chunks that
start small and double (:func:`_chunks`): most sticks and slips end within
the first one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Event,
    EventKind,
    TemperatureSpringForcing,
    FrictionParams,
    PhaseLabel,
    SolverCapError,
    Trajectory,
    eval_forcing,
    friction_force,
    horizon,
    natural_frequency,
)

__all__ = [
    "SubphaseResult",
    "next_departure",
    "dynamic_subphase",
    "simulate_events",
]

_FIRST_CHUNK = 128  # grid points of a scan's first chunk, see _chunks
_SCAN_CHUNK = 2048  # and of its largest
_ROOT_TOL = 1e-9  # width of the final bracket of a departure or a stop
_MAX_SUBPHASES = 1000  # sub-phases one slip may take before it is refused


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


def _scan_step(f: TemperatureSpringForcing, p: FrictionParams) -> float:
    """Event-scan step: 1/64 of the fastest relevant period, that of the slip
    oscillation at the run's mass or of the drive's fastest cosine term, so
    brief threshold crossings are not stepped over.  It sets where roots are
    bracketed, not the accuracy of the motion.  The one grid of a run: the
    departure search, the stick rows and the sub-phases all step by it.
    """
    fastest = max([natural_frequency(f, p), *(abs(w) for _, w, _ in f.T.terms)])
    return (2.0 * math.pi / fastest) / 64.0


# --------------------------------------------------------------------------
# Departure from a stick
# --------------------------------------------------------------------------

def next_departure(x_j: float, tau_j: float, f: TemperatureSpringForcing,
                   p: FrictionParams, t_end: float, reenter: bool = False) -> float:
    """First t >= tau_j with |b(x_j, t)| > p.f_s, or +inf if none before the
    horizon.

    With ``reenter`` it is the first t >= tau_j with |b(x_j, t)| <= p.f_s
    instead.  The search scans a grid in the chunks of :func:`_chunks` and
    stops at the first chunk that holds a hit.  A drive with a table and no
    cosine terms is linear between its knots, so the grid is the knots and
    the root is the linear crossing of the window edge |beta*T - x_j| =
    f_s/K: exact on the interpolant, also where one segment jumps across the
    whole window.  Any other drive is scanned with step :func:`_scan_step`
    at the run's mass, the grid of the stick rows and the sub-phases, and at
    its knots, where a noise path may leave the window and return within one
    step; the crossing is refined by :func:`_illinois` to ``_ROOT_TOL``.
    """
    t_hi = horizon(t_end, f.T)
    if tau_j >= t_hi:
        return math.inf
    knots = f.T.knots
    linear = knots is not None and not f.T.terms
    if linear:
        # the window in displacement units, as the stick-level lattice reads it
        first = int(np.searchsorted(knots, tau_j, side="right"))
        grid = lambda lo, hi: knots[first + lo:first + hi]
        signed = lambda ts: f.beta * f.T.at(ts) - x_j
        width = p.f_s / f.K
        chunks = _chunks(1.0)
    else:
        step = _scan_step(f, p)
        chunks = _chunks(1.0 + step * _knot_density(knots))

        def grid(lo, hi):  # scan points lo+1..hi and the breakpoints among them
            ts = tau_j + step * np.arange(lo + 1, hi + 1)
            if knots is None:
                return ts
            a, b = np.searchsorted(knots, (tau_j + step * lo, ts[-1]), "right")
            return np.sort(np.concatenate((ts, knots[a:b])))
        signed = lambda ts: eval_forcing(f, x_j, 0.0, ts)
        width = p.f_s

    t_prev, s_prev = tau_j, signed(tau_j)
    if (abs(s_prev) <= width) == reenter:
        return tau_j
    # a re-entry starts outside on one side, and every point before the hit
    # stays there: the hit is the first point at or past the near edge
    side = 1.0 if s_prev > 0 else -1.0
    hit = (lambda s: side * s <= width) if reenter else (lambda s: np.abs(s) > width)
    for lo, hi in chunks:
        ts = grid(lo, hi)
        last = len(ts) == 0 or ts[-1] >= t_hi
        if last:
            ts = np.append(ts[ts < t_hi], t_hi)
        s = signed(ts)
        k = np.flatnonzero(hit(s))
        if len(k):
            break
        if last:
            return math.inf
        t_prev, s_prev = ts[-1], s[-1]
    k = k[0]
    lo, s_lo = (t_prev, s_prev) if k == 0 else (ts[k - 1], s[k - 1])
    hi, s_hi = ts[k], s[k]
    edge = width * (side if reenter else (1.0 if s_hi > 0 else -1.0))
    if linear:
        return float(lo + (edge - s_lo) * (hi - lo) / (s_hi - s_lo))
    return _illinois(lambda t: signed(t) - edge, lo, hi, s_lo - edge, s_hi - edge,
                     _ROOT_TOL)


def _knot_density(knots: np.ndarray | None) -> float:
    """Mean number of breakpoints per unit time."""
    return 0.0 if knots is None or len(knots) < 2 else \
        (len(knots) - 1) / (knots[-1] - knots[0])


def _chunks(per_step: float):
    """Scan-step ranges (lo, hi] of a scan's chunks on a grid with
    ``per_step`` points per scan step (its own and the knots in it): about
    _FIRST_CHUNK points, then twice as many each time, up to _SCAN_CHUNK.  A
    scan computes little past a short stick or slip, and a long one takes
    few numpy batches.  The points, tau + step*k and the knots, do not
    depend on the schedule."""
    lo, points = 0, _FIRST_CHUNK
    while True:
        hi = lo + max(1, int(points / per_step))
        yield lo, hi
        lo, points = hi, min(2 * points, _SCAN_CHUNK)


def _illinois(g, a: float, b: float, ga: float, gb: float, tol: float) -> float:
    """A zero of g, which changes sign between a and b, to within ``tol``:
    regula falsi, halving the value kept at an end that two steps in a row
    left in place (the Illinois rule).  A step outside the bracket bisects,
    and one below tol/4 is pushed tol/2 across the root to close it.  Returns
    the end nearer g = 0 of a bracket no wider than ``tol``."""
    while abs(b - a) > tol and gb != 0.0:
        c = b - gb * (b - a) / (gb - ga)
        if abs(c - b) < 0.25 * tol:  # converged: probe just past the root
            c = b + math.copysign(0.5 * tol, a - b)
        if not min(a, b) < c < max(a, b):
            c = 0.5 * (a + b)
        gc = g(c)
        a, ga = (a, 0.5 * ga) if (gc > 0.0) == (gb > 0.0) else (b, gb)
        b, gb = c, gc
    return a if abs(ga) < abs(gb) else b


# --------------------------------------------------------------------------
# Slip sub-phase: the exact linear propagator
# --------------------------------------------------------------------------

# |K - m W^2 + i c W| / K at undamped resonance: zero up to the rounding of a
# rate such as W = sqrt(K/m), where the steady amplitude would be noise
_RESONANCE = 4.0 * np.finfo(float).eps


class _LinearSubphase:
    """Exact steps of  m x'' + c x' + K x = g(t) - eps f_d  for one sub-phase.

    During a slip the forcing gives this ODE with the drive g(t) = b(0, 0, t)
    = K beta T(t).  In first-order form y' = A y + e2 (g - eps f_d)/m, and
    with mu = -c/2m, delta^2 = mu^2 - K/m the propagator over a span r is

        E(r) = e^{mu r} [ch(r) I + sh(r) (A - mu I)],

    where (ch, sh) is (cos wr, sin(wr)/w) for delta^2 = -w^2 < 0, (cosh wr,
    sinh(wr)/w) for delta^2 = w^2 > 0 and (1, r) at critical damping.  Over
    a panel [t0, t1] on which the table part of T is linear,

        y(t1) = E(t1 - t0) y(t0) + y_p(t1) - E(t1 - t0) y_p(t0)

    for any particular solution y_p: the piecewise-exact recurrence of Nigam
    & Jennings (1969).  y_p is a sum of closed forms, one per part of the
    drive.  For the linear part G0 + G1 (t - t0) of g - eps f_d on the panel,
    x_p = (G0 + G1 (t - t0) - c G1/K)/K.  For a cosine term K beta a cos(W t +
    phi), x_p = Re[K beta a e^{i(W t + phi)} / (K - m W^2 + i c W)], and at
    undamped resonance the secular x_p = K beta a (t - t0) sin(W t + phi) /
    (2 m W).  Panels are split at the drive's knots, and no span exceeds one
    scan step, so no e^{mu r} grows over a long sub-phase.
    """

    def __init__(self, f: TemperatureSpringForcing, p: FrictionParams, eps: int):
        self.f = f
        self.inv_m = 1.0 / p.m
        self.eps_fd = eps * p.f_d
        self.mu = -0.5 * f.c / p.m
        self.k_m = f.K / p.m
        self.delta2 = self.mu * self.mu - self.k_m
        self.w = math.sqrt(abs(self.delta2))
        if self.w == math.inf:  # mu^2 overflowed, not the rate w itself
            s = math.sqrt(self.k_m)
            self.w = math.sqrt(abs(self.mu) - s) * math.sqrt(abs(self.mu) + s)
        # per cosine term (W, phi, resonant, X, Y): the steady response is
        # x_p = X cos(W t + phi) - Y sin(W t + phi), or the secular one with
        # amplitude X at resonance
        self.waves = []
        for a, w, ph in f.T.terms:
            force = f.K * f.beta * a
            den = complex(f.K - p.m * w * w, f.c * w)
            if abs(den) <= _RESONANCE * f.K:
                self.waves.append((w, ph, True, force / (2.0 * p.m * w), 0.0))
            else:
                z = force / den
                self.waves.append((w, ph, False, z.real, z.imag))

    def _at(self, t, cos, sin):
        """Per cosine term at the time(s) t: the (x, x') of its steady
        response, or for a secular term the (cos, sin) of its phase."""
        out = []
        for w, ph, resonant, X, Y in self.waves:
            theta = w * t + ph
            c, s = cos(theta), sin(theta)
            out.append((c, s) if resonant else (X * c - Y * s, -w * (X * s + Y * c)))
        return out

    def _panels(self, r, level, rate, terms, cos, sin):
        """(E11, E12, E21, E22, d_x, d_v) of panels of widths r, so that the
        state at a panel's end is E y + d for y the state at its start.  On a
        panel the table part of T is level + rate (t - t0), and ``terms``
        holds per cosine term the pairs of :meth:`_at` at its start and at its
        end.  The arguments are arrays of panels with numpy's cos and sin, or
        floats of one panel with math's: the same operations either way, and
        math.cos and math.sin return numpy's bits, so one panel on floats is
        bit for bit a panel of :meth:`steps`.  The exponentials are numpy's on
        floats too, as math.exp does not keep numpy's bits.

        Overdamped, e^{mu r} (ch, sh) is formed as e^{(mu + w) r} (1 +
        e^{-2wr}) / 2 and e^{(mu + w) r} (1 - e^{-2wr}) / 2w: cosh and sinh
        overflow past wr = 710, long before the motion does, and mu + w =
        -(K/m)/(w - mu) is formed without the cancellation."""
        f, mu = self.f, self.mu
        if self.delta2 > 0.0:
            slow = np.exp(-self.k_m / (self.w - mu) * r)
            fast = np.expm1(-2.0 * self.w * r)  # e^{-2wr} - 1
            ch, sh = slow * (1.0 + 0.5 * fast), slow * (-0.5 / self.w * fast)
        elif self.delta2 < 0.0:
            decay, wr = np.exp(mu * r), self.w * r
            ch, sh = decay * cos(wr), decay * (sin(wr) / self.w)
        else:
            ch = np.exp(mu * r)
            sh = ch * r
        e11, e12, e21, e22 = ch - mu * sh, sh, -self.k_m * sh, ch + mu * sh
        # (x, x') of the particular solution at the panel start and end
        v0 = f.beta * rate  # G1/K
        x0 = f.beta * level - (self.eps_fd + f.c * v0) / f.K  # (G0 - c G1/K)/K
        x1, v1 = x0 + v0 * r, v0
        for (w, _, resonant, X, _), ((a0, b0), (a1, b1)) in zip(self.waves, terms):
            if resonant:  # x_p = X (t - t0) sin(theta), zero at the panel start
                v0 = v0 + X * b0
                x1 = x1 + X * r * b1
                v1 = v1 + X * (b1 + w * r * a1)
            else:
                x0, v0, x1, v1 = x0 + a0, v0 + b0, x1 + a1, v1 + b1
        return e11, e12, e21, e22, x1 - (e11 * x0 + e12 * v0), v1 - (e21 * x0 + e22 * v0)

    def steps(self, t0: float, ts: np.ndarray):
        """Exact steps from t0 through the points ``ts`` and the breakpoints
        among them: the panel ends, whether each is a point of ``ts``, and
        the (6, n) array of :meth:`_panels`."""
        ends, on_ts, T = ts, np.ones(len(ts), dtype=bool), self.f.T
        if T.knots is not None:
            lo, hi = np.searchsorted(T.knots, (t0, ts[-1]), side="right")
            points = np.concatenate((ts, T.knots[lo:hi]))
            order = np.argsort(points, kind="stable")
            ends, on_ts = points[order], order < len(ts)
        edges = np.concatenate(([t0], ends))
        r = np.diff(edges)
        level = rate = 0.0
        if T.knots is not None:
            table = T.scale * np.interp(edges, T.knots, T.values)
            level = table[:-1]
            rate = np.divide(np.diff(table), r, out=np.zeros_like(r), where=r > 0.0)
        terms = [((a[:-1], b[:-1]), (a[1:], b[1:]))
                 for a, b in self._at(edges, np.cos, np.sin)]
        return ends, on_ts, np.array(self._panels(r, level, rate, terms, np.cos, np.sin))

    def eval(self, t0: float, x0: float, v0: float, t: float) -> tuple[float, float]:
        """(x, x') at t from the state (x0, v0) at t0 <= t, with no breakpoint
        in (t0, t): one panel of :meth:`steps`, on floats."""
        r, T = t - t0, self.f.T
        level = rate = 0.0
        if T.knots is not None:
            level, end = (T.scale * np.interp((t0, t), T.knots, T.values)).tolist()
            rate = (end - level) / r if r > 0.0 else 0.0
        terms = zip(self._at(t0, math.cos, math.sin), self._at(t, math.cos, math.sin))
        e11, e12, e21, e22, dx, dv = self._panels(r, level, rate, terms,
                                                  math.cos, math.sin)
        # floats, not numpy's scalars, which would slow the next sub-phase
        return float(e11 * x0 + e12 * v0 + dx), float(e21 * x0 + e22 * v0 + dv)


def dynamic_subphase(x_jk: float, tau_jk: float, eps_jk: int,
                     f: TemperatureSpringForcing, p: FrictionParams,
                     t_end: float) -> SubphaseResult:
    """Solve one slip sub-phase from rest at (tau_jk, x_jk).

    Steps the exact propagator along the scan grid of :func:`_scan_step`,
    one numpy batch per chunk of :func:`_chunks`, to the first panel end
    where eps * x' is no longer positive; :func:`_stop` refines that end
    inside its one-panel bracket.  The path holds the start, the interior
    scan samples and the end.
    """
    sub = _LinearSubphase(f, p, eps_jk)
    step = _scan_step(f, p)
    t_hi = horizon(t_end, f.T)
    path = [(tau_jk, x_jk, 0.0)]  # (t, x, x') samples

    def result(t: float, x: float, v: float, truncated: bool) -> SubphaseResult:
        path.append((t, x, v))
        return SubphaseResult(t, x, *np.array(path).T, truncated)

    # x' is checked at every panel end: a noise breakpoint can turn the drive
    # so that the slip stops, and moves on, between two scan points
    t, x, v = path[0]
    for lo, hi in _chunks(1.0 + step * _knot_density(f.T.knots)):
        grid = np.minimum(tau_jk + step * np.arange(lo + 1, hi + 1), t_hi)
        ends, on_grid, rows = sub.steps(t, grid)
        for t1, sample, e11, e12, e21, e22, dx, dv in zip(
                ends.tolist(), on_grid.tolist(), *rows.tolist()):
            x1, v1 = e11 * x + e12 * v + dx, e21 * x + e22 * v + dv
            if eps_jk * v1 <= 0.0:
                return result(*_stop(sub, eps_jk, (t, x, v), (t1, x1, v1), _ROOT_TOL),
                              0.0, False)
            t, x, v = t1, x1, v1
            if t >= t_hi:  # still moving at the horizon
                return result(t, x, v, True)
            if sample:
                path.append((t, x, v))


def _stop(sub: _LinearSubphase, eps: int, lo: tuple, hi: tuple,
          tol: float) -> tuple[float, float]:
    """(t, x) within ``tol`` of the zero of eps * x' between the states
    (t, x, x') ``lo``, moving or at rest at the start, and ``hi``, stopped.

    Newton on x' from the end with the smaller |x'|, with the acceleration
    (b(x, x', t) - eps f_d)/m; bisection where a step leaves the bracket,
    does not halve the last one or meets zero acceleration.  A step below
    tol/4 is pushed tol/2 across the root to close the bracket, and the end
    nearer x' = 0 is returned.
    """
    at = lambda t, start=lo: (t, *sub.eval(*start, t))  # (t, x, x') from lo as given
    while lo[2] == 0.0:  # at rest at the start: the stop came within one panel
        if hi[0] - lo[0] <= tol:  # a degenerate sub-phase
            return hi[:2]
        e = at(0.5 * (lo[0] + hi[0]))
        lo, hi = (e, hi) if eps * e[2] > 0.0 else (lo, e)
    dt = hi[0] - lo[0]
    while hi[0] - lo[0] > tol:
        t, x, v = near = min(lo, hi, key=lambda e: abs(e[2]))
        a = (eval_forcing(sub.f, x, v, t) - sub.eps_fd) * sub.inv_m
        c = t - v / a if a != 0.0 else math.nan
        if abs(c - t) < 0.25 * tol:  # converged: probe just past the root
            c = t + (0.5 * tol if near is lo else -0.5 * tol)
        elif not abs(c - t) <= 0.5 * dt:
            c = math.nan
        if not lo[0] < c < hi[0]:
            c = 0.5 * (lo[0] + hi[0])
        dt = abs(c - t)
        e = at(c)
        lo, hi = (e, hi) if eps * e[2] > 0.0 else (lo, e)
    return min(lo, hi, key=lambda e: abs(e[2]))[:2]


# perfbench/tracer.py spans this name as its own layer
dynamic_subphase_generic = dynamic_subphase


# --------------------------------------------------------------------------
# Full cascade
# --------------------------------------------------------------------------

class _Recorder:
    """Accumulates (t, x, v, phase) chunks; b and the friction force of the
    whole run are computed once, in :meth:`build`."""

    def __init__(self, f: TemperatureSpringForcing, p: FrictionParams):
        self.f = f
        self.p = p
        self.chunks: list[tuple[np.ndarray, ...]] = []

    def add(self, ts: np.ndarray, xs: np.ndarray, vs: np.ndarray,
            phase: PhaseLabel):
        if len(ts):
            self.chunks.append((ts, xs, vs, np.full(len(ts), phase.value,
                                                    dtype=np.int8)))

    def build(self, events: list[Event]) -> Trajectory:
        t, x, v, ph = (np.concatenate(column) for column in zip(*self.chunks))
        b = np.asarray(eval_forcing(self.f, x, v, t), dtype=float)
        return Trajectory(t=t, x=x, v=v, friction=friction_force(self.p, v, b, ph),
                          b=b, phase=ph, events=events)


def simulate_events(x0: float, f: TemperatureSpringForcing, p: FrictionParams,
                    t_end: float) -> Trajectory:
    """Run the full stick/slip cascade up to the horizon.

    Starts static when |b(x0, 0)| <= f_s, otherwise directly in a dynamic
    phase at t = 0.  Raises :class:`SolverCapError` if one slip takes more
    than ``_MAX_SUBPHASES`` sub-phases.
    """
    t_hi = horizon(t_end, f.T)
    step = _scan_step(f, p)
    rec = _Recorder(f, p)
    events: list[Event] = []

    t = 0.0
    x = float(x0)
    b0 = eval_forcing(f, x, 0.0, 0.0)
    static = abs(b0) <= p.f_s
    if static:
        events.append(Event(time=0.0, kind=EventKind.ENTER_STATIC, position=x))

    while t < t_hi:
        if static:
            tau_half = next_departure(x, t, f, p, t_end)
            span_end = min(tau_half, t_hi)
            ts = t + step * np.arange(0, max(1, math.ceil((span_end - t) / step)))
            ts = ts[ts < span_end]
            rec.add(ts, np.full_like(ts, x), np.zeros_like(ts), PhaseLabel.STATIC)
            if tau_half >= t_hi:
                rec.add(np.array([t_hi]), np.array([x]), np.array([0.0]),
                        PhaseLabel.STATIC)
                return rec.build(events)
            t = tau_half
        # a slip starting at time t, position x
        eps = 1 if eval_forcing(f, x, 0.0, t) >= 0 else -1
        events.append(Event(time=t, kind=EventKind.ENTER_DYNAMIC, position=x,
                            epsilon=eps))
        for _ in range(_MAX_SUBPHASES):
            sub = dynamic_subphase(x, t, eps, f, p, t_end)
            interior = sub.path_t < sub.tau_next
            rec.add(sub.path_t[interior], sub.path_x[interior],
                    sub.path_v[interior], PhaseLabel.DYNAMIC)
            if sub.truncated:
                rec.add(sub.path_t[-1:], sub.path_x[-1:], sub.path_v[-1:],
                        PhaseLabel.DYNAMIC)
                return rec.build(events)
            t, x = sub.tau_next, sub.x_next
            b_end = eval_forcing(f, x, 0.0, t)
            if abs(b_end) <= p.f_s:
                break
            eps = 1 if b_end >= 0 else -1
            events.append(Event(time=t, kind=EventKind.SUBPHASE_BOUNDARY,
                                position=x, epsilon=eps))
        else:
            raise SolverCapError(f"a slip exceeded {_MAX_SUBPHASES} sub-phases "
                                 f"at t={t}")
        events.append(Event(time=t, kind=EventKind.ENTER_STATIC, position=x))
        static = True
        if t >= t_hi:
            break
    rec.add(np.array([min(t, t_hi)]), np.array([x]), np.array([0.0]),
            PhaseLabel.STATIC)
    return rec.build(events)
