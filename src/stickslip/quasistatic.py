"""Quasistatic approximation for the temperature-spring model.

When the excitation varies slowly compared with the natural period, the
temperature may be frozen during each slip.  A stick at level x_j then ends
at the first time |beta*T(t) - x_j| exceeds f_s/K; the slip lasts exactly
half a natural period pi*sqrt(m/K) and lands at

    x_{j+1} = x_j + 2*eps*(f_s - f_d)/K,    eps = sign(beta*T - x_j) at departure.

With f_s = f_d the landing point equals the departure point, so the stick
level never changes and the displacement record is a single level; the
alternation is then governed purely by the temperature leaving/re-entering
the admissible window.  This module is the model used for calibration
against measured displacement/temperature records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    Event,
    EventKind,
    EventLog,
    FrictionParams,
    PhaseLabel,
    SampledTemperature,
    SolverCapError,
    TemperatureSpringForcing,
    Trajectory,
    eval_forcing,
    friction_force,
    horizon,
    natural_frequency,
)

__all__ = [
    "QuasistaticStep",
    "quasistatic_step",
    "simulate_quasistatic",
    "admissible_window",
    "stick_levels_on_grid",
]


@dataclass(frozen=True)
class QuasistaticStep:
    """One stick-plus-slip cycle of the quasistatic model."""

    tau_j: float
    x_j: float
    tau_half: float
    eps_j: int
    tau_next: float
    x_next: float


def admissible_window(x0: float, f: float, K: float, beta: float) -> tuple[float, float]:
    """Temperature interval within which the level x0 remains stuck:
    [x0/beta - f/(beta*K), x0/beta + f/(beta*K)].
    """
    if beta <= 0:
        raise ValueError("dilatation coefficient beta must be positive")
    if K <= 0:
        raise ValueError("stiffness K must be positive")
    half = f / (beta * K)
    return (x0 / beta - half, x0 / beta + half)


# --------------------------------------------------------------------------
# Departure search
# --------------------------------------------------------------------------

def _departure_sampled(series, beta: float, x_j: float, width: float,
                       tau_j: float, t_end: float) -> float:
    """Exact inversion of |beta*T(t) - x_j| > width on the linear interpolant."""
    times = series.times
    u = beta * series.temps
    t_hi = horizon(t_end, series)
    if tau_j >= t_hi:
        return math.inf
    # segment containing tau_j
    i = int(np.searchsorted(times, tau_j, side="right") - 1)
    i = max(0, min(i, len(times) - 2))
    t_a = tau_j
    u_a = beta * series.at(tau_j)
    while t_a < t_hi:
        t_b = min(float(times[i + 1]), t_hi)
        u_b = u[i + 1] if t_b == times[i + 1] else beta * series.at(t_b)
        d_a, d_b = u_a - x_j, u_b - x_j
        if d_a > width or d_a < -width:
            return t_a
        candidates = []
        if d_b > width:  # upward crossing inside the segment
            candidates.append(t_a + (width - d_a) * (t_b - t_a) / (d_b - d_a))
        if d_b < -width:
            candidates.append(t_a + (-width - d_a) * (t_b - t_a) / (d_b - d_a))
        if candidates:
            return min(candidates)
        i += 1
        if i >= len(times) - 1:
            break
        t_a, u_a = t_b, u_b
    return math.inf


def _departure_scan(f: TemperatureSpringForcing, x_j: float, width_b: float,
                    tau_j: float, t_end: float, scan_dt: float) -> float:
    """Scan + bisection for |b(x_j, t)| > width_b on an arbitrary source."""
    t_hi = horizon(t_end, f)
    if tau_j >= t_hi:
        return math.inf

    def excess(ts):
        return np.abs(eval_forcing(f, x_j, 0.0, ts)) - width_b

    n = max(1, math.ceil((t_hi - tau_j) / scan_dt))
    ts = np.minimum(tau_j + scan_dt * np.arange(1, n + 1), t_hi)
    g = excess(ts)
    hit = np.nonzero(g > 0)[0]
    if len(hit) == 0:
        return math.inf
    k = hit[0]
    lo = tau_j if k == 0 else float(ts[k - 1])
    hi = float(ts[k])
    while hi - lo > 1e-12 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def quasistatic_step(x_j: float, tau_j: float, f: TemperatureSpringForcing,
                     p: FrictionParams, t_end: float,
                     scan_dt: float | None = None) -> QuasistaticStep | None:
    """Advance one stick-plus-slip cycle; None when the stick never ends.

    Sampled temperature sources are inverted per segment (exact on the
    interpolant); other sources are scanned at ``scan_dt`` (default: horizon
    divided by 4096, capped by the noise grid when present) and bisected.
    """
    if not isinstance(f, TemperatureSpringForcing):
        raise TypeError("quasistatic model requires temperature-spring forcing")
    # If the departure condition already holds at tau_j (fast excitation, or a
    # slip that landed outside the window), the next slip starts immediately.
    width = p.f_s / f.K
    if isinstance(f.T, SampledTemperature):
        tau_half = _departure_sampled(f.T.series, f.beta, x_j, width, tau_j, t_end)
    else:
        if scan_dt is None:
            scan_dt = (horizon(t_end, f) - tau_j) / 4096.0
            breaks = f.T.breakpoints
            if breaks is not None and len(breaks) > 1:
                scan_dt = min(scan_dt, float(breaks[1] - breaks[0]))
        tau_half = _departure_scan(f, x_j, p.f_s, tau_j, t_end, scan_dt)
    if not tau_half < t_end:
        return None
    eps = 1 if f.beta * f.T.at(tau_half) - x_j >= 0 else -1
    omega_n = natural_frequency(f, p)
    return QuasistaticStep(
        tau_j=tau_j,
        x_j=x_j,
        tau_half=tau_half,
        eps_j=eps,
        tau_next=tau_half + math.pi / omega_n,
        x_next=x_j + 2.0 * eps * (p.f_s - p.f_d) / f.K,
    )


# --------------------------------------------------------------------------
# Full staircase simulation
# --------------------------------------------------------------------------

def _reentry_time(f: TemperatureSpringForcing, x: float, p: FrictionParams,
                  t_from: float, t_end: float) -> float:
    """First t >= t_from with |b(x, t)| <= f_s (equal-threshold chatter collapse)."""
    t_hi = horizon(t_end, f)
    if isinstance(f.T, SampledTemperature):
        series = f.T.series
        times = series.times
        t_a = t_from
        i = max(0, min(int(np.searchsorted(times, t_from, side="right") - 1),
                       len(times) - 2))
        width = p.f_s / f.K
        u_a = f.beta * series.at(min(t_a, t_hi))
        while t_a < t_hi:
            t_b = min(float(times[i + 1]), t_hi)
            u_b = f.beta * series.at(t_b)
            d_a, d_b = u_a - x, u_b - x
            if abs(d_a) <= width:
                return t_a
            if abs(d_b) <= width or (d_a > width) != (d_b > width):
                # linear crossing back into the window
                target = width if d_a > width else -width
                return t_a + (target - d_a) * (t_b - t_a) / (d_b - d_a)
            i += 1
            if i >= len(times) - 1:
                break
            t_a, u_a = t_b, u_b
        return math.inf
    scan_dt = (t_hi - t_from) / 4096.0 if t_end > t_from else 1.0
    n = max(1, math.ceil((t_hi - t_from) / scan_dt))
    ts = np.minimum(t_from + scan_dt * np.arange(0, n + 1), t_hi)
    g = np.abs(eval_forcing(f, x, 0.0, ts)) - p.f_s
    hit = np.nonzero(g <= 0)[0]
    if len(hit) == 0:
        return math.inf
    k = hit[0]
    if k == 0:
        return t_from
    lo, hi = float(ts[k - 1]), float(ts[k])
    while hi - lo > 1e-12 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if abs(eval_forcing(f, x, 0.0, mid)) - p.f_s <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def simulate_quasistatic(x0: float, f: TemperatureSpringForcing, p: FrictionParams,
                         t_end: float, sample_times: np.ndarray | None = None,
                         max_events: int = 200_000) -> Trajectory:
    """Iterate quasistatic cycles and emit the staircase trajectory.

    The displacement is piecewise constant at the stick levels x0 + k*dx,
    dx = 2(f_s - f_d)/K, the same lattice :func:`stick_levels_on_grid` reads
    at the sample times; each slip is
    rendered as the half-cosine arc between consecutive levels so the record
    stays continuous.  With f_s = f_d consecutive zero-displacement slips are
    collapsed into one dynamic span lasting until the temperature re-enters
    the admissible window (the level never moves).

    ``sample_times`` overrides the output grid (values must lie in
    [0, t_end]); the event log is unaffected by sampling.  More than
    ``max_events`` events raise :class:`SolverCapError`.
    """
    if not isinstance(f, TemperatureSpringForcing):
        raise TypeError("quasistatic model requires temperature-spring forcing")
    half_period = math.pi / natural_frequency(f, p)
    t_hi = horizon(t_end, f)
    x0 = float(x0)
    dx = 2.0 * (p.f_s - p.f_d) / f.K

    # cycle bookkeeping: (tau_j, x_j, tau_half, eps, tau_next, x_next)
    steps: list[QuasistaticStep] = []
    events = EventLog()
    events.append(Event(time=0.0, kind=EventKind.ENTER_STATIC, position=x0, j=0))
    t, x = 0.0, x0
    k = 0  # lattice index of the stick level x0 + k*dx
    j = 0
    open_end = False
    while len(events) < max_events:
        step = quasistatic_step(x, t, f, p, t_hi)
        if step is None:
            break
        if dx > 0.0:
            k += step.eps_j
            step = replace(step, x_next=x0 + k * dx)
        else:
            # zero-displacement slip: collapse the chatter into one span
            # lasting until the temperature re-enters the admissible window
            reentry = _reentry_time(f, x, p, step.tau_next, t_hi)
            slip_end = t_hi if math.isinf(reentry) else max(step.tau_next, reentry)
            step = replace(step, tau_next=min(slip_end, t_hi))
        steps.append(step)
        events.append(Event(time=step.tau_half, kind=EventKind.ENTER_DYNAMIC,
                            position=step.x_j, epsilon=step.eps_j, j=j))
        j += 1
        if step.tau_next >= t_hi:
            open_end = True
            break
        events.append(Event(time=step.tau_next, kind=EventKind.ENTER_STATIC,
                            position=step.x_next, j=j))
        t, x = step.tau_next, step.x_next
    else:
        raise SolverCapError(f"quasistatic run exceeded {max_events} events "
                             f"at t={t}")

    if sample_times is None:
        sample_times = _default_grid(steps, t_hi)
    else:
        sample_times = np.asarray(sample_times, dtype=float)

    t_arr, x_arr, v_arr, ph_arr = _evaluate(steps, x0, half_period, sample_times,
                                            open_end)
    b_arr = np.asarray(eval_forcing(f, x_arr, v_arr, t_arr), dtype=float)
    return Trajectory(t=t_arr, x=x_arr, v=v_arr,
                      friction=friction_force(p, v_arr, b_arr, ph_arr),
                      b=b_arr, phase=ph_arr, events=events)


def _default_grid(steps: list[QuasistaticStep], t_hi: float) -> np.ndarray:
    """Stick endpoints plus a short arc rendering per slip."""
    pieces = [np.array([0.0])]
    coarse = max(t_hi / 2048.0, 1e-9)
    prev_end = 0.0
    for s in steps:
        span = s.tau_half - prev_end
        n = max(2, min(512, math.ceil(span / coarse)) + 1)
        pieces.append(np.linspace(prev_end, s.tau_half, n)[1:])
        arc_end = min(s.tau_next, t_hi)
        if arc_end > s.tau_half:
            pieces.append(np.linspace(s.tau_half, arc_end, 33)[1:])
        prev_end = arc_end
        if prev_end >= t_hi:
            break
    if prev_end < t_hi:
        span = t_hi - prev_end
        n = max(2, min(2048, math.ceil(span / coarse)) + 1)
        pieces.append(np.linspace(prev_end, t_hi, n)[1:])
    return np.concatenate(pieces)


def _evaluate(steps: list[QuasistaticStep], x0: float, half_period: float,
              ts: np.ndarray, open_end: bool):
    """Displacement, velocity and phase of the staircase at times ``ts``.

    ``open_end`` marks a final slip truncated by the horizon: its samples
    stay dynamic through the closing endpoint.
    """
    x_out = np.full_like(ts, float(x0))
    v_out = np.zeros_like(ts)
    ph_out = np.full(len(ts), PhaseLabel.STATIC.value, dtype=np.int8)
    omega_n = math.pi / half_period
    for idx, s in enumerate(steps):
        unfinished = open_end and idx == len(steps) - 1
        arc = (ts >= s.tau_half) & ((ts <= s.tau_next) if unfinished
                                    else (ts < s.tau_next))
        after = ts >= s.tau_next
        if np.any(arc):
            mid = 0.5 * (s.x_j + s.x_next)
            amp = s.x_j - mid
            # zero-displacement spans keep v = 0 and hold the level
            phase_angle = np.minimum(omega_n * (ts[arc] - s.tau_half), math.pi)
            x_out[arc] = mid + amp * np.cos(phase_angle)
            v_out[arc] = -amp * omega_n * np.sin(phase_angle)
            ph_out[arc] = PhaseLabel.DYNAMIC.value
        if not unfinished:
            x_out[after] = s.x_next
            v_out[after] = 0.0
    return ts, x_out, v_out, ph_out


# --------------------------------------------------------------------------
# Sampled-grid stick levels (calibration hot path)
# --------------------------------------------------------------------------

def _lattice_bounds(u: np.ndarray, x0: float, width: float,
                    dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample admissible lattice indices [lo, hi] of the levels x0 + k*dx.

    ``lo`` is the smallest k with u - (x0 + k*dx) <= width and ``hi`` the
    largest k with u - (x0 + k*dx) >= -width.  Both start from the rounded
    quotient and are then corrected by one step against exactly those float
    predicates, so the indices agree with a sequential loop that evaluates
    them.  Indices are integer-valued floats.
    """
    lo = np.ceil((u - width - x0) / dx)
    lo -= u - (x0 + (lo - 1.0) * dx) <= width
    lo += u - (x0 + lo * dx) > width
    hi = np.floor((u + width - x0) / dx)
    hi += u - (x0 + (hi + 1.0) * dx) >= -width
    hi -= u - (x0 + hi * dx) < -width
    return lo, hi


def _play_indices(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """k_i = clip(k_{i-1}, lo_i, hi_i) from k_{-1} = 0, as a prefix scan.

    With clip(k, a, b) = min(max(k, a), b), a clamp followed by a clamp is a
    clamp,
    clip(clip(k, a1, b1), a2, b2) = clip(k, clip(a1, a2, b2), clip(b1, a2, b2)),
    so a Hillis-Steele inclusive scan composes the whole record in
    ceil(log2 n) whole-array passes.  After pass p, (lo_i, hi_i) is the
    composite clamp of samples i-2^p+1 .. i.  The identity also holds where
    lo > hi, which clip maps to the constant hi: with f_d = 0 the window is
    exactly one step wide and rounding can leave it without a lattice level
    (lo = hi + 1), and the level then rests at hi.  Overwrites both arrays.
    """
    n = len(lo)
    tmp_lo, tmp_hi = np.empty(n), np.empty(n)
    step = 1
    while step < n:
        m = n - step
        np.maximum(lo[:m], lo[step:], out=tmp_lo[:m])
        np.maximum(hi[:m], lo[step:], out=tmp_hi[:m])
        np.minimum(tmp_lo[:m], hi[step:], out=lo[step:])
        np.minimum(tmp_hi[:m], hi[step:], out=hi[step:])
        step *= 2
    return np.minimum(np.maximum(0.0, lo), hi)


def stick_levels_on_grid(temps: np.ndarray, x0: float, K: float, beta: float,
                         f_d: float, f_s: float) -> np.ndarray:
    """Quasistatic stick level at each sample of a piecewise-linear record.

    Equivalent to running :func:`simulate_quasistatic` on the sampled series
    and reading the displacement at the sample times (slip arcs last half a
    natural period, far below any realistic acquisition cadence, so samples
    land on stick levels).  This is the calibration objective's hot path.

    Every level is x0 + k*dx with dx = 2(f_s - f_d)/K, and each sample moves
    the index k the least that brings |beta*T - level| within f_s/K: the
    play operator of Krasnosel'skii & Pokrovskii on that lattice, computed by
    :func:`_play_indices`.  With f_d = f_s the level never moves.
    """
    u = beta * np.asarray(temps, dtype=float)
    x0 = float(x0)
    width = f_s / K
    dx = 2.0 * (f_s - f_d) / K
    if not dx > 0.0:
        return np.full_like(u, x0)
    lo, hi = _lattice_bounds(u, x0, width, dx)
    return x0 + _play_indices(lo, hi) * dx
