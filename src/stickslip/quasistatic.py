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

import numpy as np

from .events import next_departure
from .model import (
    Event,
    EventKind,
    FrictionParams,
    PhaseLabel,
    SolverCapError,
    TemperatureSpringForcing,
    Trajectory,
    eval_forcing,
    friction_force,
    horizon,
    natural_frequency,
)

__all__ = [
    "simulate_quasistatic",
    "stick_levels_on_grid",
]

_MAX_EVENTS = 200_000  # events one run may emit before it is refused


# --------------------------------------------------------------------------
# Full staircase simulation
# --------------------------------------------------------------------------

def simulate_quasistatic(x0: float, f: TemperatureSpringForcing, p: FrictionParams,
                         t_end: float) -> Trajectory:
    """Iterate quasistatic cycles and emit the staircase trajectory.

    Each stick ends, and each equal-threshold slip re-enters the window, where
    the event engine's :func:`next_departure` finds it, so on the same input
    both engines find the same first departure.  The displacement is
    piecewise constant at the stick levels x0 + k*dx, dx = 2(f_s - f_d)/K,
    the lattice :func:`stick_levels_on_grid` also reads; each slip is
    rendered as the half-cosine arc between consecutive levels so the record
    stays continuous.  With f_s = f_d consecutive zero-displacement slips are
    collapsed into one dynamic span lasting until the temperature re-enters
    the admissible window (the level never moves).

    The output grid holds the stick endpoints and a short arc per slip; the
    levels at a record's own sample times are :func:`stick_levels_on_grid`.
    More than ``_MAX_EVENTS`` events raise :class:`SolverCapError`, and a
    damped forcing (c != 0) raises ValueError.
    """
    if f.c != 0.0:
        raise ValueError("quasistatic model requires an undamped forcing (c = 0): "
                         "its slips last half an undamped period")
    half_period = math.pi / natural_frequency(f, p)
    t_hi = horizon(t_end, f.T)
    x0 = float(x0)
    dx = 2.0 * (p.f_s - p.f_d) / f.K

    # cycle i: the stick at levels[i] ends at tau_half[i], and the slip lands
    # at levels[i + 1] at tau_next[i]
    tau_half, tau_next, levels = [], [], [x0]
    events = [Event(time=0.0, kind=EventKind.ENTER_STATIC, position=x0)]
    t, x = 0.0, x0
    k = 0  # lattice index of the stick level x0 + k*dx
    open_end = False
    while len(events) < _MAX_EVENTS:
        # the departure holds at t already when the slip landed outside the window
        depart = next_departure(x, t, f, p, t_hi)
        if not depart < t_hi:
            break
        eps = 1 if f.beta * f.T.at(depart) - x >= 0 else -1
        k += eps
        land = depart + half_period
        if dx == 0.0:
            # zero-displacement slip: collapse the chatter into one span
            # lasting until the temperature re-enters the admissible window
            reentry = next_departure(x, land, f, p, t_hi, reenter=True)
            land = min(max(land, reentry), t_hi)
        events.append(Event(time=depart, kind=EventKind.ENTER_DYNAMIC,
                            position=x, epsilon=eps))
        tau_half.append(depart)
        tau_next.append(land)
        levels.append(x0 + k * dx)
        if land >= t_hi:
            open_end = True
            break
        events.append(Event(time=land, kind=EventKind.ENTER_STATIC,
                            position=levels[-1]))
        t, x = land, levels[-1]
    else:
        raise SolverCapError(f"quasistatic run exceeded {_MAX_EVENTS} events "
                             f"at t={t}")

    tau_half, tau_next = np.array(tau_half), np.array(tau_next)
    sample_times = _default_grid(tau_half, tau_next, t_hi)

    x_arr, v_arr, ph_arr = _evaluate(tau_half, tau_next, np.array(levels),
                                     half_period, sample_times, open_end)
    b_arr = np.asarray(eval_forcing(f, x_arr, v_arr, sample_times), dtype=float)
    return Trajectory(t=sample_times, x=x_arr, v=v_arr,
                      friction=friction_force(p, v_arr, b_arr, ph_arr),
                      b=b_arr, phase=ph_arr, events=events)


def _default_grid(tau_half: np.ndarray, tau_next: np.ndarray,
                  t_hi: float) -> np.ndarray:
    """Stick endpoints plus a short arc rendering per slip."""
    pieces = [np.array([0.0])]
    coarse = max(t_hi / 2048.0, 1e-9)
    prev_end = 0.0
    for depart, land in zip(tau_half.tolist(), tau_next.tolist()):
        span = depart - prev_end
        n = max(2, min(512, math.ceil(span / coarse)) + 1)
        pieces.append(np.linspace(prev_end, depart, n)[1:])
        arc_end = min(land, t_hi)
        if arc_end > depart:
            pieces.append(np.linspace(depart, arc_end, 33)[1:])
        prev_end = arc_end
    if prev_end < t_hi:
        span = t_hi - prev_end
        n = max(2, min(2048, math.ceil(span / coarse)) + 1)
        pieces.append(np.linspace(prev_end, t_hi, n)[1:])
    return np.concatenate(pieces)


def _evaluate(tau_half: np.ndarray, tau_next: np.ndarray, levels: np.ndarray,
              half_period: float, ts: np.ndarray, open_end: bool):
    """Displacement, velocity and phase of the staircase at times ``ts``.

    Cycle i holds levels[i] until tau_half[i], slips on a half-cosine arc
    until tau_next[i] and then holds levels[i + 1].  ``open_end`` marks a
    final slip truncated by the horizon: its samples stay dynamic through the
    closing endpoint.
    """
    i = np.searchsorted(tau_half, ts, side="right") - 1  # last cycle begun
    begun = i >= 0
    c = np.maximum(i, 0)
    end = np.append(tau_next, math.inf)[c]  # the pad serves a run without slips
    unfinished = open_end & (i == len(tau_half) - 1)
    arc = begun & ((ts < end) | (unfinished & (ts == end)))
    x_out = levels[c + (begun & ~unfinished & (ts >= end))]
    v_out = np.zeros_like(ts)
    ca = c[arc]
    mid = 0.5 * (levels[ca] + levels[ca + 1])
    amp = levels[ca] - mid
    omega_n = math.pi / half_period
    # zero-displacement spans keep v = 0 and hold the level
    phase_angle = np.minimum(omega_n * (ts[arc] - tau_half[ca]), math.pi)
    x_out[arc] = mid + amp * np.cos(phase_angle)
    v_out[arc] = -amp * omega_n * np.sin(phase_angle)
    ph_out = np.where(arc, PhaseLabel.DYNAMIC.value,
                      PhaseLabel.STATIC.value).astype(np.int8)
    return x_out, v_out, ph_out


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
    them.  Indices are integer-valued floats.  This is the exact path of
    :func:`_rounded_bounds`, which calls it only for samples near an edge.
    """
    lo = np.ceil((u - width - x0) / dx)
    lo -= u - (x0 + (lo - 1.0) * dx) <= width
    lo += u - (x0 + lo * dx) > width
    hi = np.floor((u + width - x0) / dx)
    hi += u - (x0 + (hi + 1.0) * dx) >= -width
    hi -= u - (x0 + hi * dx) < -width
    return lo, hi


def _rounded_bounds(u: np.ndarray, u_max: float, x0: float, width: float,
                    dx: float) -> tuple[np.ndarray, np.ndarray]:
    """The [lo, hi] of :func:`_lattice_bounds`, from the rounded quotients
    where those are far from an integer; ``u_max`` is max|u|.

    With q = (u - width - x0)/dx and q_h = q + 2*width/dx, the real bounds
    are ceil(q) and floor(q_h).  The floats in the predicates u - (x0 +
    k*dx) <= width (and >= -width) at the k the corrections test are at most
    M + dx, M = u_max + |x0| + width, so each predicate, and q and q_h, are
    within a few eps*(M/dx + 1) steps of their real values.  Where q and q_h
    are both more than tol = 64*eps*(M/dx + 4) from every integer, the float
    and real predicates agree: the corrections are no-ops.  The rest, with
    any non-finite quotient, take the exact path; past M/dx ~ 2**45, all do.
    """
    q = (u - width - x0) / dx
    q_h = q + 2.0 * width / dx
    lo, hi = np.ceil(q), np.floor(q_h)
    near = np.maximum(np.abs(q - lo + 0.5), np.abs(q_h - hi - 0.5))
    tol = 64.0 * np.finfo(float).eps * ((u_max + abs(x0) + width) / dx + 4.0)
    edge = np.flatnonzero(~(near < 0.5 - tol))
    if len(edge):
        lo[edge], hi[edge] = _lattice_bounds(u[edge], x0, width, dx)
    return lo, hi


def _play_indices(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """k_i = clip(k_{i-1}, lo_i, hi_i) from k_{-1} = 0, as a prefix scan.

    With clip(k, a, b) = min(max(k, a), b), a clamp followed by a clamp is a
    clamp,
    clip(clip(k, a1, b1), a2, b2) = clip(k, clip(a1, a2, b2), clip(b1, a2, b2)),
    so a Hillis-Steele inclusive scan composes the whole sequence in
    ceil(log2 n) whole-array passes.  After pass p, (lo_i, hi_i) is the
    composite clamp of entries i-2^p+1 .. i.  The identity also holds where
    lo > hi, which clip maps to the constant hi: with f_d = 0 the window is
    exactly one step wide and rounding can leave it without a lattice level
    (lo = hi + 1), and the level then rests at hi.  Overwrites both arrays.
    Each pass binds its views once: over a record's few hundred run ends, a
    pass costs its calls, not its elements.
    """
    n = len(lo)
    tmp_lo, tmp_hi = np.empty(n), np.empty(n)
    step = 1
    while step < n:
        lo_i, hi_i, t_lo, t_hi = lo[step:], hi[step:], tmp_lo[step:], tmp_hi[step:]
        np.maximum(lo[:-step], lo_i, out=t_lo)
        np.maximum(hi[:-step], lo_i, out=t_hi)
        np.minimum(t_lo, hi_i, out=lo_i)
        np.minimum(t_hi, hi_i, out=hi_i)
        step *= 2
    return np.minimum(np.maximum(0.0, lo), hi)


def monotone_runs(temps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a record into monotone runs: (ends, run), computed from T alone.

    ``ends`` holds sample 0 and then the last sample of each run: every
    turning point of T and the final sample.  ``run[i]`` counts the ends
    before sample i, so sample i lies in the run that follows ends[run[i] - 1]
    (sample 0 has run 0).  A plateau extends the run it lies in.  Because
    beta*T is monotone wherever T is, whatever the sign of beta, the runs of
    T are runs of every drive built from it.
    """
    temps = np.asarray(temps, dtype=float)
    step = np.sign(np.diff(temps))
    moves = np.flatnonzero(step)
    # a move against the previous move starts a run at its first sample
    turns = moves[1:][step[moves[1:]] != step[moves[:-1]]]
    is_end = np.zeros(len(temps), dtype=bool)
    is_end[turns] = True
    is_end[:1] = is_end[-1:] = True
    ends = np.flatnonzero(is_end)
    return ends, np.searchsorted(ends, np.arange(len(temps)))


def stick_levels_on_grid(temps: np.ndarray, x0: float, K: float, beta: float,
                         f_d: float, f_s: float,
                         runs: tuple[np.ndarray, np.ndarray] | None = None
                         ) -> np.ndarray:
    """Quasistatic stick level at each sample of a piecewise-linear record.

    The levels :func:`simulate_quasistatic` holds on the record's drive, at
    the sample times: slip arcs last half a natural period, far below any
    realistic acquisition cadence, so samples land on stick levels, where the
    friction is the stick force K*(beta*T - level).  This is the calibration
    objective's hot path.

    Every level is x0 + k*dx with dx = 2(f_s - f_d)/K, and each sample moves
    the index k the least that brings |beta*T - level| within f_s/K: the
    play operator of Krasnosel'skii & Pokrovskii on that lattice.  The
    bounds [lo_i, hi_i] come from the rounded quotient, exact near a lattice
    edge (:func:`_rounded_bounds`; the run ends hold max|beta*T|).  On a
    monotone run the bounds [lo_i, hi_i] are monotone too, so inside a run
    k_i = clip(k_e, lo_i, hi_i), with k_e the index at the previous run's
    end (sample 0 counts as the first end).  :func:`_play_indices` therefore
    scans only the run ends, and one full clip per sample fills the rest,
    which keeps the f_d = 0 rounding gap exact.  ``runs`` is :func:`monotone_runs` of
    ``temps``, built here when not given.  With f_d = f_s the level never
    moves.
    """
    u = beta * np.asarray(temps, dtype=float)
    x0 = float(x0)
    width = f_s / K
    dx = 2.0 * (f_s - f_d) / K
    if not dx > 0.0:
        return np.full_like(u, x0)
    ends, run = monotone_runs(temps) if runs is None else runs
    lo, hi = _rounded_bounds(u, float(np.max(np.abs(u[ends]))), x0, width, dx)
    k = np.concatenate(([0.0], _play_indices(lo[ends], hi[ends])))[run]
    np.maximum(k, lo, out=k)
    np.minimum(k, hi, out=k)
    return x0 + k * dx
