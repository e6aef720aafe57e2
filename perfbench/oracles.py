"""Reference computations the benchmark checks the program against.

Nothing here imports ``stickslip``: each oracle is derived from the model
equations on its own, so a fault in the package cannot hide in a shared
helper.

- Shaw's step-by-step closed form for the undamped harmonic oscillator with
  Coulomb friction: a sub-phase of constant slip sign is a linear ODE with a
  known solution, and its end (the first zero of the velocity) is found by a
  scan plus ``scipy.optimize.brentq``.
- A quantised play operator for the quasistatic stick levels, and the
  calibration objective built on it.
- The Ornstein-Uhlenbeck path by direct recursion and the noise-perturbed
  temperature it drives.
- An independent ODE integration (``scipy.integrate.solve_ivp``) of a thermal
  sub-phase, restarted at every noise breakpoint so that each piece has a
  smooth right-hand side.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

# Scan resolution for the closed-form roots: a sign change is bracketed on a
# grid this fine relative to the shortest period, then refined by brentq.
_SCAN_PER_PERIOD = 256
_XTOL = 1e-13


def _first_root(g, t0: float, t_hi: float, step: float) -> float:
    """First t in (t0, t_hi] with g(t) <= 0, given g > 0 just after t0.

    Returns +inf when g stays positive on the whole scan grid.
    """
    n = max(1, math.ceil((t_hi - t0) / step))
    ts = np.minimum(t0 + step * np.arange(1, n + 1), t_hi)
    vals = g(ts)
    hit = np.nonzero(vals <= 0.0)[0]
    if len(hit) == 0:
        return math.inf
    k = hit[0]
    hi = float(ts[k])
    if vals[k] == 0.0:
        return hi
    lo = t0 if k == 0 else float(ts[k - 1])
    if g(np.array([lo]))[0] <= 0.0:  # the sign change sits below the grid
        lo = t0 + 1e-3 * step
    return brentq(lambda t: float(g(np.array([t]))[0]), lo, hi, xtol=_XTOL,
                  rtol=4 * np.finfo(float).eps)


class ShawOscillator:
    """m x'' + F = beta cos(Omega t) - x, with Coulomb friction F.

    Stick while |beta cos(Omega t) - x| <= f_s; a slip of sign eps solves
    m x'' + x = beta cos(Omega t) - eps f_d from rest.
    """

    def __init__(self, m: float, f_d: float, f_s: float, beta: float,
                 Omega: float):
        if abs(1.0 - m * Omega * Omega) < 1e-12:
            raise ValueError("resonant forcing has no bounded particular solution")
        self.m, self.f_d, self.f_s = m, f_d, f_s
        self.beta, self.Omega = beta, Omega
        self.omega = 1.0 / math.sqrt(m)
        self.amp = beta / (1.0 - m * Omega * Omega)
        period = 2.0 * math.pi / max(self.omega, Omega)
        self.scan = period / _SCAN_PER_PERIOD

    def force(self, x, t):
        return self.beta * np.cos(self.Omega * np.asarray(t, dtype=float)) - x

    def subphase(self, tau: float, x_tau: float, eps: int):
        """(x(t), v(t)) functions of the slip started from rest at (tau, x_tau)."""
        w, Om, amp = self.omega, self.Omega, self.amp
        A = x_tau - (amp * math.cos(Om * tau) - eps * self.f_d)
        B = amp * Om * math.sin(Om * tau) / w

        def x(t):
            s = w * (np.asarray(t, dtype=float) - tau)
            return A * np.cos(s) + B * np.sin(s) \
                + amp * np.cos(Om * np.asarray(t, dtype=float)) - eps * self.f_d

        def v(t):
            s = w * (np.asarray(t, dtype=float) - tau)
            return w * (-A * np.sin(s) + B * np.cos(s)) \
                - amp * Om * np.sin(Om * np.asarray(t, dtype=float))

        return x, v

    def subphase_end(self, tau: float, x_tau: float, eps: int, t_hi: float):
        """(t_stop, x_stop) at the first zero of the velocity, or None if the
        slip is still moving at t_hi."""
        x, v = self.subphase(tau, x_tau, eps)
        t_stop = _first_root(lambda t: eps * v(t), tau, t_hi, self.scan)
        if not t_stop < math.inf:
            return None
        return t_stop, float(x(t_stop))

    def departure(self, x_j: float, t0: float, t_hi: float) -> float:
        """First t > t0 with |b(x_j, t)| > f_s; +inf if none up to t_hi."""
        return _first_root(lambda t: self.f_s - np.abs(self.force(x_j, t)),
                           t0, t_hi, self.scan)

    def chain(self, x0: float, t_end: float) -> list[tuple[float, str, float, int]]:
        """The whole stick/slip event chain from rest at x0, t = 0.

        Events are (time, kind, position, eps) with the package's kind names.
        """
        events = []
        t, x = 0.0, float(x0)
        b = float(self.force(x, t))
        stuck = abs(b) <= self.f_s
        if stuck:
            events.append((0.0, "enter_static", x, 0))
        while t < t_end:
            if stuck:
                t = self.departure(x, t, t_end)
                if not t < math.inf:
                    break
            eps = 1 if self.force(x, t) >= 0 else -1
            events.append((t, "enter_dynamic", x, eps))
            while True:
                end = self.subphase_end(t, x, eps, t_end)
                if end is None:
                    return events
                t, x = end
                b = float(self.force(x, t))
                if abs(b) <= self.f_s:
                    break
                eps = 1 if b >= 0 else -1
                events.append((t, "subphase_boundary", x, eps))
            events.append((t, "enter_static", x, 0))
            stuck = True
        return events


# --------------------------------------------------------------------------
# Calibration: quantised play operator and the least-squares objective
# --------------------------------------------------------------------------

def play_levels(u: np.ndarray, x0: float, width: float, dx: float) -> np.ndarray:
    """Stick level after each drive sample u_i.

    The level moves in whole quanta dx, just far enough to bring it back
    within ``width`` of the drive: the play operator of half-width ``width``
    on the lattice x0 + k dx.
    """
    out = np.empty(len(u))
    x = float(x0)
    for i, ui in enumerate(u.tolist()):
        if dx > 0.0:
            if ui - x > width:
                x += dx * math.ceil((ui - x - width) / dx)
            elif x - ui > width:
                x -= dx * math.ceil((x - ui - width) / dx)
        out[i] = x
    return out


def calibration_objective(params, times: np.ndarray, temps: np.ndarray,
                          z_obs: np.ndarray, K_BP: float) -> float:
    """Integrated squared mismatch sum (z_model - z_obs)^2 dt_i.

    z_model = z0 + x + K (beta T - x) / K_BP, with x the quasistatic stick
    level started at beta T(0); dt_i is the sample spacing, the last one
    repeated.
    """
    z0, K, beta, f_d, f_s = params
    u = beta * temps
    x = play_levels(u, u[0], f_s / K, 2.0 * (f_s - f_d) / K)
    z = z0 + x + K * (u - x) / K_BP
    dts = np.diff(times)
    dts = np.concatenate((dts, dts[-1:]))
    r = z - z_obs
    return float(np.sum(r * r * dts))


# --------------------------------------------------------------------------
# Noise and the thermal sub-phase
# --------------------------------------------------------------------------

def ou_recursion(rng: np.random.Generator, n: int, dt: float) -> np.ndarray:
    """v_0 = 0, v_{k+1} = (1 - dt) v_k + sqrt(dt) xi_k, one step at a time."""
    xi = rng.standard_normal(n - 1).tolist()
    out = [0.0] * n
    a, s = 1.0 - dt, math.sqrt(dt)
    v = 0.0
    for k, z in enumerate(xi, start=1):
        v = a * v + s * z
        out[k] = v
    return np.array(out)


class NoisyTemperature:
    """T(t) = cos(Omega t) + rho v(t), v linear between grid points k dt."""

    def __init__(self, Omega: float, rho: float, noise: np.ndarray, dt: float):
        self.Omega, self.rho, self.noise, self.dt = Omega, rho, noise, dt
        self.grid = dt * np.arange(len(noise))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.cos(self.Omega * t) + self.rho * np.interp(t, self.grid, self.noise)

    def lipschitz(self) -> float:
        """Bound on |dT/dt|."""
        return self.Omega + self.rho * float(np.max(np.abs(np.diff(self.noise)))) / self.dt


def thermal_subphase_end(T: NoisyTemperature, K: float, beta: float, m: float,
                         f_d: float, tau: float, x_tau: float, eps: int,
                         t_hi: float, rtol: float = 1e-11, atol: float = 1e-12):
    """(t_stop, x_stop) of m x'' = K (beta T - x) - eps f_d from rest.

    Integrates with DOP853 one noise panel at a time and stops at the first
    zero of the velocity; None if the slip is still moving at t_hi.
    """

    def rhs(t, y):
        return (y[1], (K * (beta * float(T(t)) - y[0]) - eps * f_d) / m)

    def stop(t, y):
        return eps * y[1]

    stop.terminal = True
    stop.direction = -1

    k = int(math.floor(tau / T.dt)) + 1
    a, y = tau, np.array([x_tau, 0.0])
    while a < t_hi:
        b = min(k * T.dt, t_hi)
        if b > a:
            sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=rtol,
                            atol=atol, events=stop)
            if sol.status == 1:
                return float(sol.t_events[0][0]), float(sol.y_events[0][0][0])
            y = sol.y[:, -1]
            a = b
        k += 1
    return None
