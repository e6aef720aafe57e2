"""Domain types shared by all solvers: friction parameters, the forcing and
its temperature drive (whose table is also the one sampled-record type),
phase labels, events and trajectories.

The physical system is a one-dimensional oscillator with bilevel Coulomb
friction,

    m x'' + F(x') = b(x, x', t),    x(0) = x0, x'(0) = 0,

where the friction force F equals the applied force b during stick phases
(equilibrium, |b| <= f_s) and sign(x') * f_d during slip phases.  There is
one forcing, a damped spring pulled toward a temperature-driven target,

    b(x, x', t) = K * (beta*T(t) - x) - c * x',

with the structured drive T(t) = sum_i a_i cos(Omega_i t + phi_i) + scale *
L(t), L piecewise linear.  The bearing's thermal dilatation is K, beta and a
sampled or noisy T with c = 0; Shaw's harmonic benchmark is K = 1, c =
2*alpha and T = cos(Omega t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "FrictionParams",
    "HarmonicForcing",
    "TemperatureSpringForcing",
    "Drive",
    "TemperatureDomainError",
    "PhaseLabel",
    "EventKind",
    "Event",
    "Trajectory",
    "eval_forcing",
    "friction_force",
    "horizon",
    "natural_frequency",
    "SolverCapError",
]


# --------------------------------------------------------------------------
# Parameters
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FrictionParams:
    """Mass and the two Coulomb friction thresholds.

    ``f_d`` is the dynamic (slip) friction magnitude, ``f_s`` the static
    (stick) threshold.  ``f_d == f_s`` selects the unified single-threshold
    model; ``f_d < f_s`` the two-coefficient model.
    """

    m: float
    f_d: float
    f_s: float

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if not 0 <= self.f_d <= self.f_s:
            raise ValueError(
                f"friction thresholds must satisfy 0 <= f_d <= f_s, "
                f"got f_d={self.f_d}, f_s={self.f_s}"
            )


# --------------------------------------------------------------------------
# Temperature: one structured drive
# --------------------------------------------------------------------------

class TemperatureDomainError(ValueError):
    """Temperature evaluation requested outside the drive's time domain."""


def _require_finite(what: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite, got {values}")


@dataclass(frozen=True)
class Drive:
    """Temperature T(t) = sum_i a_i cos(Omega_i t + phi_i) + scale * L(t).

    ``terms`` holds the (a_i, Omega_i, phi_i); a constant a is the
    zero-frequency term (a, 0, 0), which evaluates to a exactly.  L
    interpolates the table (``knots``, ``values``) linearly -- a sampled
    record or a noise path -- and is zero without one; a ramp is a table of
    two knots.  The table is the one sampled-record type: equal-length
    1-D arrays, at least two knots, all finite, knots strictly increasing.  T
    is defined on [knots[0], knots[-1]], or for all t without a table;
    elsewhere it raises :class:`TemperatureDomainError`.
    Absent parts add exact zeros, so a drive of one part evaluates to that
    part's bits.
    """

    terms: tuple[tuple[float, float, float], ...] = ()
    knots: np.ndarray | None = None
    values: np.ndarray | None = None
    scale: float = 1.0

    def __post_init__(self):
        terms = tuple((float(a), float(w), float(ph)) for a, w, ph in self.terms)
        object.__setattr__(self, "terms", terms)
        _require_finite("drive parameters", self.scale,
                        *(v for term in terms for v in term))
        if (self.knots is None) != (self.values is None):
            raise ValueError("a drive table needs both knots and values")
        if self.knots is None:
            return
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        if knots.ndim != 1 or values.shape != knots.shape:
            raise ValueError("a drive table needs one-dimensional knots and "
                             "values of equal length")
        if len(knots) < 2:
            raise ValueError("a drive table needs at least two knots")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise ValueError("drive table knots and values must be finite")
        if not np.all(np.diff(knots) > 0):
            raise ValueError("drive table knots must be strictly increasing")

    @property
    def t_max(self) -> float:
        return math.inf if self.knots is None else float(self.knots[-1])

    def at(self, t):
        """T at time(s) ``t``: a float for a number, an array for an array."""
        scalar = isinstance(t, (float, int))  # numbers skip numpy's dispatch
        if scalar:
            value, cos = 0.0, math.cos
        else:
            t = np.asarray(t, dtype=float)
            value, cos = np.zeros(t.shape), np.cos
        for a, w, ph in self.terms:
            value = value + a * cos(w * t + ph)
        if self.knots is None:
            return value
        if scalar or t.size:
            lo, hi = (t, t) if scalar else (t.min(), t.max())
            if not (self.knots[0] <= lo and hi <= self.knots[-1]):
                raise TemperatureDomainError(
                    f"time outside the drive's table "
                    f"[{self.knots[0]}, {self.knots[-1]}]")
        return value + self.scale * np.interp(t, self.knots, self.values)


# --------------------------------------------------------------------------
# The forcing
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TemperatureSpringForcing:
    """Spring of stiffness K pulled toward the dilatation target beta*T(t),
    with viscous damping c:

        b(x, x', t) = K * (beta*T(t) - x) - c * x'

    The one forcing: a bearing's thermal dilatation pulls the spring through a
    temperature record, and Shaw's harmonic drive is K = 1, c = 2*alpha,
    T = cos(Omega t) (:func:`HarmonicForcing`).
    """

    K: float
    beta: float
    T: Drive
    c: float = 0.0

    def __post_init__(self):
        _require_finite("forcing parameters", self.K, self.beta, self.c)
        if not self.K > 0:
            raise ValueError(f"stiffness K must be positive, got {self.K}")


def HarmonicForcing(beta: float, Omega: float,
                    alpha: float = 0.0) -> TemperatureSpringForcing:
    """Shaw's harmonically driven unit spring with viscous damping,

        b(x, x', t) = beta * cos(Omega t) - 2 alpha x' - x,

    as the one forcing with K = 1, c = 2 alpha and T = cos(Omega t)."""
    return TemperatureSpringForcing(K=1.0, beta=beta,
                                    T=Drive(terms=((1.0, Omega, 0.0),)),
                                    c=2.0 * alpha)


def eval_forcing(f: TemperatureSpringForcing, x, v, t):
    """Evaluate the applied (non-friction) force b(x, x', t)."""
    return f.K * (f.beta * f.T.at(t) - x) - f.c * v


def natural_frequency(f: TemperatureSpringForcing, p: FrictionParams) -> float:
    """Undamped oscillation rate sqrt(K/m) of the spring-mass system during
    slips, at the run's mass ``p.m``.  A rate that K/m over- or underflows to
    inf or 0 raises ValueError."""
    rate = math.sqrt(f.K / p.m)
    if not 0.0 < rate < math.inf:
        raise ValueError(f"the natural frequency sqrt(K/m) is out of range "
                         f"at K = {f.K:g}, m = {p.m:g}")
    return rate


def horizon(t_end: float, T: Drive) -> float:
    """End of a run: ``t_end``, which must be finite and positive, capped
    where the drive stops being defined."""
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    return min(t_end, T.t_max)


# --------------------------------------------------------------------------
# Phases and events
# --------------------------------------------------------------------------

class PhaseLabel(Enum):
    STATIC = 0
    DYNAMIC = 1


class EventKind(Enum):
    ENTER_STATIC = "enter_static"
    ENTER_DYNAMIC = "enter_dynamic"
    SUBPHASE_BOUNDARY = "subphase_boundary"


@dataclass(frozen=True)
class Event:
    """A phase-transition instant.  ``epsilon`` is the slip direction sign(b)
    taken at the event, 0 for enter-static events."""

    time: float
    kind: EventKind
    position: float
    epsilon: int = 0


# --------------------------------------------------------------------------
# Trajectories
# --------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Sampled solution record plus its events, in time order.

    Column layout mirrors the solver output files: per sample we keep time,
    displacement, velocity, the friction force actually transmitted, and the
    applied force b.  ``phase`` holds :class:`PhaseLabel` values as int8.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    friction: np.ndarray
    b: np.ndarray
    phase: np.ndarray
    events: list[Event] = field(default_factory=list)

    def __post_init__(self):
        n = len(self.t)
        for name in ("x", "v", "friction", "b", "phase"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name!r} length != {n}")
        if n > 1 and np.any(np.diff(self.t) < 0):
            raise ValueError("sample times must be non-decreasing")


class SolverCapError(RuntimeError):
    """A solver exceeded its safety cap, or its result is not finite."""


# --------------------------------------------------------------------------
# Friction law
# --------------------------------------------------------------------------

def friction_force(p: FrictionParams, v: np.ndarray, b: np.ndarray,
                   phase: np.ndarray) -> np.ndarray:
    """Friction force transmitted at each sample, element by element.

    ``v``, ``b`` and ``phase`` are arrays of one shape: the velocities, the
    applied forces and the PhaseLabel values of the samples, as in the int8
    ``Trajectory.phase`` column.  Stick: the equilibrium value b; a static
    sample with v != 0 raises ValueError.
    Slip with v != 0: sign(v) * f_d.  At an isolated zero-velocity instant
    inside a slip the force is only defined almost everywhere; report
    clamp(b, -f_d, f_d), which is bounded and keeps the record physically
    plausible.  With f_d = f_s this is the subdifferential law of f|x'| on
    the samples; with f_d < f_s it is Shaw's two-coefficient law.
    """
    static = phase == PhaseLabel.STATIC.value
    if np.any(static & (v != 0.0)):
        raise ValueError("static phase requires v = 0")
    return np.where(static, b,
                    np.where(v != 0.0, np.copysign(p.f_d, v),
                             np.clip(b, -p.f_d, p.f_d)))
