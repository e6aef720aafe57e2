"""Domain types shared by all solvers: friction parameters, forcing models,
temperature sources, phase labels, event logs and trajectories.

The physical system is a one-dimensional oscillator with bilevel Coulomb
friction,

    m x'' + F(x') = b(x, x', t),    x(0) = x0, x'(0) = 0,

where the friction force F equals the applied force b during stick phases
(equilibrium, |b| <= f_s) and sign(x') * f_d during slip phases.  Two forcing
variants are supported: a harmonically driven unit spring with optional
viscous damping, and a temperature-driven spring b = K * (beta*T(t) - x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "FrictionParams",
    "HarmonicForcing",
    "TemperatureSpringForcing",
    "ForcingModel",
    "AnalyticTemperature",
    "SampledTemperature",
    "PerturbedTemperature",
    "TemperatureSeries",
    "TemperatureSource",
    "PhaseLabel",
    "EventKind",
    "Event",
    "EventLog",
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
# Temperature sources
# --------------------------------------------------------------------------

class TemperatureDomainError(ValueError):
    """Temperature evaluation requested outside the source's time domain."""


@dataclass(frozen=True)
class TemperatureSeries:
    """Sampled temperature record with piecewise-linear interpolation.

    ``times`` must be strictly increasing; evaluation outside
    ``[times[0], times[-1]]`` raises :class:`TemperatureDomainError`.
    """

    times: np.ndarray
    temps: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        temps = np.asarray(self.temps, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "temps", temps)
        if times.ndim != 1 or temps.ndim != 1:
            raise ValueError("times and temps must be one-dimensional")
        if len(times) != len(temps):
            raise ValueError(
                f"length mismatch: {len(times)} times vs {len(temps)} temps"
            )
        if len(times) == 0:
            raise ValueError("empty series")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")

    @property
    def t_min(self) -> float:
        return float(self.times[0])

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def at(self, t):
        """Interpolated temperature at time(s) ``t`` (scalar or array)."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < self.times[0]) or np.any(t_arr > self.times[-1]):
            raise TemperatureDomainError(
                f"time outside sampled range [{self.t_min}, {self.t_max}]"
            )
        out = np.interp(t_arr, self.times, self.temps)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


@dataclass(frozen=True)
class AnalyticTemperature:
    """Closed-form temperature t -> T(t); defined for all t."""

    fn: Callable[[np.ndarray], np.ndarray]

    def at(self, t):
        return self.fn(np.asarray(t, dtype=float) if not np.isscalar(t) else t)

    @property
    def breakpoints(self) -> np.ndarray | None:
        return None

    @property
    def t_max(self) -> float:
        return math.inf


@dataclass(frozen=True)
class SampledTemperature:
    """Temperature backed by a :class:`TemperatureSeries`."""

    series: TemperatureSeries

    def at(self, t):
        return self.series.at(t)

    @property
    def breakpoints(self) -> np.ndarray | None:
        return self.series.times

    @property
    def t_max(self) -> float:
        return self.series.t_max


@dataclass(frozen=True)
class PerturbedTemperature:
    """Analytic base plus a scaled piecewise-linear noise path.

    T(t) = base(t) + rho * v(t), with v linearly interpolated on a uniform
    grid of spacing ``dt``.  With ``rho == 0`` the noise path is ignored and
    the source reduces exactly to the base.
    """

    base: Callable[[np.ndarray], np.ndarray]
    noise_values: np.ndarray
    dt: float
    rho: float
    # the noise grid, built once: solvers read it per stick and per sub-phase
    breakpoints: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "noise_values", np.asarray(self.noise_values, dtype=float)
        )
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "breakpoints", None if self.rho == 0.0
                           else self.dt * np.arange(len(self.noise_values)))

    @property
    def t_max(self) -> float:
        if self.rho == 0.0:
            return math.inf
        return (len(self.noise_values) - 1) * self.dt

    def at(self, t):
        base = self.base(np.asarray(t, dtype=float) if not np.isscalar(t) else t)
        if self.rho == 0.0:
            return base
        t_arr = np.asarray(t, dtype=float)
        if t_arr.size and (t_arr.min() < 0 or t_arr.max() > self.t_max):
            raise TemperatureDomainError(
                f"time outside noise-path range [0, {self.t_max}]"
            )
        return base + self.rho * np.interp(t_arr, self.breakpoints, self.noise_values)


TemperatureSource = Union[AnalyticTemperature, SampledTemperature, PerturbedTemperature]


def constant_temperature(value: float) -> AnalyticTemperature:
    return AnalyticTemperature(lambda t: np.full_like(np.asarray(t, dtype=float), value)
                               if not np.isscalar(t) else float(value))


# --------------------------------------------------------------------------
# Forcing models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicForcing:
    """Harmonically driven unit spring with viscous damping:

    b(x, x', t) = beta * cos(Omega * t) - 2 * alpha * x' - x
    """

    beta: float
    Omega: float
    alpha: float = 0.0

    K = 1.0  # the unit spring

    @property
    def damping(self) -> float:
        return 2.0 * self.alpha

    def force(self, x, v, t):
        if np.isscalar(t) and np.isscalar(x):
            return self.beta * math.cos(self.Omega * t) - 2.0 * self.alpha * v - x
        return self.beta * np.cos(self.Omega * np.asarray(t, dtype=float)) \
            - 2.0 * self.alpha * np.asarray(v) - np.asarray(x)

    @property
    def t_max(self) -> float:
        return math.inf

    @property
    def breakpoints(self) -> np.ndarray | None:
        return None


@dataclass(frozen=True)
class TemperatureSpringForcing:
    """Spring pulled toward the dilatation target:  b(x, t) = K * (beta*T(t) - x)."""

    K: float
    beta: float
    T: TemperatureSource

    damping = 0.0
    Omega = 0.0  # no drive of its own: the temperature source sets the pace

    def __post_init__(self):
        if not self.K > 0:
            raise ValueError(f"stiffness K must be positive, got {self.K}")

    def force(self, x, v, t):
        return self.K * (self.beta * self.T.at(t) - x)

    @property
    def t_max(self) -> float:
        return self.T.t_max

    @property
    def breakpoints(self) -> np.ndarray | None:
        return self.T.breakpoints


# Both forcings are linear in the state, b(x, x', t) = b(0, 0, t) - damping*x'
# - K*x, and ``breakpoints`` lists the times where b(0, 0, t) may have a kink.
ForcingModel = Union[HarmonicForcing, TemperatureSpringForcing]


def eval_forcing(f: ForcingModel, x, v, t):
    """Evaluate the applied (non-friction) force b(x, x', t)."""
    return f.force(x, v, t)


def natural_frequency(f: ForcingModel, p: FrictionParams | None = None) -> float:
    """Undamped oscillation rate sqrt(K/m) of the spring-mass system during
    slips; without friction parameters the mass is taken as one."""
    return math.sqrt(f.K / (1.0 if p is None else p.m))


def horizon(t_end: float, domain) -> float:
    """End of a run: ``t_end``, capped where the forcing (or the temperature
    record, or any object with a ``t_max``) stops being defined."""
    return min(t_end, domain.t_max)


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
    """A phase-transition instant.

    ``j`` counts stick/slip alternations; ``k`` indexes sub-phase boundaries
    within dynamic phase j (None otherwise).  ``epsilon`` is the slip
    direction sign(b) taken at the event, 0 for enter-static events.
    """

    time: float
    kind: EventKind
    position: float
    epsilon: int = 0
    j: int = 0
    k: int | None = None


class EventLog:
    """Ordered record of the transition times tau_j, tau_{j+1/2}, tau_j^k."""

    def __init__(self, events: Sequence[Event] = ()):
        self.events: list[Event] = list(events)

    def append(self, event: Event) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __getitem__(self, i):
        return self.events[i]

    def times(self) -> np.ndarray:
        return np.array([e.time for e in self.events])

    def of_kind(self, kind: EventKind) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def validate(self, f: ForcingModel, p: FrictionParams, tol: float) -> None:
        """Check ordering, alternation and threshold conditions.

        ``tol`` is the solver's event accuracy: the exact engine passes its
        root tolerance, the Euler stepper an O(h) bound.
        """
        ts = self.times()
        if np.any(np.diff(ts) <= 0):
            raise AssertionError("event times not strictly increasing")
        phase_kinds = [e for e in self.events if e.kind != EventKind.SUBPHASE_BOUNDARY]
        for a, b_ in zip(phase_kinds, phase_kinds[1:]):
            if a.kind == b_.kind:
                raise AssertionError(f"phase events do not alternate at t={b_.time}")
        for e in self.events:
            b_val = eval_forcing(f, e.position, 0.0, e.time)
            if e.kind == EventKind.ENTER_DYNAMIC:
                if abs(abs(b_val) - p.f_s) > tol:
                    raise AssertionError(
                        f"enter-dynamic at t={e.time}: |b|={abs(b_val)} != f_s={p.f_s}"
                    )
            elif e.kind == EventKind.ENTER_STATIC:
                if abs(b_val) > p.f_s + tol:
                    raise AssertionError(
                        f"enter-static at t={e.time}: |b|={abs(b_val)} > f_s={p.f_s}"
                    )


# --------------------------------------------------------------------------
# Trajectories
# --------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Sampled solution record plus its event log.

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
    events: EventLog = field(default_factory=EventLog)

    def __post_init__(self):
        n = len(self.t)
        for name in ("x", "v", "friction", "b", "phase"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name!r} length != {n}")
        if n > 1 and np.any(np.diff(self.t) < 0):
            raise ValueError("sample times must be non-decreasing")

    def __len__(self) -> int:
        return len(self.t)

    def validate(self, p: FrictionParams, b_tol: float = 0.0) -> None:
        """Assert the stick/slip sample invariants from the stored fields.

        Static samples must have v = 0, friction = b and |b| <= f_s (up to
        ``b_tol``); dynamic samples with v != 0 carry friction sign(v)*f_d.
        """
        static = self.phase == PhaseLabel.STATIC.value
        if np.any(self.v[static] != 0.0):
            raise AssertionError("static sample with nonzero velocity")
        if np.any(np.abs(self.b[static]) > p.f_s + b_tol):
            raise AssertionError("static sample with |b| > f_s")
        if not np.allclose(self.friction[static], self.b[static], rtol=0, atol=1e-12):
            raise AssertionError("static sample with friction != b")
        moving = (self.phase == PhaseLabel.DYNAMIC.value) & (self.v != 0.0)
        expect = np.sign(self.v[moving]) * p.f_d
        if not np.array_equal(self.friction[moving], expect):
            raise AssertionError("dynamic sample with friction != sign(v)*f_d")


class SolverCapError(RuntimeError):
    """A solver exceeded its safety cap; ``partial`` holds the trajectory up
    to that point when the solver could build one."""

    def __init__(self, message: str, partial: Trajectory | None = None):
        super().__init__(message)
        self.partial = partial


# --------------------------------------------------------------------------
# Friction law
# --------------------------------------------------------------------------

def friction_force(p: FrictionParams, v, b, phase):
    """Friction force transmitted at a sample, or element by element at
    arrays of samples.

    ``phase`` is a :class:`PhaseLabel` for every sample, or an array of
    PhaseLabel values (the int8 ``Trajectory.phase`` column).  Stick: the
    equilibrium value b; a static sample with v != 0 raises ValueError.
    Slip with v != 0: sign(v) * f_d.  At an isolated zero-velocity instant
    inside a slip the force is only defined almost everywhere; report
    clamp(b, -f_d, f_d), which is bounded and keeps the record physically
    plausible.  With f_d = f_s this is the subdifferential law of f|x'| on
    the samples; with f_d < f_s it is Shaw's two-coefficient law.  Scalar
    input gives a float.
    """
    code = phase.value if isinstance(phase, PhaseLabel) else np.asarray(phase)
    static = code == PhaseLabel.STATIC.value
    v = np.asarray(v, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(static & (v != 0.0)):
        raise ValueError("static phase requires v = 0")
    out = np.where(static, b,
                   np.where(v != 0.0, np.copysign(p.f_d, v),
                            np.clip(b, -p.f_d, p.f_d)))
    return float(out) if out.ndim == 0 else out
