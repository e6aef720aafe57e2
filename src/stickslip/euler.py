"""Finite-difference solver: the discrete variational-inequality Euler scheme.

Each step advances position with the old velocity and obtains the new
velocity as the unique solution w of the scalar discrete VI

    forall phi:  (b - m (w - v)/h)(phi - w) + f |w| <= f |phi|,

whose closed form is the soft-threshold (shrink) of the free-flight velocity
u = v + (h/m) b.  One kernel serves both friction models: the stick gate is
(h/m) f_s and the slip magnitude (h/m) f_d, so if |u| <= (h/m) f_s the new
velocity is 0, otherwise w = u - sign(u) * (h/m) f_d.  The unified model is
f_d = f_s, where the kernel is the single-threshold soft threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Event,
    EventKind,
    FrictionParams,
    PhaseLabel,
    TemperatureSpringForcing,
    Trajectory,
    eval_forcing,
    friction_force,
)

__all__ = [
    "EulerConfig",
    "shrink",
    "simulate_euler",
]


@dataclass(frozen=True)
class EulerConfig:
    """Step size, step count and output decimation for the Euler scheme."""

    h: float
    n_steps: int
    record_every: int = 1

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("h must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


def shrink(u: float, gate: float, slip: float) -> float:
    """Two-threshold soft threshold: 0 if |u| <= gate, else u - sign(u)*slip.

    With gate = (h/m) f_s and slip = (h/m) f_d this is the velocity update of
    one step.  With gate == slip == tau it is the minimizer of
    w -> (w - u)^2 / 2 + tau |w|, i.e. the unique solution of the scalar
    discrete VI step.
    """
    if not 0.0 <= slip <= gate:
        raise ValueError("thresholds must satisfy 0 <= slip <= gate")
    if abs(u) <= gate:
        return 0.0
    return u - math.copysign(slip, u)


def simulate_euler(x0: float, f: TemperatureSpringForcing, p: FrictionParams,
                   cfg: EulerConfig) -> Trajectory:
    """Run the stepped scheme from rest and assemble the sampled trajectory.

    A recorded sample is labeled STATIC when the stick gate fired for the
    step that produced it *and* the applied force at the sample itself is
    within the static threshold; the instant where v = 0 but |b| > f_s is a
    (dynamic) departure point.  The events are rebuilt from label changes,
    so their times are accurate to within one step h.
    """
    h, n_steps, every = cfg.h, cfg.n_steps, cfg.record_every
    f_s = p.f_s
    hm = h / p.m
    gate = hm * f_s
    slip = hm * p.f_d
    STATIC, DYNAMIC = PhaseLabel.STATIC.value, PhaseLabel.DYNAMIC.value

    n_rec = n_steps // every + 1
    t_arr = np.empty(n_rec)
    x_arr = np.empty(n_rec)
    v_arr = np.empty(n_rec)
    b_arr = np.empty(n_rec)
    ph_arr = np.empty(n_rec, dtype=np.int8)

    t, x, v = 0.0, float(x0), 0.0
    b = eval_forcing(f, x, v, t)
    static = abs(b) <= f_s
    t_arr[0], x_arr[0], v_arr[0], b_arr[0] = t, x, v, b
    ph_arr[0] = STATIC if static else DYNAMIC

    events: list[Event] = []
    if static:
        events.append(Event(time=0.0, kind=EventKind.ENTER_STATIC, position=x))
    else:
        events.append(Event(time=0.0, kind=EventKind.ENTER_DYNAMIC, position=x,
                            epsilon=int(math.copysign(1.0, b))))
    prev_static = static

    rec = 0
    for n in range(1, n_steps + 1):
        v_new = shrink(v + hm * b, gate, slip)
        x = x + h * v
        v = v_new
        t = n * h
        b = eval_forcing(f, x, v, t)
        static = v == 0.0 and abs(b) <= f_s

        if static != prev_static:
            if static:
                events.append(Event(time=t, kind=EventKind.ENTER_STATIC,
                                    position=x))
            else:
                eps = int(math.copysign(1.0, b)) if b != 0.0 else 1
                events.append(Event(time=t, kind=EventKind.ENTER_DYNAMIC,
                                    position=x, epsilon=eps))
            prev_static = static

        if n % every == 0:
            rec += 1
            t_arr[rec], x_arr[rec], v_arr[rec], b_arr[rec] = t, x, v, b
            ph_arr[rec] = STATIC if static else DYNAMIC

    return Trajectory(t=t_arr, x=x_arr, v=v_arr,
                      friction=friction_force(p, v_arr, b_arr, ph_arr),
                      b=b_arr, phase=ph_arr, events=events)
