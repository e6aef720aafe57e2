"""Finite-difference solver: the discrete variational-inequality Euler scheme.

Each step advances position with the old velocity and obtains the new
velocity as the unique solution w of the scalar discrete VI

    forall phi:  (b - m (w - v)/h)(phi - w) + f |w| <= f |phi|,

whose closed form is the soft-threshold (shrink) of the free-flight velocity
u = v + (h/m) b.  One kernel serves both friction models: the stick gate is
(h/m) f_s and the slip magnitude (h/m) f_d, so if |u| <= (h/m) f_s the new
velocity is 0, otherwise w = u - sign(u) * (h/m) f_d.  The unified model is
f_d = f_s, where the kernel is the single-threshold soft threshold.

The stepper works a block of steps at a time: the drive T(t) is evaluated for
the whole block as one array, and the stick labels, events and recorded rows
are derived from the block's arrays with numpy; the state recurrence itself
stays sequential, one kernel call per step on Python floats.
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

# steps per block: the drive is evaluated, and the steps labeled and recorded,
# this many at a time, so the temporaries stay small at any run length
_BLOCK = 4096


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


def _enter(t: float, x: float, b: float, static: bool) -> Event:
    """The event of entering the labeled phase at time t, position x and
    applied force b; a slip leaves in the direction of b, forward at b = 0."""
    if static:
        return Event(time=t, kind=EventKind.ENTER_STATIC, position=x)
    return Event(time=t, kind=EventKind.ENTER_DYNAMIC, position=x,
                 epsilon=int(math.copysign(1.0, b)) if b != 0.0 else 1)


def simulate_euler(x0: float, f: TemperatureSpringForcing, p: FrictionParams,
                   cfg: EulerConfig) -> Trajectory:
    """Run the stepped scheme from rest and assemble the sampled trajectory.

    A recorded sample is labeled STATIC when the stick gate fired for the
    step that produced it *and* the applied force at the sample itself is
    within the static threshold; the instant where v = 0 but |b| > f_s is a
    (dynamic) departure point.  The events are rebuilt from label changes,
    so their times are accurate to within one step h.  Rows are kept at every
    ``record_every``-th step and at the last step.

    The steps run in blocks of ``_BLOCK``: per block the drive is evaluated
    once as an array, the state recurrence runs step by step on Python floats
    (the same operations in the same order as :func:`eval_forcing`, so the
    numbers do not depend on the block size), and the labels, events and
    recorded rows are derived from the block's arrays.
    """
    h, n_steps, every = cfg.h, cfg.n_steps, cfg.record_every
    K, beta, c = f.K, f.beta, f.c
    f_s = p.f_s
    hm = h / p.m
    gate = hm * f_s
    slip = hm * p.f_d
    STATIC, DYNAMIC = PhaseLabel.STATIC.value, PhaseLabel.DYNAMIC.value

    n_rec = -(-n_steps // every) + 1
    t_arr = np.empty(n_rec)
    x_arr = np.empty(n_rec)
    v_arr = np.empty(n_rec)
    b_arr = np.empty(n_rec)
    ph_arr = np.empty(n_rec, dtype=np.int8)

    x, v = float(x0), 0.0
    b = float(eval_forcing(f, x, v, 0.0))
    static = abs(b) <= f_s
    t_arr[0], x_arr[0], v_arr[0], b_arr[0] = 0.0, x, v, b
    ph_arr[0] = STATIC if static else DYNAMIC

    events = [_enter(0.0, x, b, static)]

    rec = 1
    for n0 in range(1, n_steps + 1, _BLOCK):
        n1 = min(n0 + _BLOCK, n_steps + 1)
        t = np.arange(n0, n1) * h
        xs, vs, bs = [], [], []
        for T in f.T.at(t).tolist():
            v_new = shrink(v + hm * b, gate, slip)
            x = x + h * v
            v = v_new
            b = K * (beta * T - x) - c * v
            xs.append(x)
            vs.append(v)
            bs.append(b)
        xb, vb, bb = np.array(xs), np.array(vs), np.array(bs)
        labels = (vb == 0.0) & (np.abs(bb) <= f_s)

        for i in np.flatnonzero(np.diff(labels, prepend=static)).tolist():
            events.append(_enter(float(t[i]), xs[i], bs[i], labels[i]))
        static = bool(labels[-1])

        keep = np.arange(-n0 % every, n1 - n0, every)
        if n1 > n_steps and n_steps % every:
            keep = np.append(keep, n1 - n0 - 1)
        end = rec + len(keep)
        t_arr[rec:end], x_arr[rec:end] = t[keep], xb[keep]
        v_arr[rec:end], b_arr[rec:end] = vb[keep], bb[keep]
        ph_arr[rec:end] = np.where(labels[keep], STATIC, DYNAMIC)
        rec = end

    return Trajectory(t=t_arr, x=x_arr, v=v_arr,
                      friction=friction_force(p, v_arr, b_arr, ph_arr),
                      b=b_arr, phase=ph_arr, events=events)
