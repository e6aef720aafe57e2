"""Reference checks of solver output, kept apart from the solvers.

They restate the stick/slip laws in their own expressions, so a fault in the
package's classifier or event logic cannot hide by being shared with the
check that should catch it.
"""

import numpy as np

from stickslip import (EventKind, FrictionParams, PhaseLabel,
                       TemperatureSpringForcing, Trajectory, eval_forcing)


def validate_events(events, f: TemperatureSpringForcing, p: FrictionParams,
                    tol: float) -> None:
    """Check ordering, alternation and threshold conditions of an event list.

    ``tol`` is the solver's event accuracy: the exact engine passes its
    root tolerance, the Euler stepper an O(h) bound.
    """
    ts = np.array([e.time for e in events])
    if np.any(np.diff(ts) <= 0):
        raise AssertionError("event times not strictly increasing")
    phase_kinds = [e for e in events if e.kind != EventKind.SUBPHASE_BOUNDARY]
    for a, b_ in zip(phase_kinds, phase_kinds[1:]):
        if a.kind == b_.kind:
            raise AssertionError(f"phase events do not alternate at t={b_.time}")
    for e in events:
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


def validate_trajectory(traj: Trajectory, p: FrictionParams,
                        b_tol: float = 0.0) -> None:
    """Assert the stick/slip sample invariants from the stored fields.

    Static samples must have v = 0, friction = b and |b| <= f_s (up to
    ``b_tol``); dynamic samples with v != 0 carry friction sign(v)*f_d.
    """
    static = traj.phase == PhaseLabel.STATIC.value
    if np.any(traj.v[static] != 0.0):
        raise AssertionError("static sample with nonzero velocity")
    if np.any(np.abs(traj.b[static]) > p.f_s + b_tol):
        raise AssertionError("static sample with |b| > f_s")
    if not np.allclose(traj.friction[static], traj.b[static], rtol=0, atol=1e-12):
        raise AssertionError("static sample with friction != b")
    moving = (traj.phase == PhaseLabel.DYNAMIC.value) & (traj.v != 0.0)
    expect = np.sign(traj.v[moving]) * p.f_d
    if not np.array_equal(traj.friction[moving], expect):
        raise AssertionError("dynamic sample with friction != sign(v)*f_d")
