import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import vi_residual
from reference_checks import validate_events, validate_trajectory
from stickslip import (
    Drive,
    EulerConfig,
    Event,
    EventKind,
    FrictionParams,
    HarmonicForcing,
    PhaseLabel,
    TemperatureSpringForcing,
    eval_forcing,
    friction_force,
    ou_path,
    perturbed_temperature,
    shrink,
    simulate_euler,
)
from stickslip.euler import _BLOCK


def _soft_threshold(u, tau):
    """The single-threshold soft threshold, written out independently."""
    if abs(u) <= tau:
        return 0.0
    return u - math.copysign(tau, u)


class TestShrink:
    def test_inside_threshold(self):
        assert shrink(0.5, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("u,tau,expected", [(2.0, 1.0, 1.0), (-3.0, 1.0, -2.0)])
    def test_outside_threshold_with_grid_oracle(self, u, tau, expected):
        w = shrink(u, tau, tau)
        assert w == expected
        # w solves the scalar VI: residual nonpositive on a dense grid
        phis = np.arange(-10.0, 10.0 + 1e-9, 1e-3)
        res = (u - w) * (phis - w) + tau * abs(w) - tau * np.abs(phis)
        assert res.max() <= 1e-12

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            shrink(1.0, -0.1, -0.1)

    def test_slip_above_gate_rejected(self):
        with pytest.raises(ValueError):
            shrink(1.0, 1.0, 1.1)

    def test_brute_force_minimizer(self):
        # shrink(u, tau, tau), tau = (h/m) f, minimizes (m/2h)(w-u)^2 + f|w|
        # on a fine grid
        for u, f, h, m in [(2.0, 1.0, 0.1, 1.0), (-1.5, 0.7, 0.05, 2.0),
                           (0.3, 2.0, 0.02, 0.5)]:
            tau = h * f / m
            grid = np.arange(min(0.0, u) - 1e-3, max(0.0, u) + 1e-3, 1e-6)
            vals = (m / (2 * h)) * (grid - u) ** 2 + f * np.abs(grid)
            w_brute = grid[np.argmin(vals)]
            assert abs(shrink(u, tau, tau) - w_brute) <= 2e-6

    @given(u=st.floats(-1e3, 1e3), tau=st.floats(0, 1e3))
    def test_odd_and_thresholdless(self, u, tau):
        assert shrink(-u, tau, tau) == -shrink(u, tau, tau)
        assert shrink(u, 0.0, 0.0) == u

    @given(u1=st.floats(-100, 100), u2=st.floats(-100, 100),
           tau=st.floats(0, 100))
    def test_lipschitz(self, u1, u2, tau):
        assert abs(shrink(u1, tau, tau) - shrink(u2, tau, tau)) \
            <= abs(u1 - u2) * (1 + 1e-12)



def _const_forcing(b_value):
    """Forcing with b identically b_value at x = 0 (K=1, beta=b_value, T=1)."""
    return TemperatureSpringForcing(K=1.0, beta=float(b_value),
                                    T=Drive(terms=((1.0, 0.0, 0.0),)))


def _one_step(x0, b_value, p, h):
    """(t, x, v) after one simulate_euler step from rest at x0."""
    traj = simulate_euler(x0, _const_forcing(b_value), p,
                          EulerConfig(h=h, n_steps=1))
    return traj.t[-1], traj.x[-1], traj.v[-1]


def _velocity_step(v, b, p, h):
    """The kernel's velocity update from v under applied force b."""
    hm = h / p.m
    return shrink(v + hm * b, hm * p.f_s, hm * p.f_d)


class TestEulerSteps:
    def test_unified_stick(self):
        p = FrictionParams(m=1.0, f_d=1.2, f_s=1.2)
        t, x, v = _one_step(0.0, 0.9, p, 0.01)
        assert v == 0.0 and x == 0.0 and t == 0.01

    def test_unified_slip(self):
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.0)
        t, x, v = _one_step(0.0, 2.0, p, 0.01)
        assert v == pytest.approx(0.01, abs=1e-15)
        assert x == 0.0  # position advances with the old velocity

    def test_rest_equilibrium(self):
        p = FrictionParams(m=1.0, f_d=0.3, f_s=0.3)
        # b = 1*(1 - 1) = 0 at x=1
        t, x, v = _one_step(1.0, 1.0, p, 0.01)
        assert v == 0.0 and x == 1.0

    def test_two_coeff_gate_holds(self):
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        assert _one_step(0.0, 1.1, p, 0.01)[2] == 0.0

    def test_two_coeff_gate_fails_slips_with_fd(self):
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        assert _one_step(0.0, 1.3, p, 0.01)[2] == pytest.approx(0.003, abs=1e-15)

    def test_two_coeff_moving(self):
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        assert _velocity_step(0.5, 0.0, p, 0.01) == pytest.approx(0.49, abs=1e-15)

    def test_gate_tie_sticks(self):
        # |u| exactly at the gate resolves to stick (nonstrict comparison)
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        assert _one_step(0.0, 1.2, p, 0.01)[2] == 0.0

    @given(u=st.floats(-1e3, 1e3), tau=st.floats(0, 1e3))
    def test_unified_equals_degenerate_two_coeff(self, u, tau):
        # the kernel with gate == slip is the single-threshold soft threshold
        w = shrink(u, tau, tau)
        expect = _soft_threshold(u, tau)
        assert w == expect
        assert math.copysign(1.0, w) == math.copysign(1.0, expect)  # bit for bit

    @settings(max_examples=200)
    @given(v=st.floats(-2, 2), b=st.floats(-3, 3), h=st.sampled_from([0.01, 0.1]),
           m=st.floats(0.5, 2), f_d=st.floats(0, 2), gap=st.floats(0, 1))
    def test_discrete_vi_residual(self, v, b, h, m, f_d, gap):
        p = FrictionParams(m=m, f_d=f_d, f_s=f_d + gap)
        v_new = _velocity_step(v, b, p, h)
        phis = np.linspace(-3, 3, 501)
        f_eff = p.f_s if v_new == 0.0 else p.f_d
        res = vi_residual(v, v_new, b, f_eff, h, m, phis)
        assert res.max() <= 1e-12


class TestSimulateEuler:
    def test_static_forever(self):
        f = TemperatureSpringForcing(K=1.0, beta=1.0,
                                     T=Drive(terms=((0.5, 0.0, 0.0),)))
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        traj = simulate_euler(0.0, f, p, EulerConfig(h=0.01, n_steps=1000))
        assert np.all(traj.x == 0.0)
        assert np.all(traj.phase == PhaseLabel.STATIC.value)
        assert len(traj.events) == 1
        assert traj.events[0].kind == EventKind.ENTER_STATIC

    def test_first_departure_time(self, harmonic_forcing, harmonic_params):
        traj = simulate_euler(6.0, harmonic_forcing, harmonic_params,
                              EulerConfig(h=1e-4, n_steps=30000, record_every=10))
        dyn = [e for e in traj.events if e.kind == EventKind.ENTER_DYNAMIC]
        assert dyn[0].time == pytest.approx(2.574, abs=0.01)

    def test_first_return_time(self, harmonic_forcing, harmonic_params):
        traj = simulate_euler(6.0, harmonic_forcing, harmonic_params,
                              EulerConfig(h=1e-4, n_steps=140000, record_every=10))
        stat = [e for e in traj.events
                if e.kind == EventKind.ENTER_STATIC and e.time > 0]
        assert stat[0].time == pytest.approx(13.38, abs=0.05)
        # the h -> 0 stick level (independent fine-step oracle: -6.18847)
        assert stat[0].position == pytest.approx(-6.18847, abs=2e-3)

    def test_reference_markers_at_coarse_step(self, harmonic_forcing, harmonic_params):
        """The published benchmark markers are the h = 0.01 run of this exact
        scheme; they are reproduced to ~6 significant digits.  (The exact
        limit differs by O(h): stick levels -6.1885/+6.1786.)
        """
        traj = simulate_euler(6.0, harmonic_forcing, harmonic_params,
                              EulerConfig(h=0.01, n_steps=2600))
        ev = list(traj.events)
        kinds = [e.kind for e in ev]
        assert kinds == [EventKind.ENTER_STATIC, EventKind.ENTER_DYNAMIC,
                         EventKind.ENTER_STATIC, EventKind.ENTER_DYNAMIC,
                         EventKind.ENTER_STATIC]
        assert ev[1].time == pytest.approx(2.58, abs=1e-9)
        assert ev[2].time == pytest.approx(13.38, abs=1e-9)
        assert ev[2].position == pytest.approx(-6.24223, abs=1e-5)
        b1 = eval_forcing(harmonic_forcing, ev[2].position, 0.0, ev[2].time)
        assert b1 == pytest.approx(0.365928, abs=1e-6)
        assert ev[3].time == pytest.approx(14.86, abs=1e-9)
        assert ev[4].time == pytest.approx(25.75, abs=1e-9)
        assert ev[4].position == pytest.approx(6.22228, abs=5e-5)

    def test_static_branch_velocity_exactly_zero(self, harmonic_forcing, harmonic_params):
        traj = simulate_euler(6.0, harmonic_forcing, harmonic_params,
                              EulerConfig(h=0.01, n_steps=500))
        static = traj.phase == PhaseLabel.STATIC.value
        assert np.all(traj.v[static] == 0.0)

    def test_trajectory_invariants(self, harmonic_forcing, harmonic_params):
        traj = simulate_euler(6.0, harmonic_forcing, harmonic_params,
                              EulerConfig(h=0.005, n_steps=6000))
        validate_trajectory(traj, harmonic_params)
        validate_events(traj.events, harmonic_forcing, harmonic_params,
                        tol=0.005 * 10)

    def test_convergence_on_constant_forcing_slip(self):
        # slip phase with closed form x(t) = x* + (x0 - x*) cos t,
        # x* = beta*T - eps*f_d/K; error halves when h halves
        f = TemperatureSpringForcing(K=1.0, beta=1.0,
                                     T=Drive(terms=((1.0, 0.0, 0.0),)))
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.2)
        x0 = -0.5
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            n = int(round(math.pi / h))
            traj = simulate_euler(x0, f, p, EulerConfig(h=h, n_steps=n))
            closed = 0.5 + (x0 - 0.5) * np.cos(traj.t)
            errs.append(np.max(np.abs(traj.x - closed)))
        assert errs[0] / errs[1] >= 1.8
        assert errs[1] / errs[2] >= 1.8

    def test_record_every_decimation(self, harmonic_forcing, harmonic_params):
        full = simulate_euler(6.0, harmonic_forcing, harmonic_params,
                              EulerConfig(h=0.01, n_steps=100))
        dec = simulate_euler(6.0, harmonic_forcing, harmonic_params,
                             EulerConfig(h=0.01, n_steps=100, record_every=10))
        assert len(dec.t) == 11
        assert np.array_equal(dec.x, full.x[::10])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EulerConfig(h=0.0, n_steps=10)
        with pytest.raises(ValueError):
            EulerConfig(h=0.1, n_steps=0)

    def test_forcing_domain_errors_propagate(self):
        from stickslip import ou_path, perturbed_temperature
        from stickslip.model import TemperatureDomainError
        T = perturbed_temperature(0.25, 0.1, ou_path(101, 0.01, 0))  # [0, 1]
        f = TemperatureSpringForcing(K=1.0, beta=6.0, T=T)
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        with pytest.raises(TemperatureDomainError):
            simulate_euler(6.0, f, p, EulerConfig(h=0.01, n_steps=500))


# --------------------------------------------------------------------------
# Block boundaries: the blocked stepper against a per-step reference loop
# --------------------------------------------------------------------------

_P = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
_H = 0.01
_N_MAX = 2 * _BLOCK + 3


def _table_drive():
    rng = np.random.default_rng(7)
    knots = np.linspace(0.0, (_N_MAX + 1) * _H, 301)
    return Drive(knots=knots, values=np.cumsum(rng.standard_normal(301)) / 4)


def _stick_at_block_start_drive():
    """A bare table, zero but for two pulses, on which the body departs at
    step k B - 1 and sticks again at step k B + 1, the first step of a
    block (k = 1, 2)."""
    values = np.zeros(_N_MAX + 1)
    for start in (_BLOCK + 1, 2 * _BLOCK + 1):
        values[start - 2] = 2.0   # |b| = 2 > f_s from rest: depart
        values[start - 1] = -1.0  # pulls u back inside the gate: stick
    return Drive(knots=np.arange(_N_MAX + 1) * _H, values=values)


_DRIVES = {
    "shaw": lambda: HarmonicForcing(beta=6.0, Omega=0.25),
    "shaw-damped": lambda: HarmonicForcing(beta=6.0, Omega=0.25, alpha=0.05),
    "table": lambda: TemperatureSpringForcing(K=1.0, beta=6.0, T=_table_drive()),
    "ou-cosine": lambda: TemperatureSpringForcing(
        K=1.0, beta=6.0,
        T=perturbed_temperature(0.25, 0.25, ou_path(_N_MAX + 2, _H, 3))),
    "stick-at-block-start": lambda: TemperatureSpringForcing(
        K=1.0, beta=1.0, T=_stick_at_block_start_drive()),
}
_X0 = {"stick-at-block-start": 0.0}


@functools.lru_cache(maxsize=None)
def _reference(name):
    """Every step of an _N_MAX-step run, one eval_forcing per step, with the
    label-change events as (step, Event)."""
    f, x0 = _DRIVES[name](), _X0.get(name, 6.0)
    x, v = float(x0), 0.0
    rows, events = [], []
    for n in range(_N_MAX + 1):
        if n:
            v_new = _velocity_step(v, b, _P, _H)
            x = x + _H * v
            v = v_new
        t = n * _H
        b = eval_forcing(f, x, v, t)
        static = v == 0.0 and abs(b) <= _P.f_s
        if not rows or static != rows[-1][4]:
            if static:
                kind, eps = EventKind.ENTER_STATIC, 0
            else:
                kind = EventKind.ENTER_DYNAMIC
                eps = int(math.copysign(1.0, b)) if b != 0.0 else 1
            events.append((n, Event(time=t, kind=kind, position=x, epsilon=eps)))
        rows.append((t, x, v, b, static))
    return f, x0, rows, events


def _assert_matches_reference(name, n_steps, every):
    f, x0, rows, events = _reference(name)
    traj = simulate_euler(x0, f, _P, EulerConfig(h=_H, n_steps=n_steps,
                                                 record_every=every))
    kept = [n for n in range(n_steps + 1) if n % every == 0 or n == n_steps]
    t, x, v, b, static = (np.array(col) for col in zip(*(rows[n] for n in kept)))
    phase = np.where(static, PhaseLabel.STATIC.value,
                     PhaseLabel.DYNAMIC.value).astype(np.int8)
    for got, want in [(traj.t, t), (traj.x, x), (traj.v, v), (traj.b, b),
                      (traj.phase, phase),
                      (traj.friction, friction_force(_P, v, b, phase))]:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    want_events = [e for n, e in events if n <= n_steps]
    assert len(traj.events) == len(want_events)
    for got, want in zip(traj.events, want_events):
        assert (got.time, got.kind, got.position, got.epsilon) == \
            (want.time, want.kind, want.position, want.epsilon)


class TestBlockBoundaries:
    """The stepper runs in blocks of _BLOCK steps; its output must not depend
    on where a block ends."""

    @pytest.mark.parametrize("every", [1, 3, _BLOCK, _BLOCK + 1])
    @pytest.mark.parametrize("n_steps", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, _N_MAX])
    @pytest.mark.parametrize("name", ["shaw", "shaw-damped", "table", "ou-cosine"])
    def test_bit_identical_to_per_step_loop(self, name, n_steps, every):
        _assert_matches_reference(name, n_steps, every)

    def test_stick_starting_on_a_blocks_first_step(self):
        _, _, _, events = _reference("stick-at-block-start")
        assert [(n, e.kind) for n, e in events] == [
            (0, EventKind.ENTER_STATIC),
            (_BLOCK - 1, EventKind.ENTER_DYNAMIC),
            (_BLOCK + 1, EventKind.ENTER_STATIC),
            (2 * _BLOCK - 1, EventKind.ENTER_DYNAMIC),
            (2 * _BLOCK + 1, EventKind.ENTER_STATIC)]
        for every in (1, 3):
            _assert_matches_reference("stick-at-block-start", _N_MAX, every)
