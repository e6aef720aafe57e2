import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from reference_checks import validate_events, validate_trajectory
from stickslip import events
from stickslip import (
    Drive,
    EventKind,
    FrictionParams,
    HarmonicForcing,
    PhaseLabel,
    SolverCapError,
    TemperatureSpringForcing,
    dynamic_subphase,
    eval_forcing,
    next_departure,
    ou_path,
    perturbed_temperature,
    simulate_events,
    simulate_quasistatic,
)


# --------------------------------------------------------------------------
# Independent oracle for the undamped harmonic configuration.
#
# During a slip with sign eps the motion solves x'' + x = beta cos(Om t) - eps f_d
# (m = 1, alpha = 0), whose general solution is
#   x(t) = -eps f_d + beta/(1-Om^2) cos(Om t) + C cos(t - tau) + D sin(t - tau),
# fitted to x(tau) = x_s, x'(tau) = 0.  Event times come from brentq on x'.
# --------------------------------------------------------------------------

def _harmonic_slip_closed_form(x_s, tau, eps, beta=6.0, Om=0.25, f_d=1.0):
    """(x, v) of the slip as functions of t."""
    amp = beta / (1.0 - Om * Om)
    const = -eps * f_d
    # fit x(tau) = x_s, x'(tau) = 0
    C = x_s - const - amp * math.cos(Om * tau)
    D = amp * Om * math.sin(Om * tau)

    def x(t):
        return const + amp * math.cos(Om * t) + C * math.cos(t - tau) \
            + D * math.sin(t - tau)

    def v(t):
        return -amp * Om * math.sin(Om * t) - C * math.sin(t - tau) \
            + D * math.cos(t - tau)
    return x, v


def _harmonic_slip_oracle(x_s, tau, eps, beta=6.0, Om=0.25, f_d=1.0):
    x, v = _harmonic_slip_closed_form(x_s, tau, eps, beta, Om, f_d)
    # first zero of v after tau: scan then refine
    t = tau + 1e-6
    step = 0.05
    while v(t) * eps > 0 or t < tau + 1e-3:
        t += step
    t_stop = brentq(v, t - step, t, xtol=1e-12)
    return t_stop, x(t_stop)


def _fig_oracle():
    """Exact event chain for the harmonic benchmark (beta=6, Om=1/4, x0=6)."""
    f_s, beta, Om = 1.2, 6.0, 0.25
    tau_half = math.acos(1.0 - f_s / beta) / Om
    t1, x1 = _harmonic_slip_oracle(6.0, tau_half, eps=-1)
    # second departure: b(x1, t) = beta cos(Om t) - x1 crosses +f_s
    tau_32 = brentq(lambda t: beta * math.cos(Om * t) - x1 - f_s, t1, t1 + 5,
                    xtol=1e-12)
    t2, x2 = _harmonic_slip_oracle(x1, tau_32, eps=+1)
    return tau_half, t1, x1, tau_32, t2, x2


class TestNextDeparture:
    def test_linear_ramp(self):
        # T = 0.1 t as a two-knot table over the run
        f = TemperatureSpringForcing(
            K=1.0, beta=1.0, T=Drive(knots=[0.0, 50.0], values=[0.0, 5.0]))
        t = next_departure(0.0, 0.0, f, FrictionParams(m=1.0, f_d=1.0, f_s=1.0),
                           50.0)
        assert t == pytest.approx(10.0, abs=1e-6)

    def test_static_forever(self):
        f = TemperatureSpringForcing(K=1.0, beta=1.0,
                                     T=Drive(terms=((0.5, 0.0, 0.0),)))
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        assert math.isinf(next_departure(0.0, 0.0, f, p, 100.0))

    def test_harmonic_closed_form(self, harmonic_forcing, harmonic_params):
        t = next_departure(6.0, 0.0, harmonic_forcing, harmonic_params, 20.0)
        assert t == pytest.approx(4.0 * math.acos(0.8), abs=1e-6)

    def test_departure_after_restart(self, harmonic_forcing, harmonic_params):
        # from the second stick level the crossing is upward through +f_s
        _, t1, x1, tau_32, _, _ = _fig_oracle()
        t = next_departure(x1, t1, harmonic_forcing, harmonic_params, 30.0)
        assert t == pytest.approx(tau_32, abs=1e-6)

    @pytest.mark.parametrize("m", [0.25, 4.0])
    def test_departures_at_the_runs_mass(self, harmonic_forcing, m):
        # the departure grid is the run's scan grid, 1/64 of the slip period
        # at mass m; every stick still ends at the root of |b(x_j, t)| = f_s
        p = FrictionParams(m=m, f_d=1.0, f_s=1.2)
        traj = simulate_events(6.0, harmonic_forcing, p, 80.0)
        sticks = [(a, b) for a, b in zip(traj.events, traj.events[1:])
                  if b.kind == EventKind.ENTER_DYNAMIC]
        assert len(sticks) >= 3
        for stick, departure in sticks:
            g = lambda t: abs(6.0 * math.cos(0.25 * t) - stick.position) - 1.2
            root = brentq(g, stick.time, departure.time + 1e-3, xtol=1e-13)
            assert abs(departure.time - root) <= 1e-9

    def test_regula_falsi_cost_per_departure(self, harmonic_forcing,
                                             harmonic_params, monkeypatch):
        # the start point, one scan chunk and a few regula falsi steps, where
        # bisection from the scan step down to the root tolerance takes 27
        t_end = 650.0
        traj = simulate_events(6.0, harmonic_forcing, harmonic_params, t_end)
        calls = []
        forcing = events.eval_forcing
        monkeypatch.setattr(events, "eval_forcing",
                            lambda *args: calls.append(1) or forcing(*args))
        sticks = [(a, b) for a, b in zip(traj.events, traj.events[1:])
                  if b.kind == EventKind.ENTER_DYNAMIC]
        assert len(sticks) > 40
        for stick, departure in sticks:
            calls.clear()
            t = next_departure(stick.position, stick.time, harmonic_forcing,
                               harmonic_params, t_end)
            assert t == departure.time
            assert len(calls) <= 8


class TestDynamicSubphase:
    def setup_method(self):
        self.t_end = 50.0

    def test_constant_temperature_closed_form(self):
        f = TemperatureSpringForcing(K=1.0, beta=1.0,
                                     T=Drive(terms=((1.0, 0.0, 0.0),)))
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.5)
        sub = dynamic_subphase(-0.5, 0.0, 1, f, p, self.t_end)
        assert sub.tau_next == pytest.approx(math.pi, abs=1e-9)
        assert sub.x_next == pytest.approx(1.5, abs=1e-8)
        x_star = 0.5
        closed = x_star + (-0.5 - x_star) * np.cos(sub.path_t)
        assert np.max(np.abs(sub.path_x - closed)) < 1e-8

    def test_equal_coefficients_return_to_start(self):
        f = TemperatureSpringForcing(K=1.0, beta=1.0,
                                     T=Drive(terms=((1.0, 0.0, 0.0),)))
        p = FrictionParams(m=1.0, f_d=1.5, f_s=1.5)
        sub = dynamic_subphase(-0.5, 0.0, 1, f, p, self.t_end)
        assert sub.x_next == pytest.approx(-0.5, abs=1e-8)

    def test_free_oscillator_half_period(self):
        f = TemperatureSpringForcing(K=1.0, beta=0.0, T=Drive())
        p = FrictionParams(m=1.0, f_d=0.0, f_s=0.0)
        sub = dynamic_subphase(1.0, 0.0, -1, f, p, self.t_end)
        assert sub.tau_next == pytest.approx(math.pi, abs=1e-9)
        assert sub.x_next == pytest.approx(-1.0, abs=1e-9)

    def test_harmonic_and_temperature_spring_agree(self):
        # HarmonicForcing(6, Om, 0) and a unit spring with beta = 2 pulled by
        # T = 3 cos(Om t) are the same ODE, so the one integrator must agree
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        for x0, tau, eps, Om in [(6.0, 4.0 * math.acos(0.8), -1, 0.25),
                                 (-6.24223, 14.8577, 1, 0.25),
                                 (0.5, 1.0, 1, 0.7)]:
            harmonic = HarmonicForcing(beta=6.0, Omega=Om, alpha=0.0)
            spring = TemperatureSpringForcing(
                K=1.0, beta=2.0, T=Drive(terms=((3.0, Om, 0.0),)))
            s_h = dynamic_subphase(x0, tau, eps, harmonic, p, self.t_end)
            s_t = dynamic_subphase(x0, tau, eps, spring, p, self.t_end)
            assert abs(s_h.tau_next - s_t.tau_next) < 1e-12
            assert abs(s_h.x_next - s_t.x_next) < 1e-12

    def test_scaled_stiffness_half_period(self):
        f = TemperatureSpringForcing(K=4.0, beta=1.0,
                                     T=Drive(terms=((1.0, 0.0, 0.0),)))
        p = FrictionParams(m=1.0, f_d=1.0, f_s=2.0)
        sub = dynamic_subphase(0.0, 0.0, 1, f, p, self.t_end)
        assert sub.tau_next == pytest.approx(math.pi / 2.0, abs=1e-9)
        # x* = beta*T - eps*f_d/K = 0.75; lands at 2*x* - x0
        assert sub.x_next == pytest.approx(1.5, abs=1e-8)

    def test_harmonic_slip_matches_oracle(self, harmonic_forcing, harmonic_params):
        tau_half, t1, x1, *_ = _fig_oracle()
        sub = dynamic_subphase(6.0, tau_half, -1, harmonic_forcing,
                               harmonic_params, 30.0)
        assert sub.tau_next == pytest.approx(t1, abs=1e-5)
        assert sub.x_next == pytest.approx(x1, abs=1e-5)

    def test_second_harmonic_slip_from_reference_level(self, harmonic_forcing,
                                                       harmonic_params):
        # restarted from the coarse-run level -6.24223 the slip still ends
        # near t = 25.74; the landing level reflects the exact dynamics
        t_dep = brentq(lambda t: 6.0 * math.cos(0.25 * t) + 6.24223 - 1.2,
                       14.0, 15.5, xtol=1e-12)
        assert t_dep == pytest.approx(14.8577, abs=1e-3)
        t2_oracle, x2_oracle = _harmonic_slip_oracle(-6.24223, t_dep, eps=+1)
        sub = dynamic_subphase(-6.24223, t_dep, 1, harmonic_forcing,
                               harmonic_params, 40.0)
        assert sub.tau_next == pytest.approx(t2_oracle, abs=1e-5)
        assert sub.tau_next == pytest.approx(25.74, abs=0.05)
        assert sub.x_next == pytest.approx(x2_oracle, abs=1e-5)

    def test_horizon_truncation(self):
        f = TemperatureSpringForcing(K=1.0, beta=1.0,
                                     T=Drive(terms=((1.0, 0.0, 0.0),)))
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.5)
        sub = dynamic_subphase(-0.5, 0.0, 1, f, p, 1.0)
        assert sub.truncated
        assert sub.tau_next == 1.0

    def test_horizon_truncation_in_a_later_chunk(self, harmonic_forcing,
                                                 harmonic_params):
        # the slip lasts 10.7, longer than one chunk of 64 scan steps; the
        # horizon falls between two scan points of the second chunk
        tau_half = 4.0 * math.acos(0.8)
        t_end = tau_half + 8.0
        full = dynamic_subphase(6.0, tau_half, -1, harmonic_forcing,
                                harmonic_params, 30.0)
        cut = dynamic_subphase(6.0, tau_half, -1, harmonic_forcing,
                               harmonic_params, t_end)
        assert cut.truncated
        assert cut.tau_next == t_end
        n = len(cut.path_t) - 1
        assert n > 64
        assert np.array_equal(cut.path_t[:n], full.path_t[:n])
        np.testing.assert_allclose(cut.path_x[:n], full.path_x[:n], rtol=0,
                                   atol=1e-12)
        x, v = _harmonic_slip_closed_form(6.0, tau_half, -1)
        assert cut.x_next == pytest.approx(x(t_end), abs=1e-9)
        assert cut.path_v[-1] == pytest.approx(v(t_end), abs=1e-9)

    def test_path_samples_are_the_scan_grid(self, harmonic_forcing,
                                            harmonic_params, monkeypatch):
        # interior samples sit exactly at tau + i*step, across chunks (cut to
        # 8 steps, so that every slip crosses several) and with panels split
        # at noise breakpoints
        monkeypatch.setattr(events, "_CHUNK_STEPS", 8)
        T = perturbed_temperature(0.25, 0.25, ou_path(3001, 0.01, 0))
        noisy = TemperatureSpringForcing(K=1.0, beta=6.0, T=T)
        step = (2.0 * math.pi) / 64.0
        for f, x0, tau, eps in [(harmonic_forcing, 6.0, 4.0 * math.acos(0.8), -1),
                                (noisy, 6.0 * T.at(3.0) - 4.0, 3.0, 1)]:
            assert events._scan_step(f, harmonic_params) == step
            sub = dynamic_subphase(x0, tau, eps, f, harmonic_params, 30.0)
            i = np.arange(1, len(sub.path_t) - 1)
            assert len(i) > 2 * 8
            assert np.array_equal(sub.path_t[1:-1], tau + i * step)
            assert not sub.truncated

    @staticmethod
    def _against_adaptive_integration(f, p, x0, tau, eps, drive, t_end):
        """A sub-phase against solve_ivp on m x'' = K(beta T - x) - c x' -
        eps f_d, with T written out by ``drive``: the end and the path."""
        from scipy.integrate import solve_ivp

        def rhs(t, y):
            return [y[1], (f.K * (f.beta * drive(t) - y[0]) - f.c * y[1]
                           - eps * p.f_d) / p.m]

        def v_zero(t, y):
            return y[1]
        v_zero.terminal, v_zero.direction = True, -eps
        sol = solve_ivp(rhs, [tau, t_end], [x0, eps * 1e-14], events=v_zero,
                        rtol=1e-12, atol=1e-14, max_step=0.05, dense_output=True)
        sub = dynamic_subphase(x0, tau, eps, f, p, t_end)
        assert not sub.truncated
        assert sub.tau_next == pytest.approx(sol.t_events[0][0], abs=1e-6)
        assert sub.x_next == pytest.approx(sol.y_events[0][0][0], abs=1e-6)
        assert np.max(np.abs(sub.path_x - sol.sol(sub.path_t)[0])) < 1e-6
        assert np.max(np.abs(sub.path_v - sol.sol(sub.path_t)[1])) < 1e-6

    def test_every_drive_part_against_adaptive_integration(self):
        # a constant (the zero-frequency term), two cosine terms and a scaled
        # table that carries the ramp 0.05 t, damped: each part's closed-form
        # particular solution, summed per panel
        knots = np.linspace(0.0, 20.0, 41)
        values = np.sin(1.3 * knots) ** 2
        T = Drive(terms=((0.5, 0.0, 0.0), (1.0, 0.7, 0.3), (0.4, 1.9, -1.0)),
                  knots=knots, values=values + 0.0625 * knots, scale=0.8)
        f = TemperatureSpringForcing(K=2.0, beta=1.5, T=T, c=0.3)
        p = FrictionParams(m=1.3, f_d=0.4, f_s=0.6)

        def drive(t):
            return 0.5 + 0.05 * t + math.cos(0.7 * t + 0.3) \
                + 0.4 * math.cos(1.9 * t - 1.0) + 0.8 * np.interp(t, knots, values)
        assert eval_forcing(f, -3.0, 0.0, 2.0) > p.f_s
        self._against_adaptive_integration(f, p, -3.0, 2.0, 1, drive, 20.0)

    @pytest.mark.parametrize("K, Om", [
        (4.0, 2.0),  # the secular branch away from unit values
        (2.0, math.sqrt(2.0)),  # K - m Om^2 = -4e-16: resonant up to rounding
    ])
    def test_resonant_thermal_cosine_against_adaptive_integration(self, K, Om):
        f = TemperatureSpringForcing(K=K, beta=1.0,
                                     T=Drive(terms=((2.0, Om, 0.5),)))
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)

        def drive(t):
            return 2.0 * math.cos(Om * t + 0.5)
        assert eval_forcing(f, 3.0, 0.0, 1.0) < -p.f_s
        self._against_adaptive_integration(f, p, 3.0, 1.0, -1, drive, 20.0)

    def test_fast_thermal_cosine_sets_the_scan_step(self):
        # a drive faster than the slip oscillation, Omega = 2 > sqrt(K/m) = 1,
        # is scanned at 1/64 of its own period
        f = TemperatureSpringForcing(K=1.0, beta=6.0,
                                     T=Drive(terms=((1.0, 2.0, 0.0),)))
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        step = (2.0 * math.pi / 2.0) / 64.0
        assert events._scan_step(f, p) == step
        traj = simulate_events(6.0, f, p, 10.0)
        stick = traj.t[traj.t < traj.events[1].time]
        assert len(stick) > 5
        assert np.array_equal(stick, step * np.arange(len(stick)))

    def test_newton_cost_per_subphase_root(self, harmonic_forcing,
                                           harmonic_params, monkeypatch):
        # point evaluations after the chunk that brackets the stop, where
        # bisection from the scan step down to the root tolerance takes 27
        points = []
        point = events._LinearSubphase.eval
        monkeypatch.setattr(events._LinearSubphase, "eval",
                            lambda *args: points.append(1) or point(*args))
        traj = simulate_events(6.0, harmonic_forcing, harmonic_params,
                               650.0)
        roots = sum(e.kind in (EventKind.ENTER_STATIC, EventKind.SUBPHASE_BOUNDARY)
                    for e in traj.events) - 1
        assert roots > 40
        assert len(points) <= 5 * roots

    @settings(max_examples=60, deadline=None)
    @given(K=st.floats(0.25, 4.0), m=st.floats(0.5, 2.0),
           target=st.floats(-2.0, 2.0), f_d=st.floats(0.0, 1.0),
           gap=st.floats(0.1, 1.0), offset=st.floats(0.2, 2.0),
           sign=st.sampled_from([-1, 1]))
    def test_constant_temperature_slip_law(self, K, m, target, f_d, gap,
                                           offset, sign):
        # from any start with |b| > f_d the slip lasts pi*sqrt(m/K) and lands
        # mirrored about the shifted equilibrium x* = beta*T - eps*f_d/K
        f = TemperatureSpringForcing(K=K, beta=1.0,
                                     T=Drive(terms=((target, 0.0, 0.0),)))
        p = FrictionParams(m=m, f_d=f_d, f_s=f_d + gap)
        eps = sign
        x0 = target - eps * (f_d + offset) / K  # b(x0) = eps*(f_d + offset)
        t_end = 4.0 * math.pi * math.sqrt(m / K)
        sub = dynamic_subphase(x0, 0.0, eps, f, p, t_end)
        x_star = target - eps * f_d / K
        assert sub.tau_next == pytest.approx(math.pi * math.sqrt(m / K),
                                             abs=1e-7)
        assert sub.x_next == pytest.approx(2 * x_star - x0, abs=1e-7)

    def test_linear_ramp_closed_form_through_sampled_series(self):
        # T(t) = 0.1 t sampled at 0.25 spacing: the propagator's panels split at
        # every sample breakpoint, and the slip from x = 0 at t = 10 solves
        # x'' + x = 0.1 t - 0.5 with x(t) = 0.1t - 0.5 - 0.5 cos(t-10) - 0.1 sin(t-10)
        times = 0.25 * np.arange(81)
        f = TemperatureSpringForcing(
            K=1.0, beta=1.0, T=Drive(knots=times, values=0.1 * times))
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
        sub = dynamic_subphase(0.0, 10.0, 1, f, p, 20.0)

        def v_closed(t):
            return 0.1 + 0.5 * math.sin(t - 10.0) - 0.1 * math.cos(t - 10.0)

        t_stop = brentq(v_closed, 11.0, 14.0, xtol=1e-13)
        x_closed = 0.1 * sub.path_t - 0.5 - 0.5 * np.cos(sub.path_t - 10.0) \
            - 0.1 * np.sin(sub.path_t - 10.0)
        assert np.max(np.abs(sub.path_x - x_closed)) < 1e-10
        assert sub.tau_next == pytest.approx(t_stop, abs=1e-8)


class TestSimulateEvents:
    def test_static_forever_log(self):
        f = TemperatureSpringForcing(K=1.0, beta=1.0,
                                     T=Drive(terms=((0.5, 0.0, 0.0),)))
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        traj = simulate_events(0.0, f, p, 50.0)
        assert len(traj.events) == 1
        assert traj.events[0].kind == EventKind.ENTER_STATIC
        assert np.all(traj.x == 0.0)
        assert traj.t[-1] == 50.0

    def test_harmonic_benchmark_chain(self, harmonic_forcing, harmonic_params):
        oracle = _fig_oracle()
        traj = simulate_events(6.0, harmonic_forcing, harmonic_params,
                               26.0)
        kinds = [e.kind for e in traj.events]
        assert kinds == [EventKind.ENTER_STATIC, EventKind.ENTER_DYNAMIC,
                         EventKind.ENTER_STATIC, EventKind.ENTER_DYNAMIC,
                         EventKind.ENTER_STATIC]
        times = [e.time for e in traj.events]
        assert times[0] == 0.0
        tau_half, t1, x1, tau_32, t2, x2 = oracle
        assert times[1] == pytest.approx(tau_half, abs=1e-6)
        assert times[2] == pytest.approx(t1, abs=2e-4)
        assert times[3] == pytest.approx(tau_32, abs=2e-4)
        assert times[4] == pytest.approx(t2, abs=2e-4)
        assert traj.events[2].position == pytest.approx(x1, abs=1e-4)
        assert traj.events[4].position == pytest.approx(x2, abs=1e-4)
        assert traj.events[1].epsilon == -1
        assert traj.events[3].epsilon == 1
        validate_trajectory(traj, harmonic_params, b_tol=1e-6)
        validate_events(traj.events, harmonic_forcing, harmonic_params, tol=1e-5)

    def test_starts_dynamic_when_threshold_exceeded(self):
        f = TemperatureSpringForcing(K=1.0, beta=1.0,
                                     T=Drive(terms=((2.0, 0.0, 0.0),)))
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.5)
        traj = simulate_events(0.0, f, p, 10.0)
        assert traj.events[0].kind == EventKind.ENTER_DYNAMIC
        assert traj.events[0].time == 0.0

    def test_exact_boundary_start(self):
        # |b(x0, 0)| = f_s exactly: static with immediate departure
        f = TemperatureSpringForcing(K=1.0, beta=1.0,
                                     T=Drive(knots=[0.0, 5.0], values=[1.5, 2.0]))
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.5)
        traj = simulate_events(0.0, f, p, 5.0)
        kinds = [e.kind for e in traj.events]
        assert kinds[0] == EventKind.ENTER_STATIC
        assert kinds[1] == EventKind.ENTER_DYNAMIC
        assert traj.events[1].time == pytest.approx(0.0, abs=1e-6)

    def test_prop_isolated_zeros_and_sign_coherence(self, harmonic_forcing,
                                                    harmonic_params):
        traj = simulate_events(6.0, harmonic_forcing, harmonic_params,
                               26.0)
        self._check_subphase_samples(traj, harmonic_forcing, harmonic_params)

    def test_prop_on_noisy_run(self):
        path = ou_path(3501, 0.01, 2)
        T = perturbed_temperature(0.25, 0.25, path)
        f = TemperatureSpringForcing(K=1.0, beta=6.0, T=T)
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        traj = simulate_events(6.0, f, p, 30.0)
        assert sum(e.kind == EventKind.SUBPHASE_BOUNDARY for e in traj.events) >= 2
        self._check_subphase_samples(traj, f, p)

    @staticmethod
    def _check_subphase_samples(traj, f, p):
        """Interior slip samples: v != 0, sign(v) = eps, VI residual <= 1e-6."""
        events = list(traj.events)
        checked = 0
        for left, right in zip(events, events[1:]):
            if left.kind == EventKind.ENTER_STATIC:
                continue
            inside = (traj.t > left.time) & (traj.t < right.time)
            if not np.any(inside):  # a slip shorter than one scan step
                continue
            v = traj.v[inside]
            b = traj.b[inside]
            assert np.all(v != 0.0)
            assert np.all(np.sign(v) == left.epsilon)
            # residual of the slip inequality with acceleration from the
            # signed equation of motion
            acc = (b - left.epsilon * p.f_d) / p.m
            for phi in (-2 * np.abs(v), np.zeros_like(v), 2 * np.abs(v)):
                res = (b - p.m * acc) * (phi - v) + p.f_d * np.abs(v) \
                    - p.f_d * np.abs(phi)
                assert np.max(res) <= 1e-6
            checked += 1
        assert checked >= 1

    def test_separation_of_events(self, harmonic_forcing, harmonic_params):
        traj = simulate_events(6.0, harmonic_forcing, harmonic_params,
                               26.0)
        events = list(traj.events)
        for a, b in zip(events, events[1:]):
            assert a.time < b.time

    def test_c1_continuity_at_events(self, harmonic_forcing, harmonic_params):
        traj = simulate_events(6.0, harmonic_forcing, harmonic_params,
                               26.0)
        for e in traj.events:
            at = np.isclose(traj.t, e.time, rtol=0, atol=1e-12)
            if np.any(at):
                assert np.all(traj.v[at] == 0.0)
                assert np.allclose(traj.x[at], e.position, atol=1e-9)

    def test_cross_solver_terminal_state(self, harmonic_forcing, harmonic_params):
        from stickslip import EulerConfig, simulate_euler
        ev = simulate_events(6.0, harmonic_forcing, harmonic_params,
                             26.0)
        h = 5e-3
        eu = simulate_euler(6.0, harmonic_forcing, harmonic_params,
                            EulerConfig(h=h, n_steps=int(26.0 / h)))
        assert abs(ev.x[-1] - eu.x[-1]) < 0.05

    @staticmethod
    def _check_first_slip_against_adaptive_integration(alpha, Om, p):
        """The first slip's end against solve_ivp on the signed equation."""
        from scipy.integrate import solve_ivp
        f = HarmonicForcing(beta=6.0, Omega=Om, alpha=alpha)
        traj = simulate_events(6.0, f, p, 26.0)
        tau_half = traj.events[1].time
        assert traj.events[1].epsilon == -1

        def rhs(t, y):
            return [y[1], 6.0 * math.cos(Om * t) - 2 * alpha * y[1] - y[0] + 1.0]

        def v_zero(t, y):
            return y[1]
        v_zero.terminal, v_zero.direction = True, +1
        sol = solve_ivp(rhs, [tau_half + 1e-10, 40.0], [6.0, -1e-14],
                        events=v_zero, rtol=1e-12, atol=1e-14)
        assert traj.events[2].time == pytest.approx(sol.t_events[0][0], abs=1e-6)
        assert traj.events[2].position == pytest.approx(sol.y_events[0][0][0],
                                                        abs=1e-6)
        return traj

    def test_damped_harmonic_against_adaptive_integration(self, harmonic_params):
        # velocity-dependent damping: the underdamped propagator
        self._check_first_slip_against_adaptive_integration(0.05, 0.25,
                                                            harmonic_params)

    @pytest.mark.parametrize("alpha, Om", [
        (1.0, 0.25),  # critically damped: delta^2 = 0
        (2.0, 0.25),  # overdamped
        (0.0, 1.0),   # resonant drive: the secular particular solution
        (0.0, 1.0 - 1e-6),  # next to resonance: steady amplitude 3e6
    ])
    def test_damping_regimes_against_adaptive_integration(self, harmonic_params,
                                                          alpha, Om):
        self._check_first_slip_against_adaptive_integration(alpha, Om,
                                                            harmonic_params)

    def test_overdamped_slip_over_several_chunks(self, harmonic_params):
        # a slip of 14.8, over two natural periods: more than two chunks of 64
        # scan steps, each stepped from the last state of the one before
        traj = self._check_first_slip_against_adaptive_integration(
            4.0, 0.25, harmonic_params)
        assert traj.events[2].time - traj.events[1].time > 2 * 2 * math.pi

    def test_strongly_overdamped_slip_stays_finite(self, harmonic_params,
                                                   tmp_path):
        # alpha = 1e4: cosh(wr) and sinh(wr) overflow within one scan step
        # (w r > 710), while the creep they describe is slow and finite
        from scipy.integrate import solve_ivp
        from stickslip.cli import main
        out = tmp_path / "od"
        assert main(["simulate", "--solver", "events", "--forcing", "shaw",
                     "--alpha", "1e4", "--t-end", "30", "--out", str(out)]) == 0
        rows = np.loadtxt(tmp_path / "od.txt")
        assert len(rows) > 2 and np.all(np.isfinite(rows))

        f = HarmonicForcing(beta=6.0, Omega=0.25, alpha=1e4)
        traj = simulate_events(0.0, f, harmonic_params, 30.0)
        assert (traj.events[0].time, traj.events[0].epsilon) == (0.0, 1)

        def rhs(t, y):
            return [y[1], 6.0 * math.cos(0.25 * t) - 2e4 * y[1] - y[0] - 1.0]

        def v_zero(t, y):
            return y[1]
        v_zero.terminal, v_zero.direction = True, -1
        sol = solve_ivp(rhs, [0.0, 30.0], [0.0, 1e-14], events=v_zero,
                        method="Radau", rtol=1e-12, atol=1e-14)
        assert traj.events[1].time == pytest.approx(sol.t_events[0][0], abs=1e-6)
        assert traj.events[1].position == pytest.approx(sol.y_events[0][0][0],
                                                        abs=1e-6)

    @pytest.mark.parametrize("alpha", [1e160, 1e300])
    def test_damping_whose_square_overflows_freezes_the_slip(self,
                                                             harmonic_params,
                                                             alpha):
        # (c/2m)^2 overflows; the mass does not move, and the slip ends where
        # the quasi-steady velocity (6 cos(t/4) - 6 + f_d)/c turns to zero
        f = HarmonicForcing(beta=6.0, Omega=0.25, alpha=alpha)
        traj = simulate_events(6.0, f, harmonic_params, 30.0)
        assert np.all(traj.x == 6.0)
        assert traj.events[2].kind == EventKind.ENTER_STATIC
        assert traj.events[2].time == pytest.approx(
            (2 * math.pi - math.acos(5 / 6)) / 0.25, abs=1e-6)

    def test_damped_harmonic_euler_convergence(self, harmonic_params):
        from stickslip import EulerConfig, simulate_euler
        f = HarmonicForcing(beta=6.0, Omega=0.25, alpha=0.05)
        x_ref = simulate_events(6.0, f, harmonic_params,
                                26.0).x[-1]
        errs = []
        for h in (5e-3, 2.5e-3, 1.25e-3):
            eu = simulate_euler(6.0, f, harmonic_params,
                                EulerConfig(h=h, n_steps=int(26.0 / h)))
            errs.append(abs(eu.x[-1] - x_ref))
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.4)
        assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.4)

    def test_max_subphases_diagnostic(self, monkeypatch):
        monkeypatch.setattr(events, "_MAX_SUBPHASES", 1)
        path = ou_path(3501, 0.01, 2)  # seed with >= 2 sub-phase boundaries
        T = perturbed_temperature(0.25, 0.25, path)
        f = TemperatureSpringForcing(K=1.0, beta=6.0, T=T)
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        with pytest.raises(SolverCapError, match="exceeded 1 sub-phases"):
            simulate_events(6.0, f, p, 30.0)

    def test_trajectory_validates(self, harmonic_forcing, harmonic_params):
        traj = simulate_events(6.0, harmonic_forcing, harmonic_params,
                               26.0)
        validate_trajectory(traj, harmonic_params, b_tol=1e-6)

    def test_horizon_capped_by_forcing_domain(self):
        # a noise path shorter than t_end caps the run cleanly
        path = ou_path(1001, 0.01, 4)  # covers [0, 10]
        T = perturbed_temperature(0.25, 0.25, path)
        f = TemperatureSpringForcing(K=1.0, beta=6.0, T=T)
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        traj = simulate_events(6.0, f, p, 50.0)
        assert traj.t[-1] <= 10.0
        assert traj.t[-1] > 9.0

    @pytest.mark.parametrize("t_end", [-1.0, 0.0, math.inf, math.nan])
    def test_t_end_must_be_finite_and_positive(self, harmonic_forcing,
                                                harmonic_params, t_end):
        # simulate_events with t_end = -1 used to return one static row at
        # t = -1 with |b| > f_s and no events; every entry point that takes a
        # horizon refuses it
        f, p = harmonic_forcing, harmonic_params
        for entry in (lambda: simulate_events(6.0, f, p, t_end),
                      lambda: next_departure(6.0, 0.0, f, p, t_end),
                      lambda: dynamic_subphase(6.0, 0.0, -1, f, p, t_end),
                      lambda: simulate_quasistatic(6.0, f, p, t_end)):
            with pytest.raises(ValueError, match="t_end"):
                entry()
