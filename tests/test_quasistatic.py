import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stickslip import (
    AnalyticTemperature,
    EngineConfig,
    EventKind,
    FrictionParams,
    SampledTemperature,
    SolverCapError,
    TemperatureSeries,
    TemperatureSpringForcing,
    admissible_window,
    constant_temperature,
    ou_path,
    quasistatic_step,
    simulate_events,
    simulate_quasistatic,
    stick_levels_on_grid,
)


def _lattice_loop(temps, x0, K, beta, f_d, f_s):
    """Reference stick levels: walk the lattice x0 + k*dx one step at a time,
    up while beta*T - x > f_s/K, then down while beta*T - x < -f_s/K."""
    width = f_s / K
    dx = 2.0 * (f_s - f_d) / K
    out = np.empty(len(temps))
    k = 0
    for i, ui in enumerate((beta * np.asarray(temps, dtype=float)).tolist()):
        if dx > 0.0:
            while ui - (x0 + k * dx) > width:
                k += 1
            while ui - (x0 + k * dx) < -width:
                k -= 1
        out[i] = x0 + k * dx
    return out


def _ramp_forcing(rate=0.1, K=1.0, beta=1.0):
    return TemperatureSpringForcing(
        K=K, beta=beta, T=AnalyticTemperature(lambda t: rate * np.asarray(t)))


class TestQuasistaticStep:
    def test_ramp_example(self):
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
        s = quasistatic_step(0.0, 0.0, _ramp_forcing(), p, 50.0)
        assert s.tau_half == pytest.approx(10.0, abs=1e-6)
        assert s.eps_j == 1
        assert s.x_next == pytest.approx(1.0, abs=1e-12)
        assert s.tau_next == pytest.approx(10.0 + math.pi, abs=1e-6)

    def test_equal_coefficients_keep_level(self):
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.0)
        s = quasistatic_step(0.0, 0.0, _ramp_forcing(), p, 50.0)
        assert s.x_next == s.x_j == 0.0

    def test_static_forever(self):
        f = TemperatureSpringForcing(K=1.0, beta=1.0, T=constant_temperature(0.5))
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
        assert quasistatic_step(0.0, 0.0, f, p, 100.0) is None

    def test_sampled_inversion_is_exact(self):
        series = TemperatureSeries(np.array([0.0, 10.0, 20.0]),
                                   np.array([0.0, 2.0, 0.0]))
        f = TemperatureSpringForcing(K=1.0, beta=1.0, T=SampledTemperature(series))
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
        s = quasistatic_step(0.0, 0.0, f, p, 20.0)
        # crossing of 0.2*t = 1.0 on the interpolant
        assert s.tau_half == pytest.approx(5.0, abs=1e-12)

    def test_slip_timing_identity(self):
        p = FrictionParams(m=4.0, f_d=0.5, f_s=1.0)
        f = _ramp_forcing(K=9.0)
        s = quasistatic_step(0.0, 0.0, f, p, 50.0)
        assert s.tau_next - s.tau_half == math.pi * math.sqrt(4.0 / 9.0)


class TestAdmissibleWindow:
    def test_unit_case(self):
        assert admissible_window(0.0, 1.0, 1.0, 1.0) == (-1.0, 1.0)

    def test_shifted(self):
        lo, hi = admissible_window(2.0, 1.0, 2.0, 1.0)
        assert (lo, hi) == pytest.approx((1.5, 2.5))

    def test_scaled_beta(self):
        lo, hi = admissible_window(2.0, 1.0, 1.0, 2.0)
        assert (lo, hi) == pytest.approx((0.5, 1.5))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            admissible_window(0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            admissible_window(0.0, 1.0, -1.0, 1.0)


class TestSimulateQuasistatic:
    def test_ramp_staircase(self):
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
        traj = simulate_quasistatic(0.0, _ramp_forcing(), p, 50.0)
        levels = [e.position for e in traj.events.of_kind(EventKind.ENTER_STATIC)]
        assert levels == [0.0, 1.0, 2.0, 3.0, 4.0]
        departures = [e.time for e in traj.events.of_kind(EventKind.ENTER_DYNAMIC)]
        assert departures == pytest.approx([10.0, 20.0, 30.0, 40.0], abs=1e-6)

    def test_slip_identities_machine_precision(self):
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
        traj = simulate_quasistatic(0.0, _ramp_forcing(), p, 50.0)
        events = list(traj.events)
        for dyn, stat in zip(events[1::2], events[2::2]):
            assert dyn.kind == EventKind.ENTER_DYNAMIC
            assert stat.kind == EventKind.ENTER_STATIC
            # pi*sqrt(m/K) with m=K=1; equality up to fp dust of t ~ 30
            assert stat.time - dyn.time == pytest.approx(math.pi, abs=1e-12)
            assert abs(stat.position - dyn.position) == 1.0  # 2(fs-fd)/K

    def test_departure_meets_threshold(self):
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
        f = _ramp_forcing()
        traj = simulate_quasistatic(0.0, f, p, 50.0)
        for e in traj.events.of_kind(EventKind.ENTER_DYNAMIC):
            b = f.K * (f.beta * f.T.at(e.time) - e.position)
            assert abs(abs(b) - p.f_s) < 1e-6

    def test_equal_coefficient_window_alternation(self):
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.0)
        f = TemperatureSpringForcing(
            K=1.0, beta=1.0, T=AnalyticTemperature(lambda t: np.cos(0.05 * np.asarray(t))))
        traj = simulate_quasistatic(1.0, f, p, 200.0)
        stats = traj.events.of_kind(EventKind.ENTER_STATIC)
        assert all(e.position == 1.0 for e in stats)
        # departures happen exactly when T leaves [x0 - f/K, x0 + f/K] = [0, 2]
        for e in traj.events.of_kind(EventKind.ENTER_DYNAMIC):
            assert math.cos(0.05 * e.time) == pytest.approx(0.0, abs=1e-6)
        assert np.all(traj.x == 1.0)

    def test_slow_cosine_alternates_signs(self):
        # slip increment 2(fs-fd)/K = 1.8 exceeds the drive swing, so each
        # half-cycle of the slow cosine triggers exactly one slip
        p = FrictionParams(m=1.0, f_d=0.1, f_s=1.0)
        f = TemperatureSpringForcing(
            K=1.0, beta=1.1,
            T=AnalyticTemperature(lambda t: np.cos(0.01 * np.asarray(t))))
        traj = simulate_quasistatic(1.1, f, p, 2000.0)
        eps = [e.epsilon for e in traj.events.of_kind(EventKind.ENTER_DYNAMIC)]
        assert len(eps) >= 3
        assert all(a != b for a, b in zip(eps, eps[1:]))
        # period-2 stick levels under the symmetric window
        levels = [e.position for e in traj.events.of_kind(EventKind.ENTER_STATIC)]
        assert levels[1:3] == levels[3:5]

    def test_trajectory_invariants(self):
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
        traj = simulate_quasistatic(0.0, _ramp_forcing(), p, 50.0)
        traj.validate(p, b_tol=1e-9)

    def test_arc_is_continuous(self):
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
        traj = simulate_quasistatic(0.0, _ramp_forcing(), p, 50.0)
        assert np.max(np.abs(np.diff(traj.x))) < 0.15  # no jumps at slips

    def test_event_cap_is_a_solver_error(self):
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
        with pytest.raises(SolverCapError, match="exceeded 3 events"):
            simulate_quasistatic(0.0, _ramp_forcing(), p, 50.0, max_events=3)

    def test_quasistatic_requires_thermal(self, harmonic_forcing, harmonic_params):
        with pytest.raises(TypeError):
            simulate_quasistatic(6.0, harmonic_forcing, harmonic_params, 10.0)


class TestAgainstEventEngine:
    def test_first_slip_error_scales_linearly(self):
        # frozen-temperature error is first order in the excitation rate
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        errs = {}
        for eps_rate in (1e-2, 1e-3):
            T = AnalyticTemperature(
                lambda t, e=eps_rate: np.cos(e * np.asarray(t)))
            f = TemperatureSpringForcing(K=1.0, beta=2.0, T=T)
            t_end = math.acos(0.4) / eps_rate + 10.0
            traj = simulate_events(2.0, f, p, EngineConfig(t_end=t_end))
            stats = [e for e in traj.events.of_kind(EventKind.ENTER_STATIC)
                     if e.time > 0]
            errs[eps_rate] = abs(stats[0].position - 1.6)
        ratio = errs[1e-2] / errs[1e-3]
        assert 8.0 < ratio < 13.0


class TestStickLevelsOnGrid:
    def _random_instance(self, seed):
        rng = np.random.default_rng(seed)
        n = 4000
        times = 600.0 * np.arange(n)
        days = times / 86400.0
        temps = 60 * np.sin(2 * np.pi * days / 11) + 7 * np.sin(2 * np.pi * days) \
            + 1.2 * np.asarray(ou_path(n, 600 / 86400.0, seed).values)
        return times, temps

    @pytest.mark.parametrize("seed", [1, 5, 11])
    def test_matches_event_by_event_simulation(self, seed):
        times, temps = self._random_instance(seed)
        K, beta, f_d, f_s = 2e6, 1e-4, 5000.0, 8000.0
        series = TemperatureSeries(times, temps)
        f = TemperatureSpringForcing(K=K, beta=beta, T=SampledTemperature(series))
        p = FrictionParams(m=1.0, f_d=f_d, f_s=f_s)
        x0 = beta * temps[0]
        traj = simulate_quasistatic(x0, f, p, float(times[-1]), sample_times=times)
        assert len(traj.events.of_kind(EventKind.ENTER_DYNAMIC)) >= 3
        levels = stick_levels_on_grid(temps, x0, K, beta, f_d, f_s)
        assert np.array_equal(traj.x, levels)

    def test_scan_matches_sequential_lattice_loop(self):
        times, temps = self._random_instance(3)
        u = 1e-4 * temps
        scan = stick_levels_on_grid(temps, u[0], 2e6, 1e-4, 5000.0, 8000.0)
        loop = _lattice_loop(temps, float(u[0]), 2e6, 1e-4, 5000.0, 8000.0)
        assert np.array_equal(scan, loop)

    def test_zero_gap_holds_level(self):
        temps = np.array([0.0, 50.0, 100.0, 50.0, -50.0])
        levels = stick_levels_on_grid(temps, 0.0, 1e6, 1e-4, 8000.0, 8000.0)
        assert np.all(levels == 0.0)

    def test_zero_step_holds_x0(self):
        # f_d = f_s gives dx = 0: the level stays at x0 whatever the drive
        temps = np.array([0.0, 3.0, -7.5, 1e3, -1e3])
        levels = stick_levels_on_grid(temps, 0.25, 1.0, 1.0, 0.5, 0.5)
        assert np.array_equal(levels, np.full(5, 0.25))

    def test_bulk_update_matches_sequential(self):
        # large drive excursion forces many slips in one segment
        temps = np.array([0.0, 1000.0])
        K, beta, f_d, f_s = 1e6, 1e-4, 7999.0, 8000.0  # dx = 2e-6, tiny
        levels = stick_levels_on_grid(temps, 0.0, K, beta, f_d, f_s)
        # landing level is within the admissible window of the final drive
        assert abs(beta * temps[-1] - levels[-1]) <= f_s / K + 2e-6
        assert np.array_equal(levels, _lattice_loop(temps, 0.0, K, beta, f_d, f_s))

    def test_zero_dynamic_friction_rounding_gap(self):
        # f_d = 0 makes the window exactly one step wide (dx = 2*width); at
        # u = 1.09 rounding leaves no lattice level inside it: k = 5 is
        # 1e-17 below the window and k = 4 1e-17 above.  The level rests
        # at k = 4 whichever side the drive comes from.
        temps = np.array([1.0, 1.09, 1.3, 1.09])
        x0, K, beta, f_d, f_s = 1.0, 1.0, 1.0, 0.0, 0.01
        levels = stick_levels_on_grid(temps, x0, K, beta, f_d, f_s)
        assert levels[1] == levels[3] == x0 + 4 * 0.02
        assert np.array_equal(levels, _lattice_loop(temps, x0, K, beta, f_d, f_s))
        assert np.all(np.abs(temps - levels) <= f_s / K * (1 + 1e-12))

    @pytest.mark.parametrize("x0, f_s, share", [
        (0.0, 0.01, 0.0), (6.0, 0.3, 0.0), (0.0123, 0.004, 0.5),
        (-0.3, 0.7, 0.25), (1.0, 1.1, 0.375)])
    def test_drive_on_window_edges(self, x0, f_s, share):
        # drives on, or one or two ulps beside, the window edges of lattice
        # levels: the cases where the rounded quotient misses the bound
        rng = np.random.default_rng(7)
        dx = 2.0 * (f_s - share * f_s)
        u = x0 + rng.integers(-40, 40, 400) * dx \
            + rng.choice([-1.0, 1.0], 400) * f_s
        u += rng.integers(-2, 3, 400) * np.spacing(u)
        levels = stick_levels_on_grid(u, x0, 1.0, 1.0, share * f_s, f_s)
        assert np.array_equal(levels,
                              _lattice_loop(u, x0, 1.0, 1.0, share * f_s, f_s))

    @settings(max_examples=200, deadline=None)
    @given(temps=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=300),
           x0_offset=st.floats(-1.0, 1.0),
           K=st.floats(1e5, 1e7),
           f_s=st.floats(1e3, 3e4),
           f_d_share=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 0.95)))
    def test_scan_equals_lattice_loop(self, temps, x0_offset, K, f_s, f_d_share):
        beta = 1e-4
        f_d = f_s * f_d_share
        x0 = beta * temps[0] + x0_offset * f_s / K
        levels = stick_levels_on_grid(temps, x0, K, beta, f_d, f_s)
        assert np.array_equal(levels, _lattice_loop(temps, x0, K, beta, f_d, f_s))
        width = f_s / K
        dx = 2.0 * (f_s - f_d) / K
        # with dx = 0 the level never moves, so the drive may leave the window
        if 0.0 < dx <= 2.0 * width:
            u = beta * np.asarray(temps)
            assert np.all(np.abs(u - levels) <= width * (1 + 1e-12))
