import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from reference_checks import validate_trajectory
from stickslip import (
    Drive,
    EventKind,
    FrictionParams,
    HarmonicForcing,
    PhaseLabel,
    SolverCapError,
    TemperatureSpringForcing,
    next_departure,
    ou_path,
    perturbed_temperature,
    quasistatic,
    simulate_events,
    simulate_quasistatic,
    stick_levels_on_grid,
)
from stickslip.calibrate import _from_unit
from stickslip.quasistatic import monotone_runs


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


def _ramp_forcing(rate=0.1, K=1.0, beta=1.0, t_end=50.0):
    """T = rate*t as a two-knot table that covers a run to ``t_end``."""
    T = Drive(knots=[0.0, t_end], values=[0.0, rate * t_end])
    return TemperatureSpringForcing(K=K, beta=beta, T=T)


def _first_cycle(traj):
    """The first stick-plus-slip cycle: (departure event, landing event)."""
    events = traj.events
    first = next(i for i, e in enumerate(events) if e.kind == EventKind.ENTER_DYNAMIC)
    land = next((e for e in events[first:] if e.kind == EventKind.ENTER_STATIC), None)
    return events[first], land


class TestQuasistaticStep:
    """One stick-plus-slip cycle, read from the events of simulate_quasistatic."""

    def test_ramp_example(self):
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
        dyn, stat = _first_cycle(simulate_quasistatic(0.0, _ramp_forcing(), p, 50.0))
        assert dyn.time == pytest.approx(10.0, abs=1e-6)
        assert dyn.epsilon == 1
        assert stat.position == pytest.approx(1.0, abs=1e-12)
        assert stat.time == pytest.approx(10.0 + math.pi, abs=1e-6)

    def test_equal_coefficients_keep_level(self):
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.0)
        traj = simulate_quasistatic(0.0, _ramp_forcing(), p, 50.0)
        dyn, _ = _first_cycle(traj)
        assert dyn.position == 0.0
        assert np.all(traj.x == 0.0)

    def test_static_forever(self):
        f = TemperatureSpringForcing(K=1.0, beta=1.0,
                                     T=Drive(terms=((0.5, 0.0, 0.0),)))
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
        traj = simulate_quasistatic(0.0, f, p, 100.0)
        assert [e.kind for e in traj.events] == [EventKind.ENTER_STATIC]
        assert np.all(traj.phase == PhaseLabel.STATIC.value)

    def test_sampled_inversion_is_exact(self):
        f = TemperatureSpringForcing(
            K=1.0, beta=1.0, T=Drive(knots=np.array([0.0, 10.0, 20.0]),
                                     values=np.array([0.0, 2.0, 0.0])))
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
        dyn, _ = _first_cycle(simulate_quasistatic(0.0, f, p, 20.0))
        # crossing of 0.2*t = 1.0 on the interpolant
        assert dyn.time == pytest.approx(5.0, abs=1e-12)

    def test_slip_timing_identity(self):
        p = FrictionParams(m=4.0, f_d=0.5, f_s=1.0)
        f = _ramp_forcing(K=9.0)
        dyn, stat = _first_cycle(simulate_quasistatic(0.0, f, p, 50.0))
        assert stat.time - dyn.time == math.pi * math.sqrt(4.0 / 9.0)


def _exit_temperatures(x, f_s, K, beta, temperature):
    """Temperatures at which next_departure ends a stick at x, for the drive
    rising as ``temperature(t)`` and falling as ``-temperature(t)``."""
    out = []
    for sign in (-1.0, 1.0):
        T = temperature(sign)
        f = TemperatureSpringForcing(K=K, beta=beta, T=T)
        t = next_departure(x, 0.0, f, FrictionParams(m=1.0, f_d=0.0, f_s=f_s), 100.0)
        out.append(T.at(t))
    return tuple(out)


def _sampled_ramp(sign, x=0.0, beta=1.0):
    # T = x/beta + sign*t/2 on [0, 8]: the stick starts at the window's centre
    return Drive(knots=np.array([0.0, 8.0]),
                 values=np.array([x / beta, x / beta + sign * 4.0]))


class TestAdmissibleWindow:
    """A stick at x ends where beta*T leaves [x - f_s/K, x + f_s/K]."""

    def test_unit_case(self):
        assert _exit_temperatures(0.0, 1.0, 1.0, 1.0, _sampled_ramp) == (-1.0, 1.0)

    def test_shifted(self):
        lo, hi = _exit_temperatures(2.0, 1.0, 2.0, 1.0,
                                    lambda s: _sampled_ramp(s, 2.0))
        assert (lo, hi) == pytest.approx((1.5, 2.5))

    def test_scaled_beta(self):
        lo, hi = _exit_temperatures(2.0, 1.0, 1.0, 2.0,
                                    lambda s: _sampled_ramp(s, 2.0, 2.0))
        assert (lo, hi) == pytest.approx((0.5, 1.5))

    def test_rejects_bad_arguments(self):
        # the window's stiffness must be positive; beta = 0 is a valid drive
        for K in (0.0, -1.0):
            with pytest.raises(ValueError):
                TemperatureSpringForcing(K=K, beta=1.0, T=Drive())


class TestWindowSearch:
    def test_cost_is_linear_in_the_horizon(self, monkeypatch):
        # count the points the noisy drive is read at
        read = []
        at = Drive.at
        monkeypatch.setattr(Drive, "at",
                            lambda self, t: read.append(np.size(t)) or at(self, t))
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        points = {}
        for t_end in (300.0, 3000.0):
            path = ou_path(int(math.ceil(t_end / 0.01)) + 2, 0.01, 0)
            T = perturbed_temperature(0.25, 0.25, path)
            f = TemperatureSpringForcing(K=1.0, beta=6.0, T=T)
            read.clear()
            traj = simulate_quasistatic(0.0, f, p, t_end)
            assert len(traj.events) > 100 * t_end / 300.0
            points[t_end] = sum(read)
        assert points[3000.0] <= 12 * points[300.0]

    @pytest.mark.parametrize("drive", ["ramp", "noisy", "sampled"])
    def test_first_departure_matches_event_engine(self, drive):
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        x0, t_end = 6.0, 60.0
        if drive == "ramp":
            f = _ramp_forcing(t_end=t_end)
            x0 = 0.0
        elif drive == "noisy":
            T = perturbed_temperature(0.25, 0.25, ou_path(6002, 0.01, 0))
            f = TemperatureSpringForcing(K=1.0, beta=6.0, T=T)
        else:
            rng = np.random.default_rng(4)
            times = np.arange(61.0)
            T = Drive(knots=times, values=1.0 + np.cumsum(rng.normal(0, 0.2, 61)))
            f = TemperatureSpringForcing(K=1.0, beta=6.0, T=T)
            x0 = 6.0 * T.values[0]
        first = [next(e.time for e in traj.events
                      if e.kind == EventKind.ENTER_DYNAMIC) for traj in
                 (simulate_quasistatic(x0, f, p, t_end),
                  simulate_events(x0, f, p, t_end))]
        assert first[0] > 0.0
        assert first[0] == first[1]

    def test_exit_shorter_than_the_scan_step(self):
        # simulate --solver quasistatic --forcing thermal --rho 0.25 --seed 0
        # --t-end 1000: the stick at x = -0.8 from t = 18.85 has |b| > f_s for
        # less than 0.02 near t = 19.96, between two scan points 0.098 apart;
        # stepping over it would end the stick at 20.270
        t_end = 1000.0
        path = ou_path(int(math.ceil(t_end / 0.01)) + 2, 0.01, 0)
        T = perturbed_temperature(0.25, 0.25, path)
        f = TemperatureSpringForcing(K=1.0, beta=6.0, T=T)
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        events = list(simulate_quasistatic(0.0, f, p, t_end).events)
        stick = next(i for i, e in enumerate(events)
                     if e.kind == EventKind.ENTER_STATIC
                     and e.position == pytest.approx(-0.8, abs=1e-12)
                     and 18.8 < e.time < 18.9)
        departure = events[stick + 1]
        assert departure.kind == EventKind.ENTER_DYNAMIC
        assert departure.time == pytest.approx(19.957, abs=1e-3)
        # the event engine's search from the same stick agrees
        assert next_departure(-0.8, events[stick].time, f, p,
                              t_end) == departure.time

    def test_reentry_across_the_whole_window(self):
        # with f_d = f_s the slip at t = 5 lasts until the drive re-enters
        # [-1, 1]; the segment (20, 2) -> (30, -2) jumps from above the window
        # to below it between samples and crosses the upper edge at 22.5
        f = TemperatureSpringForcing(
            K=1.0, beta=1.0, T=Drive(knots=np.array([0.0, 10.0, 20.0, 30.0]),
                                     values=np.array([0.0, 2.0, 2.0, -2.0])))
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.0)
        traj = simulate_quasistatic(0.0, f, p, 30.0)
        assert [e.kind for e in traj.events] == [
            EventKind.ENTER_STATIC, EventKind.ENTER_DYNAMIC,
            EventKind.ENTER_STATIC, EventKind.ENTER_DYNAMIC]
        assert [e.time for e in traj.events] == pytest.approx([0.0, 5.0, 22.5, 27.5],
                                                    abs=1e-12)
        assert next_departure(0.0, 12.0, f, p, 30.0, reenter=True) == 22.5


class TestSimulateQuasistatic:
    def test_ramp_staircase(self):
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
        traj = simulate_quasistatic(0.0, _ramp_forcing(), p, 50.0)
        levels = [e.position for e in traj.events if e.kind == EventKind.ENTER_STATIC]
        assert levels == [0.0, 1.0, 2.0, 3.0, 4.0]
        departures = [e.time for e in traj.events if e.kind == EventKind.ENTER_DYNAMIC]
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
        for e in traj.events:
            if e.kind != EventKind.ENTER_DYNAMIC:
                continue
            b = f.K * (f.beta * f.T.at(e.time) - e.position)
            assert abs(abs(b) - p.f_s) < 1e-6

    def test_equal_coefficient_window_alternation(self):
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.0)
        f = TemperatureSpringForcing(K=1.0, beta=1.0,
                                     T=Drive(terms=((1.0, 0.05, 0.0),)))
        traj = simulate_quasistatic(1.0, f, p, 200.0)
        stats = [e for e in traj.events if e.kind == EventKind.ENTER_STATIC]
        assert all(e.position == 1.0 for e in stats)
        # departures happen exactly when T leaves [x0 - f/K, x0 + f/K] = [0, 2]
        for e in traj.events:
            if e.kind == EventKind.ENTER_DYNAMIC:
                assert math.cos(0.05 * e.time) == pytest.approx(0.0, abs=1e-6)
        assert np.all(traj.x == 1.0)

    def test_slow_cosine_alternates_signs(self):
        # slip increment 2(fs-fd)/K = 1.8 exceeds the drive swing, so each
        # half-cycle of the slow cosine triggers exactly one slip
        p = FrictionParams(m=1.0, f_d=0.1, f_s=1.0)
        f = TemperatureSpringForcing(K=1.0, beta=1.1,
                                     T=Drive(terms=((1.0, 0.01, 0.0),)))
        traj = simulate_quasistatic(1.1, f, p, 2000.0)
        eps = [e.epsilon for e in traj.events if e.kind == EventKind.ENTER_DYNAMIC]
        assert len(eps) >= 3
        assert all(a != b for a, b in zip(eps, eps[1:]))
        # period-2 stick levels under the symmetric window
        levels = [e.position for e in traj.events if e.kind == EventKind.ENTER_STATIC]
        assert levels[1:3] == levels[3:5]

    def test_trajectory_invariants(self):
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
        traj = simulate_quasistatic(0.0, _ramp_forcing(), p, 50.0)
        validate_trajectory(traj, p, b_tol=1e-9)

    def test_arc_is_continuous(self):
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
        traj = simulate_quasistatic(0.0, _ramp_forcing(), p, 50.0)
        assert np.max(np.abs(np.diff(traj.x))) < 0.15  # no jumps at slips

    def test_event_cap_is_a_solver_error(self, monkeypatch):
        monkeypatch.setattr(quasistatic, "_MAX_EVENTS", 3)
        p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
        with pytest.raises(SolverCapError, match="exceeded 3 events"):
            simulate_quasistatic(0.0, _ramp_forcing(), p, 50.0)

    def test_damped_forcing_raises(self, harmonic_params):
        # the quasistatic slip lasts half an undamped period
        damped = HarmonicForcing(beta=6.0, Omega=0.25, alpha=0.05)
        with pytest.raises(ValueError, match="undamped"):
            simulate_quasistatic(6.0, damped, harmonic_params, 10.0)


class TestAgainstEventEngine:
    def test_first_slip_error_scales_linearly(self):
        # frozen-temperature error is first order in the excitation rate
        p = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)
        errs = {}
        for eps_rate in (1e-2, 1e-3):
            T = Drive(terms=((1.0, eps_rate, 0.0),))
            f = TemperatureSpringForcing(K=1.0, beta=2.0, T=T)
            t_end = math.acos(0.4) / eps_rate + 10.0
            traj = simulate_events(2.0, f, p, t_end)
            stats = [e for e in traj.events
                     if e.kind == EventKind.ENTER_STATIC and e.time > 0]
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
        f = TemperatureSpringForcing(
            K=K, beta=beta, T=Drive(knots=times, values=temps))
        p = FrictionParams(m=1.0, f_d=f_d, f_s=f_s)
        x0 = beta * temps[0]
        events = simulate_quasistatic(x0, f, p, float(times[-1])).events
        departures = [e.time for e in events if e.kind == EventKind.ENTER_DYNAMIC]
        held = np.array([e.position for e in events
                         if e.kind == EventKind.ENTER_STATIC])
        assert len(departures) >= 3
        # a sample holds the level the last slip before it landed on
        expect = held[np.searchsorted(departures, times, side="right")]
        levels = stick_levels_on_grid(temps, x0, K, beta, f_d, f_s)
        assert np.array_equal(levels, expect)

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
    @given(temps=st.lists(st.tuples(st.floats(-100.0, 100.0), st.integers(1, 3)),
                          min_size=1, max_size=150).map(
               lambda plateaus: [v for v, n in plateaus for _ in range(n)]),
           x0_offset=st.floats(-1.0, 1.0),
           K=st.floats(1e5, 1e7),
           beta=st.one_of(st.just(1e-4), st.just(-1e-4), st.floats(-2e-4, 2e-4)),
           f_s=st.floats(1e3, 3e4),
           f_d_share=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 0.95)))
    def test_scan_equals_lattice_loop(self, temps, x0_offset, K, beta, f_s,
                                      f_d_share):
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


class TestRoundedBounds:
    """The bounds read off the rounded quotient equal the exact predicates of
    :func:`quasistatic._lattice_bounds`, which the samples near a lattice
    edge go through."""

    @settings(max_examples=300, deadline=None)
    @given(x0_offset=st.floats(-1.0, 1.0), K=st.floats(1e5, 1e7),
           beta=st.one_of(st.just(1e-4), st.floats(1e-6, 2e-4)).flatmap(
               lambda b: st.sampled_from([b, -b])),
           f_s=st.floats(1e3, 3e4),
           f_d_share=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
           log2_span=st.one_of(st.integers(0, 12), st.integers(46, 52)),
           seed=st.integers(0, 2**32 - 1))
    def test_equal_to_the_exact_predicates(self, x0_offset, K, beta, f_s,
                                           f_d_share, log2_span, seed):
        # a drive on the window edges x0 + k*dx +- width of levels k up to
        # 2**log2_span, or one or two ulps beside them, and random between
        rng = np.random.default_rng(seed)
        width, dx = f_s / K, 2.0 * (f_s - f_d_share * f_s) / K
        x0 = x0_offset * width
        k = np.floor(rng.uniform(-1.0, 1.0, 300) * 2.0 ** log2_span)
        edge = x0 + k * dx + rng.choice([-width, width], 300)
        temps = np.where(rng.random(300) < 0.8, edge,
                         x0 + rng.uniform(-1.0, 1.0, 300) * 2.0 ** log2_span * dx)
        temps = temps / beta
        temps += rng.integers(-2, 3, 300) * np.spacing(temps)
        u = beta * temps
        exact = quasistatic._lattice_bounds(u, x0, width, dx)
        with mock.patch.object(quasistatic, "_lattice_bounds",
                               wraps=quasistatic._lattice_bounds) as spy:
            got = quasistatic._rounded_bounds(u, float(np.max(np.abs(u))), x0,
                                              width, dx)
        assert np.array_equal(got[0], exact[0])
        assert np.array_equal(got[1], exact[1])
        if log2_span >= 46:  # tol passes 1/2: every sample takes the exact path
            assert len(spy.call_args.args[0]) == len(u)

    def test_no_demo_candidate_takes_the_exact_path(self, monkeypatch):
        path = Path(__file__).resolve().parent.parent / "data" / "demo_record.csv"
        temps = np.loadtxt(path, delimiter=",", comments="#", usecols=1)
        runs = monotone_runs(temps)

        def refuse(*args):
            raise AssertionError("a sample took the exact path")
        monkeypatch.setattr(quasistatic, "_lattice_bounds", refuse)
        bounds = dict(K=(2e5, 8e6), beta=(2e-5, 5e-4), f_d=(1e3, 2e4),
                      f_s=(2e3, 3e4))  # data/demo_bounds.txt
        for u in np.random.default_rng(0).random((500, 4)).tolist():
            K, beta, f_d, f_s = _from_unit(u, bounds)
            stick_levels_on_grid(temps, beta * temps[0], K, beta, f_d, f_s, runs)


# records whose run structure the turning-point scan must get right
_EDGE_RECORDS = {
    "constant": np.full(40, 2.345),
    "rising": np.linspace(-5.0, 5.0, 301),
    "falling": np.linspace(5.0, -5.0, 301),
    "one sample": np.array([4.2]),
    "two samples": np.array([-3.0, 4.1]),
    "plateau at extrema": np.concatenate((
        np.linspace(-4.0, 4.0, 50), np.full(10, 4.0), np.linspace(4.0, -4.0, 50),
        np.full(5, -4.0), np.linspace(-4.0, 2.0, 20))),
    "plateau inside runs": np.concatenate((
        np.linspace(-4.0, 0.0, 30), np.full(10, 0.0), np.linspace(0.0, 4.5, 30),
        np.linspace(4.5, 1.0, 20), np.full(7, 1.0), np.linspace(1.0, -4.5, 20))),
    "leading plateau": np.concatenate((np.full(6, 1.5), np.linspace(1.5, -3.0, 20),
                                       np.linspace(-3.0, 3.0, 20))),
}


class TestTurningPointScan:
    """The scan over run ends against the one-step-at-a-time lattice walk,
    bit for bit, on the records whose runs are degenerate."""

    @pytest.mark.parametrize("record", list(_EDGE_RECORDS))
    @pytest.mark.parametrize("beta", [1.0, -1.5, 0.0])
    @pytest.mark.parametrize("f_d", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("x0_offset", [0.0, 2.7, -3.1])
    def test_edge_records(self, record, beta, f_d, x0_offset):
        temps = _EDGE_RECORDS[record]
        x0 = beta * temps[0] + x0_offset
        levels = stick_levels_on_grid(temps, x0, 1.0, beta, f_d, 0.3)
        assert np.array_equal(levels, _lattice_loop(temps, x0, 1.0, beta, f_d, 0.3))

    def test_negative_beta_on_the_demo_record(self):
        # a box such as `beta -5e-4 5e-4` sends the DE to beta < 0
        path = Path(__file__).resolve().parent.parent / "data" / "demo_record.csv"
        temps = np.loadtxt(path, delimiter=",", comments="#", usecols=1)
        for beta, f_d in ((-3e-4, 5000.0), (-1e-4, 0.0), (0.0, 5000.0)):
            x0 = beta * temps[0]
            levels = stick_levels_on_grid(temps, x0, 2e6, beta, f_d, 8000.0)
            assert np.array_equal(
                levels, _lattice_loop(temps, x0, 2e6, beta, f_d, 8000.0))

    def test_runs_end_at_the_turning_points(self):
        temps = np.array([1.0, 2.0, 3.0, 3.0, 3.0, 2.0, 1.0, 1.0, 4.0])
        ends, run = monotone_runs(temps)
        # the last sample of each extremal plateau ends its run
        assert ends.tolist() == [0, 4, 7, 8]
        assert run.tolist() == [0, 1, 1, 1, 1, 2, 2, 2, 3]

    @pytest.mark.parametrize("record, ends", [
        ("constant", [0, 39]), ("rising", [0, 300]), ("one sample", [0]),
        ("two samples", [0, 1])])
    def test_records_without_turning_points(self, record, ends):
        assert monotone_runs(_EDGE_RECORDS[record])[0].tolist() == ends


# a parameter set of the lattice: (K, beta, f_d, f_s, x0 offset in widths)
_LATTICE_SETS = st.tuples(
    st.one_of(st.just(1.0), st.floats(1e5, 1e7)),
    st.one_of(st.just(1.0), st.just(-1.0), st.floats(-2.0, 2.0)),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 0.95)),  # f_d share
    st.floats(0.05, 2.0),  # width f_s/K
    st.one_of(st.just(0.0), st.floats(-1.0, 1.0))).map(
        lambda s: (s[0], s[1], s[2] * s[3] * s[0], s[3] * s[0], s[4]))


def _nearby(lattice_set):
    """The set with K, beta, f_d or f_s moved by up to 1e-3 relative or by
    a few ulps, or with f_s and f_d moved together, which widens or narrows
    the window on the same lattice: index sequences mostly shared, window
    edges moved."""
    K, beta, f_d, f_s, offset = lattice_set
    delta = st.one_of(st.floats(-1e-3, 1e-3), st.integers(-2, 2).map(
        lambda n: n * 2.0 ** -52))

    def move(which, rel):
        out = [K, beta, f_d, f_s]
        for i in which:
            out[i] += rel * out[i] if i < 2 else rel * f_s
        return (*out, offset)
    return st.builds(move, st.sampled_from([(0,), (1,), (2,), (3,), (2, 3),
                                            (2, 3), (2, 3)]),
                     delta).filter(lambda s: 0.0 <= s[2] <= s[3])


def _levels_and_indices(temps, lattice_set):
    """(x0, width, dx, stick levels, indices rint((level - x0)/dx) or None
    where dx is not positive) of a lattice set on a record."""
    K, beta, f_d, f_s, offset = lattice_set
    width, dx = quasistatic._lattice(K, f_d, f_s)
    x0 = beta * temps[0] + offset * width
    levels = stick_levels_on_grid(temps, x0, K, beta, f_d, f_s)
    k = np.rint((levels - x0) / dx) if dx > 0.0 else None
    return x0, width, dx, levels, k


def _edge_record(data, lattice_set):
    """A walk over the window edges of the set's lattice levels, on them or
    one or two ulps beside, and halfway inside, from a first sample at the
    window's centre."""
    K, beta, f_d, f_s, _ = lattice_set
    width, dx = quasistatic._lattice(K, f_d, f_s)
    n = data.draw(st.integers(1, 80))
    k = np.cumsum(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    side = np.array(data.draw(st.lists(st.sampled_from([-1.0, -0.5, 0.5, 1.0]),
                                       min_size=n, max_size=n)))
    u = k * (dx if dx > 0.0 else width) + side * width
    u += np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n,
                                     max_size=n))) * np.spacing(u)
    u = np.concatenate(([0.0], u))
    return u / beta if abs(beta) >= 0.01 else u


class TestStaircase:
    """A staircase kept from one parameter set and proven on another gives
    stick_levels_on_grid's bytes, or None; it gives None only where the
    index sequences differ or no lattice level fits the window."""

    @settings(max_examples=600, deadline=None)
    @given(data=st.data(), first=_LATTICE_SETS)
    def test_reuse_is_exact_and_complete(self, data, first):
        record = data.draw(st.sampled_from(["edge", "plateaus", "edge walk",
                                            "edge walk"]))
        if record == "edge":
            temps = data.draw(st.sampled_from(list(_EDGE_RECORDS.values())))
        elif record == "plateaus":
            temps = np.array(data.draw(st.lists(
                st.tuples(st.floats(-5.0, 5.0), st.integers(1, 4)),
                min_size=1, max_size=120).map(
                    lambda runs: [v for v, n in runs for _ in range(n)])))
        else:
            temps = _edge_record(data, first)
        second = data.draw(st.one_of(st.just(first), _nearby(first),
                                     _nearby(first), _LATTICE_SETS))
        x0, _, dx, levels, k1 = _levels_and_indices(temps, first)
        stair = quasistatic._Staircase.build(temps, levels, x0, dx,
                                             len(temps) + 1)
        assert (stair is None) == (k1 is None)
        if stair is None:
            return
        x0, width, dx, want, k2 = _levels_and_indices(temps, second)
        got = stair.levels(second[1], x0, width, dx)
        event("hit" if got is not None else "miss")
        if got is not None:
            assert got.tobytes() == want.tobytes()
        # a step narrower than the window by more than rounding always
        # leaves a level inside it; the sign of a zero x0 the checks cannot
        # prove
        fits = second[2] > 0.0 and dx < 2.0 * width * (1.0 - 1e-9)
        signed_zero = x0 == 0.0 and math.copysign(1.0, x0) < 0.0
        if fits and not signed_zero and k2 is not None \
                and np.array_equal(k1, k2):
            event("complete-check")
            assert got is not None

    @pytest.mark.parametrize("beta", [1.0, -1.0])
    @pytest.mark.parametrize("drive, first, second, reused", [
        # a wider window on the same lattice: the change at 0.7 is not forced
        ([0.0, 0.7, 0.5, 0.1], (0.3, 0.6), (0.45, 0.75), False),
        # a narrower one: the segment's smallest drive, 0.1, leaves it
        ([0.0, 0.7, 0.5, 0.1], (0.3, 0.6), (0.15, 0.45), False),
        # a drive exactly on a window edge is admissible
        ([0.0, 0.5, 1.0], (0.25, 0.5), (0.25, 0.5), True),
    ], ids=["wider", "narrower", "on the edges"])
    def test_each_check_decides(self, drive, first, second, reused, beta):
        # (f_d, f_s) pairs at K = 1; beta*T is the drive for either sign
        temps = beta * np.array(drive)
        x0 = beta * temps[0]
        levels = stick_levels_on_grid(temps, x0, 1.0, beta, *first)
        stair = quasistatic._Staircase.build(
            temps, levels, x0, quasistatic._lattice(1.0, *first)[1], 4)
        got = stair.levels(beta, x0, *quasistatic._lattice(1.0, *second))
        assert (got is not None) == reused
        if reused:
            want = stick_levels_on_grid(temps, x0, 1.0, beta, *second)
            assert got.tobytes() == want.tobytes()

    def test_a_negative_zero_start_is_refused(self):
        # beta*T(0) = -0.0 gives x0 = -0.0, and stick_levels_on_grid returns
        # the level at k = 0 as -0.0 or 0.0 from sample to sample within one
        # segment: a sign the predicates cannot prove
        temps = np.array([0.0, 1.0, -0.5, 0.5])
        width, dx = quasistatic._lattice(1.0, 0.3, 0.6)
        levels = stick_levels_on_grid(temps, -0.0, 1.0, -1.0, 0.3, 0.6)
        assert np.signbit(levels[2]) and not np.signbit(levels[3])
        stair = quasistatic._Staircase.build(temps, levels, -0.0, dx, 4)
        assert stair.levels(-1.0, -0.0, width, dx) is None
        want = stick_levels_on_grid(temps, 0.0, 1.0, -1.0, 0.3, 0.6)
        assert stair.levels(-1.0, 0.0, width, dx).tobytes() == want.tobytes()
