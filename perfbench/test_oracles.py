"""The benchmark's oracles against hand cases and closed forms.

    python3 -m pytest -q perfbench/test_oracles.py
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oracles import (
    NoisyTemperature,
    ShawOscillator,
    calibration_objective,
    ou_recursion,
    play_levels,
    thermal_subphase_end,
)

SHAW = ShawOscillator(m=1.0, f_d=1.0, f_s=1.2, beta=6.0, Omega=0.25)


def test_departure_from_x0_is_the_arccos_time():
    # 6 cos(t/4) - 6 = -1.2  <=>  t = 4 acos(0.8)
    assert SHAW.departure(6.0, 0.0, 20.0) == pytest.approx(4.0 * math.acos(0.8),
                                                          abs=1e-12)


def test_no_departure_when_the_stick_holds():
    held = ShawOscillator(m=1.0, f_d=1.0, f_s=7.0, beta=6.0, Omega=0.25)
    assert held.departure(0.5, 0.0, 100.0) == math.inf


@pytest.mark.parametrize("eps", [1, -1])
def test_subphase_solves_the_ode(eps):
    tau, x_tau = 3.7, 0.4 if eps > 0 else 9.0
    x, v = SHAW.subphase(tau, x_tau, eps)
    ts = tau + np.linspace(0.0, 2.0, 9)
    ref = solve_ivp(lambda t, y: (y[1], 6.0 * math.cos(0.25 * t) - y[0] - eps),
                    (tau, ts[-1]), [x_tau, 0.0], method="DOP853", t_eval=ts,
                    rtol=1e-12, atol=1e-12)
    assert np.allclose(x(ts), ref.y[0], atol=1e-9)
    assert np.allclose(v(ts), ref.y[1], atol=1e-9)


def test_subphase_end_is_the_first_velocity_zero():
    # the departure of the benchmark slips downwards (b = -1.2 at x = 6)
    t_dep = 4.0 * math.acos(0.8)
    t_stop, x_stop = SHAW.subphase_end(t_dep, 6.0, -1, 50.0)
    _, v = SHAW.subphase(t_dep, 6.0, -1)
    assert abs(float(v(t_stop))) < 1e-10
    inside = np.linspace(t_dep, t_stop, 200)[1:-1]
    assert np.all(v(inside) < 0.0)
    # the published marker of the first stick is 13.38 +- 0.05
    assert abs(t_stop - 13.38) <= 0.05
    assert x_stop < 6.0


def test_chain_alternates_and_respects_the_thresholds():
    events = SHAW.chain(6.0, 60.0)
    kinds = [e[1] for e in events]
    assert kinds[:2] == ["enter_static", "enter_dynamic"]
    phase = [k for k in kinds if k != "subphase_boundary"]
    assert all(a != b for a, b in zip(phase, phase[1:]))
    for t, kind, x, _ in events:
        b = abs(float(SHAW.force(x, t)))
        if kind == "enter_dynamic":
            assert b == pytest.approx(1.2, abs=1e-9)
        elif kind == "enter_static":
            assert b <= 1.2 + 1e-9


def test_play_levels_hand_case():
    u = np.array([0.0, 1.0, 2.45, 2.0, -1.0])
    # width 0.5, quantum 0.4: +2 quanta, +3 quanta, hold, -7 quanta
    got = play_levels(u, 0.0, 0.5, 0.4)
    assert np.allclose(got, [0.0, 0.8, 2.0, 2.0, -0.8], atol=1e-12)


def test_play_levels_moves_least_and_stays_within_the_width():
    rng = np.random.default_rng(5)
    u = np.cumsum(rng.normal(0.0, 0.3, 2000))
    width, dx = 0.5, 0.3
    x = play_levels(u, 0.0, width, dx)
    assert np.all(np.abs(u - x) <= width + 1e-12)
    # levels stay on the lattice x0 + k dx
    assert np.all(np.abs(np.round(x / dx) * dx - x) < 1e-9)
    # one quantum less would have left the drive outside the band
    moved = np.diff(x) != 0.0
    step = np.sign(np.diff(x)[moved]) * dx
    assert np.all(np.abs(u[1:][moved] - (x[1:][moved] - step)) > width - 1e-12)


def test_play_levels_without_quantum_holds():
    u = np.array([0.0, 5.0, -5.0])
    assert np.array_equal(play_levels(u, 1.0, 0.5, 0.0), [1.0, 1.0, 1.0])


def test_objective_vanishes_on_its_own_model():
    times = 600.0 * np.arange(500)
    temps = 30.0 * np.sin(times / 20000.0)
    z0, K, beta, f_d, f_s, k_bp = 1e-3, 2e6, 1e-4, 5e3, 8e3, 5e6
    u = beta * temps
    x = play_levels(u, u[0], f_s / K, 2 * (f_s - f_d) / K)
    z = z0 + x + K * (u - x) / k_bp
    params = (z0, K, beta, f_d, f_s)
    assert calibration_objective(params, times, temps, z, k_bp) == 0.0
    shifted = calibration_objective((z0 + 1e-4, K, beta, f_d, f_s), times, temps,
                                    z, k_bp)
    assert shifted == pytest.approx(1e-8 * (times[-1] + 600.0), rel=1e-9)


def test_ou_recursion_hand_case_and_prefix():
    dt = 0.01
    xi = np.random.default_rng(3).standard_normal(2)
    v = ou_recursion(np.random.default_rng(3), 3, dt)
    v1 = math.sqrt(dt) * xi[0]
    assert v[0] == 0.0
    assert v[1] == pytest.approx(v1, rel=1e-15)
    assert v[2] == pytest.approx((1 - dt) * v1 + math.sqrt(dt) * xi[1], rel=1e-15)
    longer = ou_recursion(np.random.default_rng(3), 50, dt)
    assert np.array_equal(longer[:3], v)


def test_noisy_temperature_interpolates_and_bounds_its_slope():
    noise = np.array([0.0, 1.0, -1.0, 0.5])
    T = NoisyTemperature(0.25, 0.5, noise, 0.1)
    assert float(T(0.15)) == pytest.approx(math.cos(0.0375) + 0.5 * 0.0, abs=1e-15)
    ts = np.linspace(0.0, 0.3, 301)
    slopes = np.abs(np.diff(T(ts)) / np.diff(ts))
    assert np.all(slopes <= T.lipschitz() + 1e-9)


def test_thermal_subphase_without_noise_is_shaws_closed_form():
    # rho = 0 and K = 1 turn m x'' = K (beta T - x) - eps f_d into Shaw's slip
    T = NoisyTemperature(0.25, 0.0, np.zeros(2001), 0.01)
    t_dep = 4.0 * math.acos(0.8)
    got = thermal_subphase_end(T, 1.0, 6.0, 1.0, 1.0, t_dep, 6.0, -1, 19.0)
    want = SHAW.subphase_end(t_dep, 6.0, -1, 19.0)
    assert got[0] == pytest.approx(want[0], abs=1e-8)
    assert got[1] == pytest.approx(want[1], abs=1e-8)
