"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Criterion 1 compares the exact event engine against reference
marker values that trace to a first-order fixed-step run (h = 0.01) of the
same configuration; the exact solution differs from those markers by the
generating scheme's O(h) bias, which no admissible configuration change can
reproduce, so that comparison fails by construction and is kept failing
deliberately (see the assertion message for the full numbers).
"""

import filecmp
import math
import time

import numpy as np
import pytest

from conftest import vi_residual
from reference_checks import validate_events, validate_trajectory
from stickslip import (
    CalibrationProblem,
    Drive,
    EulerConfig,
    EventKind,
    FitParams,
    FrictionParams,
    HarmonicForcing,
    TemperatureSpringForcing,
    calibrate,
    corrected_displacement,
    dynamic_subphase,
    eval_forcing,
    next_departure,
    ou_path,
    perturbed_temperature,
    shrink,
    simulate_euler,
    simulate_events,
    simulate_quasistatic,
    stick_levels_on_grid,
)
from stickslip.cli import main as cli_main

HARMONIC = HarmonicForcing(beta=6.0, Omega=0.25, alpha=0.0)
PARAMS = FrictionParams(m=1.0, f_d=1.0, f_s=1.2)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


# --------------------------------------------------------------------------
# 1. Harmonic benchmark reproduction (event engine) vs reference markers
# --------------------------------------------------------------------------

def test_criterion_01_harmonic_benchmark_event_chain():
    """Reference markers: times (2.574, 13.38, 14.86, 25.74) +- 0.05 and
    stick levels (-6.242, +6.222) +- 0.01."""
    t0 = time.time()
    traj = simulate_events(6.0, HARMONIC, PARAMS, 26.0)
    runtime = time.time() - t0

    times = [e.time for e in traj.events]
    kinds = [e.kind for e in traj.events]
    assert kinds == [EventKind.ENTER_STATIC, EventKind.ENTER_DYNAMIC,
                     EventKind.ENTER_STATIC, EventKind.ENTER_DYNAMIC,
                     EventKind.ENTER_STATIC]
    levels = [traj.events[2].position, traj.events[4].position]

    reference_times = (2.574, 13.38, 14.86, 25.74)
    reference_levels = (-6.242, 6.222)
    checks = []
    for got, want in zip(times[1:], reference_times):
        checks.append((f"t={want}", got, want, 0.05, abs(got - want) <= 0.05))
    for got, want in zip(levels, reference_levels):
        checks.append((f"x={want}", got, want, 0.01, abs(got - want) <= 0.01))

    ok = all(c[-1] for c in checks) and runtime < 1.0
    detail = (f"event chain vs reference markers, runtime {runtime:.2f}s; "
              + "; ".join(f"{name}: got {got:.4f} ({'ok' if good else 'MISS'})"
                          for name, got, want, tol, good in checks))
    _report(1, ok, detail)
    assert runtime < 1.0
    failed = [c for c in checks if not c[-1]]
    assert not failed, (
        "exact event solution differs from the reference markers by the "
        "marker-generating scheme's first-order step bias (the markers are "
        "reproduced to 6 significant digits by this package's fixed-step "
        "solver at h=0.01, see test_euler.py): "
        + ", ".join(f"{name}: got {got:.4f}, want {want}+-{tol}"
                    for name, got, want, tol, _ in failed)
        + ". Exact values verified independently by closed-form analysis "
          "and adaptive high-accuracy integration; no (Omega, x0) choice "
          "reproduces the markers under exact dynamics (best candidate is "
          "4x outside tolerance)."
    )


# --------------------------------------------------------------------------
# 2. Analytic departure time
# --------------------------------------------------------------------------

def test_criterion_02_analytic_departure_time():
    got = next_departure(6.0, 0.0, HARMONIC, PARAMS, 20.0)
    want = 4.0 * math.acos(0.8)
    ok = abs(got - want) <= 1e-6
    _report(2, ok, f"departure {got:.8f} vs arccos form {want:.8f} "
                   f"(|diff| = {abs(got - want):.2e} <= 1e-6)")
    assert ok


# --------------------------------------------------------------------------
# 3. Discrete VI exactness and soft-threshold brute force
# --------------------------------------------------------------------------

def test_criterion_03_discrete_vi_exactness():
    rng = np.random.default_rng(314159)
    phis = np.linspace(-3.0, 3.0, 2001)
    worst = -math.inf
    for k in range(10_000):
        v = rng.uniform(-2, 2)
        b = rng.uniform(-3, 3)
        h = rng.uniform(0.01, 0.1)
        m = rng.uniform(0.5, 2.0)
        f_d = rng.uniform(0.0, 2.0)
        if k % 2 == 0:
            p = FrictionParams(m=m, f_d=f_d, f_s=f_d)
        else:
            gap = rng.uniform(1e-6, 1.0)
            p = FrictionParams(m=m, f_d=f_d, f_s=f_d + gap)
        # the velocity kernel of simulate_euler: gate (h/m) f_s, slip (h/m) f_d
        hm = h / m
        v_new = shrink(v + hm * b, hm * p.f_s, hm * p.f_d)
        f_eff = p.f_s if v_new == 0.0 else p.f_d
        res = vi_residual(v, v_new, b, f_eff, h, m, phis)
        worst = max(worst, float(res.max()))
    vi_ok = worst <= 1e-12

    brute_ok = True
    for u, f, h, m in [(1.7, 1.0, 0.05, 1.0), (-0.9, 0.4, 0.02, 1.5),
                       (0.4, 2.0, 0.08, 0.7)]:
        grid = np.arange(min(0.0, u) - 1e-3, max(0.0, u) + 1e-3, 1e-6)
        energy = (m / (2 * h)) * (grid - u) ** 2 + f * np.abs(grid)
        w_brute = grid[np.argmin(energy)]
        brute_ok &= abs(shrink(u, h * f / m, h * f / m) - w_brute) <= 2e-6

    ok = vi_ok and brute_ok
    _report(3, ok, f"10^4 random steps, worst residual {worst:.2e} <= 1e-12; "
                   f"soft-threshold matches 1e-6-grid minimizer: {brute_ok}")
    assert ok


# --------------------------------------------------------------------------
# 4. Euler-to-event convergence
# --------------------------------------------------------------------------

def test_criterion_04_euler_event_convergence():
    t0 = time.time()
    x_exact = simulate_events(6.0, HARMONIC, PARAMS, 26.0).x[-1]
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3):
        traj = simulate_euler(6.0, HARMONIC, PARAMS,
                              EulerConfig(h=h, n_steps=int(round(26.0 / h))))
        errors.append(abs(traj.x[-1] - x_exact))
    runtime = time.time() - t0
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    ok = all(1.6 <= r <= 2.4 for r in ratios) and runtime < 10.0
    _report(4, ok, f"terminal-state errors {['%.4g' % e for e in errors]}, "
                   f"halving ratios {['%.3f' % r for r in ratios]} in [1.6, 2.4], "
                   f"runtime {runtime:.2f}s < 10s")
    assert ok


# --------------------------------------------------------------------------
# 5. Constant-temperature slip closed form
# --------------------------------------------------------------------------

def test_criterion_05_constant_temperature_closed_form():
    f = TemperatureSpringForcing(K=1.0, beta=1.0, T=Drive(terms=((1.0, 0.0, 0.0),)))
    p = FrictionParams(m=1.0, f_d=0.5, f_s=1.5)
    sub = dynamic_subphase(-0.5, 0.0, 1, f, p, 10.0)
    x_star = 1.0 - 0.5  # beta*T - eps*f_d/K
    closed = x_star + (-0.5 - x_star) * np.cos(sub.path_t)
    path_err = float(np.max(np.abs(sub.path_x - closed)))
    period_err = abs(sub.tau_next - math.pi)
    slip_err = abs(sub.x_next - (2 * x_star - (-0.5)))
    ok = path_err <= 1e-8 and period_err <= 1e-9 and slip_err <= 1e-12
    _report(5, ok, f"path error {path_err:.2e} <= 1e-8, half-period error "
                   f"{period_err:.2e} <= 1e-9, slip-increment error "
                   f"{slip_err:.2e} <= 1e-12")
    assert ok


# --------------------------------------------------------------------------
# 6. Quasistatic exact identities
# --------------------------------------------------------------------------

def test_criterion_06_quasistatic_identities():
    # T = 0.1 t as a two-knot table over the run
    ramp = TemperatureSpringForcing(
        K=1.0, beta=1.0, T=Drive(knots=[0.0, 50.0], values=[0.0, 5.0]))
    p = FrictionParams(m=1.0, f_d=0.5, f_s=1.0)
    traj = simulate_quasistatic(0.0, ramp, p, 50.0)
    events = list(traj.events)
    duration_err = max(abs((stat.time - dyn.time) - math.pi)
                       for dyn, stat in zip(events[1::2], events[2::2]))
    increment_err = max(abs(abs(stat.position - dyn.position) - 1.0)
                        for dyn, stat in zip(events[1::2], events[2::2]))

    p_eq = FrictionParams(m=1.0, f_d=1.0, f_s=1.0)
    traj_eq = simulate_quasistatic(0.0, ramp, p_eq, 50.0)
    levels_eq = {e.position for e in traj_eq.events if e.kind == EventKind.ENTER_STATIC}
    eq_ok = levels_eq == {0.0}

    ok = duration_err <= 1e-12 and increment_err == 0.0 and eq_ok
    _report(6, ok, f"slip duration error {duration_err:.2e} <= 1e-12, "
                   f"|dx| - 2(fs-fd)/K error {increment_err:.2e}, "
                   f"equal-threshold levels constant: {eq_ok}")
    assert ok


# --------------------------------------------------------------------------
# 7. Slip-phase structure on noisy runs
# --------------------------------------------------------------------------

def test_criterion_07_noisy_run_phase_structure():
    multi_subphase_runs = 0
    for seed in range(20):
        path = ou_path(3501, 0.01, seed)
        T = perturbed_temperature(0.25, 0.25, path)
        f = TemperatureSpringForcing(K=1.0, beta=6.0, T=T)
        traj = simulate_events(6.0, f, PARAMS, 30.0)
        validate_trajectory(traj, PARAMS, b_tol=1e-8)
        validate_events(traj.events, f, PARAMS, tol=1e-6)

        events = list(traj.events)
        # every slip entrance strictly precedes its stick successor
        for a, b in zip(events, events[1:]):
            assert a.time < b.time
        per_slip: list[int] = []  # sub-phase boundaries of each slip
        for left, right in zip(events, events[1:]):
            if left.kind == EventKind.ENTER_STATIC:
                continue
            if left.kind == EventKind.ENTER_DYNAMIC:
                per_slip.append(0)
            else:
                per_slip[-1] += 1
            inside = (traj.t > left.time) & (traj.t < right.time)
            v = traj.v[inside]
            assert np.all(v != 0.0), f"seed {seed}: interior zero velocity"
            assert np.all(np.sign(v) == left.epsilon), \
                f"seed {seed}: sign incoherence"
        if per_slip and max(per_slip) >= 2:
            multi_subphase_runs += 1
    ok = multi_subphase_runs >= 1
    _report(7, ok, f"20 seeded noisy runs: ordering and sign coherence hold; "
                   f"{multi_subphase_runs} runs show >= 2 sub-phase boundaries "
                   f"within one slip phase")
    assert ok


# --------------------------------------------------------------------------
# 8. Noise-path statistics
# --------------------------------------------------------------------------

def test_criterion_08_noise_statistics():
    path = ou_path(1_000_000, 1e-2, 123)
    late = path.values[500_000:]
    var = float(late.var())
    lag = 100
    c0 = float(np.mean(late * late))
    c1 = float(np.mean(late[:-lag] * late[lag:]))
    rho1 = c1 / c0
    target = math.exp(-1.0)
    ok = 0.45 <= var <= 0.55 and abs(rho1 - target) <= 0.2 * target
    _report(8, ok, f"late-window variance {var:.4f} in [0.45, 0.55]; "
                   f"lag-1.0 autocorrelation {rho1:.4f} within 20% of e^-1 "
                   f"= {target:.4f}")
    assert ok


# --------------------------------------------------------------------------
# 9. Calibration round-trip
# --------------------------------------------------------------------------

def test_criterion_09_calibration_round_trip():
    t0 = time.time()
    truth = FitParams(z0=0.001, K=2e6, beta=1e-4, f_d=5000.0, f_s=8000.0)
    k_bp = 5e6  # differs from K so the shear term keeps all parameters observable
    n = 12961  # 90 days at 10-minute cadence
    times = 600.0 * np.arange(n)
    days = times / 86400.0
    temps = 60 * np.sin(2 * np.pi * days / 18) + 8 * np.sin(2 * np.pi * days) \
        + 1.5 * np.asarray(ou_path(n, 600 / 86400.0, 20250810).values)
    series = Drive(knots=times, values=temps)
    # the quasistatic stick levels at the samples, and their stick force
    levels = stick_levels_on_grid(temps, truth.beta * temps[0], truth.K,
                                  truth.beta, truth.f_d, truth.f_s)
    friction = truth.K * (truth.beta * temps - levels)
    rng = np.random.default_rng(99)
    z_obs = (truth.z0 + corrected_displacement(levels, friction, k_bp)) \
        * (1.0 + 0.01 * rng.standard_normal(n))
    z_range = float(z_obs.max() - z_obs.min())

    bounds = dict(z0=(-0.05, 0.05), K=(2e5, 8e6), beta=(2e-5, 5e-4),
                  f_d=(1e3, 2e4), f_s=(2e3, 3e4))
    good = 0
    details = []
    for seed in range(10):
        prob = CalibrationProblem(temps=series, displs=z_obs, bounds=bounds,
                                  K_BP=k_bp, budget=20_000, seed=seed)
        res = calibrate(prob)
        rel = {name: abs(getattr(res.params, name) - getattr(truth, name))
               / getattr(truth, name) for name in ("K", "beta", "f_d", "f_s")}
        z0_err = abs(res.params.z0 - truth.z0)
        hit = all(v <= 0.05 for v in rel.values()) and z0_err <= 0.1 * z_range
        good += hit
        details.append(max(rel.values()))
    runtime = time.time() - t0
    ok = good >= 9 and runtime < 300.0
    _report(9, ok, f"{good}/10 restarts recover K, beta, f_d, f_s within 5% "
                   f"and z0 within 10% of range; worst relative errors per "
                   f"restart {['%.3g' % d for d in details]}; "
                   f"runtime {runtime:.0f}s < 300s")
    assert ok


# --------------------------------------------------------------------------
# 10. Seeded-command byte determinism
# --------------------------------------------------------------------------

def test_criterion_10_cli_byte_determinism(tmp_path):
    # simulate with noise, ou-gen, and a short calibration: run each twice
    pairs = []
    for tag in ("r1", "r2"):
        out = tmp_path / f"sim_{tag}"
        rc = cli_main(["simulate", "--solver", "events", "--forcing", "thermal",
                       "--K", "1", "--beta", "6", "--x0", "6", "--omega", "0.25",
                       "--rho", "0.25", "--seed", "5", "--t-end", "20",
                       "--out", str(out), "--split-phases"])
        assert rc == 0
        pairs.append(out)
    sims_equal = all(
        filecmp.cmp(str(a), str(b), shallow=False)
        for a, b in zip(sorted(tmp_path.glob("sim_r1*")),
                        sorted(tmp_path.glob("sim_r2*"))))

    for tag in ("o1", "o2"):
        assert cli_main(["ou-gen", "--n", "5000", "--dt", "0.01", "--seed", "11",
                         "--out", str(tmp_path / tag)]) == 0
    ou_equal = filecmp.cmp(tmp_path / "o1.txt", tmp_path / "o2.txt",
                           shallow=False)

    times = 600.0 * np.arange(600)
    days = times / 86400.0
    temps = 60 * np.sin(2 * np.pi * days / 3)
    data = tmp_path / "rec.csv"
    rng = np.random.default_rng(0)
    z = 1e-4 * temps + 1e-5 * rng.standard_normal(600)
    with open(data, "w") as fh:
        for row in zip(times, temps, z):
            fh.write(",".join("%.12g" % v for v in row) + "\n")
    bounds = tmp_path / "b.txt"
    bounds.write_text(
        "z0 -0.05 0.05\nK 2e5 8e6\nbeta 2e-5 5e-4\nf_d 1e3 2e4\nf_s 2e3 3e4\n")
    for tag in ("c1", "c2"):
        assert cli_main(["calibrate", "--data", str(data), "--bounds",
                         str(bounds), "--budget", "150", "--seed", "9",
                         "--kbp", "5e6", "--out", str(tmp_path / tag)]) == 0
    cal_equal = all(filecmp.cmp(tmp_path / f"c1{sfx}", tmp_path / f"c2{sfx}",
                                shallow=False)
                    for sfx in (".fit.txt", ".best.txt", ".history.txt"))

    ok = sims_equal and ou_equal and cal_equal
    _report(10, ok, f"byte-identical reruns: simulate {sims_equal}, "
                    f"ou-gen {ou_equal}, calibrate {cal_equal}")
    assert ok
